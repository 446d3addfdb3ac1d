"""Scenario generators for the benchmark workloads.

Each generator maps a workload seed to a scenario dict in the JSON schema
``risim run`` reads.  The seed becomes the scenario seed, so it drives the
consumption traces and the channel draws; the shape of the building is
fixed per workload, which keeps the amount of work steady from seed to seed.
``smoke=True`` gives a tiny version of the same shape for quick checks.
"""

from __future__ import annotations

#: workload name -> one-line reason it is in the benchmark
WHY = {
    "district_week": (
        "the paper's normal case, a mixed building for a week: traced, the meter "
        "schedule takes about 27 % of run time and the 1-min RMSE grid 34 %, and the "
        "run holds its whole event log in memory"
    ),
    "idle_fleet": (
        "the idle-meter claim: traced, the RMSE grid takes about 74 % of run time and "
        "ti_reading records are 75 % of the log, the meter schedule 6 %, so a schedule "
        "speed-up should barely move it"
    ),
    "lossy_multipath": (
        "five lossy links per meter: per emission the most link draws (5), ingests "
        "(4.9, 61 % of them duplicates), encodes and decodes, live and in replay"
    ),
}

#: the scenarios shipped with the repository, run once per invocation untimed
SHIPPED = ("default.json", "night_idle.json", "zero_consumption_48h.json")


def _meter(serial: int, kind: str, trace: dict, **extra) -> dict:
    return {"serial": serial, "kind": kind, "trace": trace, **extra}


def _diurnal(daily_total: str) -> dict:
    return {"kind": "diurnal", "params": {"daily_total": daily_total}}


def district_week(seed: int, smoke: bool = False) -> dict:
    """One mixed building: water on diurnal traces, appliance bursts, heat."""
    meters = [
        _meter(1, "cold_water", _diurnal("100l")),
        _meter(2, "hot_water", _diurnal("40l")),
        _meter(3, "electricity", {
            "kind": "appliance",
            "params": {
                "base_rate": "100Wh/h",
                "burst_rate": "2kWh/h",
                "bursts_per_day": [3, 4],
                "burst_duration": ["20min", "30min"],
            },
        }, quantum="10Wh"),
        _meter(4, "heat", {"kind": "constant", "params": {"rate": "60kcal/h"}}),
    ]
    return {
        "seed": seed,
        "horizon": "1d" if smoke else "7d",
        "mode": "both",
        "poll_interval": "1h",
        "metric_grid": "1min",
        "buildings": [{
            "concentrators": [
                {"serial": 1},
                {"serial": 2, "clock_skew_ms": 120, "uplink_loss": 0.01},
            ],
            "radio_loss": 0.15,
            "meters": meters[:2] if smoke else meters,
        }],
    }


def idle_fleet(seed: int, smoke: bool = False) -> dict:
    """Cold-water meters that mostly sleep: half idle, half a 2 l/day trickle."""
    n = 4 if smoke else 16
    meters = [
        _meter(
            i + 1, "cold_water",
            {"kind": "zero"} if i % 2 == 0
            else {"kind": "constant", "params": {"rate": "2l/d"}},
        )
        for i in range(n)
    ]
    return {
        "seed": seed,
        "horizon": "2d" if smoke else "14d",
        "mode": "both",
        "poll_interval": "15min",
        "metric_grid": "5min",
        "buildings": [{
            "concentrators": [{"serial": 1}],
            "radio_loss": 0.02,
            "meters": meters,
        }],
    }


def lossy_multipath(seed: int, smoke: bool = False) -> dict:
    """A few diurnal meters heard by five concentrators over bad links."""
    n = 1 if smoke else 2
    return {
        "seed": seed,
        "horizon": "6h" if smoke else "4d",
        "mode": "ri",
        "metric_grid": "1min",
        "buildings": [{
            "concentrators": [
                {"serial": c, "uplink_loss": 0.02} for c in range(1, 6)
            ],
            "radio_loss": 0.5,
            "meters": [
                _meter(i + 1, "cold_water", _diurnal("150l")) for i in range(n)
            ],
        }],
    }


WORKLOADS = {
    "district_week": district_week,
    "idle_fleet": idle_fleet,
    "lossy_multipath": lossy_multipath,
}
