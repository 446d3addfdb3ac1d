"""Scenario parsing: contextual units, exact conversion, strict errors."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from risim.config import (
    _TRACE_PARAM_FIELDS,
    parse_duration_ms,
    parse_quantity_du,
    parse_rate_du_per_hour,
    parse_sweep_values,
    scenario_from_dict,
)
from risim.domain import ConfigError, ResourceKind, concentrator_id, meter_id
from risim.traces import TRACE_KINDS

WATER = ResourceKind.COLD_WATER
ELEC = ResourceKind.ELECTRICITY


def test_duration_units():
    assert parse_duration_ms("500ms", "t") == 500
    assert parse_duration_ms("10s", "t") == 10_000
    assert parse_duration_ms("5min", "t") == 300_000
    assert parse_duration_ms("2h", "t") == 7_200_000
    assert parse_duration_ms("7d", "t") == 604_800_000
    assert parse_duration_ms("1.5h", "t") == 5_400_000
    assert parse_duration_ms(250, "t") == 250  # bare integers are ms


def test_duration_rejects_garbage():
    for bad in ("fast", "10 parsecs", "-5s", "1.0001ms", True, 3.5):
        with pytest.raises(ConfigError):
            parse_duration_ms(bad, "t")


def test_quantities_scoped_by_kind():
    assert parse_quantity_du("100ml", WATER, "q") == 1000
    assert parse_quantity_du("1l", WATER, "q") == 10_000
    assert parse_quantity_du("10Wh", ELEC, "q") == 100
    assert parse_quantity_du("2kWh", ELEC, "q") == 20_000
    assert parse_quantity_du("5kcal", ResourceKind.HEAT, "q") == 50
    assert parse_quantity_du("10l", ResourceKind.GAS, "q") == 100
    assert parse_quantity_du("1tick", ResourceKind.GENERIC_SENSOR, "q") == 10


def test_quantity_rejects_foreign_unit():
    with pytest.raises(ConfigError) as err:
        parse_quantity_du("10Wh", WATER, "q")
    assert "Wh" in str(err.value)


def test_quantity_rejects_fractional_deciunits():
    with pytest.raises(ConfigError):
        parse_quantity_du("0.05ml", WATER, "q")
    assert parse_quantity_du("0.5ml", WATER, "q") == 5


def test_quantity_requires_units():
    with pytest.raises(ConfigError):
        parse_quantity_du(100, WATER, "q")
    assert parse_quantity_du(0, WATER, "q") == 0  # zero is unambiguous


def test_rate_parsing_exact():
    assert parse_rate_du_per_hour("600ml/h", WATER, "r") == 6000
    assert parse_rate_du_per_hour("12l/min", WATER, "r") == 7_200_000
    assert parse_rate_du_per_hour("2kWh/d", ELEC, "r") == Fraction(20_000, 24)
    assert parse_rate_du_per_hour("50l/15min", WATER, "r") == 2_000_000
    assert parse_rate_du_per_hour("0", WATER, "r") == 0
    assert parse_rate_du_per_hour(0, WATER, "r") == 0


def test_rate_rejects_missing_divisor():
    with pytest.raises(ConfigError):
        parse_rate_du_per_hour("600ml", WATER, "r")


def test_sweep_value_lists():
    assert parse_sweep_values("dr", "50ml, 100ml,200ml", WATER) == [
        (500, "50ml"), (1000, "100ml"), (2000, "200ml")
    ]
    assert parse_sweep_values("dt", "1min,1h", None) == [
        (60_000, "1min"), (3_600_000, "1h")
    ]
    with pytest.raises(ConfigError):
        parse_sweep_values("dr", "", WATER)
    with pytest.raises(ConfigError):
        parse_sweep_values("dr", "100ml", None)


def test_every_trace_parameter_has_one_file_key():
    """The per-kind lists of file keys derive from this table, so a trace
    parameter that no key sets could never be given in a file."""
    fields = [field for field, _ in _TRACE_PARAM_FIELDS.values()]
    assert sorted(fields) == sorted(name for _, names in TRACE_KINDS.values() for name in names)


def test_sweep_values_are_only_parsed():
    """A sweep's values are checked by the sweep that runs them."""
    assert parse_sweep_values("dr", "0ml", WATER) == [(0, "0ml")]
    assert parse_sweep_values("dt", "0s", None) == [(0, "0s")]


def _scenario_dict(**meter_extra):
    meter = {"serial": 1, "kind": "cold_water",
             "trace": {"kind": "constant", "params": {"rate": "1l/h"}}}
    meter.update(meter_extra)
    return {
        "seed": 5,
        "horizon": "1d",
        "buildings": [{
            "concentrators": [{"serial": 1}],
            "meters": [meter],
        }],
    }


def test_scenario_round_trip_defaults():
    sc = scenario_from_dict(_scenario_dict())
    assert sc.horizon_ms == 86_400_000
    assert sc.ti_poll_interval_ms == 3_600_000
    [meter] = sc.meters()
    assert meter.config.quantum_du == 1000  # kind default
    assert meter.config.heartbeat_interval_ms == 86_400_000
    assert len(meter.links) == 1  # implicit full visibility


def test_scenario_explicit_quantum_and_links():
    sc = scenario_from_dict(_scenario_dict(
        quantum="200ml",
        links=[{"concentrator": 1, "loss": 0.25}],
    ))
    [meter] = sc.meters()
    assert meter.config.quantum_du == 2000
    assert meter.links[0][1] == 0.25


def test_scenario_errors_name_the_meter():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_scenario_dict(quantum="0.05ml"))
    assert "meter 1" in str(err.value)
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_scenario_dict(links=[{"concentrator": 77}]))
    assert "meter 1" in str(err.value)


def _concentrator_set(**extra) -> dict:
    obj = _scenario_dict()
    obj["buildings"][0]["concentrators"][0].update(extra)
    return obj


@pytest.mark.parametrize("obj, device, message", [
    (_scenario_dict(bogus=1), "meter 1 [0x100000000000001]",
     "unknown key 'bogus' (expected "),
    (_scenario_dict(tx_cost=-1), "meter 1 [0x100000000000001]",
     "tx_cost: expected a nonnegative number, got -1"),
    (_scenario_dict(heartbeat_interval="0s"), "meter 1 [0x100000000000001]",
     "heartbeat interval must be positive"),
    (_concentrator_set(bogus=1), "concentrator 1 [0x200000000000001]",
     "unknown key 'bogus' (expected "),
    (_concentrator_set(clock_skew_ms=5000), "concentrator 1 [0x200000000000001]",
     "clock skew 5000 ms exceeds the declared bound 1000 ms"),
], ids=["meter-key", "meter-tx-cost", "meter-heartbeat", "concentrator-key",
        "concentrator-skew"])
def test_a_device_has_one_name_in_its_errors(obj, device, message):
    """The loader's own checks and the device's value checks name a device
    alike: its serial, then its id in brackets."""
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(obj)
    assert str(err.value).startswith(f"{device}: {message}")


def test_scenario_missing_pieces():
    with pytest.raises(ConfigError):
        scenario_from_dict({"buildings": []})
    with pytest.raises(ConfigError):
        scenario_from_dict({"horizon": "1d", "buildings": [{"meters": []}]})
    with pytest.raises(ConfigError):
        scenario_from_dict({"horizon": "1d", "seed": "abc",
                            "buildings": [{"concentrators": [{"serial": 1}]}]})


def test_scenario_duplicate_serials_rejected():
    d = _scenario_dict()
    d["buildings"][0]["meters"].append(dict(d["buildings"][0]["meters"][0]))
    with pytest.raises(Exception):
        scenario_from_dict(d)


def test_shipped_scenario_files_load():
    from pathlib import Path
    from risim.config import load_scenario
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(scenarios.glob("*.json"))
    assert len(files) >= 3
    for path in files:
        sc = load_scenario(path)
        assert sc.horizon_ms > 0
        assert sc.meters()



_METER_INTS = ("quantum_du", "heartbeat_interval_ms")


@pytest.mark.parametrize("field, value, shown", [
    (field, value, shown)
    for field in ("horizon_ms", "ti_poll_interval_ms", "rmse_grid_ms", *_METER_INTS)
    for value, shown in [(True, "True"), (1.5, "1.5"), ("5", "'5'"), (None, "None"),
                         (3600000.0, "3600000.0")]
    if (field, value) != ("quantum_du", None)
])
def test_an_integer_field_of_the_python_api_is_a_config_error(field, value, shown):
    """A library caller's horizon, poll interval, metric grid, quantum and
    heartbeat interval are ints, as the scenario loader reads them: anything
    else is a ConfigError naming the field, and the meter for a meter's."""
    sc = scenario_from_dict(_scenario_dict())
    meter = sc.meters()[0].config
    where = f"meter 1 [{meter.id:#x}]:" if field in _METER_INTS else "scenario"
    with pytest.raises(ConfigError) as err:
        replace(meter if field in _METER_INTS else sc, **{field: value})
    assert str(err.value) == f"{where} {field}: expected an integer, got {shown}"



_METER_NUMBERS = ("battery_capacity", "tx_cost", "idle_drain_per_hour", "drift_rate",
                  "max_flow_du_per_hour")


@pytest.mark.parametrize("field, value, shown", [
    (field, value, shown)
    for field in _METER_NUMBERS
    for value, shown in [(True, "True"), ("1.5", "'1.5'"), (None, "None"),
                         (float("inf"), "inf"), (float("nan"), "nan")]
    if (field, value) != ("max_flow_du_per_hour", None)
])
def test_a_number_field_of_the_python_api_is_a_config_error(field, value, shown):
    """A meter's battery, costs, drift and maximum flow are an int, float or
    Fraction, the rule a loss follows: a bool, a string, None (but for a
    maximum flow, where it means none is declared) or a float that is not
    finite is a ConfigError naming the meter and the field."""
    meter = scenario_from_dict(_scenario_dict()).meters()[0].config
    with pytest.raises(ConfigError) as err:
        replace(meter, **{field: value})
    assert str(err.value) == (f"meter 1 [{meter.id:#x}]: {field}: expected a nonnegative number, "
                              f"got {shown}")


@pytest.mark.parametrize("field", _METER_NUMBERS)
def test_a_number_field_of_the_python_api_is_held_exactly(field):
    meter = scenario_from_dict(_scenario_dict()).meters()[0].config
    for value in (3, 1.5, Fraction(2, 7)):
        held = getattr(replace(meter, **{field: value}), field)
        assert type(held) is Fraction and held == Fraction(value)
    assert replace(meter, max_flow_du_per_hour=None).max_flow_du_per_hour is None


@pytest.mark.parametrize("field, value, message", [
    ("quantum_du", 0, "quantum must be positive"),
    ("quantum_du", -1000, "quantum must be positive"),
    ("heartbeat_interval_ms", 0, "heartbeat interval must be positive"),
    *[(field, -1, f"{field}: expected a nonnegative number, got -1")
      for field in _METER_NUMBERS],
    ("drift_rate", Fraction(-1, 10**9),
     "drift_rate: expected a nonnegative number, got -1/1000000000"),
    ("tx_cost", -0.5, "tx_cost: expected a nonnegative number, got -0.5"),
])
def test_a_meter_range_error_is_a_config_error_naming_the_meter(field, value, message):
    """Still a ValueError, so a caller that catches ValueError catches it."""
    meter = scenario_from_dict(_scenario_dict()).meters()[0].config
    with pytest.raises(ConfigError) as err:
        replace(meter, **{field: value})
    assert str(err.value) == f"meter 1 [{meter.id:#x}]: {message}"
    assert isinstance(err.value, ValueError)


def _string_in(key: str, value: str) -> dict:
    """``_scenario_dict`` with ``value``, a string, in exact-decimal key ``key``."""
    obj = _scenario_dict()
    building = obj["buildings"][0]
    if key == "uplink_loss":
        building["concentrators"][0][key] = value
    elif key == "radio_loss":
        building[key] = value
    elif key == "loss":
        building["meters"][0]["links"] = [{"concentrator": 1, key: value}]
    else:
        building["meters"][0][key] = value
    return obj


@pytest.mark.parametrize("value", ["0", "1", "0.1"])
@pytest.mark.parametrize("key, where", [
    ("uplink_loss", f"concentrator 1 [{concentrator_id(1):#x}]: uplink_loss"),
    ("radio_loss", "building 0: radio_loss"),
    ("loss", f"meter 1 [{meter_id(1):#x}]: link loss"),
    *[(key, f"meter 1 [{meter_id(1):#x}]: {key}")
      for key in ("battery_capacity", "tx_cost", "idle_drain_per_hour", "drift_rate")],
])
def test_a_string_in_an_exact_decimal_key_is_a_config_error_naming_it(key, where, value):
    """A file's exact decimals are JSON numbers: a string of digits is
    refused, as the Python API refuses a string in the same field."""
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_string_in(key, value))
    assert str(err.value) == f"{where}: expected a number, got {value!r}"
    scenario_from_dict(_string_in(key, float(value)))


@pytest.mark.parametrize("value, shown", [(-1, "-1"), (-0.5, "-1/2")])
def test_a_number_from_a_file_is_shown_as_a_number(value, shown):
    """A file's decimals are read as exact fractions; a refusal shows one as
    ``-1/2``, not as the ``Fraction(-1, 2)`` that holds it."""
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(_scenario_dict(tx_cost=value))
    assert str(err.value).endswith(f"tx_cost: expected a nonnegative number, got {shown}")
    assert "Fraction(" not in str(err.value)
