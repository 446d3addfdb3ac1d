"""Acceptance gate: eleven externally checkable system behaviors.

Each test is one criterion, self-contained, runnable in any order, and
prints a single verdict line.  Oracles are closed forms or the generating
process itself, never the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from risim.center import InsufficientData, MonitoringCenter
from risim.cli import main
from risim.concentrator import ConcentratorConfig
from risim.domain import (
    DEFAULT_QUANTUM_DU,
    MS_PER_DAY,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    ConcentratorReport,
    Registry,
    ResourceKind,
    concentrator_id,
    meter_id,
)
from risim.eventlog import EventKind, EventLog
from risim.meter import MeterConfig, MeterRun
from risim.simulation import (
    Building,
    ScenarioConfig,
    SimMeter,
    compare_runs,
    detail_sweep,
    run_ri,
    worst_case_load,
)
from risim.traces import ConsumptionTrace, TraceSpec, generate_trace

from oracles import accepted_sessions, battery_lifetime, record_sink, scaled, snapshot, total_du


def _verdict(num: int, name: str) -> None:
    print(f"[acceptance {num:02d}] {name}: PASS")


def _scenario(meters, horizon_ms, seed=1, loss=0.0, concentrators=None, **kw):
    concentrators = concentrators or [ConcentratorConfig(concentrator_id(1))]
    cids = [c.id for c in concentrators]
    sims = tuple(
        SimMeter(config=cfg, trace=trace, links=tuple((c, loss) for c in cids))
        for cfg, trace in meters
    )
    return ScenarioConfig(
        seed=seed,
        horizon_ms=horizon_ms,
        buildings=(Building(meters=sims, concentrators=tuple(concentrators)),),
        **kw,
    )


# ---------------------------------------------------------------------------

def test_01_conservation_and_quantization():
    """1000 random traces: emitted messages = floor(consumed / quantum),
    independent of how the trace is segmented; under 10 seconds."""
    t_start = time.monotonic()
    rng = random.Random(20250101)
    mid = meter_id(1)
    for trial in range(1000):
        quantum = rng.choice([100, 250, 1000, 3000])
        horizon = rng.randint(1, 8) * MS_PER_HOUR
        points, t = [], 0
        while t < horizon:
            rate = Fraction(rng.randint(0, 20_000), rng.randint(1, 7))
            points.append((t, rate))
            t += rng.randint(10 * MS_PER_MINUTE, 3 * MS_PER_HOUR)
        trace = ConsumptionTrace(mid, tuple(points), horizon)
        cfg = MeterConfig(id=mid, kind=ResourceKind.COLD_WATER,
                          quantum_du=quantum,
                          heartbeat_interval_ms=30 * MS_PER_DAY)
        events = [(t, session) for t, _, session, _ in MeterRun(cfg, trace).events()]
        expected = total_du(trace) // quantum
        assert len(events) == expected, f"trial {trial}"
        # refine the trace: split every segment in half, same rates
        refined = []
        for (a, rate), nxt in zip(points, points[1:] + [(horizon, None)]):
            refined.append((a, rate))
            mid_t = (a + nxt[0]) // 2
            if mid_t > a:
                refined.append((mid_t, rate))
        trace2 = ConsumptionTrace(mid, tuple(refined), horizon)
        events2 = [(t, session) for t, _, session, _ in MeterRun(cfg, trace2).events()]
        assert events2 == events, f"trial {trial}: segmentation changed emissions"
    elapsed = time.monotonic() - t_start
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _verdict(1, "conservation and quantization")


def test_02_default_quantum_table():
    """Factory defaults resolve to the documented per-kind quanta."""
    expected = {
        ResourceKind.COLD_WATER: 1000,      # 100 ml
        ResourceKind.HOT_WATER: 1000,       # 100 ml
        ResourceKind.ELECTRICITY: 100,      # 10 Wh
        ResourceKind.HEAT: 50,              # 5 kcal
        ResourceKind.GAS: 100,              # 10 l
        ResourceKind.GENERIC_SENSOR: 10,    # 1 tick
    }
    assert DEFAULT_QUANTUM_DU == expected
    for kind, quantum in expected.items():
        cfg = MeterConfig(id=meter_id(1), kind=kind)
        assert cfg.quantum_du == quantum
        registry = Registry()
        registry.add_meter(meter_id(1), kind)
        assert registry.meter(meter_id(1)).quantum_du == quantum
    _verdict(2, "default quantum table")


def test_03_exact_recovery_under_loss():
    """Across loss rates up to 0.5: known-lost sets match the true drops,
    and amounts are exact whenever the newest message got through."""
    mid = meter_id(1)
    quantum = 1000
    exact_checked = 0
    run_no = 0
    for loss in (0.05, 0.2, 0.5):
        for k in range(67):
            run_no += 1
            sc = _scenario(
                [(MeterConfig(id=mid, kind=ResourceKind.COLD_WATER,
                              quantum_du=quantum),
                  TraceSpec("diurnal", {"daily_total_du": 40_000}))],
                horizon_ms=MS_PER_DAY,
                seed=9000 + run_no,
                loss=loss,
            )
            records = []
            res = run_ri(sc, EventLog(record_sink(records)))
            emitted = {}
            for rec in records:
                if rec.kind in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT):
                    emitted[rec.payload["session"]] = rec.kind
            n_qe = sum(1 for v in emitted.values() if v is EventKind.QUANTUM_EVENT)
            assert n_qe == total_du(res.traces[mid]) // quantum
            ledger = res.center.ledgers().get(mid)
            if ledger is None or ledger.is_empty:
                continue
            accepted = {row["session"] for row in snapshot(ledger)["sessions"]}
            lost = set(emitted) - accepted
            top_accepted = max(accepted)
            recon = ledger.reconstruct(quantum, (0, sc.horizon_ms))
            gaps = {(r.first + i) % 2**32 for r in ledger.lost_runs() for i in range(r.count)}
            if max(emitted) in accepted:
                # final message delivered: everything is pinned down
                assert gaps == lost, f"run {run_no}"
                assert recon.amount_du == n_qe * quantum, f"run {run_no}"
                exact_checked += 1
            else:
                known_lost = {s for s in lost if s < top_accepted}
                assert gaps == known_lost, f"run {run_no}"
                assert recon.amount_du <= n_qe * quantum, f"run {run_no}"
    assert exact_checked >= 50  # the exact branch was genuinely exercised
    _verdict(3, "exact recovery under loss")


def test_04_multipath_dedup_equivalence():
    """150 meters heard by 3 concentrators resolve to the same ledgers as a
    single perfect listener, in any ingestion order."""
    kinds = [ResourceKind.COLD_WATER, ResourceKind.ELECTRICITY, ResourceKind.HEAT]
    rates = [5000, 800, 400]

    def meters():
        out = []
        for k in range(150):
            kind = kinds[k % 3]
            out.append((
                MeterConfig(id=meter_id(k + 1), kind=kind),
                TraceSpec("constant", {"rate_du_per_hour": rates[k % 3]}),
            ))
        return out

    tri = _scenario(
        meters(), horizon_ms=6 * MS_PER_HOUR, seed=4,
        concentrators=[ConcentratorConfig(concentrator_id(c)) for c in (1, 2, 3)],
    )
    uni = _scenario(
        meters(), horizon_ms=6 * MS_PER_HOUR, seed=4,
        concentrators=[ConcentratorConfig(concentrator_id(1))],
    )
    tri_records = []
    res_tri = run_ri(tri, EventLog(record_sink(tri_records)))
    res_uni = run_ri(uni)

    def without_report_counts(center):
        snaps = [snapshot(lg) for lg in center.ledgers().values()]
        for snap in snaps:
            for row in snap["sessions"]:
                del row["report_count"]
        return snaps

    assert without_report_counts(res_tri.center) == without_report_counts(res_uni.center)
    for lg in res_tri.center.ledgers().values():
        for rec in accepted_sessions(lg):
            assert rec.report_count == 3

    # replaying the same reports in 10 shuffled orders changes nothing
    ingests = [(bytes.fromhex(rec.payload["frame_hex"]), cid, rx_time_ms)
               for rec in tri_records
               for cid, _, *rx in rec.payload["links"] for rx_time_ms in rx]
    reference = "".join(res_tri.center.snapshots())
    rng = random.Random(2024)
    registry = tri.build_registry()
    for _ in range(10):
        rng.shuffle(ingests)
        center = MonitoringCenter(registry)
        for frame, cid, rx_time_ms in ingests:
            center.ingest(ConcentratorReport(
                frame=frame, concentrator_id=cid, rx_time_ms=rx_time_ms))
        assert "".join(center.snapshots()) == reference
    _verdict(4, "multipath dedup equivalence")


def test_05_idle_traffic_reduction():
    """48 idle hours: two daily heartbeats against 48 hourly polls."""
    sc = _scenario(
        [(MeterConfig(id=meter_id(1), kind=ResourceKind.COLD_WATER),
          TraceSpec("zero"))],
        horizon_ms=48 * MS_PER_HOUR,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    records = []
    _, _, rows = compare_runs(sc, EventLog(record_sink(records)))
    by_mode = {r.mode: r for r in rows}
    assert by_mode["ri"].message_count == 2
    assert by_mode["ti"].message_count == 48
    assert by_mode["ti"].message_count >= 20 * by_mode["ri"].message_count
    hb = [r for r in records if r.kind is EventKind.HEARTBEAT]
    assert [r.sim_time_ms for r in hb] == [MS_PER_DAY, 2 * MS_PER_DAY]
    _verdict(5, "idle traffic reduction")


def test_06_granularity_tradeoff_monotone():
    """Coarser quantum or poll interval never improves error and always
    costs fewer messages; compared exactly, no numeric tolerance."""
    meters = [(MeterConfig(id=meter_id(1), kind=ResourceKind.COLD_WATER),
               TraceSpec("diurnal", {"daily_total_du": 60_000}, seed=88))]
    sc = _scenario(meters, horizon_ms=MS_PER_DAY, seed=6)
    dr_rows = detail_sweep(sc, "dr", [
        (500, "0.5x"), (1000, "1x"), (2000, "2x"), (4000, "4x")])
    for prev, cur in zip(dr_rows, dr_rows[1:]):
        assert cur.mean_square_du >= prev.mean_square_du  # exact Fractions
        assert cur.message_count < prev.message_count
    dt_rows = detail_sweep(sc, "dt", [
        (MS_PER_MINUTE, "1min"), (10 * MS_PER_MINUTE, "10min"),
        (MS_PER_HOUR, "1h"), (MS_PER_DAY, "24h")])
    for prev, cur in zip(dt_rows, dt_rows[1:]):
        assert cur.mean_square_du >= prev.mean_square_du
        assert cur.message_count < prev.message_count
    _verdict(6, "granularity tradeoff monotone")


def test_07_district_scale_load_bound():
    """1500 meters wide open: measured peak stays at or under the aggregate
    flow-over-quantum ceiling; well under a minute to evaluate."""
    t_start = time.monotonic()
    buildings = []
    for b in range(10):
        sims = tuple(
            SimMeter(
                config=MeterConfig(
                    id=meter_id(b * 1000 + k + 1),
                    kind=ResourceKind.COLD_WATER,
                    quantum_du=1000,
                    max_flow_du_per_hour=Fraction(7_200_000),  # 12 l/min
                ),
                trace=TraceSpec("zero"),
                links=((concentrator_id(b + 1), 0.0),),
            )
            for k in range(150)
        )
        buildings.append(Building(
            meters=sims,
            concentrators=(ConcentratorConfig(concentrator_id(b + 1)),),
        ))
    sc = ScenarioConfig(seed=7, horizon_ms=MS_PER_HOUR, buildings=tuple(buildings))
    report = worst_case_load(sc)
    assert report.bound_per_second == 3000  # 1500 meters x 2 events/s
    assert report.peak_per_second <= report.bound_per_second
    assert report.peak_per_second == 3000   # the ceiling is actually reached
    assert report.total_messages == 10_800_000
    elapsed = time.monotonic() - t_start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _verdict(7, "district scale load bound")


def test_08_battery_lifetime_model():
    """Transmit-driven drain: double consumption dies sooner; a pure
    heartbeat meter lasts capacity/tx_cost intervals, within one interval."""
    cfg = MeterConfig(id=meter_id(1), kind=ResourceKind.COLD_WATER,
                      quantum_du=1000, battery_capacity=Fraction(200),
                      tx_cost=Fraction(1), heartbeat_interval_ms=30 * MS_PER_DAY)
    base = generate_trace(
        TraceSpec("diurnal", {"daily_total_du": 30_000}, seed=12),
        seed=0, horizon_ms=30 * MS_PER_DAY, meter_id=cfg.id,
    )
    life_single = battery_lifetime(cfg, base)
    life_double = battery_lifetime(cfg, scaled(base, 2))
    assert life_single is not None and life_double is not None
    assert life_double < life_single

    capacity, interval = 25, MS_PER_DAY
    hb_cfg = MeterConfig(id=meter_id(2), kind=ResourceKind.COLD_WATER,
                         battery_capacity=Fraction(capacity), tx_cost=Fraction(1),
                         heartbeat_interval_ms=interval)
    idle = ConsumptionTrace(meter_id(2), ((0, Fraction(0)),), 60 * MS_PER_DAY)
    life_idle = battery_lifetime(hb_cfg, idle)
    assert life_idle is not None
    assert abs(life_idle - capacity * interval) <= interval
    _verdict(8, "battery lifetime model")


def test_09_miscalibration_correction():
    """A sensor firing every 110 ml while believed to fire every 100 ml is
    corrected to within 0.5% from two reference readings."""
    mid = meter_id(1)
    actual_quantum, nominal_quantum = 1100, 1000
    sc = _scenario(
        [(MeterConfig(id=mid, kind=ResourceKind.COLD_WATER,
                      quantum_du=actual_quantum),
          TraceSpec("constant", {"rate_du_per_hour": 60_000}))],
        horizon_ms=48 * MS_PER_HOUR,
        seed=14,
        loss=0.1,
    )
    res = run_ri(sc)
    trace = res.traces[mid]
    ledger = res.center.ledgers()[mid]
    checkpoints = [
        (24 * MS_PER_HOUR, int(trace.cumulative_du(24 * MS_PER_HOUR))),
        (48 * MS_PER_HOUR, int(trace.cumulative_du(48 * MS_PER_HOUR))),
    ]
    scale = ledger.correct_drift(nominal_quantum, checkpoints)
    assert scale == pytest.approx(1.1, rel=0.005)
    for t_check in (30 * MS_PER_HOUR, 42 * MS_PER_HOUR):
        recon = ledger.reconstruct(nominal_quantum, (0, t_check))
        corrected = scale * recon.amount_du
        truth = float(trace.cumulative_du(t_check))
        assert abs(corrected - truth) / truth <= 0.005
    _verdict(9, "miscalibration correction")


def test_10_deterministic_replay(tmp_path):
    """Same scenario, same seed: byte-identical logs; and the log alone
    rebuilds the ledgers exactly."""
    scenario = {
        "seed": 77,
        "horizon": "1d",
        "mode": "both",
        "buildings": [{
            "concentrators": [{"serial": 1}, {"serial": 2}],
            "radio_loss": 0.25,
            "meters": [
                {"serial": 1, "kind": "cold_water",
                 "trace": {"kind": "diurnal", "params": {"daily_total": "150l"}}},
                {"serial": 2, "kind": "electricity",
                 "trace": {"kind": "appliance",
                           "params": {"burst_rate": "2kWh/h"}}},
            ],
        }],
    }
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(scenario))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(scn), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "events.ndjson").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    assert main(["replay", str(tmp_path / "a")]) == 0
    # the log is the source of truth: a one-field edit must be caught
    log = tmp_path / "a" / "events.ndjson"
    lines = log.read_text().splitlines()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        ingests = [link for link in obj["payload"].get("links", ()) if len(link) == 3]
        if ingests:
            ingests[0][2] += 1
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            break
    log.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(tmp_path / "a")]) == 1
    _verdict(10, "deterministic replay")


def test_11_profile_guided_restoration():
    """Lost-event timestamps: habit-weighted placement beats uniform
    placement on average over 100 paired lossy runs, and every estimate
    stays strictly inside its bracketing receptions."""
    mid = meter_id(1)
    two_peak = [1, 1, 1, 1, 1, 2, 8, 20, 8, 2, 1, 1,
                1, 1, 1, 2, 8, 20, 8, 2, 1, 1, 1, 1]
    mae_uniform = 0.0
    mae_profile = 0.0
    usable = 0
    for seed in range(100):
        sc = _scenario(
            [(MeterConfig(id=mid, kind=ResourceKind.COLD_WATER, quantum_du=1000),
              TraceSpec("diurnal", {"daily_total_du": 40_000, "jitter_pct": 5,
                                    "shape": two_peak}))],
            horizon_ms=3 * MS_PER_DAY,
            seed=31_000 + seed,
            loss=0.2,
        )
        records = []
        res = run_ri(sc, EventLog(record_sink(records)))
        ledger = res.center.ledgers().get(mid)
        if ledger is None or ledger.is_empty:
            continue
        try:
            profile = ledger.build_profile()
        except InsufficientData:
            continue
        true_time = {
            rec.payload["session"]: rec.sim_time_ms
            for rec in records
            if rec.kind in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT)
        }
        by_wire = {row["session"]: row for row in snapshot(ledger)["sessions"]}
        run_uni = run_pro = 0.0
        n_lost = 0
        for run in ledger.lost_runs():
            uni = ledger.interpolate_lost_times(run)
            pro = ledger.interpolate_lost_times(run, profile)
            lower = by_wire.get(run.first - 1)
            upper = by_wire.get(run.first + run.count)
            t_lo = lower["rx_time_ms"] if lower is not None else 0
            t_hi = upper["rx_time_ms"]
            for (s_u, t_u), (s_p, t_p) in zip(uni, pro):
                assert s_u == s_p
                assert t_lo < t_u < t_hi
                assert t_lo < t_p < t_hi
                run_uni += abs(t_u - true_time[s_u])
                run_pro += abs(t_p - true_time[s_p])
                n_lost += 1
        if n_lost == 0:
            continue
        usable += 1
        mae_uniform += run_uni / n_lost
        mae_profile += run_pro / n_lost
    assert usable >= 90
    assert mae_profile <= mae_uniform
    _verdict(11, "profile guided restoration")
