"""Engine end-to-end properties: conservation, determinism, load, sweeps."""

from __future__ import annotations

import cProfile
import enum
import fractions
import importlib.util
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risim import simulation
from risim.cli import METRICS_HEADER, _metrics_rows
from risim.concentrator import ConcentratorConfig, receive
from risim.config import scenario_from_dict
from risim.domain import (
    ConfigError,
    MS_PER_DAY,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    MessageType,
    MeterMessage,
    MeterState,
    ResourceKind,
    concentrator_id,
    decode_frame,
    encode_frame,
    frame_header,
    meter_id,
)
from risim.eventlog import EventKind, EventLog, read_events, replay_center, write_csv
from risim.meter import MeterConfig, MeterRun
from risim.simulation import (
    Building,
    ScenarioConfig,
    SimMeter,
    TI_READING_BYTES,
    _step_mean_square,
    _ti_lifetime_estimate,
    _ti_polls_sent,
    compare_runs,
    detail_sweep,
    reconstruction_steps,
    rmse_text,
    run_ri,
    run_ti,
    worst_case_load,
)
from risim.traces import DIURNAL_SHAPE, ConsumptionTrace, TraceSpec, generate_trace

from oracles import (EventLogRecord, ReferenceRun, accepted_count, accepted_sessions,
                     consumed_between, from_json, grid_mean_square, grid_steps,
                     piecewise_mean_square, read_csv, record_sink, snapshot, time_steps,
                     total_du, write_records)

CID = concentrator_id(1)


def _scenario(meters, horizon_ms, seed=11, loss=0.0, concentrators=None, **kw):
    concentrators = concentrators or [ConcentratorConfig(CID)]
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


def _water(serial, **kw):
    return MeterConfig(id=meter_id(serial), kind=ResourceKind.COLD_WATER, **kw)


# ---------------------------------------------------------------------------
# trace generation

def test_constant_trace_closed_form():
    spec = TraceSpec("constant", {"rate_du_per_hour": 6000})
    trace = generate_trace(spec, seed=1, horizon_ms=2 * MS_PER_HOUR)
    assert trace.cumulative_du(MS_PER_HOUR) == 6000
    assert trace.cumulative_du(90 * MS_PER_MINUTE) == 9000
    assert total_du(trace) == 12000


def test_zero_trace_consumes_nothing():
    trace = generate_trace(TraceSpec("zero"), seed=1, horizon_ms=MS_PER_DAY)
    assert total_du(trace) == 0


def test_diurnal_total_within_jitter_envelope():
    spec = TraceSpec("diurnal", {"daily_total_du": 100_000, "jitter_pct": 20})
    trace = generate_trace(spec, seed=3, horizon_ms=MS_PER_DAY)
    assert 80_000 <= total_du(trace) <= 120_000


def test_diurnal_evening_beats_predawn():
    # shape weight 12 at hour 18 vs 1 at hour 3: 20% jitter cannot flip it
    assert DIURNAL_SHAPE[18] / DIURNAL_SHAPE[3] > 1.5
    spec = TraceSpec("diurnal", {"daily_total_du": 100_000})
    trace = generate_trace(spec, seed=5, horizon_ms=MS_PER_DAY)
    evening = consumed_between(trace, 18 * MS_PER_HOUR, 19 * MS_PER_HOUR)
    predawn = consumed_between(trace, 3 * MS_PER_HOUR, 4 * MS_PER_HOUR)
    assert evening > predawn


def test_trace_generation_deterministic():
    spec = TraceSpec("diurnal", {"daily_total_du": 50_000})
    a = generate_trace(spec, seed=9, horizon_ms=MS_PER_DAY, meter_id=5)
    b = generate_trace(spec, seed=9, horizon_ms=MS_PER_DAY, meter_id=5)
    c = generate_trace(spec, seed=9, horizon_ms=MS_PER_DAY, meter_id=6)
    assert a.breakpoints == b.breakpoints
    assert a.breakpoints != c.breakpoints  # sibling meters get their own stream


def test_pinned_trace_seed_overrides_scenario_seed():
    spec = TraceSpec("diurnal", {"daily_total_du": 50_000}, seed=777)
    a = generate_trace(spec, seed=1, horizon_ms=MS_PER_DAY, meter_id=5)
    b = generate_trace(spec, seed=2, horizon_ms=MS_PER_DAY, meter_id=5)
    assert a.breakpoints == b.breakpoints


def test_appliance_trace_rates_are_burst_multiples():
    spec = TraceSpec("appliance", {"burst_rate_du_per_hour": 3000})
    trace = generate_trace(spec, seed=4, horizon_ms=MS_PER_DAY)
    for _, rate in trace.breakpoints:
        assert rate % 3000 == 0


# ---------------------------------------------------------------------------
# event-driven runs

def test_lossless_run_delivers_every_quantum():
    # oracle: floor(total / quantum) messages, all accepted, zero gaps
    sc = _scenario(
        [(_water(1, quantum_du=1000),
          TraceSpec("constant", {"rate_du_per_hour": 6000}))],
        horizon_ms=6 * MS_PER_HOUR,
    )
    res = run_ri(sc)
    mid = meter_id(1)
    assert res.metrics[mid].message_count == 36
    ledger = res.center.ledgers()[mid]
    assert accepted_count(ledger) == 36
    assert ledger.lost_runs() == []
    recon = ledger.reconstruct(1000, (0, sc.horizon_ms))
    assert recon.amount_du == 36_000
    assert recon.amount_du == total_du(res.traces[mid])


def test_event_stream_counts_are_consistent():
    sc = _scenario(
        [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 5000}))],
        horizon_ms=3 * MS_PER_HOUR,
        loss=0.4,
        seed=77,
    )
    records = []
    res = run_ri(sc, EventLog(record_sink(records)))
    by_kind = Counter(rec.kind for rec in records)
    fates = Counter(link[1] if len(link) == 2 else "ingest"
                    for rec in records for link in rec.payload["links"])
    emitted = by_kind[EventKind.QUANTUM_EVENT]
    assert emitted == 15 and len(records) == emitted
    assert fates["ingest"] + fates["radio"] + fates["uplink"] == emitted  # one link per meter
    # one concentrator with a lossless uplink: the ledger holds each copy heard once
    heard = accepted_count(res.center.ledgers()[meter_id(1)])
    assert fates["ingest"] + fates["uplink"] == heard
    # sequence numbers are gapless and start at zero
    assert [rec.seq for rec in records] == list(range(len(records)))


_LOSSES = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 5)])


@st.composite
def _lossy_scenarios(draw):
    """1-3 meters on 1-3 concentrators, losses of 0, 1 and between, up to 2 h."""
    concs = [
        ConcentratorConfig(concentrator_id(k), clock_skew_ms=draw(st.integers(-5, 5)),
                           uplink_loss=draw(_LOSSES))
        for k in range(1, draw(st.integers(1, 3)) + 1)
    ]
    meters = tuple(
        SimMeter(
            config=_water(serial, quantum_du=1000, heartbeat_interval_ms=draw(
                st.sampled_from([10 * MS_PER_MINUTE, MS_PER_DAY]))),
            trace=TraceSpec("constant", {"rate_du_per_hour": 1000 * draw(st.integers(0, 20))}),
            # links listed in any order: the log walks them in concentrator-id order
            links=tuple((c.id, draw(_LOSSES)) for c in draw(
                st.lists(st.sampled_from(concs), min_size=1, max_size=len(concs), unique=True))),
        )
        for serial in range(1, draw(st.integers(1, 3)) + 1)
    )
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        horizon_ms=MS_PER_MINUTE * draw(st.integers(0, 120)),
        buildings=(Building(meters=meters, concentrators=tuple(concs)),),
    )


@settings(max_examples=150, deadline=None)
@given(_lossy_scenarios())
def test_each_emission_lists_one_outcome_per_link(sc):
    """Each emission line lists, per link in concentrator-id order, a radio
    drop, an uplink drop or an ingest of that copy, so radio drops, uplink
    drops and ingests add up to the meter's links; a loss of 0 or 1 rules
    stages out, and an ingest is stamped with its concentrator's skew."""
    links = {sm.config.id: dict(sm.links) for sm in sc.meters()}
    uplink = {c.id: c.uplink_loss for c in sc.concentrators()}
    skew = {c.id: c.clock_skew_ms for c in sc.concentrators()}
    records = []
    run_ri(sc, EventLog(record_sink(records)))
    for emission in records:
        assert emission.kind in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT)
        mid = emission.payload["meter_id"]
        outcomes = emission.payload["links"]
        assert [entry[0] for entry in outcomes] == sorted(links[mid])
        for entry in outcomes:
            cid = entry[0]
            stage = entry[1] if len(entry) == 2 else "ingest"
            if stage == "ingest":
                assert entry[2] == emission.sim_time_ms + skew[cid]
            link, up = links[mid][cid], uplink[cid]
            allowed = {"radio"} if link > 0 else set()
            if link < 1 and up > 0:
                allowed.add("uplink")
            if link < 1 and up < 1:
                allowed.add("ingest")
            assert stage in allowed


@st.composite
def _reference_scenarios(draw):
    """1-4 meters of three kinds on 1-3 skewed concentrators, losses of 0, 1
    and between, up to 2 h.  Heartbeats and crossings fall on whole minutes,
    so meters often emit in the same millisecond; drift, idle drain and
    batteries of a few frames come in too."""
    concs = [
        ConcentratorConfig(concentrator_id(k), clock_skew_ms=draw(st.integers(-50, 50)),
                           uplink_loss=draw(_LOSSES))
        for k in range(1, draw(st.integers(1, 3)) + 1)
    ]
    meters = tuple(
        SimMeter(
            config=MeterConfig(
                id=meter_id(serial),
                kind=draw(st.sampled_from([ResourceKind.COLD_WATER, ResourceKind.ELECTRICITY,
                                           ResourceKind.GAS])),
                quantum_du=draw(st.sampled_from([500, 1000])),
                heartbeat_interval_ms=MS_PER_MINUTE * draw(st.sampled_from([5, 10, 15, 60])),
                battery_capacity=draw(st.sampled_from([Fraction(10**6), Fraction(5, 2)])),
                idle_drain_per_hour=draw(st.sampled_from([Fraction(0), Fraction(1, 2)])),
                drift_rate=draw(st.sampled_from([Fraction(0), Fraction(1, 100)])),
            ),
            trace=draw(st.sampled_from([
                TraceSpec("zero"),
                TraceSpec("constant", {"rate_du_per_hour": 6000}),
                TraceSpec("constant", {"rate_du_per_hour": 12_000}),
                TraceSpec("diurnal", {"daily_total_du": 200_000, "jitter_pct": 10}),
            ])),
            links=tuple((c.id, draw(_LOSSES)) for c in draw(
                st.lists(st.sampled_from(concs), min_size=1, max_size=len(concs), unique=True))),
        )
        for serial in range(1, draw(st.integers(1, 4)) + 1)
    )
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**32)),
        horizon_ms=MS_PER_MINUTE * draw(st.integers(10, 120)),
        buildings=(Building(meters=meters, concentrators=tuple(concs)),),
        ti_poll_interval_ms=MS_PER_MINUTE * draw(st.sampled_from([1, 7, 30, 60])),
    )


@settings(max_examples=150, deadline=None)
@given(_reference_scenarios())
def test_run_ri_matches_the_reference_run(sc):
    """run_ri's records, ``seq`` and outcomes included, and its ledgers are
    those of ReferenceRun, which follows protocol.md step by step; so are
    the ``ti_reading`` records that run_ti then writes to the same log, as
    ``risim run --mode both`` does."""
    records = []
    log = EventLog(record_sink(records))
    res = run_ri(sc, log)
    run_ti(sc, log)
    ref = ReferenceRun(sc)
    assert [{"seq": r.seq, "sim_time_ms": r.sim_time_ms, "kind": r.kind, "payload": r.payload}
            for r in records] == list(ref.records("both"))
    assert "".join(res.center.snapshots()) == ref.center.ledgers_text()


@pytest.fixture(scope="module")
def metrics_path(tmp_path_factory):
    return tmp_path_factory.mktemp("metrics") / "metrics.csv"


@settings(max_examples=100, deadline=None)
@given(sc=_reference_scenarios())
def test_metrics_rows_match_the_reference_run(metrics_path, sc):
    """The ``metrics.csv`` rows that ``risim run --mode both`` writes, each
    mode's ``_metrics_rows`` through ``write_csv`` and read back, are those
    ReferenceRun builds: its center's received, recovered and trailing
    quanta and amount, its records' message and byte counts, and the RMSE of
    a grid walk over its step curves."""
    rows = _metrics_rows("ri", sc, run_ri(sc)) + _metrics_rows("ti", sc, run_ti(sc))
    write_csv(metrics_path, METRICS_HEADER, rows)
    header, got = read_csv(metrics_path)
    assert header == METRICS_HEADER
    assert [list(row.values()) for row in got] == ReferenceRun(sc).metrics_rows()


def test_crossing_times_match_closed_form_schedule():
    # 10000 du/h at quantum 1000 du: crossings at exact 6 min marks
    sc = _scenario(
        [(_water(1, quantum_du=1000),
          TraceSpec("constant", {"rate_du_per_hour": 10_000}))],
        horizon_ms=MS_PER_HOUR,
    )
    records = []
    run_ri(sc, EventLog(record_sink(records)))
    times = [r.sim_time_ms for r in records if r.kind is EventKind.QUANTUM_EVENT]
    assert times == [k * 360_000 for k in range(1, 11)]


def test_lossy_run_accounting_invariant():
    """received + recovered always equals the highest accepted counter."""
    for seed in (1, 2, 3, 4, 5):
        sc = _scenario(
            [(_water(1), TraceSpec("diurnal", {"daily_total_du": 40_000}))],
            horizon_ms=2 * MS_PER_DAY,
            loss=0.5,
            seed=seed,
        )
        res = run_ri(sc)
        ledger = res.center.ledgers().get(meter_id(1))
        if ledger is None or ledger.is_empty:
            continue
        recon = ledger.reconstruct(1000, (0, sc.horizon_ms))
        top = accepted_sessions(ledger)[-1]
        assert recon.quanta_received + recon.quanta_recovered == top.cumulative_quanta


def test_run_is_deterministic_byte_for_byte():
    sc = _scenario(
        [(_water(1), TraceSpec("diurnal", {"daily_total_du": 30_000})),
         (MeterConfig(id=meter_id(2), kind=ResourceKind.ELECTRICITY),
          TraceSpec("appliance", {"burst_rate_du_per_hour": 5000}))],
        horizon_ms=MS_PER_DAY,
        loss=0.3,
        seed=123,
    )
    lines_a, lines_b = [], []
    run_ri(sc, EventLog(lines_a.append))
    run_ri(sc, EventLog(lines_b.append))
    assert lines_a == lines_b


def test_different_channel_seeds_same_traces_when_pinned():
    # pinned trace seeds plus a lossless channel: the channel stream differs
    # with the scenario seed but nothing consumes it, so ledgers agree
    meters = [(_water(1), TraceSpec("diurnal", {"daily_total_du": 30_000}, seed=42))]
    res_a = run_ri(_scenario(meters, horizon_ms=MS_PER_DAY, seed=1))
    res_b = run_ri(_scenario(meters, horizon_ms=MS_PER_DAY, seed=2))
    snap_a = [snapshot(lg) for lg in res_a.center.ledgers().values()]
    snap_b = [snapshot(lg) for lg in res_b.center.ledgers().values()]
    assert snap_a == snap_b


def test_multi_concentrator_duplicates_collapse():
    concs = [ConcentratorConfig(concentrator_id(k)) for k in (1, 2, 3)]
    sc = _scenario(
        [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 3000}))],
        horizon_ms=2 * MS_PER_HOUR,
        concentrators=concs,
    )
    res = run_ri(sc)
    ledger = res.center.ledgers()[meter_id(1)]
    assert accepted_count(ledger) == 6
    for rec in accepted_sessions(ledger):
        assert rec.report_count == 3  # heard by all three, stored once


def _lossy_on_three_concentrators(**kw) -> ScenarioConfig:
    """Two meters, one with heartbeats, heard by three concentrators with
    radio loss 0.3 and uplink loss 1/5: every record kind and ingest outcome."""
    concs = [ConcentratorConfig(concentrator_id(k), uplink_loss=Fraction(1, 5))
             for k in (1, 2, 3)]
    return _scenario(
        [(_water(1, heartbeat_interval_ms=10 * MS_PER_MINUTE),
          TraceSpec("constant", {"rate_du_per_hour": 6000})),
         (MeterConfig(id=meter_id(2), kind=ResourceKind.GAS,
                      heartbeat_interval_ms=10 * MS_PER_MINUTE), TraceSpec("zero"))],
        horizon_ms=2 * MS_PER_HOUR,
        loss=0.3,
        concentrators=concs,
        **kw,
    )


def _calls(profile: cProfile.Profile, **functions) -> dict[str, int]:
    """How often ``profile`` saw each of ``functions`` called, by keyword."""
    profile.create_stats()
    codes = {(fn.__code__.co_filename, fn.__code__.co_firstlineno, fn.__code__.co_name): name
             for name, fn in functions.items()}
    calls = dict.fromkeys(functions, 0)
    for key, stat in profile.stats.items():
        if key in codes:
            calls[codes[key]] += stat[1]
    return calls


def test_run_and_replay_build_no_message_and_encode_nothing(tmp_path):
    """A frame goes from meter to center as its bytes: a logged lossy run on
    three concentrators, and its replay, build no MeterMessage or MeterState
    and never call encode_frame.  Calls are counted, not timed."""
    sc = _lossy_on_three_concentrators()
    records = []
    profile = cProfile.Profile()
    profile.enable()
    res = run_ri(sc, EventLog(record_sink(records)))
    profile.disable()
    path = write_records(tmp_path / "events.ndjson", records)
    profile.enable()
    replayed = replay_center(read_events(path))
    profile.disable()
    assert "".join(replayed.snapshots()) == "".join(res.center.snapshots())
    outcomes = Counter(link[1] for r in records for link in r.payload["links"] if len(link) == 3)
    assert outcomes["accepted"] > 0 and outcomes["duplicate"] > 0
    calls = _calls(profile, MeterMessage=MeterMessage.__post_init__,
                   MeterState=MeterState.__post_init__, encode_frame=encode_frame)
    assert calls == {"MeterMessage": 0, "MeterState": 0, "encode_frame": 0}


def test_logged_runs_build_no_record_and_dump_no_json():
    """The event log is written from its templates: a logged ``both``-mode
    run builds no EventLogRecord and calls json.dumps for no record, and
    every line it wrote is the reference line of the record it parses to."""
    sc = _lossy_on_three_concentrators(mode="both")
    lines = []
    log = EventLog(lines.append)
    profile = cProfile.Profile()
    profile.enable()
    run_ri(sc, log)
    run_ti(sc, log)
    profile.disable()
    calls = _calls(profile, record=EventLogRecord.__post_init__, dumps=json.dumps)
    assert calls == {"record": 0, "dumps": 0}
    records = [from_json(line) for line in lines]
    assert [rec.to_json() + "\n" for rec in records] == lines
    assert [rec.seq for rec in records] == list(range(log.seq))
    assert set(rec.kind for rec in records) == set(EventKind)
    assert {link[1] for rec in records for link in rec.payload.get("links", ())
            if len(link) == 2} == {"radio", "uplink"}


def test_replay_of_a_written_log_builds_no_record_and_loads_no_json(tmp_path):
    """Replay reads the lines the templates wrote by their patterns: replaying
    a logged ``both``-mode run, with every record kind, builds no
    EventLogRecord and calls json.loads for no line."""
    sc = _lossy_on_three_concentrators(mode="both")
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        log = EventLog(fh.write)
        res = run_ri(sc, log)
        run_ti(sc, log)
    profile = cProfile.Profile()
    profile.enable()
    replayed = replay_center(read_events(path))
    profile.disable()
    assert "".join(replayed.snapshots()) == "".join(res.center.snapshots())
    assert _calls(profile, record=EventLogRecord.__post_init__, loads=json.loads) == {
        "record": 0, "loads": 0}


def test_logged_run_and_its_snapshots_call_nothing_in_enum():
    """Protocol words are their own strings, so nothing translates them: a
    logged run and its ledger snapshots make no call into ``enum.py``."""
    sc = _lossy_on_three_concentrators()
    lines = []
    profile = cProfile.Profile()
    profile.enable()
    res = run_ri(sc, EventLog(lines.append))
    text = "".join(res.center.snapshots())
    profile.disable()
    profile.create_stats()
    assert lines and '"sessions":[{' in text
    assert sum(stat[1] for (filename, _, _), stat in profile.stats.items()
               if filename == enum.__file__) == 0


def test_reconstruction_steps_compare_no_fraction():
    """Received quanta step at the grid index of their integer reception
    times and recovered ones at an index taken in integers, so a ledger's
    metric makes as many calls into ``fractions.py`` (its trace's rates)
    whatever the number of lost quanta.  The indices are sorted ints, the
    ceilings of the reference's (time, increment) steps, and the metric is
    the reference's."""
    mid = meter_id(1)
    meters = [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 60_000}))]
    sc = _scenario(meters, horizon_ms=6 * MS_PER_HOUR, loss=Fraction(1, 2))
    lossless = _scenario(meters, horizon_ms=6 * MS_PER_HOUR)

    def metric(res):
        ledger = res.center.ledgers()[mid]
        profile = cProfile.Profile()
        profile.enable()
        indices = reconstruction_steps(ledger, MS_PER_MINUTE)
        mse = _step_mean_square(res.traces[mid], indices, 1000, MS_PER_MINUTE, sc.horizon_ms)
        profile.disable()
        profile.create_stats()
        calls = sum(stat[1] for (filename, _, _), stat in profile.stats.items()
                    if filename == fractions.__file__)
        assert mse == res.metrics[mid].mean_square_du
        assert mse == piecewise_mean_square(res.traces[mid], time_steps(ledger, 1000),
                                            MS_PER_MINUTE, sc.horizon_ms)
        assert {type(k) for k in indices} == {int} and indices == sorted(indices)
        assert indices == grid_steps(time_steps(ledger, 1000), MS_PER_MINUTE)[0]
        return calls, sum(run.quanta for run in ledger.lost_runs())

    lossy, clean = metric(run_ri(sc)), metric(run_ri(lossless))
    assert lossy[1] > 100 and clean[1] == 0
    assert lossy[0] == clean[0] > 0


def test_the_metric_of_the_largest_district_meter_takes_at_most_64_bytes_a_step():
    """Under tracemalloc the run's metric for the district_week meter with the
    most steps (seed 7) peaks at no more than 64 bytes per step: one list of
    grid indices built off the ledger's blocks.  A (time, increment) tuple per
    step and a Fraction per recovered quantum took 138 to 178."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sc = scenario_from_dict(workloads.WORKLOADS["district_week"](7))
    res = run_ri(sc)
    ledgers = res.center.ledgers()
    sm = max(sc.meters(), key=lambda sm: len(reconstruction_steps(ledgers[sm.config.id],
                                                                  sc.rmse_grid_ms)))
    mid = sm.config.id
    tracemalloc.start()
    try:
        indices = reconstruction_steps(ledgers[mid], sc.rmse_grid_ms)
        mse = _step_mean_square(res.traces[mid], indices, sm.config.quantum_du,
                                sc.rmse_grid_ms, sc.horizon_ms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mse == res.metrics[mid].mean_square_du
    assert len(indices) > 5000
    assert peak <= 64 * len(indices), f"{peak / len(indices):.0f} B per step"


def test_each_delivered_copy_has_its_header_read_once(tmp_path):
    """The center takes an emission's copies as the meter id and session the
    meter yields with the frame, so it reads no header: a logged run reads
    one header per emission, for its record, and an unlogged run reads none
    and stamps no copy through ``receive``.
    Replay reads one per emission, to check the line's fields against it,
    and hands its meter id and session with the frame to the center for the
    line's copies, the first line of a meter registering it."""
    sc = _lossy_on_three_concentrators()
    profile = cProfile.Profile()
    profile.enable()
    unlogged = run_ri(sc)
    profile.disable()
    assert _calls(profile, frame_header=frame_header, receive=receive) == {
        "frame_header": 0, "receive": 0}
    lines = []
    profile = cProfile.Profile()
    profile.enable()
    res = run_ri(sc, EventLog(lines.append))
    profile.disable()
    records = [from_json(line) for line in lines]
    emissions = len(records)
    ingests = sum(len(link) == 3 for rec in records for link in rec.payload["links"])
    assert emissions > 0 and ingests > emissions
    assert _calls(profile, frame_header=frame_header, receive=receive) == {
        "frame_header": emissions, "receive": 0}
    assert "".join(res.center.snapshots()) == "".join(unlogged.center.snapshots())
    path = write_records(tmp_path / "events.ndjson", records)
    profile = cProfile.Profile()
    profile.enable()
    replayed = replay_center(read_events(path))
    profile.disable()
    assert "".join(replayed.snapshots()) == "".join(res.center.snapshots())
    assert _calls(profile, frame_header=frame_header) == {"frame_header": emissions}


def test_clock_skew_shifts_reception_times():
    skewed = ConcentratorConfig(concentrator_id(1), clock_skew_ms=400)
    sc = _scenario(
        [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 10_000}))],
        horizon_ms=MS_PER_HOUR,
        concentrators=[skewed],
    )
    res = run_ri(sc)
    ledger = res.center.ledgers()[meter_id(1)]
    times = [rec.rx_time_ms for rec in accepted_sessions(ledger)]
    assert times == [k * 360_000 + 400 for k in range(1, 11)]


def test_validation_rejects_bad_scenarios():
    """A ScenarioConfig checks itself when built, with no validate() call."""
    good = [(_water(1), TraceSpec("zero"))]
    with pytest.raises(ConfigError):
        _scenario(good, horizon_ms=MS_PER_HOUR, mode="warp")
    with pytest.raises(ConfigError):
        replace(_scenario(good, horizon_ms=MS_PER_HOUR), mode="warp")
    with pytest.raises(ConfigError, match="scenario seed"):
        _scenario(good, horizon_ms=MS_PER_HOUR, seed=True)
    with pytest.raises(ConfigError):
        # meter linked to a concentrator that is not declared anywhere
        ScenarioConfig(
            seed=1,
            horizon_ms=1000,
            buildings=(Building(
                meters=(SimMeter(
                    config=_water(1), trace=TraceSpec("zero"),
                    links=((concentrator_id(9), 0.0),),
                ),),
                concentrators=(ConcentratorConfig(CID),),
            ),),
        )
    with pytest.raises(ConfigError):
        # meter with no links at all
        ScenarioConfig(
            seed=1,
            horizon_ms=1000,
            buildings=(Building(
                meters=(SimMeter(config=_water(1), trace=TraceSpec("zero"), links=()),),
                concentrators=(ConcentratorConfig(CID),),
            ),),
        )


@pytest.mark.parametrize("kind, params, field", [
    ("constant", {"rate_du_per_hour": True}, "rate_du_per_hour"),
    ("constant", {"rate_du_per_hour": "5"}, "rate_du_per_hour"),
    ("constant", {"rate_du_per_hour": -5}, "rate_du_per_hour"),
    ("constant", {"rate_du_per_hour": float("inf")}, "rate_du_per_hour"),
    ("constant", {"rate_du_per_hour": float("nan")}, "rate_du_per_hour"),
    ("diurnal", {"daily_total_du": True}, "daily_total_du"),
    ("diurnal", {"daily_total_du": Fraction(-1, 3)}, "daily_total_du"),
    ("appliance", {"burst_rate_du_per_hour": 3000, "base_rate_du_per_hour": False},
     "base_rate_du_per_hour"),
    ("appliance", {"burst_rate_du_per_hour": 3000, "base_rate_du_per_hour": -0.5},
     "base_rate_du_per_hour"),
    ("appliance", {"burst_rate_du_per_hour": -1}, "burst_rate_du_per_hour"),
    ("appliance", {"burst_rate_du_per_hour": float("inf")}, "burst_rate_du_per_hour"),
])
def test_a_bad_trace_rate_is_a_config_error_naming_it(kind, params, field):
    """A trace's rates and daily total follow a meter's number rule: a bool, a
    string, a negative or a float that is not finite is refused when the
    TraceSpec is built, by a ConfigError naming the parameter and showing a
    number as written, a Fraction as ``-1/3``."""
    value = params[field]
    with pytest.raises(ConfigError) as err:
        TraceSpec(kind, params)
    shown = repr(value) if isinstance(value, (bool, str)) else value
    assert str(err.value) == f"{kind} trace: {field}: expected a nonnegative number, got {shown}"


@pytest.mark.parametrize("ident", [concentrator_id(5), -1, 2**64, True])
def test_a_foreign_meter_id_is_a_config_error(ident):
    """A scenario's meter id outside the meter namespace is refused as a
    ConfigError, as every other scenario-level refusal is; ``True`` is no
    integer, so its MeterConfig already refuses it."""
    with pytest.raises(ConfigError, match="not a meter id" if type(ident) is int else
                       "meter id: expected an integer, got True"):
        meter = MeterConfig(id=ident, kind=ResourceKind.COLD_WATER)
        _scenario([(meter, TraceSpec("zero"))], horizon_ms=MS_PER_HOUR)


@pytest.mark.parametrize("ident", ["a", 1.5, True, None])
@pytest.mark.parametrize("field, build", [
    ("meter id", lambda ident: MeterConfig(id=ident, kind=ResourceKind.GAS)),
    ("concentrator id", ConcentratorConfig),
], ids=["meter", "concentrator"])
def test_an_id_that_is_not_an_integer_is_a_config_error(field, build, ident):
    """A meter's or concentrator's id is read as an integer first, so any
    other value is a ConfigError naming the field."""
    with pytest.raises(ConfigError) as err:
        build(ident)
    assert str(err.value) == f"{field}: expected an integer, got {ident!r}"


@pytest.mark.parametrize("quantum", [None, 1000])
@pytest.mark.parametrize("kind", ["water", 5, None])
def test_a_meter_kind_that_is_not_a_resource_kind_is_a_config_error(kind, quantum):
    """With a quantum or without, a kind that is neither a ResourceKind nor
    its word is refused by the MeterConfig, naming the meter and the field."""
    with pytest.raises(ConfigError) as err:
        MeterConfig(id=meter_id(1), kind=kind, quantum_du=quantum)
    assert str(err.value).startswith(f"meter 1 [{meter_id(1):#x}]: kind: ")
    assert repr(kind) in str(err.value)


def test_a_meter_kind_given_as_its_word_is_held_as_the_member():
    meter = MeterConfig(id=meter_id(1), kind="cold_water")
    assert meter.kind is ResourceKind.COLD_WATER
    assert meter.quantum_du == 1000
    assert meter == MeterConfig(id=meter_id(1), kind=ResourceKind.COLD_WATER)


@pytest.mark.parametrize("kind, params, message", [
    ("constant", {"rate_du_per_hour": 5, "rate": 9000},
     "unknown parameter 'rate' (expected rate_du_per_hour)"),
    ("zero", {"rate_du_per_hour": 5}, "unknown parameter 'rate_du_per_hour' (expected none)"),
    ("diurnal", {"daily_total_du": 5, "jitter": 3},
     "unknown parameter 'jitter' (expected daily_total_du, jitter_pct, shape)"),
    ("zero", None, "params must be a dict, got None"),
], ids=["constant", "zero", "diurnal", "not-a-dict"])
def test_a_trace_parameter_its_kind_does_not_read_is_a_config_error(kind, params, message):
    """A TraceSpec refuses a parameter its kind does not read, as the scenario
    loader refuses an unknown key, by a ConfigError naming it and the
    parameters that the kind reads; params that are not a dict are refused
    too."""
    with pytest.raises(ConfigError) as err:
        TraceSpec(kind, params)
    assert str(err.value) == f"{kind} trace: {message}"


# ---------------------------------------------------------------------------
# polling baseline

def test_polling_reads_floor_of_register():
    sc = _scenario(
        [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 2500}))],
        horizon_ms=4 * MS_PER_HOUR,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    res = run_ti(sc)
    assert res.readings[meter_id(1)] == [
        (MS_PER_HOUR, 2500),
        (2 * MS_PER_HOUR, 5000),
        (3 * MS_PER_HOUR, 7500),
        (4 * MS_PER_HOUR, 10_000),
    ]
    m = res.metrics[meter_id(1)]
    assert m.message_count == 4
    assert m.bytes_sent == 4 * TI_READING_BYTES


def test_polling_messages_independent_of_consumption():
    idle = _scenario([(_water(1), TraceSpec("zero"))],
                     horizon_ms=MS_PER_DAY, ti_poll_interval_ms=MS_PER_HOUR)
    busy = _scenario(
        [(_water(1), TraceSpec("constant", {"rate_du_per_hour": 9999}))],
        horizon_ms=MS_PER_DAY, ti_poll_interval_ms=MS_PER_HOUR)
    assert run_ti(idle).metrics[meter_id(1)].message_count == 24
    assert run_ti(busy).metrics[meter_id(1)].message_count == 24


def test_polling_meter_with_empty_battery_sends_nothing():
    sc = _scenario(
        [(_water(1, battery_capacity=0),
          TraceSpec("constant", {"rate_du_per_hour": 2500}))],
        horizon_ms=4 * MS_PER_HOUR,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    records = []
    res = run_ti(sc, EventLog(record_sink(records)))
    assert not [r for r in records if r.kind is EventKind.TI_READING]
    assert res.metrics[meter_id(1)].message_count == 0
    assert res.metrics[meter_id(1)].bytes_sent == 0


def test_polling_stops_when_the_battery_runs_out():
    # before poll k the battery holds 5 - (k-1)·1 - k·1 = 6 - 2k: 4 and 2 go
    # out, poll 3 would start at exactly 0 and does not
    cfg = _water(1, battery_capacity=5, tx_cost=1, idle_drain_per_hour=1)
    sc = _scenario(
        [(cfg, TraceSpec("constant", {"rate_du_per_hour": 2500}))],
        horizon_ms=6 * MS_PER_HOUR,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    records = []
    _, ti, rows = compare_runs(sc, EventLog(record_sink(records)))
    assert ti.readings[meter_id(1)] == [(MS_PER_HOUR, 2500), (2 * MS_PER_HOUR, 5000)]
    assert ti.metrics[meter_id(1)].message_count == 2
    polls = [r.payload["poll_index"] for r in records if r.kind is EventKind.TI_READING]
    assert polls == [1, 2]
    # the closed-form lifetime, 2.5 h, falls between the last poll sent and the next
    life = next(r for r in rows if r.mode == "ti").battery_lifetime_ms
    assert 2 * MS_PER_HOUR <= life < 3 * MS_PER_HOUR


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.fractions(min_value=0, max_value=60, max_denominator=6),
    tx_cost=st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2), Fraction(5)]),
    drain=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7)]),
    dt=st.sampled_from([MS_PER_MINUTE, 15 * MS_PER_MINUTE, MS_PER_HOUR, 5 * MS_PER_HOUR]),
    n_polls=st.integers(min_value=0, max_value=80),
)
def test_polls_sent_follow_the_per_poll_battery_rule(capacity, tx_cost, drain, dt, n_polls):
    cfg = _water(1, battery_capacity=capacity, tx_cost=tx_cost, idle_drain_per_hour=drain)
    sent = 0
    for k in range(1, n_polls + 1):
        if capacity - (k - 1) * tx_cost - drain * k * dt / MS_PER_HOUR <= 0:
            break
        sent += 1
    assert _ti_polls_sent(cfg, dt, n_polls) == sent
    life = _ti_lifetime_estimate(cfg, _scenario([], 0, ti_poll_interval_ms=dt))
    if life is not None and sent < n_polls:
        assert life - dt <= sent * dt <= life + dt


@settings(max_examples=60, deadline=None)
@given(
    traces=st.lists(st.tuples(st.sampled_from(["appliance", "diurnal"]),
                              st.integers(0, 2**32)), min_size=1, max_size=3),
    horizon=st.integers(min_value=1, max_value=2 * MS_PER_DAY),
    dt=st.sampled_from([MS_PER_MINUTE, 7 * MS_PER_MINUTE, MS_PER_HOUR, 5 * MS_PER_HOUR]),
    capacity=st.integers(min_value=0, max_value=40),
)
def test_poll_registers_equal_cumulative_consumption(traces, horizon, dt, capacity):
    params = {
        "appliance": {"base_rate_du_per_hour": Fraction(7, 3),
                      "burst_rate_du_per_hour": 5000, "bursts_per_day": (0, 30),
                      "burst_duration_ms": (1, 3 * MS_PER_HOUR)},
        "diurnal": {"daily_total_du": Fraction(10_001, 3)},
    }
    meters = [(_water(i + 1, battery_capacity=capacity),
               TraceSpec(kind, params[kind], seed=seed))
              for i, (kind, seed) in enumerate(traces)]
    records = []
    res = run_ti(_scenario(meters, horizon, ti_poll_interval_ms=dt), EventLog(record_sink(records)))
    for cfg, _ in meters:
        trace = res.traces[cfg.id]
        sent = _ti_polls_sent(cfg, dt, horizon // dt)
        assert res.readings.get(cfg.id, []) == [
            (k * dt, int(trace.cumulative_du(k * dt))) for k in range(1, sent + 1)]
    polls = [(r.payload["poll_index"], r.payload["meter_id"], r.payload["register_du"])
             for r in records]
    assert polls == sorted(polls)
    assert len(polls) == sum(len(v) for v in res.readings.values())


# ---------------------------------------------------------------------------
# reconstruction error on the metric grid

_metric_rates = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=0, max_value=10**7),
              st.sampled_from([1, 3, 7, 12, 100, 997])),
)


@st.composite
def _metric_cases(draw):
    """A trace (or None), steps, a grid and a horizon for the mean square.

    Grids are drawn to keep at most a few hundred points for the reference,
    or longer than the horizon; the trace's own horizon is usually the
    metric horizon and sometimes shorter or longer.  Step times are ints
    and Fractions, negative, on grid points and past the last grid point and
    the horizon; increments include zero.
    """
    horizon = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=20_000)))
    low = max(1, horizon // 300)
    grid = draw(st.one_of(st.integers(min_value=low, max_value=low + 97),
                          st.integers(min_value=horizon + 1, max_value=2 * horizon + 5)))
    span = draw(st.one_of(st.just(max(horizon, 1)),
                          st.integers(min_value=1, max_value=2 * horizon + 2)))
    starts = draw(st.lists(st.integers(min_value=1, max_value=max(span - 1, 1)),
                           unique=True, max_size=8))
    rates = draw(st.lists(_metric_rates, min_size=len(starts) + 1, max_size=len(starts) + 1))
    points = tuple(zip([0] + sorted(s for s in starts if s < span), rates))
    trace = None if draw(st.integers(min_value=0, max_value=9)) == 0 else (
        ConsumptionTrace(1, points, span))
    times = st.one_of(
        st.integers(min_value=-3 * grid, max_value=horizon + 3 * grid),
        st.fractions(min_value=-3 * grid, max_value=horizon + 3 * grid, max_denominator=9),
        st.integers(min_value=-1, max_value=horizon // grid + 2).map(lambda k: k * grid),
        st.integers(min_value=-1, max_value=horizon // grid + 2).map(lambda k: Fraction(k * grid)),
    )
    increments = st.one_of(st.just(0), st.integers(min_value=1, max_value=5000))
    steps = draw(st.lists(st.tuples(times, increments), max_size=25))
    return trace, steps, grid, horizon


@settings(max_examples=300, deadline=None)
@given(_metric_cases(), st.booleans())
def test_step_mean_square_equals_grid_walk(case, one_height):
    """The closed form over the steps' grid indices, with a height per step
    or one for all, is the grid walk's mean square and the piecewise
    reference's."""
    trace, steps, grid, horizon = case
    if one_height:
        steps = [(t, 7) for t, _ in steps]
    indices, increments = grid_steps(steps, grid)
    heights = 7 if one_height else increments
    expected = grid_mean_square(trace, steps, grid, horizon)
    assert _step_mean_square(trace, indices, heights, grid, horizon) == expected
    assert piecewise_mean_square(trace, steps, grid, horizon) == expected


def test_step_mean_square_of_a_month_on_a_one_ms_grid():
    # 2.6e9 grid points and no steps: the error at point k is rate·k/H, and
    # Σ_{k=0..K} k² / (K + 1) = K(2K + 1)/6
    rate = Fraction(7000, 3)
    horizon = 30 * MS_PER_DAY
    trace = ConsumptionTrace(1, ((0, rate),), horizon)
    expected = (rate / MS_PER_HOUR) ** 2 * Fraction(horizon * (2 * horizon + 1), 6)
    assert _step_mean_square(trace, [], 1, 1, horizon) == expected
    assert _step_mean_square(trace, [], [], 1, horizon) == expected


# ---------------------------------------------------------------------------
# sweeps

def test_quantum_sweep_tradeoff_is_monotone():
    sc = _scenario(
        [(_water(1), TraceSpec("diurnal", {"daily_total_du": 60_000}, seed=5))],
        horizon_ms=MS_PER_DAY,
    )
    rows = detail_sweep(sc, "dr", [(500, "50ml"), (1000, "100ml"),
                                   (2000, "200ml"), (4000, "400ml")])
    for prev, cur in zip(rows, rows[1:]):
        assert cur.mean_square_du >= prev.mean_square_du
        assert cur.message_count < prev.message_count


def test_poll_interval_sweep_tradeoff_is_monotone():
    sc = _scenario(
        [(_water(1), TraceSpec("diurnal", {"daily_total_du": 60_000}, seed=5))],
        horizon_ms=MS_PER_DAY,
    )
    rows = detail_sweep(sc, "dt", [(MS_PER_MINUTE, "1min"),
                                   (10 * MS_PER_MINUTE, "10min"),
                                   (MS_PER_HOUR, "1h")])
    for prev, cur in zip(rows, rows[1:]):
        assert cur.mean_square_du >= prev.mean_square_du
        assert cur.message_count < prev.message_count


def test_sweep_checks_every_value_before_it_runs_one(monkeypatch):
    sc = _scenario([(_water(1), TraceSpec("zero"))], horizon_ms=1000)
    runs = []
    monkeypatch.setattr(simulation, "run_ri", lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="sweep value must be positive: 0ml"):
        detail_sweep(sc, "dr", [(500, "50ml"), (0, "0ml")])
    assert runs == []


def test_sweep_rejects_unknown_parameter():
    sc = _scenario([(_water(1), TraceSpec("zero"))], horizon_ms=1000)
    with pytest.raises(ConfigError):
        detail_sweep(sc, "dx", [(1, "1")])


# ---------------------------------------------------------------------------
# worst-case load

def test_load_bound_twelve_liters_per_minute():
    # 12 l/min at 100 ml quantum: 120 events per minute = 2 per second
    cfg = _water(1, quantum_du=1000, max_flow_du_per_hour=Fraction(7_200_000))
    sc = _scenario([(cfg, TraceSpec("zero"))], horizon_ms=MS_PER_HOUR)
    report = worst_case_load(sc)
    assert report.bound_per_second == 2
    assert report.peak_per_second == 2
    assert report.total_messages == 7200


def test_load_is_the_same_for_a_float_int_or_fraction_flow():
    reports = [
        worst_case_load(_scenario(
            [(_water(1, max_flow_du_per_hour=flow), TraceSpec("zero"))],
            horizon_ms=MS_PER_HOUR,
        ))
        for flow in (120_000.0, 120_000, Fraction(120_000))
    ]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].total_messages > 0


def test_load_zero_flow_meter_contributes_nothing():
    cfg = _water(1, max_flow_du_per_hour=Fraction(0))
    sc = _scenario([(cfg, TraceSpec("zero"))], horizon_ms=MS_PER_HOUR)
    report = worst_case_load(sc)
    assert report.peak_per_second == 0
    assert report.bound_per_second == 0
    assert report.total_messages == 0


def test_load_requires_declared_max_flow():
    sc = _scenario([(_water(1), TraceSpec("zero"))], horizon_ms=MS_PER_HOUR)
    with pytest.raises(ConfigError):
        worst_case_load(sc)


def test_load_analysis_agrees_with_event_engine():
    # cross-check: a meter actually consuming at its declared max emits
    # exactly the message count the analytic path predicts
    flow = Fraction(54_321)
    cfg = _water(1, quantum_du=1000, max_flow_du_per_hour=flow,
                 heartbeat_interval_ms=10 * MS_PER_DAY)
    sc = _scenario(
        [(cfg, TraceSpec("constant", {"rate_du_per_hour": flow}))],
        horizon_ms=3 * MS_PER_HOUR,
    )
    analytic = worst_case_load(sc)
    records = []
    run_ri(sc, EventLog(record_sink(records)))
    emitted = sum(1 for r in records if r.kind is EventKind.QUANTUM_EVENT)
    assert emitted == analytic.total_messages


def test_load_sums_over_meters():
    flow = Fraction(3_600_000)  # one event per second at quantum 1000
    meters = [
        (_water(k, quantum_du=1000, max_flow_du_per_hour=flow), TraceSpec("zero"))
        for k in range(1, 6)
    ]
    sc = _scenario(meters, horizon_ms=10_000)
    report = worst_case_load(sc)
    assert report.bound_per_second == 5
    assert report.peak_per_second == 5


def _quantum_event_times(sc: ScenarioConfig) -> list[int]:
    """Emission times of every meter's own schedule, heartbeats left out."""
    times = []
    for sm in sc.meters() if sc.horizon_ms else ():
        trace = generate_trace(sm.trace, sc.seed, sc.horizon_ms, sm.config.id)
        times.extend(
            t for t, _, _, frame in MeterRun(sm.config, trace).events()
            if decode_frame(frame).message_type is MessageType.QUANTUM_EVENT
        )
    return times


def test_load_ceiling_admits_millisecond_rounding():
    # a period just under 500 ms: crossings 32 to 34, at about 15,999.0,
    # 16,499.0 and 16,998.98 ms, round up into one second, three frames
    # that are 999.94 ms apart as exact instants
    flow = Fraction(7_200_430)
    cfg = _water(1, quantum_du=1000, max_flow_du_per_hour=flow,
                 heartbeat_interval_ms=MS_PER_DAY)
    sc = _scenario([(cfg, TraceSpec("constant", {"rate_du_per_hour": flow}))],
                   horizon_ms=60_000)
    assert [t for t in _quantum_event_times(sc) if t // 1000 == 16] == [16_000, 16_500, 16_999]
    report = worst_case_load(sc)
    assert report.peak_per_second == 3
    assert report.bucket_ceiling == 3


def test_load_counts_a_frame_sent_at_the_horizon():
    # one event per 1000 ms over a 1000 ms horizon: each meter's only frame
    # goes out at exactly 1000 ms, in the second that starts at the horizon
    flow = Fraction(3_600_000)
    meters = [
        (_water(k, quantum_du=1000, max_flow_du_per_hour=flow, heartbeat_interval_ms=MS_PER_DAY),
         TraceSpec("constant", {"rate_du_per_hour": flow}))
        for k in range(1, 4)
    ]
    sc = _scenario(meters, horizon_ms=1000)
    assert _quantum_event_times(sc) == [1000, 1000, 1000]
    report = worst_case_load(sc)
    assert report.total_messages == 3
    assert report.peak_per_second == 3


def test_load_counts_huge_periods_exactly():
    # one event per 3·10¹² hours: the period numerator is far past 2⁶³
    cfg = _water(1, quantum_du=1000, max_flow_du_per_hour=Fraction(1, 3_000_000_000))
    sc = _scenario([(cfg, TraceSpec("zero"))], horizon_ms=MS_PER_HOUR)
    report = worst_case_load(sc)
    assert report.peak_per_second == 0
    assert report.total_messages == 0
    assert report.bucket_ceiling == 1


# event periods in ms: near 1000/m, where the per-second ceiling is tight,
# or anywhere from 100 ms to 5 s
_periods = st.one_of(
    st.builds(lambda m, ppm: Fraction(1000, m) * (1 + Fraction(ppm, 10**6)),
              st.integers(1, 4), st.integers(-20_000, 20_000)),
    st.builds(lambda d, x: Fraction(d * 100 + x, d),
              st.integers(1, 1000), st.integers(0, 4_900_000)),
)


@settings(max_examples=150, deadline=None)
@given(
    specs=st.lists(st.tuples(st.integers(1, 5000), _periods), min_size=1, max_size=3),
    horizon=st.integers(0, 60_000),
)
def test_load_matches_engine_emissions(specs, horizon):
    meters = []
    for k, (quantum, period) in enumerate(specs, start=1):
        flow = quantum * MS_PER_HOUR / period
        cfg = _water(k, quantum_du=quantum, max_flow_du_per_hour=flow,
                     heartbeat_interval_ms=2 * horizon + 1)
        meters.append((cfg, TraceSpec("constant", {"rate_du_per_hour": flow})))
    sc = _scenario(meters, horizon_ms=horizon)
    times = _quantum_event_times(sc)
    per_second = Counter(t // 1000 for t in times if t // 1000 <= horizon // 1000)
    report = worst_case_load(sc)
    assert report.peak_per_second == max(per_second.values(), default=0)
    assert report.total_messages == len(times)
    assert report.peak_per_second <= report.bucket_ceiling


# ---------------------------------------------------------------------------
# mode comparison

def test_compare_quiet_meter_heavily_favors_event_mode():
    # a meter using 2 quanta per day vs hourly polling: 24x fewer messages
    sc = _scenario(
        [(_water(1, quantum_du=1000),
          TraceSpec("constant", {"rate_du_per_hour": Fraction(2000, 24)}))],
        horizon_ms=MS_PER_DAY,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    ri, ti, rows = compare_runs(sc)
    by_mode = {r.mode: r for r in rows}
    assert by_mode["ri"].message_count == 2
    assert by_mode["ti"].message_count == 24
    assert by_mode["ti"].message_count >= 10 * by_mode["ri"].message_count
    # event-mode error never exceeds one quantum of lag
    assert by_mode["ri"].mean_square_du < 1000**2


def test_compare_battery_estimates_favor_quiet_event_mode():
    sc = _scenario(
        [(_water(1, battery_capacity=Fraction(1000), tx_cost=Fraction(1)),
          TraceSpec("constant", {"rate_du_per_hour": Fraction(1000, 12)}))],
        horizon_ms=MS_PER_DAY,
        ti_poll_interval_ms=MS_PER_HOUR,
    )
    _, _, rows = compare_runs(sc)
    by_mode = {r.mode: r for r in rows}
    ri_life = by_mode["ri"].battery_lifetime_ms
    ti_life = by_mode["ti"].battery_lifetime_ms
    assert ti_life == 1000 * MS_PER_HOUR  # closed form: capacity / per-poll cost
    assert ri_life is not None and ri_life > ti_life


# ---------------------------------------------------------------------------
# printed RMSE

def test_rmse_text_examples():
    assert rmse_text(Fraction(0)) == "0.000000"
    assert rmse_text(Fraction(1, 4)) == "0.500000"
    assert rmse_text(Fraction(2)) == "1.414214"
    assert rmse_text(Fraction(10**6)) == "1000.000000"
    # a root of exactly half a millionth rounds up
    assert rmse_text(Fraction(1, 4 * 10**12)) == "0.000001"


@given(m=st.fractions(min_value=0, max_value=10**15))
def test_rmse_text_is_the_exact_root_rounded_half_up(m):
    whole, frac = rmse_text(m).split(".")
    assert len(frac) == 6
    u = int(whole) * 10**6 + int(frac)
    assert max(2 * u - 1, 0) ** 2 <= 4 * 10**12 * m < (2 * u + 1) ** 2
