"""Session ledger: dedup, wrap-aware gaps, exact recovery, restoration.

Reference model used throughout: the emitter numbers messages 0,1,2,... with
no holes, so after any subset is lost the missing numbers are exactly the
complement of what arrived; lifetime quantum counters then pin the lost
consumption amount to an exact value.
"""

from __future__ import annotations

import importlib.util
import math
import random
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import risim.center
from risim.center import (
    BLOCK_SESSIONS,
    ConsumerProfile,
    IngestOutcome,
    InsufficientData,
    LostRun,
    MonitoringCenter,
    NoData,
    SessionLedger,
    _profile_quantiles,
    lost_grid_indices,
    place_lost,
)
from risim.domain import (
    ConcentratorReport,
    MalformedFrame,
    NOMINAL_QUALITY_DU,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    Registry,
    ResourceKind,
    SESSION_MOD,
    concentrator_id,
    decode_frame,
    encode_frame,
    meter_id,
)
from risim.config import scenario_from_dict
from risim.eventlog import EventLog, read_events, replay_center
from risim.simulation import reconstruction_steps, run_ri

from oracles import (ReferenceCenter, accepted_sessions, record_sink, snapshot, time_steps,
                     write_records)

MID = meter_id(3)
WATER_QUALITY = NOMINAL_QUALITY_DU[ResourceKind.COLD_WATER]
CID1 = concentrator_id(1)
CID2 = concentrator_id(2)
HOUR = 3_600_000


def _report(session, rx_ms, *, cid=CID1, mtype=MessageType.QUANTUM_EVENT,
            quanta=None, battery=200) -> ConcentratorReport:
    msg = MeterMessage(
        meter_id=MID,
        session=session,
        kind=ResourceKind.COLD_WATER,
        message_type=mtype,
        quality=QualityVector(ResourceKind.COLD_WATER, WATER_QUALITY),
        state=MeterState(
            battery=battery,
            cumulative_quanta=session + 1 if quanta is None else quanta,
        ),
    )
    return ConcentratorReport(frame=encode_frame(msg), concentrator_id=cid, rx_time_ms=rx_ms)


def _feed(ledger, reports):
    return [ledger.ingest(r) for r in reports]


# ---------------------------------------------------------------------------
# ingest outcomes and dedup

def test_gap_from_skipped_sessions():
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, s * 1000) for s in (1, 2, 4, 5)])
    assert ledger.lost_runs() == [LostRun(0, 1, 0, 1000, 1), LostRun(3, 1, 2000, 4000, 1)]


def test_outcome_sequence():
    ledger = SessionLedger(MID)
    assert ledger.ingest(_report(0, 1000)) is IngestOutcome.ACCEPTED
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.DUPLICATE
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.STALE
    assert ledger.stale_replays == 1
    # same session, different payload bytes: tamper evidence
    assert ledger.ingest(_report(0, 1500, quanta=9)) is IngestOutcome.CONFLICT
    assert ledger.lost_runs() == []
    snap = snapshot(ledger)
    assert snap["conflicts"] == [0]
    # first payload is kept
    assert accepted_sessions(ledger)[0].cumulative_quanta == 1


def test_dedup_keeps_earliest_reception():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 5000, cid=CID2))
    ledger.ingest(_report(0, 3000, cid=CID1))
    rec = accepted_sessions(ledger)[0]
    assert rec.rx_time_ms == 3000
    assert rec.rx_concentrator == CID1
    assert rec.report_count == 2


def test_dedup_tie_breaks_on_lowest_concentrator():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 3000, cid=CID2))
    ledger.ingest(_report(0, 3000, cid=CID1))
    rec = accepted_sessions(ledger)[0]
    assert rec.rx_concentrator == CID1
    assert rec.report_count == 2


def test_snapshot_identical_for_any_arrival_order():
    reports = [
        _report(s, 10_000 + 137 * s, cid=(CID1 if s % 2 else CID2))
        for s in range(20) if s not in (0, 4, 5, 11)
    ]
    reference = None
    rng = random.Random(99)
    for _ in range(10):
        shuffled = reports[:]
        rng.shuffle(shuffled)
        ledger = SessionLedger(MID)
        _feed(ledger, shuffled)
        snap = snapshot(ledger)
        if reference is None:
            reference = snap
        assert snap == reference
    assert reference["gaps"] == [[0, 1], [4, 2], [11, 1]]  # 0 lost before first contact


def test_reingesting_duplicates_is_idempotent():
    ledger = SessionLedger(MID)
    reports = [_report(s, 1000 * s) for s in range(5)]
    _feed(ledger, reports)
    snap1 = snapshot(ledger)
    _feed(ledger, reports)  # byte-exact replays leave even the report counts
    snap2 = snapshot(ledger)
    assert snap1 == snap2
    assert ledger.stale_replays == 5


def test_ledger_rejects_foreign_meter():
    ledger = SessionLedger(meter_id(8))
    with pytest.raises(ValueError):
        ledger.ingest(_report(0, 0))


# ---------------------------------------------------------------------------
# wrap handling

def test_gap_across_counter_wrap():
    # sessions 2^32-2, 2^32-1, then 1: the wrapped 0 is the only gap
    top = 2**32
    ledger = SessionLedger(MID)
    ledger.ingest(_report(top - 2, 1000, quanta=1))
    ledger.ingest(_report(top - 1, 2000, quanta=2))
    ledger.ingest(_report(1, 3000, quanta=4))
    assert ledger.lost_runs() == [LostRun(0, 1, 2000, 3000, 1)]
    assert ledger.highest_session == 1


def test_lost_quanta_counted_across_lifetime_counter_wrap():
    # the counter goes 2^32-1 -> (lost 0) -> 1: one quantum event was lost
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000, quanta=2**32 - 1))
    ledger.ingest(_report(2, 3000, quanta=1))
    assert ledger.lost_runs() == [LostRun(1, 1, 1000, 3000, 1)]
    assert ledger.reconstruct(1000, (0, 10_000)).quanta_recovered == 1


def _cap_bursts(lost, lo, hi, cap):
    """``lost`` with every burst of ``cap`` consecutive sessions broken."""
    lost = set(lost)
    run = 0
    for i in range(lo, hi):
        run = run + 1 if i in lost else 0
        if run >= cap:
            lost.discard(i)
            run = 0
    return lost


def _expected_runs(lost, lo, hi):
    """Maximal runs of ``lost`` indices in [lo, hi), as (first, last)."""
    runs = []
    for i in range(lo, hi):
        if i not in lost:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


def test_wrap_oracle_brute_force_small_modulus():
    """Random lossy sequences at modulus 256: gaps must equal the lost set.

    The oracle is the generator itself: emit consecutive sessions from 0,
    the numbering origin (wire = index mod 256), drop a random subset, and
    feed the survivors in emission order.  Loss bursts are capped below
    half the counter range, the wrap rule's operating envelope.  A second
    feed reorders survivors by up to 24 sessions, which also brings
    arrivals below the lowest session accepted so far; its bursts are
    capped at a quarter range so burst plus reordering stays inside the
    envelope.  Losses before first contact are a lead-in run from 0.
    Reception time is 10 ms per index and the lifetime counter counts from
    the start, so each lost run is bracketed by its neighbours and loses
    exactly its length in quanta.  Some runs wrap past 255 to 0.
    """
    mod = 256
    displacement = 24
    rng = random.Random(4242)
    arrivals_below_lowest = 0
    wrapped_runs = 0
    for trial in range(40):
        n = rng.randint(5, 900)
        lost = {i for i in range(n) if rng.random() < 0.3}
        # cap loss bursts so consecutive survivors stay within half range
        lost = _cap_bursts(lost, 0, n, mod // 2 - 1)
        survivors = [i for i in range(n) if i not in lost]
        if not survivors:
            continue
        lost_r = _cap_bursts(lost, 0, n, mod // 4)
        reordered = sorted(
            (i for i in range(n) if i not in lost_r),
            key=lambda i: i + rng.randint(0, displacement),
        )
        lowest = reordered[0]
        for i in reordered:
            arrivals_below_lowest += i < lowest
            lowest = min(lowest, i)
        for dropped, order in ((lost, survivors), (lost_r, reordered)):
            ledger = SessionLedger(MID, modulus=mod)
            _feed(ledger, [_report(i % mod, 10 * i, quanta=i + 1) for i in order])
            hi = max(order)
            runs = _expected_runs(dropped, 0, hi)
            wrapped_runs += sum(a // mod != b // mod for a, b in runs)
            where = f"trial {trial}, reordered {order is reordered}"
            assert ledger.first_covered == 0, where
            lost_runs = ledger.lost_runs()
            assert [s for r in lost_runs for s, _ in ledger.interpolate_lost_times(r)] == [
                i % mod for i in range(hi) if i in dropped
            ], where
            assert lost_runs == [
                LostRun(a % mod, b - a + 1, 10 * (a - 1) if a > 0 else 0, 10 * (b + 1), b - a + 1)
                for a, b in runs
            ], where
            assert snapshot(ledger)["gaps"] == [
                [a % mod, b - a + 1] for a, b in runs
            ], where
    assert arrivals_below_lowest > 0
    assert wrapped_runs > 0


def test_forged_session_jump_allocates_no_gap_entries():
    """A forward jump of 10**6 sessions, or of the widest one the wrap rule
    reads as forward, is one lost run, in the ledger and in its snapshot."""
    for jump in (10**6, 2**31 - 1):
        ledger = SessionLedger(MID)
        reports = [_report(0, 1000), _report(jump, 2000)]
        tracemalloc.start()
        try:
            _feed(ledger, reports)
            runs = ledger.lost_runs()
            snap = snapshot(ledger)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs == [LostRun(1, jump - 1, 1000, 2000, jump - 1)]
        assert snap["gaps"] == [[1, jump - 1]]
        assert peak < 2**20, f"jump {jump}: peak {peak} B"


#: the widest forward step the wrap rule reads as forward
_MAX_JUMP = 2**31 - 1
#: how many ms after its emission a copy may arrive, out of order
_WINDOW = 6

#: one emission: the step from the previous session index (a step of k loses
#: the k - 1 sessions between), whether it is a quantum event, how many
#: quantum events the skipped sessions held (taken modulo the step), and per
#: concentrator the copy's fate (0 lost, 1 delivered, 2 delivered and
#: replayed, 3 delivered along with a forged frame) and its arrival delay
_EMISSION = st.tuples(
    st.one_of(st.just(1), st.integers(2, 4), st.integers(_MAX_JUMP - 3, _MAX_JUMP)),
    st.booleans(),
    st.integers(0, _MAX_JUMP),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, _WINDOW)), min_size=4, max_size=4),
)
#: concentrator clock skews, meters (kind, emissions) and a reconstruction window
_PLANS = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from(list(ResourceKind)),
                       st.lists(_EMISSION, min_size=1, max_size=10)),
             min_size=1, max_size=3),
    st.tuples(st.integers(0, 40), st.integers(0, 40)),
)
_DELIVERED = [(1, 0)] * 4
#: one meter whose session index passes 2**32 after three widest jumps, so
#: its last lost run wraps past the counter's top
_WRAPPING_PLAN = ([0], [(ResourceKind.COLD_WATER,
                         [(1, True, 0, _DELIVERED)] + [(_MAX_JUMP, True, 5, _DELIVERED)] * 3)],
                  (0, 40))


def _frame(mid, kind, index, quantum_event, cumulative, battery=200) -> bytes:
    return encode_frame(MeterMessage(
        meter_id=mid,
        session=index % 2**32,
        kind=kind,
        message_type=MessageType.QUANTUM_EVENT if quantum_event else MessageType.HEARTBEAT,
        quality=QualityVector(kind, NOMINAL_QUALITY_DU[kind]),
        state=MeterState(battery=battery, cumulative_quanta=cumulative % 2**32),
    ))


def _arrivals(plan) -> list[tuple[int, int, ConcentratorReport]]:
    """The (meter id, true session index, report) of every copy the center
    receives, in arrival order.

    Meter k emits every 2 ms from its session index 0 and lifetime count 0;
    concentrator c stamps a copy with the emission time plus its skew.
    Copies arrive in the order of emission time plus delay, so arrivals
    shuffle within a small window; a replay arrives a window later and a
    forged frame (another battery byte) within the window.  An arrival more
    than half the counter range from the highest index that arrived before
    it is outside the wrap rule's envelope and counts as lost.
    """
    skews, meters, _ = plan
    timed = []
    for k, (kind, emissions) in enumerate(meters):
        mid = meter_id(k + 1)
        index, cumulative = -1, 0
        for n, (step, quantum_event, skipped, fates) in enumerate(emissions):
            index += step
            cumulative += skipped % step + quantum_event
            t = 2 * (n + 1)
            frame = _frame(mid, kind, index, quantum_event, cumulative)
            for c, skew in enumerate(skews):
                fate, delay = fates[c]
                report = ConcentratorReport(frame, concentrator_id(c + 1), t + skew)
                if fate:
                    timed.append((t + delay, mid, index, report))
                if fate == 2:
                    timed.append((t + delay + _WINDOW, mid, index, report))
                if fate == 3:
                    forged = _frame(mid, kind, index, quantum_event, cumulative, battery=199)
                    timed.append((t + _WINDOW - delay, mid, index, report._replace(frame=forged)))
    timed.sort(key=lambda a: a[0])
    highest: dict[int, int] = {}
    arrivals = []
    for _, mid, index, report in timed:
        top = highest.get(mid, 0)
        if -2**31 <= index - top < 2**31:
            arrivals.append((mid, index, report))
            highest[mid] = max(top, index)
    return arrivals


@settings(max_examples=150, deadline=None)
@given(plan=_PLANS)
@example(plan=_WRAPPING_PLAN)
def test_center_matches_the_brute_force_reference(plan):
    """Streams from 1-3 meters over 1-4 skewed concentrators, with losses,
    duplicates, exact replays, forged frames, jumps of up to 2**31 - 1
    sessions and shuffled arrivals: the center's outcomes, snapshots and
    reconstructions are the reference's, and replaying its log, one line
    per arrival with that copy as its one ingest entry, rebuilds it."""
    _, meters, (a, b) = plan
    registry = Registry()
    for k, (kind, _) in enumerate(meters):
        registry.add_meter(meter_id(k + 1), kind)
    center = MonitoringCenter(registry)
    reference = ReferenceCenter({mid: registry.meter(mid).quantum_du
                                 for mid in registry.meter_ids()})
    records = []
    log = EventLog(record_sink(records))
    for mid, index, report in _arrivals(plan):
        outcome = center.ingest(report)
        assert outcome == reference.ingest(index, report)
        log.emission(report.rx_time_ms, report.frame,
                     [(report.concentrator_id, outcome, report.rx_time_ms)])
    assert "".join(center.snapshots()) == reference.ledgers_text()
    window = (min(a, b), max(a, b))
    assert center.reconstruct_all(window) == reference.reconstruct_all(window)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_records(Path(tmp) / "events.ndjson", records)
        assert "".join(replay_center(read_events(path)).snapshots()) == reference.ledgers_text()


#: reception times, some of them negative or past 64 bits
_FOLD_RX = st.one_of(st.integers(-3, 3), st.sampled_from([-2**63 - 1, 2**64, 2**64 + 5, 10**30]))
#: a transmission's copies as (concentrator number, reception time): a few
#: of 90 concentrators, repeats included, or a fan from the first 60 to 90,
#: the k-th k ms before its reception time
_FOLD_COPIES = st.lists(st.tuples(st.integers(1, 90), _FOLD_RX), max_size=6) | st.builds(
    lambda n, rx: [(k, rx - k) for k in range(1, n + 1)], st.integers(60, 90), _FOLD_RX)
#: transmissions as (meter number, session index, forged, copies)
_FOLDS = st.lists(st.tuples(st.integers(1, 2), st.integers(0, 3 * BLOCK_SESSIONS), st.booleans(),
                            _FOLD_COPIES), max_size=12)
#: a session heard by 70 concentrators and then by an 80th, one whose first
#: copy comes from a concentrator past the 64th, a repeat within one call,
#: a forged frame, and a transmission that every copy of was lost
_WIDE_FOLDS = [(1, 0, False, [(k, 1000 - k) for k in range(1, 71)]),
               (1, 0, False, [(80, -5), (80, 7), (3, 2**64)]),
               (1, 0, True, [(2, 1)]),
               (1, 5, False, [(75, 10), (75, 10), (76, 10**30), (1, 10)]),
               (2, 3, False, [])]


@settings(max_examples=150, deadline=None)
@given(emissions=_FOLDS)
@example(emissions=_WIDE_FOLDS)
def test_fold_emission_is_ingest_copy_by_copy(emissions):
    """Transmissions from two meters, each a session index, a frame that may
    be forged (another battery byte) and its copies in concentrator-id
    order, with repeats, reception times that are negative or past 64 bits,
    and more than 64 concentrators per ledger: ``fold_emission`` gives per
    copy the outcome that ``ReferenceCenter.ingest`` and
    ``MonitoringCenter.ingest`` give one copy at a time, and the same
    ledgers and reconstructions.  A transmission with no copy creates no
    ledger."""
    kinds = {meter_id(1): ResourceKind.COLD_WATER, meter_id(2): ResourceKind.GAS}
    registry = Registry()
    for mid, kind in kinds.items():
        registry.add_meter(mid, kind)
    folded, ingested = MonitoringCenter(registry), MonitoringCenter(registry)
    reference = ReferenceCenter({mid: registry.meter(mid).quantum_du for mid in kinds})
    for k, index, forged, copies in emissions:
        mid = meter_id(k)
        frame = _frame(mid, kinds[mid], index, index % 3 != 0, index,
                       battery=199 if forged else 200)
        copies = sorted(((concentrator_id(c), rx) for c, rx in copies), key=lambda copy: copy[0])
        reports = [ConcentratorReport(frame, cid, rx) for cid, rx in copies]
        outcomes = folded.fold_emission(frame, mid, index, copies)
        assert outcomes == [reference.ingest(index, report) for report in reports]
        assert outcomes == [ingested.ingest(report) for report in reports]
    assert "".join(folded.snapshots()) == reference.ledgers_text() == "".join(ingested.snapshots())
    for window in ((0, 40), (-2**63 - 1, 10**30)):
        assert (folded.reconstruct_all(window) == reference.reconstruct_all(window)
                == ingested.reconstruct_all(window))


#: concentrator ids, two of them past 64 bits, and reception times, three of
#: them past 64 bits: replay's JSON fallback reads integers of any size
_LEDGER_IDS = st.sampled_from([CID1, CID2, 2**64 + 7, 2**70])
_LEDGER_RX = st.one_of(st.integers(-2, 3), st.sampled_from([2**63, -2**63 - 1, 10**30]))


@settings(max_examples=200, deadline=None)
@given(modulus=st.sampled_from([8, SESSION_MOD]),
       copies=st.lists(st.tuples(st.integers(-2, 3), _LEDGER_IDS, _LEDGER_RX, st.booleans(),
                                 st.none() | st.integers(0, 99)),
                       min_size=1, max_size=30))
def test_ledger_line_is_the_reference_snapshot_dumped(modulus, copies):
    """One ledger fed conflicts, exact replays, duplicates that arrive
    earlier, reception times tied across concentrators, session and counter
    wraps, negative reception times and integers past 64 bits writes, a row
    at a time, the line ``json.dumps`` gives for ReferenceCenter's snapshot.

    Each copy is (step from the highest index so far, concentrator, reception
    time, forged, replay).  A forged copy carries another battery byte.  A
    copy with a replay number sends an earlier copy again instead, unless its
    index is now more than half the counter range below the highest.  Index
    n is a heartbeat when n % 3 == 0, and its counter wraps past 2**32 - 1."""
    ledger = SessionLedger(MID, modulus=modulus)
    reference = ReferenceCenter({MID: 1000}, modulus=modulus)
    top = 0
    sent = []
    for step, cid, rx, forged, replay in copies:
        if replay is not None and sent:
            index, report = sent[replay % len(sent)]
            if index - top < -modulus // 2:   # lost: outside the wrap rule's envelope
                continue
        else:
            index = max(0, top + step)
            report = _report(index % modulus, rx, cid=cid, quanta=(index - 5) % 2**32,
                             mtype=(MessageType.HEARTBEAT if index % 3 == 0
                                    else MessageType.QUANTUM_EVENT),
                             battery=199 if forged else 200)
        top = max(top, index)
        sent.append((index, report))
        assert ledger.ingest(report) == reference.ingest(index, report)
    assert "".join(ledger.snapshot_text()) == reference.ledgers_text()
    assert snapshot(ledger) == reference.snapshot(MID)


def _workload(name: str, seed: int) -> dict:
    """A benchmark workload's scenario, as ``perfbench/workloads.py`` generates it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name](seed)


@pytest.mark.parametrize("workload", ["district_week", "lossy_multipath"])
def test_center_holds_at_most_80_bytes_per_accepted_session(tmp_path, workload):
    """A session is a slot of a block's typed columns.  A center rebuilt by
    ``replay_center`` from the log of the workload's run (seed 7) under
    tracemalloc keeps at most 80 bytes per accepted session alive, counted
    over every allocation site: its frames, reception times, indices and
    tables, whatever module allocated them.  A list of four slots per
    session and a ``bytes`` frame and reception-time int each held 126 on
    district_week and 127 on lossy_multipath."""
    scenario = scenario_from_dict(_workload(workload, 7))
    path = tmp_path / "events.ndjson"
    with open(path, "w") as fh:
        run = run_ri(scenario, EventLog(fh.write))
    tracemalloc.start()
    try:
        center = replay_center(read_events(path))
        held_bytes, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "".join(center.snapshots()) == "".join(run.center.snapshots())
    sessions = sum(len(accepted_sessions(ledger)) for ledger in center.ledgers().values())
    assert sessions > 10_000
    assert held_bytes <= 80 * sessions, f"{held_bytes / sessions:.0f} B per session"


def test_sessions_a_block_apart_hold_at_most_a_kibibyte_each():
    """Sessions spread one to a block, the sparsest a ledger can be, hold at
    most 1 KiB each in center.py: a block is a few slots, not a page."""
    ledger = SessionLedger(MID)
    reports = [_report(n * BLOCK_SESSIONS, 1000 + n) for n in range(2000)]
    tracemalloc.start()
    try:
        _feed(ledger, reports)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, risim.center.__file__)])
    finally:
        tracemalloc.stop()
    assert len(accepted_sessions(ledger)) == 2000
    assert len(ledger.lost_runs()) == 1999
    held_bytes = sum(stat.size for stat in held.statistics("filename"))
    assert held_bytes <= 1024 * 2000, f"{held_bytes / 2000:.0f} B per session"


def _center_bytes() -> int:
    """What center.py holds, by tracemalloc, which must be tracing."""
    held = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, risim.center.__file__)])
    return sum(stat.size for stat in held.statistics("filename"))


def test_a_ledger_heard_by_many_concentrators_holds_a_bounded_record_per_copy():
    """A session reported by 10,000 concentrators gives them ledger indices
    up to 9,999; later sessions hold what their copies need, whatever the
    index of the concentrators that sent them: a session sent by the last
    one alone holds no more than a session of a one-concentrator ledger,
    and a second copy from another concentrator a few hundred bytes."""
    n = 10_000
    cids = [concentrator_id(k) for k in range(1, n + 1)]
    frame = _report(0, 0).frame
    fan = [ConcentratorReport(frame, cid, 1000 + k) for k, cid in enumerate(cids)]
    alone = [ConcentratorReport(_report(s, s * 1000).frame, cids[-1], s * 1000)
             for s in range(1, n + 1)]
    seconds = [ConcentratorReport(frame, cids[0], rx + 1) for frame, _, rx in alone]
    ledger = SessionLedger(MID)
    tracemalloc.start()
    try:
        fanned = _feed(ledger, fan)
        held = [_center_bytes()]
        assert set(_feed(ledger, alone)) == {IngestOutcome.ACCEPTED}
        held.append(_center_bytes())
        assert set(_feed(ledger, seconds)) == {IngestOutcome.DUPLICATE}
        held.append(_center_bytes())
    finally:
        tracemalloc.stop()
    assert fanned.count(IngestOutcome.DUPLICATE) == n - 1
    assert set(_feed(ledger, fan[-3:] + seconds[:3])) == {IngestOutcome.STALE}
    rows = accepted_sessions(ledger)
    assert [row.report_count for row in rows] == [n] + [2] * n
    assert {row.rx_concentrator for row in rows[1:]} == {cids[-1]}
    per_concentrator, per_session, per_second = (
        held[0] / n, (held[1] - held[0]) / n, (held[2] - held[1]) / n)
    assert per_concentrator <= 256, f"{per_concentrator:.0f} B per concentrator"
    assert per_session <= 80, f"{per_session:.0f} B per session"
    assert per_second <= 256, f"{per_second:.0f} B per second copy"


def test_session_flood_keeps_one_record():
    """20,000 copies of one session from one concentrator, each at its own
    reception time, fold into one session cheaply: the first is accepted,
    each later one is stale and moves nothing, and none holds memory."""
    frame = _report(0, 0).frame
    times = list(range(1000, 21_000))
    random.Random(5).shuffle(times)
    reports = [ConcentratorReport(frame, CID1, t) for t in times]
    ledger = SessionLedger(MID)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        outcomes = _feed(ledger, reports)
        elapsed = time.perf_counter() - start
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, risim.center.__file__)])
    finally:
        tracemalloc.stop()
    assert outcomes[0] is IngestOutcome.ACCEPTED
    assert outcomes.count(IngestOutcome.STALE) == 19_999
    [rec] = accepted_sessions(ledger)
    assert rec.report_count == 1
    assert rec.rx_time_ms == times[0]
    assert ledger.stale_replays == 19_999
    assert sum(stat.size for stat in held.statistics("filename")) < 4096
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_a_block_keeps_reception_times_past_64_bits_beside_ordinary_ones():
    """Reception times outside 64 bits, accepted into one block and moved
    into another by an earlier duplicate, sit beside ordinary ones: the
    ledger's snapshot, lost runs and reconstructions are the reference's."""
    ledger = SessionLedger(MID)
    reference = ReferenceCenter({MID: 1000})
    times = [5, 2**63, 7, -2**63 - 1, 2**63 - 1, 10**30, -2**63, 9]
    copies = [(s, rx, CID1) for s, rx in enumerate(times)]
    # the next block: ordinary times, then a second copy earlier than 64 bits reach
    copies += [(BLOCK_SESSIONS + s, 100 + s, CID1) for s in range(3)]
    copies.append((BLOCK_SESSIONS + 1, -2**64, CID2))
    for session, rx, cid in copies:
        report = _report(session, rx, cid=cid)
        assert ledger.ingest(report) == reference.ingest(session, report)
    assert "".join(ledger.snapshot_text()) == reference.ledgers_text()
    assert sorted(ledger.quantum_times()) == sorted(times + [100, -2**64, 102])
    assert [(run.first, run.count) for run in ledger.lost_runs()] == [(8, 8)]
    window = (-2**64, 10**30)
    assert ledger.reconstruct(1000, window) == reference.reconstruct_all(window)[0]


def test_a_frame_of_another_length_is_refused_before_any_copy_is_folded():
    """A 23-byte gas frame fed to a cold-water meter's ledger, whose frames
    are 25 bytes, raises ValueError naming the meter and both lengths, alone
    or among copies, and the ledger is as it was."""
    registry = Registry()
    registry.add_meter(MID, ResourceKind.COLD_WATER)
    center = MonitoringCenter(registry)
    assert center.ingest(_report(0, 1000)) is IngestOutcome.ACCEPTED
    before = "".join(center.snapshots())
    gas = _frame(MID, ResourceKind.GAS, 1, True, 2)
    message = f"meter {MID:#x}: a 23-byte frame fed to a ledger of 25-byte frames"
    with pytest.raises(ValueError) as err:
        center.ingest(ConcentratorReport(gas, CID1, 2000))
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        center.fold_emission(gas, MID, 0, [(CID1, 2000), (CID2, 2001)])
    assert str(err.value) == message
    assert "".join(center.snapshots()) == before
    assert center.ingest(_report(1, 2000)) is IngestOutcome.ACCEPTED


def test_an_earlier_resend_from_the_same_concentrator_moves_nothing():
    """A concentrator's second report of a session is stale even when it
    carries an earlier reception time: the session keeps the reception of
    the copies counted, the first from each concentrator."""
    ledger = SessionLedger(MID)
    assert ledger.ingest(_report(0, 5000, cid=CID2)) is IngestOutcome.ACCEPTED
    assert ledger.ingest(_report(0, 4000, cid=CID1)) is IngestOutcome.DUPLICATE
    assert ledger.ingest(_report(0, 1000, cid=CID2)) is IngestOutcome.STALE
    assert ledger.ingest(_report(0, 3000, cid=CID1)) is IngestOutcome.STALE
    [rec] = accepted_sessions(ledger)
    assert (rec.rx_time_ms, rec.rx_concentrator, rec.report_count) == (4000, CID1, 2)
    assert ledger.stale_replays == 2


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_recovers_bounded_losses_exactly():
    # sessions 0..7 emitted, 5 and 6 lost; counters pin the lost events to 2
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, 1000 * (s + 1)) for s in (0, 1, 2, 3, 4, 7)])
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 6
    assert result.quanta_recovered == 2
    assert result.amount_du == 8000
    assert result.trailing_uncertainty_du == 0


def test_reconstruct_recovers_losses_before_first_contact():
    # sessions 0..2 lost on the radio; session 3 arrives with counter 4, so
    # 3 quantum events are known to predate it (4 minus the one it carries)
    ledger = SessionLedger(MID)
    ledger.ingest(_report(3, 7000))
    assert ledger.lost_runs() == [LostRun(0, 3, 0, 7000, 3)]
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 1
    assert result.quanta_recovered == 3
    assert result.amount_du == 4000


def test_lost_heartbeats_add_no_consumption():
    # session 1 was a heartbeat and got lost: a gap, but zero recovered du
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000, quanta=1))
    ledger.ingest(_report(2, 3000, quanta=2))
    assert ledger.lost_runs() == [LostRun(1, 1, 1000, 3000, 0)]
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 2
    assert result.quanta_recovered == 0
    assert result.amount_du == 2000


def test_mixed_lost_run_recovers_only_quantum_events():
    # lost run holds 2 quantum events and 1 heartbeat: counters see only 2
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000, quanta=1))
    # sessions 1 (QE, q=2), 2 (HB, q=2), 3 (QE, q=3) all lost
    ledger.ingest(_report(4, 9000, quanta=4))
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 2
    assert result.quanta_recovered == 2
    assert result.amount_du == 4000


def test_trailing_gap_is_uncertain_not_recovered():
    # the gap's upper bound lies beyond the window end: its quanta are
    # reported as trailing uncertainty, not folded into the window amount
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, 1000 * (s + 1)) for s in (0, 1, 2)])
    ledger.ingest(_report(5, 50_000))
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 3
    assert result.quanta_recovered == 0
    assert result.trailing_uncertainty_du == 2000
    # widen the window past the bound and the same quanta become recovered
    result2 = ledger.reconstruct(1000, (0, 60_000))
    assert result2.quanta_recovered == 2
    assert result2.trailing_uncertainty_du == 0
    assert result2.amount_du == 6000


def test_unbounded_trailing_loss_is_invisible():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000))
    # nothing after session 0 ever arrives: no gap is even known yet
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 1
    assert result.quanta_recovered == 0
    assert ledger.lost_runs() == []


def test_reconstruct_allocates_nothing_per_quantum():
    """Received quanta are counted off the ledger's blocks: reconstructing
    a window over 4,000 of them takes no list of their times."""
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, 1000 * (s + 1)) for s in range(1, 4001)])
    tracemalloc.start()
    try:
        result = ledger.reconstruct(1000, (0, 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.quanta_received, result.quanta_recovered) == (4000, 1)
    assert peak < 8 * 1024, f"{peak} B"


def test_reconstruct_errors():
    ledger = SessionLedger(MID)
    with pytest.raises(NoData):
        ledger.reconstruct(1000, (0, 1000))
    ledger.ingest(_report(0, 500))
    with pytest.raises(ValueError):
        ledger.reconstruct(1000, (2000, 1000))
    with pytest.raises(ValueError):
        ledger.reconstruct(0, (0, 1000))


# ---------------------------------------------------------------------------
# lost-time restoration

def test_uniform_interpolation_midpoint():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(2, 2000))
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [(1, 1500.0)]


def test_uniform_interpolation_quartiles():
    # three lost sessions between receptions at 0 and 10 min land at the
    # quartile times 2.5, 5, 7.5 min
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(4, 600_000))
    [run] = ledger.lost_runs()
    placed = ledger.interpolate_lost_times(run)
    assert placed == [(1, 150_000.0), (2, 300_000.0), (3, 450_000.0)]


def test_interpolation_is_strictly_interior_and_increasing():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(9, 1010))
    [run] = ledger.lost_runs()
    placed = ledger.interpolate_lost_times(run)
    assert [s for s, _ in placed] == list(range(1, 9))
    times = [t for _, t in placed]
    assert all(1000 < t < 1010 for t in times)
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_interpolation_open_run_yields_nothing_until_closed():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(3, 4000))
    ledger.ingest(_report(6, 9000))
    runs = ledger.lost_runs()
    assert [(r.first, r.count) for r in runs] == [(1, 2), (4, 2)]
    # sessions 4,5 sit between accepted 3 and 6: placeable
    assert len(ledger.interpolate_lost_times(runs[1])) == 2


def test_profile_directed_interpolation_follows_mass():
    # profile: half the daily mass in hour 0, a quarter in hour 1, the rest
    # spread thin; one lost event between rx 0 and rx 2h must land where
    # half the bracket's mass sits: 0.5*t/h = 0.375 => t = 45 min
    weights = [Fraction(1, 2), Fraction(1, 4)] + [Fraction(1, 88)] * 22
    profile = ConsumerProfile(MID, tuple(weights))
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(2, 2 * HOUR))
    [run] = ledger.lost_runs()
    [(sess, t)] = ledger.interpolate_lost_times(run, profile)
    assert sess == 1
    assert t == pytest.approx(45 * 60_000, abs=1)


def test_profile_quantiles_shift_toward_heavy_evening():
    # all-but-epsilon mass at hour 18: estimates for a day-long bracket
    # cluster inside that hour rather than spreading uniformly
    weights = [Fraction(1, 10_000)] * 24
    weights[18] = 1 - Fraction(23, 10_000)
    profile = ConsumerProfile(MID, tuple(weights))
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(4, 24 * HOUR))
    [run] = ledger.lost_runs()
    placed = ledger.interpolate_lost_times(run, profile)
    assert [s for s, _ in placed] == [1, 2, 3]
    for _, t in placed:
        assert 18 * HOUR < t < 19 * HOUR


def _reference_profile_quantiles(hourly_weights, t_lo, t_hi, k):
    """Per-target hour walk: total mass first, then one walk from t_lo per quantile.

    Weights given as binary floats are first rounded to the nearest rational
    with a denominator of at most 10**12, as the float profile pipeline did.
    """
    weights = [Fraction(w).limit_denominator(10**12) for w in hourly_weights]

    def mass_to(t):
        total = Fraction(0)
        lo = Fraction(t_lo)
        span = t - lo
        day_mass = sum(weights)
        full_days, rem = divmod(span, 24 * HOUR)
        total += day_mass * full_days
        cursor = lo + full_days * 24 * HOUR
        while rem > 0:
            hour_idx = int((cursor // HOUR) % 24)
            hour_end = (cursor // HOUR + 1) * HOUR
            step = min(rem, hour_end - cursor)
            total += weights[hour_idx] * step / HOUR
            cursor += step
            rem -= step
        return total

    def invert_mass(target):
        acc = Fraction(0)
        cursor = Fraction(t_lo)
        end = Fraction(t_hi)
        while cursor < end:
            hour_idx = int((cursor // HOUR) % 24)
            hour_end = (cursor // HOUR + 1) * HOUR
            step = min(end, hour_end) - cursor
            gain = weights[hour_idx] * step / HOUR
            if acc + gain >= target:
                return cursor + (target - acc) * HOUR / weights[hour_idx]
            acc += gain
            cursor += step
        return end

    total_mass = mass_to(Fraction(t_hi))
    return [invert_mass(total_mass * Fraction(i, k + 1)) for i in range(1, k + 1)]


@settings(deadline=None)
@given(
    counts=st.lists(st.integers(0, 500), min_size=24, max_size=24),
    t_lo=st.integers(0, 3 * 24 * HOUR),
    width=st.integers(1, 3 * 24 * HOUR),
    k=st.integers(1, 40),
)
def test_profile_quantile_sweep_matches_per_target_walk(counts, t_lo, width, k):
    masses = [c if c > 0 else Fraction(1, 1000) for c in counts]
    profile = ConsumerProfile(MID, tuple(Fraction(m) / sum(masses) for m in masses))
    got = _profile_quantiles(profile, t_lo, t_lo + width, k)
    assert got == _reference_profile_quantiles(profile.hourly_weights, t_lo, t_lo + width, k)
    assert all(t_lo < t < t_lo + width for t in got)
    assert got == sorted(got)


@settings(deadline=None)
@given(
    counts=st.lists(st.integers(0, 500), min_size=24, max_size=24),
    t_lo=st.integers(0, 3 * 24 * HOUR),
    width=st.integers(1, 3 * 24 * HOUR),
    k=st.integers(1, 40),
)
def test_exact_profile_quantiles_stay_within_a_millisecond_of_float_weights(
        counts, t_lo, width, k):
    masses = [c if c > 0 else Fraction(1, 1000) for c in counts]
    profile = ConsumerProfile(MID, tuple(Fraction(m) / sum(masses) for m in masses))
    got = _profile_quantiles(profile, t_lo, t_lo + width, k)
    assert all(t_lo < t < t_lo + width for t in got)
    assert all(a < b for a, b in zip(got, got[1:]))
    float_masses = [c if c > 0 else 1e-3 for c in counts]
    float_weights = [m / sum(float_masses) for m in float_masses]
    want = _reference_profile_quantiles(float_weights, t_lo, t_lo + width, k)
    assert all(abs(a - b) <= 1 for a, b in zip(got, want))


def test_two_lost_sessions_land_on_exact_thirds():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(3, 1000))
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [
        (1, Fraction(1000, 3)), (2, Fraction(2000, 3))]


def test_degenerate_bracket_pins_to_boundary():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 5000))
    ledger.ingest(_report(2, 5000))  # same reception instant
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [(1, 5000.0)]


def test_a_run_stamped_backwards_places_its_lost_events_at_its_lower_bound():
    # a late-running concentrator stamps session 0 at 500 ms and another
    # stamps session 2 at 100 ms: the lost quantum sits at 500 ms both in the
    # timing estimate and in the metric's step curve
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 500))
    ledger.ingest(_report(2, 100, cid=CID2))
    [run] = ledger.lost_runs()
    assert (run.t_lo, run.t_hi, run.quanta) == (500, 100, 1)
    assert ledger.interpolate_lost_times(run) == [(1, 500)]
    assert sorted(time_steps(ledger, 1000)) == [(100, 1000), (500, 1000), (500, 1000)]
    assert reconstruction_steps(ledger, 1) == [100, 500, 500]
    assert reconstruction_steps(ledger, 300) == [1, 2, 2]
    profile = ConsumerProfile(MID, (Fraction(1, 24),) * 24)
    assert place_lost(500, 100, 2, profile) == place_lost(500, 500, 2) == [500, 500]


_bounds = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                   st.integers(min_value=-2**70, max_value=2**70))


@settings(max_examples=300, deadline=None)
@given(t_lo=_bounds, t_hi=_bounds, k=st.integers(min_value=0, max_value=12),
       grid=st.one_of(st.integers(min_value=1, max_value=100), st.just(60_000),
                      st.integers(min_value=1, max_value=2**66)))
@example(t_lo=500, t_hi=100, k=2, grid=7)
@example(t_lo=-2**64, t_hi=2**65 + 3, k=5, grid=60_000)
def test_lost_grid_indices_are_the_ceilings_of_place_lost(t_lo, t_hi, k, grid):
    """The metric places a lost quantum at the first grid point at or after
    the time ``place_lost`` gives it, in integers: for bounds stamped
    backwards, negative and past 64 bits alike."""
    assert list(lost_grid_indices(t_lo, t_hi, k, grid)) == [
        math.ceil(t / grid) for t in place_lost(t_lo, t_hi, k)]


# ---------------------------------------------------------------------------
# profile learning

def test_build_profile_uniform_when_rate_constant():
    ledger = SessionLedger(MID)
    # one event per hour for 48 hours: every hour bin gets the same count
    _feed(ledger, [
        _report(s, s * HOUR + HOUR // 2) for s in range(48)
    ])
    profile = ledger.build_profile()
    assert len(profile.hourly_weights) == 24
    for w in profile.hourly_weights:
        assert w == pytest.approx(1 / 24)


def test_build_profile_weights_are_fractions_summing_to_one():
    ledger = SessionLedger(MID)
    # three events in hour 0 and one in hour 5 of each of two days; the
    # other 22 hours get the smoothing mass
    _feed(ledger, [
        _report(s, (s // 4) * 24 * HOUR + (5 * HOUR if s % 4 == 3 else s % 4))
        for s in range(8)
    ])
    weights = ledger.build_profile().hourly_weights
    assert all(type(w) is Fraction for w in weights)
    assert sum(weights) == 1
    assert weights[0] == 6 / (8 + 22 * Fraction(1, 1000))


def test_build_profile_requires_full_day_span():
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, s * HOUR) for s in range(10)])
    with pytest.raises(InsufficientData):
        ledger.build_profile()


def test_build_profile_ignores_heartbeats():
    ledger = SessionLedger(MID)
    reports = [_report(s, s * HOUR + 1, quanta=s + 1) for s in range(30)]
    reports.append(_report(30, 30 * HOUR, mtype=MessageType.HEARTBEAT, quanta=30))
    _feed(ledger, reports)
    profile = ledger.build_profile()
    # the heartbeat's hour (30 mod 24 = 6) got no extra mass: hours 0..5
    # saw two events each, 6..23 one each, so weight(6) < weight(0)
    assert profile.hourly_weights[6] < profile.hourly_weights[0]


def test_empty_hours_get_smoothed_not_zeroed():
    ledger = SessionLedger(MID)
    # events only in hour 0 of each day
    _feed(ledger, [
        _report(s, s * 24 * HOUR + 1000) for s in range(3)
    ])
    profile = ledger.build_profile()
    assert all(w > 0 for w in profile.hourly_weights)
    assert profile.hourly_weights[12] < profile.hourly_weights[0]


# ---------------------------------------------------------------------------
# drift correction

def _loaded_ledger(n, quantum_scale=1.0):
    """Ledger fed n quantum events; true consumption runs at 1000 du per
    event times quantum_scale (a miscalibrated sensor under-counts)."""
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, (s + 1) * 1000) for s in range(n)])
    return ledger


def test_drift_correction_scale_one_for_honest_meter():
    ledger = _loaded_ledger(2000)
    checkpoints = [(1000_000, 1000 * 1000), (2000_000, 2000 * 1000)]
    s = ledger.correct_drift(1000, checkpoints)
    assert s == pytest.approx(1.0, abs=1e-9)


def test_drift_correction_recovers_ten_percent_miscalibration():
    # sensor emits once per true 1100 du but reports the nominal 1000 du
    # quantum: references are 10% above reconstruction, s comes out 1.1
    ledger = _loaded_ledger(2000)
    checkpoints = [(1000_000, 1100 * 1000), (2000_000, 2200 * 1000)]
    s = ledger.correct_drift(1000, checkpoints)
    assert s == pytest.approx(1.1, rel=1e-9)


def test_drift_correction_is_exact():
    ledger = _loaded_ledger(2000)
    checkpoints = [(1000_000, 1100 * 1000), (2000_000, 2200 * 1000)]
    assert ledger.correct_drift(1000, checkpoints) == Fraction(11, 10)


def test_drift_correction_needs_two_checkpoints():
    ledger = _loaded_ledger(2000)
    with pytest.raises(InsufficientData):
        ledger.correct_drift(1000, [(1000_000, 1_000_000)])


def test_drift_correction_needs_quanta_span():
    ledger = _loaded_ledger(500)
    with pytest.raises(InsufficientData):
        ledger.correct_drift(1000, [(100_000, 100_000), (500_000, 500_000)])


# ---------------------------------------------------------------------------
# monitoring center facade

def test_center_routes_and_scopes_by_registry():
    registry = Registry()
    registry.add_meter(MID, ResourceKind.COLD_WATER)
    center = MonitoringCenter(registry)
    assert center.ingest(_report(0, 1000)) is IngestOutcome.ACCEPTED
    with pytest.raises(KeyError):
        center.ledger(meter_id(999))
    [result] = center.reconstruct_all((0, 10_000))
    assert result.amount_du == 1000


def _set(offset, value):
    def mutate(frame: bytes) -> bytes:
        out = bytearray(frame)
        out[offset] = value
        return bytes(out)
    return mutate


#: frames that decode_frame rejects, made from a good cold-water frame
#: (25 bytes: battery at 19, flags at 20)
HOSTILE_FRAMES = {
    "reserved flag bit": _set(20, 0x08),
    "battery 201": _set(19, 201),
    "unknown kind tag": _set(1, 0xEE),
    "gas kind tag on a water-sized frame": _set(1, 5),
    "unknown type tag": _set(2, 0),
    "version 2": _set(0, 2),
    "one byte short": lambda frame: frame[:-1],
    "one byte long": lambda frame: frame + b"\x00",
}


@pytest.mark.parametrize("session", [1, 2])  # a new session, an accepted one
@pytest.mark.parametrize("mutation", sorted(HOSTILE_FRAMES))
def test_center_rejects_hostile_frame_and_changes_nothing(mutation, session):
    registry = Registry()
    registry.add_meter(MID, ResourceKind.COLD_WATER)
    center = MonitoringCenter(registry)
    center.ingest(_report(0, 1000))
    center.ingest(_report(2, 3000))
    before = snapshot(center.ledger(MID))
    good = _report(session, 2000, cid=CID2)
    bad = good._replace(frame=HOSTILE_FRAMES[mutation](good.frame))
    with pytest.raises(MalformedFrame):
        decode_frame(bad.frame)
    with pytest.raises(MalformedFrame):
        center.ingest(bad)
    with pytest.raises(MalformedFrame):
        center.ledger(MID).ingest(bad)
    assert snapshot(center.ledger(MID)) == before
    assert center.ledger(MID).stale_replays == 0


def test_center_reports_zero_rows_for_silent_meters():
    registry = Registry()
    registry.add_meter(MID, ResourceKind.COLD_WATER)
    registry.add_meter(meter_id(4), ResourceKind.HEAT)
    center = MonitoringCenter(registry)
    center.ingest(_report(0, 1000))
    results = {r.meter_id: r for r in center.reconstruct_all((0, 10_000))}
    assert results[meter_id(4)].amount_du == 0
    assert results[MID].amount_du == 1000


def test_profile_weights_validation():
    with pytest.raises(ValueError):
        ConsumerProfile(MID, tuple([1.0] + [0.0] * 23))
    with pytest.raises(ValueError):
        ConsumerProfile(MID, tuple([0.5] * 24))
    with pytest.raises(ValueError):  # sums to exactly 1, but not in Fractions
        ConsumerProfile(MID, tuple([1 / 32] * 16 + [1 / 16] * 8))
    ConsumerProfile(MID, tuple([Fraction(1, 24)] * 24))
