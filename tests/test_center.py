"""Session ledger: dedup, wrap-aware gaps, exact recovery, restoration.

Reference model used throughout: the emitter numbers messages 0,1,2,... with
no holes, so after any subset is lost the missing numbers are exactly the
complement of what arrived; lifetime quantum counters then pin the lost
consumption amount to an exact value.
"""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risim.center import (
    ConsumerProfile,
    IngestOutcome,
    InsufficientData,
    LostRun,
    MonitoringCenter,
    NoData,
    SessionLedger,
    _profile_quantiles,
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
    concentrator_id,
    decode_frame,
    encode_frame,
    meter_id,
)

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
    assert ledger.lost_runs() == [LostRun(3, 1, 2000, 4000, 1)]


def test_outcome_sequence():
    ledger = SessionLedger(MID)
    assert ledger.ingest(_report(0, 1000)) is IngestOutcome.ACCEPTED
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.DUPLICATE
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.STALE
    assert ledger.stale_replays == 1
    # same session, different payload bytes: tamper evidence
    assert ledger.ingest(_report(0, 1500, quanta=9)) is IngestOutcome.CONFLICT
    assert ledger.lost_runs() == []
    snap = ledger.snapshot()
    assert snap["conflicts"] == [0]
    # first payload is kept
    assert ledger.accepted_sessions()[0].cumulative_quanta == 1


def test_dedup_keeps_earliest_reception():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 5000, cid=CID2))
    ledger.ingest(_report(0, 3000, cid=CID1))
    rec = ledger.accepted_sessions()[0]
    assert rec.rx_time_ms == 3000
    assert rec.rx_concentrator == CID1
    assert rec.report_count == 2


def test_dedup_tie_breaks_on_lowest_concentrator():
    ledger = SessionLedger(MID)
    ledger.ingest(_report(0, 3000, cid=CID2))
    ledger.ingest(_report(0, 3000, cid=CID1))
    rec = ledger.accepted_sessions()[0]
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
        ledger = SessionLedger(MID, initial_session=0)
        _feed(ledger, shuffled)
        snap = ledger.snapshot()
        if reference is None:
            reference = snap
        assert snap == reference
    assert reference["gaps"] == [[0, 1], [4, 2], [11, 1]]  # 0 lost before first contact


def test_reingesting_duplicates_is_idempotent():
    ledger = SessionLedger(MID)
    reports = [_report(s, 1000 * s) for s in range(5)]
    _feed(ledger, reports)
    snap1 = ledger.snapshot()
    _feed(ledger, reports)  # byte-exact replays leave even the report counts
    snap2 = ledger.snapshot()
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

    The oracle is the generator itself: emit consecutive sessions (wire =
    index mod 256), drop a random subset, and feed the survivors in
    emission order.  Loss bursts are capped below half the counter range,
    the wrap rule's operating envelope.  A second feed reorders survivors
    by up to 24 sessions, which also brings arrivals below the lowest
    session accepted so far; its bursts are capped at a quarter range so
    burst plus reordering stays inside the envelope.  Each feed goes to a
    ledger anchored at the true start, so pre-contact losses are tracked
    too, and to one with no initial session, which anchors at its first
    arrival.  Reception time is 10 ms per index and the lifetime counter
    counts from the start, so each lost run is bracketed by its neighbours
    and loses exactly its length in quanta.  Some runs wrap past 255 to 0.
    """
    mod = 256
    displacement = 24
    rng = random.Random(4242)
    arrivals_below_lowest = 0
    wrapped_runs = 0
    for trial in range(40):
        n = rng.randint(5, 900)
        start = rng.randint(0, 5 * mod)
        lost = {i for i in range(start, start + n) if rng.random() < 0.3}
        # cap loss bursts so consecutive survivors stay within half range
        lost = _cap_bursts(lost, start, start + n, mod // 2 - 1)
        survivors = [i for i in range(start, start + n) if i not in lost]
        if not survivors:
            continue
        lost_r = _cap_bursts(lost, start, start + n, mod // 4)
        reordered = sorted(
            (i for i in range(start, start + n) if i not in lost_r),
            key=lambda i: i + rng.randint(0, displacement),
        )
        lowest = reordered[0]
        for i in reordered:
            arrivals_below_lowest += i < lowest
            lowest = min(lowest, i)
        for dropped, order in ((lost, survivors), (lost_r, reordered)):
            for initial in (start, None):
                ledger = SessionLedger(MID, initial_session=initial, modulus=mod)
                _feed(ledger, [_report(i % mod, 10 * i, quanta=i - start + 1)
                               for i in order])
                lo = start if initial is not None else min(order)
                hi = max(order)
                runs = _expected_runs(dropped, lo, hi)
                wrapped_runs += sum(a // mod != b // mod for a, b in runs)
                where = f"trial {trial}, initial {initial}, reordered {order is reordered}"
                assert ledger.first_covered == lo % mod, where
                lost_runs = ledger.lost_runs()
                assert [s for r in lost_runs for s, _ in ledger.interpolate_lost_times(r)] == [
                    i % mod for i in range(lo, hi) if i in dropped
                ], where
                assert lost_runs == [
                    LostRun(a % mod, b - a + 1,
                            10 * (a - 1) if a > start else 0, 10 * (b + 1), b - a + 1)
                    for a, b in runs
                ], where
                assert ledger.snapshot()["gaps"] == [
                    [a % mod, b - a + 1] for a, b in runs
                ], where
    assert arrivals_below_lowest > 0
    assert wrapped_runs > 0


def test_forged_session_jump_allocates_no_gap_entries():
    """A forward jump of 10**6 sessions, or of the widest one the wrap rule
    reads as forward, is one lost run, in the ledger and in its snapshot."""
    for jump in (10**6, 2**31 - 1):
        ledger = SessionLedger(MID, initial_session=0)
        reports = [_report(0, 1000), _report(jump, 2000)]
        tracemalloc.start()
        try:
            _feed(ledger, reports)
            runs = ledger.lost_runs()
            snap = ledger.snapshot()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs == [LostRun(1, jump - 1, 1000, 2000, jump - 1)]
        assert snap["gaps"] == [[1, jump - 1]]
        assert peak < 2**20, f"jump {jump}: peak {peak} B"


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_recovers_bounded_losses_exactly():
    # sessions 0..7 emitted, 5 and 6 lost; counters pin the lost events to 2
    ledger = SessionLedger(MID, initial_session=0)
    _feed(ledger, [_report(s, 1000 * (s + 1)) for s in (0, 1, 2, 3, 4, 7)])
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 6
    assert result.quanta_recovered == 2
    assert result.amount_du == 8000
    assert result.trailing_uncertainty_du == 0


def test_reconstruct_recovers_losses_before_first_contact():
    # sessions 0..2 lost on the radio; session 3 arrives with counter 4, so
    # 3 quantum events are known to predate it (4 minus the one it carries)
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(3, 7000))
    assert ledger.lost_runs() == [LostRun(0, 3, 0, 7000, 3)]
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 1
    assert result.quanta_recovered == 3
    assert result.amount_du == 4000


def test_lost_heartbeats_add_no_consumption():
    # session 1 was a heartbeat and got lost: a gap, but zero recovered du
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000, quanta=1))
    ledger.ingest(_report(2, 3000, quanta=2))
    assert ledger.lost_runs() == [LostRun(1, 1, 1000, 3000, 0)]
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 2
    assert result.quanta_recovered == 0
    assert result.amount_du == 2000


def test_mixed_lost_run_recovers_only_quantum_events():
    # lost run holds 2 quantum events and 1 heartbeat: counters see only 2
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000))
    # nothing after session 0 ever arrives: no gap is even known yet
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 1
    assert result.quanta_recovered == 0
    assert ledger.lost_runs() == []


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
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(2, 2000))
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [(1, 1500.0)]


def test_uniform_interpolation_quartiles():
    # three lost sessions between receptions at 0 and 10 min land at the
    # quartile times 2.5, 5, 7.5 min
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(4, 600_000))
    [run] = ledger.lost_runs()
    placed = ledger.interpolate_lost_times(run)
    assert placed == [(1, 150_000.0), (2, 300_000.0), (3, 450_000.0)]


def test_interpolation_is_strictly_interior_and_increasing():
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(3, 1000))
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [
        (1, Fraction(1000, 3)), (2, Fraction(2000, 3))]


def test_degenerate_bracket_pins_to_boundary():
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 5000))
    ledger.ingest(_report(2, 5000))  # same reception instant
    [run] = ledger.lost_runs()
    assert ledger.interpolate_lost_times(run) == [(1, 5000.0)]


# ---------------------------------------------------------------------------
# profile learning

def test_build_profile_uniform_when_rate_constant():
    ledger = SessionLedger(MID, initial_session=0)
    # one event per hour for 48 hours: every hour bin gets the same count
    _feed(ledger, [
        _report(s, s * HOUR + HOUR // 2) for s in range(48)
    ])
    profile = ledger.build_profile()
    assert len(profile.hourly_weights) == 24
    for w in profile.hourly_weights:
        assert w == pytest.approx(1 / 24)


def test_build_profile_weights_are_fractions_summing_to_one():
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
    _feed(ledger, [_report(s, s * HOUR) for s in range(10)])
    with pytest.raises(InsufficientData):
        ledger.build_profile()


def test_build_profile_ignores_heartbeats():
    ledger = SessionLedger(MID, initial_session=0)
    reports = [_report(s, s * HOUR + 1, quanta=s + 1) for s in range(30)]
    reports.append(_report(30, 30 * HOUR, mtype=MessageType.HEARTBEAT, quanta=30))
    _feed(ledger, reports)
    profile = ledger.build_profile()
    # the heartbeat's hour (30 mod 24 = 6) got no extra mass: hours 0..5
    # saw two events each, 6..23 one each, so weight(6) < weight(0)
    assert profile.hourly_weights[6] < profile.hourly_weights[0]


def test_empty_hours_get_smoothed_not_zeroed():
    ledger = SessionLedger(MID, initial_session=0)
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
    ledger = SessionLedger(MID, initial_session=0)
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
    before = center.ledger(MID).snapshot()
    good = _report(session, 2000, cid=CID2)
    bad = good._replace(frame=HOSTILE_FRAMES[mutation](good.frame))
    with pytest.raises(MalformedFrame):
        decode_frame(bad.frame)
    with pytest.raises(MalformedFrame):
        center.ingest(bad)
    with pytest.raises(MalformedFrame):
        center.ledger(MID).ingest(bad)
    assert center.ledger(MID).snapshot() == before
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
