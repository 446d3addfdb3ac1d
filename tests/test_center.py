"""Session ledger: dedup, wrap-aware gaps, exact recovery, restoration.

Reference model used throughout: the emitter numbers messages 0,1,2,... with
no holes, so after any subset is lost the missing numbers are exactly the
complement of what arrived; lifetime quantum counters then pin the lost
consumption amount to an exact value.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risim.center import (
    ConsumerProfile,
    IngestOutcome,
    InsufficientData,
    MonitoringCenter,
    NoData,
    SessionLedger,
    _profile_quantiles,
)
from risim.domain import (
    ConcentratorReport,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    Registry,
    ResourceKind,
    concentrator_id,
    meter_id,
)

MID = meter_id(3)
CID1 = concentrator_id(1)
CID2 = concentrator_id(2)
HOUR = 3_600_000


def _report(session, rx_ms, *, cid=CID1, mtype=MessageType.QUANTUM_EVENT,
            quanta=None, battery=1.0) -> ConcentratorReport:
    msg = MeterMessage(
        meter_id=MID,
        session=session,
        kind=ResourceKind.COLD_WATER,
        message_type=mtype,
        quality=QualityVector.nominal(ResourceKind.COLD_WATER),
        state=MeterState(
            battery_level=battery,
            cumulative_quanta=session + 1 if quanta is None else quanta,
        ),
    )
    return ConcentratorReport(message=msg, concentrator_id=cid, rx_time_ms=rx_ms)


def _feed(ledger, reports):
    return [ledger.ingest(r) for r in reports]


# ---------------------------------------------------------------------------
# ingest outcomes and dedup

def test_gap_from_skipped_sessions():
    ledger = SessionLedger(MID)
    _feed(ledger, [_report(s, s * 1000) for s in (1, 2, 4, 5)])
    assert ledger.detect_gaps() == [3]
    assert ledger.gap_runs() == [[3]]


def test_outcome_sequence():
    ledger = SessionLedger(MID)
    assert ledger.ingest(_report(0, 1000)) is IngestOutcome.ACCEPTED
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.DUPLICATE
    assert ledger.ingest(_report(0, 1200, cid=CID2)) is IngestOutcome.STALE
    assert ledger.stale_replays == 1
    # same session, different payload bytes: tamper evidence
    assert ledger.ingest(_report(0, 1500, quanta=9)) is IngestOutcome.CONFLICT
    assert ledger.detect_gaps() == []
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
    assert reference["gaps"] == [0, 4, 5, 11]  # 0 lost before first contact


def test_reingesting_duplicates_is_idempotent():
    ledger = SessionLedger(MID)
    reports = [_report(s, 1000 * s) for s in range(5)]
    _feed(ledger, reports)
    snap1 = ledger.snapshot(include_reception_stats=False)
    _feed(ledger, reports)  # byte-exact replays
    snap2 = ledger.snapshot(include_reception_stats=False)
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
    assert ledger.detect_gaps() == [0]
    assert ledger.highest_session == 1


def test_wrap_oracle_brute_force_small_modulus():
    """Random lossy sequences at modulus 256: gaps must equal the lost set.

    The oracle is the generator itself: emit consecutive sessions (wire =
    index mod 256), drop a random subset, feed survivors in emission order
    (the channel loses but does not reorder).  Loss bursts are capped below
    half the counter range, the wrap rule's operating envelope.
    """
    mod = 256
    rng = random.Random(4242)
    for trial in range(40):
        n = rng.randint(5, 900)
        start = rng.randint(0, 5 * mod)
        lost = {i for i in range(start, start + n) if rng.random() < 0.3}
        # cap loss bursts so consecutive survivors stay within half range
        run = 0
        for i in range(start, start + n):
            run = run + 1 if i in lost else 0
            if run >= mod // 2 - 1:
                lost.discard(i)
                run = 0
        survivors = [i for i in range(start, start + n) if i not in lost]
        if not survivors:
            continue
        # anchor at the true start so pre-contact losses are tracked too
        ledger = SessionLedger(MID, initial_session=start, modulus=mod)
        _feed(ledger, [_report(i % mod, 10 * i, quanta=i + 1) for i in survivors])
        expected_gaps = [i % mod for i in range(start, max(survivors))
                         if i in lost]
        assert ledger.detect_gaps() == expected_gaps, f"trial {trial}"


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
    assert ledger.detect_gaps() == [0, 1, 2]
    result = ledger.reconstruct(1000, (0, 10_000))
    assert result.quanta_received == 1
    assert result.quanta_recovered == 3
    assert result.amount_du == 4000


def test_lost_heartbeats_add_no_consumption():
    # session 1 was a heartbeat and got lost: a gap, but zero recovered du
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000, quanta=1))
    ledger.ingest(_report(2, 3000, quanta=2))
    assert ledger.detect_gaps() == [1]
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
    assert ledger.detect_gaps() == []


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
    placed = ledger.interpolate_lost_times([1])
    assert placed == [(1, 1500.0)]


def test_uniform_interpolation_quartiles():
    # three lost sessions between receptions at 0 and 10 min land at the
    # quartile times 2.5, 5, 7.5 min
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(4, 600_000))
    placed = ledger.interpolate_lost_times([1, 2, 3])
    assert placed == [(1, 150_000.0), (2, 300_000.0), (3, 450_000.0)]


def test_interpolation_is_strictly_interior_and_increasing():
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(9, 1010))
    placed = ledger.interpolate_lost_times(list(range(1, 9)))
    times = [t for _, t in placed]
    assert all(1000 < t < 1010 for t in times)
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_interpolation_open_run_yields_nothing_until_closed():
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 1000))
    ledger.ingest(_report(3, 4000))
    ledger.ingest(_report(6, 9000))
    assert ledger.detect_gaps() == [1, 2, 4, 5]
    # sessions 4,5 sit between accepted 3 and 6: placeable
    assert len(ledger.interpolate_lost_times([4, 5])) == 2
    with pytest.raises(ValueError):
        ledger.interpolate_lost_times([2, 4])  # not contiguous
    with pytest.raises(ValueError):
        ledger.interpolate_lost_times([3])  # not lost


def test_profile_directed_interpolation_follows_mass():
    # profile: half the daily mass in hour 0, a quarter in hour 1, the rest
    # spread thin; one lost event between rx 0 and rx 2h must land where
    # half the bracket's mass sits: 0.5*t/h = 0.375 => t = 45 min
    weights = [0.5, 0.25] + [0.25 / 22] * 22
    profile = ConsumerProfile(MID, tuple(weights))
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(2, 2 * HOUR))
    [(sess, t)] = ledger.interpolate_lost_times([1], profile)
    assert sess == 1
    assert t == pytest.approx(45 * 60_000, abs=1)


def test_profile_quantiles_shift_toward_heavy_evening():
    # all-but-epsilon mass at hour 18: estimates for a day-long bracket
    # cluster inside that hour rather than spreading uniformly
    weights = [1e-4] * 24
    weights[18] = 1 - 23e-4
    profile = ConsumerProfile(MID, tuple(weights))
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 0))
    ledger.ingest(_report(4, 24 * HOUR))
    placed = ledger.interpolate_lost_times([1, 2, 3], profile)
    for _, t in placed:
        assert 18 * HOUR < t < 19 * HOUR


def _reference_profile_quantiles(profile, t_lo, t_hi, k):
    """Per-target hour walk: total mass first, then one walk from t_lo per quantile."""
    weights = [Fraction(w).limit_denominator(10**12) for w in profile.hourly_weights]

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
    masses = [c if c > 0 else 1e-3 for c in counts]
    profile = ConsumerProfile(MID, tuple(m / sum(masses) for m in masses))
    got = _profile_quantiles(profile, t_lo, t_lo + width, k)
    assert got == _reference_profile_quantiles(profile, t_lo, t_lo + width, k)
    assert all(t_lo < t < t_lo + width for t in got)
    assert got == sorted(got)


def test_degenerate_bracket_pins_to_boundary():
    ledger = SessionLedger(MID, initial_session=0)
    ledger.ingest(_report(0, 5000))
    ledger.ingest(_report(2, 5000))  # same reception instant
    assert ledger.interpolate_lost_times([1]) == [(1, 5000.0)]


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
    ConsumerProfile(MID, tuple([Fraction(1, 24)] * 24))
