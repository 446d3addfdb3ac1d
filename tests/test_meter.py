"""Meter behavior against closed-form oracles.

The reference model: a meter that has consumed C deciunits in total with a
fixed quantum Q has emitted exactly floor(C / Q) quantum messages, no matter
how the flow was delivered to it; an idle meter emits exactly
floor(T / heartbeat_interval) heartbeats over T ms.
"""

from __future__ import annotations

import cProfile
import inspect
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risim.meter as meter_mod
from risim.domain import (
    MS_PER_DAY,
    MS_PER_HOUR,
    MessageType,
    MeterMessage,
    ResourceKind,
    decode_frame,
    meter_id,
)
from risim.meter import MeterConfig, MeterRun
from risim.traces import ConsumptionTrace

from oracles import (_StepRun, battery_lifetime, effective_quantum_du, heartbeat_check,
                     ingest_flow, reference_frame, scaled, total_du)

MID = meter_id(7)


def _cfg(**kw) -> MeterConfig:
    base = dict(id=MID, kind=ResourceKind.COLD_WATER)
    base.update(kw)
    return MeterConfig(**base)


def _flow_trace(chunks) -> ConsumptionTrace:
    """Chunk i of consumption delivered evenly over second i."""
    return ConsumptionTrace(
        MID,
        tuple((1000 * i, Fraction(c) * MS_PER_HOUR / 1000) for i, c in enumerate(chunks)),
        1000 * len(chunks),
    )


def _sent(run: MeterRun) -> list[tuple[int, MeterMessage]]:
    """(time, message) per frame of ``run``, read back by the library codec."""
    return [(t, decode_frame(frame)) for t, _, frame in run.events()]


def _run_flow(cfg, chunks):
    run = MeterRun(cfg, _flow_trace(chunks))
    return run, [m for _, m in _sent(run)]


def test_emission_count_is_floor_of_total_over_quantum():
    # oracle: floor(C / Q) for C = 12345 du, Q = 1000 du is 12
    cfg = _cfg(quantum_du=1000)
    run, msgs = _run_flow(cfg, [12345])
    assert len(msgs) == 12
    assert run.battery_remaining == cfg.battery_capacity - 12
    assert [m.session for m in msgs] == list(range(12))
    assert all(m.message_type is MessageType.QUANTUM_EVENT for m in msgs)
    assert [m.state.cumulative_quanta for m in msgs] == list(range(1, 13))


@settings(max_examples=60, deadline=None)
@given(
    total=st.integers(min_value=0, max_value=50_000),
    cuts=st.lists(st.integers(min_value=0, max_value=50_000), max_size=6),
)
def test_emission_count_invariant_under_flow_splitting(total, cuts):
    """However the same total is chopped up, the messages are identical."""
    cfg = _cfg(quantum_du=700)
    points = sorted({min(c, total) for c in cuts})
    chunks, prev = [], 0
    for p in points + [total]:
        chunks.append(p - prev)
        prev = p
    run_whole, msgs_whole = _run_flow(cfg, [total])
    run_split, msgs_split = _run_flow(cfg, chunks)
    assert len(msgs_whole) == total // 700
    assert [(m.session, m.state.cumulative_quanta) for m in msgs_whole] == [
        (m.session, m.state.cumulative_quanta) for m in msgs_split
    ]
    assert run_whole.battery_remaining == run_split.battery_remaining


def test_zero_flow_emits_nothing():
    cfg = _cfg()
    run, msgs = _run_flow(cfg, [0, 0, 0])
    assert msgs == []
    assert run.battery_remaining == cfg.battery_capacity


def test_negative_flow_rejected():
    # a meter sees flow only through its trace, which refuses a negative rate
    with pytest.raises(ValueError):
        ConsumptionTrace(MID, ((0, Fraction(1000)), (1000, Fraction(-1))), MS_PER_HOUR)


def test_heartbeat_count_on_idle_trace():
    # oracle: floor(T / interval); 3 days exactly is 3 daily heartbeats
    cfg = _cfg()
    trace = ConsumptionTrace(MID, ((0, Fraction(0)),), 3 * MS_PER_DAY)
    events = _sent(MeterRun(cfg, trace))
    assert [t for t, _ in events] == [MS_PER_DAY, 2 * MS_PER_DAY, 3 * MS_PER_DAY]
    assert all(m.message_type is MessageType.HEARTBEAT for _, m in events)
    # heartbeats consume session numbers like any other message
    assert [m.session for _, m in events] == [0, 1, 2]
    assert all(m.state.cumulative_quanta == 0 for _, m in events)


def test_heartbeat_suppressed_while_consumption_talks():
    # 1 quantum every 2 hours keeps the meter chatty; a 1 day heartbeat
    # interval never becomes due over 2 days of such flow
    cfg = _cfg(quantum_du=1000, heartbeat_interval_ms=MS_PER_DAY)
    trace = ConsumptionTrace(MID, ((0, Fraction(500)),), 2 * MS_PER_DAY)
    events = _sent(MeterRun(cfg, trace))
    assert len(events) == 24
    assert all(m.message_type is MessageType.QUANTUM_EVENT for _, m in events)


def _lifetime_threshold(q, d, n):
    """Registered flow at which quantum n is sent: sum of q·(1 + d·j), j < n."""
    return q * n + q * d * n * (n - 1) / 2


# at 3600 du/h (1 du/s) every threshold in du is the crossing time in seconds
_DU_PER_SECOND = Fraction(3600)


def test_drift_inflates_effective_quantum():
    # 1e-2 per quantum after 10 quanta inflates 1000 du to exactly 1100 du:
    # quantum 11 comes 1100 s after quantum 10
    cfg = _cfg(quantum_du=1000, drift_rate=Fraction(1, 100))
    trace = ConsumptionTrace(MID, ((0, _DU_PER_SECOND),), MS_PER_DAY)
    times = [t for t, _ in _sent(MeterRun(cfg, trace))]
    assert times[:11] == [1000 * _lifetime_threshold(1000, cfg.drift_rate, n)
                          for n in range(1, 12)]
    assert times[10] - times[9] == 1100 * 1000


def test_drifting_meter_sends_one_quantum_per_lifetime_threshold():
    # oracle: max{n : q·n + q·d·n(n−1)/2 <= total}, over more than 10**5 quanta
    q, d = 1000, Fraction(1, 10**6)
    cfg = _cfg(quantum_du=q, drift_rate=d)
    trace = ConsumptionTrace(MID, ((0, _DU_PER_SECOND),), 10**6 * 105_060 + 61)
    total = total_du(trace)
    # the root of the quadratic, then corrected exactly
    expected = int(2 * total / (q + math.sqrt(q * q + 2 * q * d * total)))
    while _lifetime_threshold(q, d, expected + 1) <= total:
        expected += 1
    while _lifetime_threshold(q, d, expected) > total:
        expected -= 1
    assert expected > 10**5
    events = _sent(MeterRun(cfg, trace))
    assert len(events) == expected
    assert all(m.message_type is MessageType.QUANTUM_EVENT for _, m in events)
    assert events[-1][1].state.cumulative_quanta == expected


def test_drifting_meter_underreports():
    # with threshold inflation the same physical flow yields fewer messages
    honest = _cfg(quantum_du=1000)
    drifty = _cfg(quantum_du=1000, drift_rate=Fraction(1, 100))
    _, honest_msgs = _run_flow(honest, [100_000])
    _, drifty_msgs = _run_flow(drifty, [100_000])
    assert len(honest_msgs) == 100
    assert len(drifty_msgs) < len(honest_msgs)


def test_dead_battery_emits_nothing():
    cfg = _cfg(quantum_du=1000, battery_capacity=Fraction(5), tx_cost=Fraction(1))
    # 20 quanta of flow in the first second, 10 more in the second
    run, msgs = _run_flow(cfg, [20_000, 10_000])
    assert len(msgs) == 5  # capacity / tx_cost transmissions, then silence
    assert run.battery_remaining == 0
    # the fifth quantum is complete 5/20 of the way through the first second
    assert run.depleted_at_ms == 250


def test_battery_byte_rounds_half_to_even():
    # capacity 80 spends 2.5 wire units per send: 197.5, 192.5 and 187.5
    # round to the even byte, as round() of the exact level does
    cfg = _cfg(battery_capacity=Fraction(80), tx_cost=Fraction(1))
    trace = ConsumptionTrace(MID, ((0, Fraction(60_000)),), MS_PER_HOUR)
    events = _sent(MeterRun(cfg, trace))
    assert [m.state.battery for _, m in events[:6]] == [198, 195, 192, 190, 188, 185]


def test_heartbeat_skipped_when_dead():
    # capacity 3 and an hourly heartbeat: three heartbeats, then silence
    cfg = _cfg(battery_capacity=Fraction(3), heartbeat_interval_ms=MS_PER_HOUR)
    trace = ConsumptionTrace(MID, ((0, Fraction(0)),), 10 * MS_PER_DAY)
    run = MeterRun(cfg, trace)
    events = _sent(run)
    assert [t for t, _ in events] == [MS_PER_HOUR, 2 * MS_PER_HOUR, 3 * MS_PER_HOUR]
    assert run.depleted_at_ms == 3 * MS_PER_HOUR
    assert run.battery_remaining == 0


@pytest.mark.parametrize("rate", [Fraction(5000), Fraction(0)])
def test_meter_installed_dead_never_transmits(rate):
    # an empty battery at installation: no frame, depleted from time zero
    cfg = _cfg(quantum_du=1000, battery_capacity=Fraction(0),
               heartbeat_interval_ms=MS_PER_HOUR)
    trace = ConsumptionTrace(MID, ((0, rate),), MS_PER_DAY)
    run = MeterRun(cfg, trace)
    assert list(run.events()) == []
    assert run.depleted_at_ms == 0
    assert battery_lifetime(cfg, trace) == 0


def test_battery_lifetime_closed_form_heartbeat_only():
    # capacity 10, cost 1 per message, daily heartbeat: the 10th heartbeat
    # at day 10 spends the last unit, so depletion lands exactly there
    cfg = _cfg(battery_capacity=Fraction(10), tx_cost=Fraction(1))
    trace = ConsumptionTrace(MID, ((0, Fraction(0)),), 30 * MS_PER_DAY)
    assert battery_lifetime(cfg, trace) == 10 * MS_PER_DAY


def test_battery_lifetime_idle_drain_closed_form():
    # pure idle drain: capacity 24 at 1 per hour dies exactly at hour 24,
    # before the first daily heartbeat could fire
    cfg = _cfg(battery_capacity=Fraction(24), tx_cost=Fraction(0),
               idle_drain_per_hour=Fraction(1))
    trace = ConsumptionTrace(MID, ((0, Fraction(0)),), 3 * MS_PER_DAY)
    assert battery_lifetime(cfg, trace) == 24 * MS_PER_HOUR


def test_battery_survives_horizon_returns_none():
    cfg = _cfg()
    trace = ConsumptionTrace(MID, ((0, Fraction(1000)),), MS_PER_DAY)
    assert battery_lifetime(cfg, trace) is None


def test_doubling_consumption_shortens_battery_life():
    cfg = _cfg(quantum_du=1000, battery_capacity=Fraction(50), tx_cost=Fraction(1),
               heartbeat_interval_ms=10 * MS_PER_DAY)
    slow = ConsumptionTrace(MID, ((0, Fraction(2000)),), 5 * MS_PER_DAY)
    fast = scaled(slow, 2)
    t_slow = battery_lifetime(cfg, slow)
    t_fast = battery_lifetime(cfg, fast)
    assert t_slow is not None and t_fast is not None
    assert t_fast < t_slow
    # closed form: the 50th message at double rate lands at 50 * (1000 du /
    # 4000 du-per-hour) hours = 12.5 h
    assert t_fast == 12 * MS_PER_HOUR + 30 * 60_000


def test_crossing_times_exact_on_constant_rate():
    # 1 quantum per 6 minutes: crossings at exact 360000 ms multiples
    cfg = _cfg(quantum_du=1000)
    trace = ConsumptionTrace(MID, ((0, Fraction(10_000)),), MS_PER_HOUR)
    events = _sent(MeterRun(cfg, trace))
    assert [t for t, _ in events] == [k * 360_000 for k in range(1, 11)]


def test_crossing_time_rounds_up_to_next_millisecond():
    # rate 3000 du/h, quantum 1000 du: first crossing at 1/3 h = 1200000 ms
    # exactly; rate 7000 du/h: at 3600000/7 ms = 514285.71.., logged at 514286
    cfg = _cfg(quantum_du=1000)
    t1 = _sent(MeterRun(cfg, ConsumptionTrace(MID, ((0, Fraction(3000)),), MS_PER_HOUR)))
    assert t1[0][0] == 1_200_000
    t2 = _sent(MeterRun(cfg, ConsumptionTrace(MID, ((0, Fraction(7000)),), MS_PER_HOUR)))
    assert t2[0][0] == 514_286


def test_event_at_exact_horizon_is_included():
    # 1000 du over exactly one hour crosses at the horizon itself
    cfg = _cfg(quantum_du=1000)
    trace = ConsumptionTrace(MID, ((0, Fraction(1000)),), MS_PER_HOUR)
    events = _sent(MeterRun(cfg, trace))
    assert [t for t, _ in events] == [MS_PER_HOUR]


def test_meter_run_conservation_on_varied_trace():
    # oracle: floor(total consumption / quantum), computed from the trace
    cfg = _cfg(quantum_du=777)
    trace = ConsumptionTrace(
        MID,
        ((0, Fraction(4321)), (5 * MS_PER_HOUR, Fraction(0)),
         (9 * MS_PER_HOUR, Fraction(1234, 7))),
        24 * MS_PER_HOUR,
    )
    events = _sent(MeterRun(cfg, trace))
    quantum_events = [m for _, m in events if m.message_type is MessageType.QUANTUM_EVENT]
    assert len(quantum_events) == total_du(trace) // 777


def test_sessions_gapless_across_message_types():
    cfg = _cfg(quantum_du=1000, heartbeat_interval_ms=MS_PER_HOUR)
    # active first 30 min, then silent: quantum events then heartbeats
    trace = ConsumptionTrace(
        MID, ((0, Fraction(6000)), (30 * 60_000, Fraction(0))), 5 * MS_PER_HOUR
    )
    events = _sent(MeterRun(cfg, trace))
    assert [m.session for _, m in events] == list(range(len(events)))
    kinds = [m.message_type for _, m in events]
    assert kinds[:3] == [MessageType.QUANTUM_EVENT] * 3
    assert all(k is MessageType.HEARTBEAT for k in kinds[3:])


def test_meter_has_no_receive_surface():
    """No public operation takes an inbound message: transmit-only device."""
    for name, fn in inspect.getmembers(meter_mod, inspect.isfunction):
        if name.startswith("_"):
            continue
        for param in inspect.signature(fn).parameters.values():
            assert param.annotation != MeterMessage.__name__
            assert "MeterMessage" not in str(param.annotation)


@pytest.mark.parametrize("drain", [Fraction(0), Fraction(1)])
def test_schedule_builds_no_fraction_per_frame(drain):
    """Fraction arithmetic runs once per segment or run, never per frame: a
    pass over 10**4 quanta on one segment builds fewer than 50 of them."""
    cfg = _cfg(quantum_du=1000, idle_drain_per_hour=drain)
    trace = ConsumptionTrace(MID, ((0, Fraction(10**6)),), 10 * MS_PER_HOUR)
    run = MeterRun(cfg, trace)
    profile = cProfile.Profile()
    profile.enable()
    frames = sum(1 for _ in run.events())
    profile.disable()
    assert frames == 10**4
    profile.create_stats()
    # newer Pythons build arithmetic results through _from_coprime_ints
    source = Fraction.__new__.__code__.co_filename
    built = sum(stat[1] for (path, _, name), stat in profile.stats.items()
                if path == source and name in ("__new__", "_from_coprime_ints"))
    assert built < 50


# ---------------------------------------------------------------------------
# reference schedules: the per-step state machines MeterRun's closed form
# replaced; ``_StepRun`` lives in oracles.py, which its whole-run reference shares


class _ThreeBranchRun(_StepRun):
    """Reference schedule: one branch per crossing, heartbeat and segment end.

    Each branch does its own drain, flow top-up and transmission, so it
    checks the single step rule of ``_StepRun.events`` independently.
    """

    def events(self):
        cfg = self.cfg
        cursor = Fraction(0)
        for seg_start, seg_end, rate in self.trace.segments():
            while cursor < seg_end:
                rt = self.runtime
                t_cross = None
                if rate > 0:
                    need = effective_quantum_du(cfg, rt) - rt.residual_du
                    t = cursor + need * MS_PER_HOUR / rate
                    if t <= seg_end:
                        t_cross = t
                t_hb = rt.last_tx_ms + cfg.heartbeat_interval_ms
                hb_due = t_hb <= seg_end
                if t_cross is not None and (not hb_due or math.ceil(t_cross) <= t_hb):
                    if not self._drain_until(cursor, t_cross):
                        return
                    rt = self.runtime
                    amount = effective_quantum_du(cfg, rt) - rt.residual_du
                    when = math.ceil(t_cross)
                    rt, msgs = ingest_flow(rt, cfg, amount, when)
                    self.runtime = rt
                    yield when, msgs[0]
                    cursor = t_cross
                elif hb_due:
                    if not self._drain_until(cursor, t_hb):
                        return
                    rt = self.runtime
                    sipped = rate * (t_hb - cursor) / MS_PER_HOUR
                    rt = replace(rt, residual_du=rt.residual_du + sipped)
                    rt, msg = heartbeat_check(rt, cfg, t_hb)
                    self.runtime = rt
                    yield t_hb, msg
                    cursor = Fraction(t_hb)
                else:
                    if not self._drain_until(cursor, seg_end):
                        return
                    rt = self.runtime
                    sipped = rate * (seg_end - cursor) / MS_PER_HOUR
                    self.runtime = replace(rt, residual_du=rt.residual_du + sipped)
                    cursor = Fraction(seg_end)
                if self.runtime.battery_remaining <= 0:
                    self.depleted_at_ms = int(cursor) if cursor == int(cursor) else math.ceil(cursor)
                    return


# Rates that put crossings on whole minutes, so that a crossing often meets a
# heartbeat deadline exactly, mixed with arbitrary rational rates.
_rates = st.one_of(
    st.sampled_from([Fraction(0), Fraction(0), Fraction(3000), Fraction(6000),
                     Fraction(7000), Fraction(1234, 7)]),
    st.fractions(min_value=0, max_value=9000, max_denominator=13),
    st.fractions(min_value=0, max_value=9000, max_denominator=10**6),
)

# Capacities 16 and 80 put some battery levels at exactly half a wire unit.
_capacities = st.one_of(
    st.sampled_from([Fraction(16), Fraction(80)]),
    st.fractions(min_value=1, max_value=200, max_denominator=4),
    st.fractions(min_value=1, max_value=200, max_denominator=10**6),
)


@st.composite
def _schedules(draw):
    horizon_min = draw(st.integers(min_value=2, max_value=12 * 60))
    starts = draw(st.lists(st.integers(min_value=1, max_value=horizon_min - 1),
                           unique=True, max_size=8))
    breakpoints = tuple(
        (m * 60_000, draw(_rates)) for m in [0] + sorted(starts)
    )
    quantum = draw(st.sampled_from([1, 500, 777, 1000]))
    # a free send with a 1 du quantum would make up to 10**5 frames
    costs = ([Fraction(0)] if quantum > 1 else []) + [Fraction(1), Fraction(3, 2)]
    cfg = _cfg(
        quantum_du=quantum,
        heartbeat_interval_ms=draw(st.sampled_from([10, 20, 30, 60, 150])) * 60_000,
        battery_capacity=draw(_capacities),
        tx_cost=draw(st.sampled_from(costs)),
        idle_drain_per_hour=draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(5)])),
        drift_rate=draw(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 50)])),
    )
    trace = ConsumptionTrace(MID, breakpoints, horizon_min * 60_000)
    # An interval as long as the first frame's time, if that frame is a
    # crossing, puts the crossing exactly on the heartbeat deadline.
    if draw(st.booleans()):
        first = next(_StepRun(cfg, trace).events(), None)
        if first is not None and first[1].message_type is MessageType.QUANTUM_EVENT:
            cfg = replace(cfg, heartbeat_interval_ms=first[0])
    # Drain that puts the death exactly on a crossing or a heartbeat: frame j
    # at instant t (drain leaves instants alone) finds the battery at
    # capacity − tx_cost·j − drain·t / 1 h, which is zero for this drain.
    tie = draw(st.sampled_from([None, MessageType.QUANTUM_EVENT, MessageType.HEARTBEAT]))
    if tie is not None:
        ref = _StepRun(replace(cfg, idle_drain_per_hour=Fraction(0)), trace)
        sent = [msg for _, msg in ref.events()]
        frames = [(j, at) for j, (msg, at) in enumerate(zip(sent, ref.instants))
                  if msg.message_type is tie]
        if frames:
            j, at = draw(st.sampled_from(frames))
            drain = (cfg.battery_capacity - cfg.tx_cost * j) * MS_PER_HOUR / at
            cfg = replace(cfg, idle_drain_per_hour=drain)
    return cfg, trace


@settings(max_examples=150, deadline=None)
@given(_schedules())
def test_schedule_matches_step_references(schedule):
    """The closed-form schedule gives the frames, times, depletion and final
    battery of both per-step references."""
    cfg, trace = schedule
    run = MeterRun(cfg, trace)
    events = list(run.events())
    got = [(t, frame) for t, _, frame in events]
    # each frame goes out with its own meter id and session
    assert [(cfg.id, session) for _, session, _ in events] == [
        (m.meter_id, m.session) for m in (decode_frame(frame) for _, frame in got)]
    for ref in (_StepRun(cfg, trace), _ThreeBranchRun(cfg, trace)):
        assert [(t, reference_frame(m)) for t, m in ref.events()] == got
        assert ref.depleted_at_ms == run.depleted_at_ms
        assert ref.battery_remaining == run.battery_remaining
