"""Meter behavior against closed-form oracles.

The reference model: a meter that has consumed C deciunits in total with a
fixed quantum Q has emitted exactly floor(C / Q) quantum messages, no matter
how the flow was delivered to it; an idle meter emits exactly
floor(T / heartbeat_interval) heartbeats over T ms.
"""

from __future__ import annotations

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
    encode_frame,
    meter_id,
)
from risim.meter import (
    MeterConfig,
    MeterRun,
    MeterRuntime,
    battery_lifetime,
    effective_quantum_du,
    heartbeat_check,
    ingest_flow,
)
from risim.traces import ConsumptionTrace

MID = meter_id(7)


def _cfg(**kw) -> MeterConfig:
    base = dict(id=MID, kind=ResourceKind.COLD_WATER)
    base.update(kw)
    return MeterConfig(**base)


def _run_flow(cfg, chunks):
    rt = MeterRuntime.installed(cfg)
    out = []
    t = 0
    for amount in chunks:
        t += 1000
        rt, msgs = ingest_flow(rt, cfg, amount, t)
        out.extend(msgs)
    return rt, out


def test_emission_count_is_floor_of_total_over_quantum():
    # oracle: floor(C / Q) for C = 12345 du, Q = 1000 du is 12
    cfg = _cfg(quantum_du=1000)
    rt, msgs = _run_flow(cfg, [12345])
    assert len(msgs) == 12
    assert rt.residual_du == 345
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
    rt_whole, msgs_whole = _run_flow(cfg, [total])
    rt_split, msgs_split = _run_flow(cfg, chunks)
    assert len(msgs_whole) == total // 700
    assert [(m.session, m.state.cumulative_quanta) for m in msgs_whole] == [
        (m.session, m.state.cumulative_quanta) for m in msgs_split
    ]
    assert rt_whole.residual_du == rt_split.residual_du
    assert rt_whole.battery_remaining == rt_split.battery_remaining


def test_zero_flow_emits_nothing():
    cfg = _cfg()
    rt, msgs = _run_flow(cfg, [0, 0, 0])
    assert msgs == []
    assert rt.next_session == 0


def test_negative_flow_rejected():
    cfg = _cfg()
    with pytest.raises(ValueError):
        ingest_flow(MeterRuntime.installed(cfg), cfg, -1, 0)


def test_heartbeat_count_on_idle_trace():
    # oracle: floor(T / interval); 3 days exactly is 3 daily heartbeats
    cfg = _cfg()
    trace = ConsumptionTrace(MID, ((0, Fraction(0)),), 3 * MS_PER_DAY)
    events = list(MeterRun(cfg, trace).events())
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
    events = list(MeterRun(cfg, trace).events())
    assert len(events) == 24
    assert all(m.message_type is MessageType.QUANTUM_EVENT for _, m in events)


def test_drift_inflates_effective_quantum():
    # 1e-6 per quantum after 1e5 quanta inflates 1000 du to exactly 1100 du
    cfg = _cfg(quantum_du=1000, drift_rate=Fraction(1, 1_000_000))
    rt = MeterRuntime.installed(cfg)
    rt = MeterRuntime(
        residual_du=rt.residual_du,
        next_session=rt.next_session,
        last_tx_ms=rt.last_tx_ms,
        battery_remaining=rt.battery_remaining,
        cumulative_quanta=100_000,
    )
    assert effective_quantum_du(cfg, rt) == 1100


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
    rt, msgs = _run_flow(cfg, [20_000])
    assert len(msgs) == 5  # capacity / tx_cost transmissions, then silence
    assert rt.battery_remaining == 0
    rt2, more = ingest_flow(rt, cfg, 10_000, 99_000)
    assert more == []
    assert rt2.residual_du == rt.residual_du  # dead meters do not even meter


def test_heartbeat_skipped_when_dead():
    cfg = _cfg(battery_capacity=Fraction(0))
    rt = MeterRuntime.installed(cfg)
    rt2, msg = heartbeat_check(rt, cfg, 10 * MS_PER_DAY)
    assert msg is None
    assert rt2 == rt


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
    fast = slow.scaled(2)
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
    events = list(MeterRun(cfg, trace).events())
    assert [t for t, _ in events] == [k * 360_000 for k in range(1, 11)]


def test_crossing_time_rounds_up_to_next_millisecond():
    # rate 3000 du/h, quantum 1000 du: first crossing at 1/3 h = 1200000 ms
    # exactly; rate 7000 du/h: at 3600000/7 ms = 514285.71.., logged at 514286
    cfg = _cfg(quantum_du=1000)
    t1 = list(MeterRun(cfg, ConsumptionTrace(MID, ((0, Fraction(3000)),), MS_PER_HOUR)).events())
    assert t1[0][0] == 1_200_000
    t2 = list(MeterRun(cfg, ConsumptionTrace(MID, ((0, Fraction(7000)),), MS_PER_HOUR)).events())
    assert t2[0][0] == 514_286


def test_event_at_exact_horizon_is_included():
    # 1000 du over exactly one hour crosses at the horizon itself
    cfg = _cfg(quantum_du=1000)
    trace = ConsumptionTrace(MID, ((0, Fraction(1000)),), MS_PER_HOUR)
    events = list(MeterRun(cfg, trace).events())
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
    events = list(MeterRun(cfg, trace).events())
    quantum_events = [m for _, m in events if m.message_type is MessageType.QUANTUM_EVENT]
    assert len(quantum_events) == trace.total_du() // 777


def test_sessions_gapless_across_message_types():
    cfg = _cfg(quantum_du=1000, heartbeat_interval_ms=MS_PER_HOUR)
    # active first 30 min, then silent: quantum events then heartbeats
    trace = ConsumptionTrace(
        MID, ((0, Fraction(6000)), (30 * 60_000, Fraction(0))), 5 * MS_PER_HOUR
    )
    events = list(MeterRun(cfg, trace).events())
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


class _ThreeBranchRun(MeterRun):
    """Reference schedule: one branch per crossing, heartbeat and segment end.

    Each branch does its own drain, flow top-up and transmission, so it
    checks the single step rule of ``MeterRun.events`` independently: both
    must give the same frames, times, depletion and final state.
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
)


@st.composite
def _schedules(draw):
    horizon_min = draw(st.integers(min_value=2, max_value=12 * 60))
    starts = draw(st.lists(st.integers(min_value=1, max_value=horizon_min - 1),
                           unique=True, max_size=8))
    breakpoints = tuple(
        (m * 60_000, draw(_rates)) for m in [0] + sorted(starts)
    )
    cfg = _cfg(
        quantum_du=draw(st.sampled_from([500, 777, 1000])),
        heartbeat_interval_ms=draw(st.sampled_from([10, 20, 30, 60, 150])) * 60_000,
        battery_capacity=draw(st.fractions(min_value=1, max_value=200, max_denominator=4)),
        tx_cost=draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 2)])),
        idle_drain_per_hour=draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(5)])),
        drift_rate=draw(st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 50)])),
    )
    return cfg, ConsumptionTrace(MID, breakpoints, horizon_min * 60_000)


@settings(max_examples=150, deadline=None)
@given(_schedules())
def test_schedule_matches_three_branch_reference(schedule):
    cfg, trace = schedule
    run, ref = MeterRun(cfg, trace), _ThreeBranchRun(cfg, trace)
    got = [(t, encode_frame(m)) for t, m in run.events()]
    want = [(t, encode_frame(m)) for t, m in ref.events()]
    assert got == want
    assert run.depleted_at_ms == ref.depleted_at_ms
    assert run.runtime == ref.runtime
