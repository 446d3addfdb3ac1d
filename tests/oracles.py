"""Reference helpers that only tests call, kept out of the package so the
oracles share no code with what they check beyond the trace's own
``cumulative_du``."""

from __future__ import annotations

from fractions import Fraction

from risim.center import SessionLedger
from risim.meter import MeterConfig, MeterRun
from risim.traces import ConsumptionTrace


def battery_lifetime(cfg: MeterConfig, trace: ConsumptionTrace) -> int | None:
    """Simulated time at which the battery reaches zero.

    Returns None when the battery outlasts the trace horizon, as an explicit
    survives-the-window marker rather than a sentinel number.
    """
    run = MeterRun(cfg, trace)
    for _ in run.events():
        pass
    return run.depleted_at_ms


def accepted_count(ledger: SessionLedger) -> int:
    return len(ledger.accepted_sessions())


def consumed_between(trace: ConsumptionTrace, a_ms, b_ms) -> Fraction:
    return trace.cumulative_du(b_ms) - trace.cumulative_du(a_ms)


def total_du(trace: ConsumptionTrace) -> Fraction:
    return trace.cumulative_du(trace.horizon_ms)


def scaled(trace: ConsumptionTrace, factor) -> ConsumptionTrace:
    """Same shape with every rate multiplied by ``factor``."""
    f = Fraction(factor)
    if f < 0:
        raise ValueError("scale factor must be nonnegative")
    return ConsumptionTrace(
        trace.meter_id,
        tuple((t, r * f) for t, r in trace.breakpoints),
        trace.horizon_ms,
    )
