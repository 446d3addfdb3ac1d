"""Meter state machine: quantum emission, idle heartbeats, battery, drift.

Operations are pure state transitions (runtime in, new runtime out).  A meter
has no receive path at all: it only transmits, which is what guarantees it
cannot be addressed or reconfigured over the air.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator

from .domain import (
    DEFAULT_QUANTUM_DU,
    MS_PER_DAY,
    MS_PER_HOUR,
    MessageType,
    MeterMessage,
    MeterState,
    QualityVector,
    ResourceKind,
    SESSION_MOD,
)
from .traces import ConsumptionTrace


@dataclass(frozen=True)
class MeterConfig:
    """Static per-device parameters fixed at installation."""

    id: int
    kind: ResourceKind
    quantum_du: int | None = None          # None picks the kind's default
    heartbeat_interval_ms: int = MS_PER_DAY
    battery_capacity: Fraction = Fraction(10**6)
    tx_cost: Fraction = Fraction(1)
    idle_drain_per_hour: Fraction = Fraction(0)
    drift_rate: Fraction = Fraction(0)     # quantum inflation per emitted quantum
    max_flow_du_per_hour: Fraction | None = None

    def __post_init__(self) -> None:
        if self.quantum_du is None:
            object.__setattr__(self, "quantum_du", DEFAULT_QUANTUM_DU[self.kind])
        for name in ("battery_capacity", "tx_cost", "idle_drain_per_hour", "drift_rate"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.quantum_du <= 0:
            raise ValueError("quantum must be positive")
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.battery_capacity < 0 or self.tx_cost < 0:
            raise ValueError("battery parameters must be nonnegative")
        if self.idle_drain_per_hour < 0 or self.drift_rate < 0:
            raise ValueError("idle drain and drift rate must be nonnegative")
        if self.max_flow_du_per_hour is not None and self.max_flow_du_per_hour < 0:
            raise ValueError("max flow must be nonnegative")


@dataclass(frozen=True)
class MeterRuntime:
    """Mutable-by-replacement device state between transmissions."""

    residual_du: Fraction
    next_session: int
    last_tx_ms: int
    battery_remaining: Fraction
    cumulative_quanta: int

    @classmethod
    def installed(cls, cfg: MeterConfig) -> MeterRuntime:
        return cls(
            residual_du=Fraction(0),
            next_session=0,
            last_tx_ms=0,
            battery_remaining=cfg.battery_capacity,
            cumulative_quanta=0,
        )


def effective_quantum_du(cfg: MeterConfig, rt: MeterRuntime) -> Fraction:
    """Current emission threshold: the nominal quantum inflated by drift.

    Drift is linear in lifetime quanta, e.g. a rate of 1e-6 after 1e5 quanta
    inflates a 1000 du quantum to 1100 du.
    """
    return cfg.quantum_du * (1 + cfg.drift_rate * Fraction(rt.cumulative_quanta))


def _message(cfg: MeterConfig, battery: Fraction, quanta: int, session: int,
             mtype: MessageType) -> MeterMessage:
    """The frame content of one transmission, after it spent ``tx_cost``."""
    cap = cfg.battery_capacity
    frac = min(max(battery, 0), cap) / cap if cap > 0 else 0
    return MeterMessage(
        meter_id=cfg.id,
        session=session % SESSION_MOD,
        kind=cfg.kind,
        message_type=mtype,
        quality=QualityVector.nominal(cfg.kind),
        state=MeterState(
            battery_level=round(frac * 200) / 200,
            cumulative_quanta=quanta % 2**32,
        ),
    )


def ingest_flow(rt: MeterRuntime, cfg: MeterConfig, amount_du,
                now_ms: int) -> tuple[MeterRuntime, list[MeterMessage]]:
    """Register ``amount_du`` of consumption ending at ``now_ms``.

    Emits one message per effective-quantum crossing; with zero drift that is
    exactly floor((residual + amount) / quantum) messages.  A dead battery
    neither emits nor accumulates: flow past the moment of death is simply
    never registered.
    """
    amount = Fraction(amount_du)
    if amount < 0:
        raise ValueError("consumption amount must be nonnegative")
    if rt.battery_remaining <= 0:
        return rt, []
    residual = rt.residual_du + amount
    session = rt.next_session
    battery = rt.battery_remaining
    quanta = rt.cumulative_quanta
    messages: list[MeterMessage] = []
    while True:
        eff = cfg.quantum_du * (1 + cfg.drift_rate * Fraction(quanta))
        if residual < eff:
            break
        if battery <= 0:
            residual = Fraction(0)  # sensor died mid-stream; the rest is lost
            break
        residual -= eff
        quanta += 1
        battery -= cfg.tx_cost
        messages.append(_message(cfg, battery, quanta, session, MessageType.QUANTUM_EVENT))
        session += 1
    rt = replace(
        rt,
        residual_du=residual,
        next_session=session,
        battery_remaining=battery,
        cumulative_quanta=quanta,
        last_tx_ms=now_ms if messages else rt.last_tx_ms,
    )
    return rt, messages


def heartbeat_check(rt: MeterRuntime, cfg: MeterConfig,
                    now_ms: int) -> tuple[MeterRuntime, MeterMessage | None]:
    """Emit a liveness message if the meter has been silent a full interval."""
    if rt.battery_remaining <= 0:
        return rt, None
    if now_ms - rt.last_tx_ms < cfg.heartbeat_interval_ms:
        return rt, None
    battery = rt.battery_remaining - cfg.tx_cost
    msg = _message(cfg, battery, rt.cumulative_quanta, rt.next_session, MessageType.HEARTBEAT)
    rt = replace(
        rt,
        next_session=rt.next_session + 1,
        battery_remaining=battery,
        last_tx_ms=now_ms,
    )
    return rt, msg


class MeterRun:
    """Exact event schedule for one meter over one trace.

    Crossing instants are rational solutions on the piecewise-constant trace.
    Each step registers the flow up to the next instant through
    ``ingest_flow`` and then calls ``heartbeat_check``, both at the first
    whole millisecond at or after the instant, so ordering and conservation
    are exact.  Events at exactly the horizon are included.  After iteration,
    ``runtime`` holds the final state and ``depleted_at_ms`` the battery
    death time if it died inside the horizon (0 for a meter installed with
    an empty battery).
    """

    def __init__(self, cfg: MeterConfig, trace: ConsumptionTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.runtime = MeterRuntime.installed(cfg)
        self.depleted_at_ms: int | None = None

    def events(self) -> Iterator[tuple[int, MeterMessage]]:
        cfg = self.cfg
        if self.runtime.battery_remaining <= 0:
            self.depleted_at_ms = 0
            return
        cursor = Fraction(0)
        for _, seg_end, rate in self.trace.segments():
            while cursor < seg_end:
                # step to the segment end, the heartbeat deadline or the
                # crossing, whichever comes first; a crossing at the deadline
                # transmits and so resets it
                rt = self.runtime
                step_to = min(seg_end, rt.last_tx_ms + cfg.heartbeat_interval_ms)
                if rate > 0:
                    need = effective_quantum_du(cfg, rt) - rt.residual_du
                    step_to = min(step_to, cursor + need * MS_PER_HOUR / rate)
                if not self._drain_until(cursor, step_to):
                    return
                now = math.ceil(step_to)
                amount = rate * (step_to - cursor) / MS_PER_HOUR
                rt, msgs = ingest_flow(self.runtime, cfg, amount, now)
                rt, heartbeat = heartbeat_check(rt, cfg, now)
                self.runtime = rt
                for msg in msgs:
                    yield now, msg
                if heartbeat is not None:
                    yield now, heartbeat
                cursor = step_to
                if rt.battery_remaining <= 0:
                    self.depleted_at_ms = now
                    return

    def _drain_until(self, t_from: Fraction, t_to) -> bool:
        """Apply idle drain over [t_from, t_to); False when the battery dies."""
        cfg = self.cfg
        rt = self.runtime
        if cfg.idle_drain_per_hour == 0 or t_to <= t_from:
            return True
        death = t_from + rt.battery_remaining * MS_PER_HOUR / cfg.idle_drain_per_hour
        if death <= t_to:
            self.runtime = replace(rt, battery_remaining=Fraction(0))
            self.depleted_at_ms = math.ceil(death)
            return False
        spent = cfg.idle_drain_per_hour * (Fraction(t_to) - t_from) / MS_PER_HOUR
        self.runtime = replace(rt, battery_remaining=rt.battery_remaining - spent)
        return True


def battery_lifetime(cfg: MeterConfig, trace: ConsumptionTrace) -> int | None:
    """Simulated time at which the battery reaches zero.

    Returns None when the battery outlasts the trace horizon, as an explicit
    survives-the-window marker rather than a sentinel number.
    """
    run = MeterRun(cfg, trace)
    for _ in run.events():
        pass
    return run.depleted_at_ms
