"""Meter schedule: quantum emission, idle heartbeats, battery, drift.

A meter has no receive path at all: it only transmits, which is what
guarantees it cannot be addressed or reconfigured over the air.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        if self.max_flow_du_per_hour is not None:
            object.__setattr__(self, "max_flow_du_per_hour", Fraction(self.max_flow_du_per_hour))
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


def _message(cfg: MeterConfig, battery: Fraction, quanta: int, session: int,
             mtype: MessageType) -> MeterMessage:
    """The frame content of one transmission, after it spent ``tx_cost``."""
    return MeterMessage(
        meter_id=cfg.id,
        session=session % SESSION_MOD,
        kind=cfg.kind,
        message_type=mtype,
        quality=QualityVector.nominal(cfg.kind),
        state=MeterState(
            battery=round(max(battery, 0) * 200 / cfg.battery_capacity),
            cumulative_quanta=quanta % 2**32,
        ),
    )


class MeterRun:
    """Exact event schedule for one meter over one trace.

    Every instant is closed-form on the piecewise-constant trace.  Quantum
    n is sent when the registered flow reaches its lifetime threshold
    ``q·n + q·d·n(n−1)/2`` (quantum q, drift rate d), a heartbeat at
    ``last_tx + interval`` unless a crossing lies at or before it, and idle
    drain kills the meter at ``(capacity − tx_cost·sent)·1 h / drain``.
    Each frame is sent at the first whole millisecond at or after its
    instant; events at exactly the horizon are included.  After iteration,
    ``battery_remaining`` holds the final battery and ``depleted_at_ms`` the
    death time if the battery died inside the horizon (0 for a meter
    installed with an empty battery).
    """

    def __init__(self, cfg: MeterConfig, trace: ConsumptionTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.battery_remaining = cfg.battery_capacity
        self.depleted_at_ms: int | None = None

    def events(self) -> Iterator[tuple[int, MeterMessage]]:
        cfg = self.cfg
        q, d, interval = cfg.quantum_du, cfg.drift_rate, cfg.heartbeat_interval_ms
        cap, cost, drain = cfg.battery_capacity, cfg.tx_cost, cfg.idle_drain_per_hour
        if cap <= 0:
            self.depleted_at_ms = 0
            return
        sent = quanta = last_tx = 0
        consumed = Fraction(0)  # registered flow at the segment start
        death = cap * MS_PER_HOUR / drain if drain else None
        for start, end, rate in self.trace.segments():
            while True:
                n = quanta + 1
                crossing = None
                if rate > 0:
                    threshold = q * n + q * d * (n * (n - 1) // 2)
                    crossing = start + (threshold - consumed) * MS_PER_HOUR / rate
                beat = last_tx + interval
                if crossing is not None and crossing <= min(end, beat):
                    at, mtype = crossing, MessageType.QUANTUM_EVENT
                    quanta = n
                elif beat <= end:
                    at, mtype = beat, MessageType.HEARTBEAT
                else:
                    break
                if death is not None and death <= at:
                    self._die(death, 0)
                    return
                sent += 1
                battery = cap - cost * sent - drain * at / MS_PER_HOUR
                last_tx = math.ceil(at)
                yield last_tx, _message(cfg, battery, quanta, sent - 1, mtype)
                if battery <= 0:
                    self._die(at, battery)
                    return
                if drain:
                    death = (cap - cost * sent) * MS_PER_HOUR / drain
            if death is not None and death <= end:
                self._die(death, 0)
                return
            consumed += rate * (end - start) / MS_PER_HOUR
        self.battery_remaining = cap - cost * sent - drain * self.trace.horizon_ms / MS_PER_HOUR

    def _die(self, at, battery) -> None:
        self.depleted_at_ms = math.ceil(at)
        self.battery_remaining = Fraction(battery)


def battery_lifetime(cfg: MeterConfig, trace: ConsumptionTrace) -> int | None:
    """Simulated time at which the battery reaches zero.

    Returns None when the battery outlasts the trace horizon, as an explicit
    survives-the-window marker rather than a sentinel number.
    """
    run = MeterRun(cfg, trace)
    for _ in run.events():
        pass
    return run.depleted_at_ms
