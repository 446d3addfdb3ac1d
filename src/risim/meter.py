"""Meter schedule: quantum emission, idle heartbeats, battery, drift.

A meter has no receive path at all: it only transmits, which is what
guarantees it cannot be addressed or reconfigured over the air.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .domain import (
    DEFAULT_QUANTUM_DU,
    ConfigError,
    MS_PER_DAY,
    MS_PER_HOUR,
    NOMINAL_QUALITY_DU,
    MessageType,
    ResourceKind,
    SESSION_MOD,
    device_name,
    frame_builder,
    nonnegative_number,
    resource_kind,
    whole_number,
)
from .traces import ConsumptionTrace


@dataclass(frozen=True)
class MeterConfig:
    """Static per-device parameters fixed at installation."""

    id: int
    kind: ResourceKind                     # or its word; held as the member
    quantum_du: int | None = None          # None picks the kind's default
    heartbeat_interval_ms: int = MS_PER_DAY
    battery_capacity: Fraction = Fraction(10**6)
    tx_cost: Fraction = Fraction(1)
    idle_drain_per_hour: Fraction = Fraction(0)
    drift_rate: Fraction = Fraction(0)     # quantum inflation per emitted quantum
    max_flow_du_per_hour: Fraction | None = None

    def __post_init__(self) -> None:
        where = device_name("meter", whole_number(self.id, "meter id"))
        object.__setattr__(self, "kind", resource_kind(self.kind, f"{where}: kind"))
        if self.quantum_du is None:
            object.__setattr__(self, "quantum_du", DEFAULT_QUANTUM_DU[self.kind])
        for name in ("battery_capacity", "tx_cost", "idle_drain_per_hour", "drift_rate",
                     "max_flow_du_per_hour"):
            value = getattr(self, name)
            if value is None and name == "max_flow_du_per_hour":   # none declared
                continue
            object.__setattr__(self, name, nonnegative_number(value, f"{where}: {name}"))
        if whole_number(self.quantum_du, f"{where}: quantum_du") <= 0:
            raise ConfigError(f"{where}: quantum must be positive")
        if whole_number(self.heartbeat_interval_ms, f"{where}: heartbeat_interval_ms") <= 0:
            raise ConfigError(f"{where}: heartbeat interval must be positive")


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

    The closed form is evaluated in integers: per frame only the numerators
    below change, and ``Fraction`` arithmetic runs once per segment or run.
    """

    def __init__(self, cfg: MeterConfig, trace: ConsumptionTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.battery_remaining = cfg.battery_capacity
        self.depleted_at_ms: int | None = None

    def events(self) -> Iterator[tuple[int, int, bytes]]:
        """(emission ms, session, frame) per transmission, in order."""
        cfg = self.cfg
        cap, cost, drain = cfg.battery_capacity, cfg.tx_cost, cfg.idle_drain_per_hour
        if cap <= 0:
            self.depleted_at_ms = 0
            return
        q, interval = cfg.quantum_du, cfg.heartbeat_interval_ms
        dn, dd = cfg.drift_rate.numerator, cfg.drift_rate.denominator
        quality = NOMINAL_QUALITY_DU[cfg.kind]
        quantum_frame = frame_builder(cfg.id, cfg.kind, MessageType.QUANTUM_EVENT, quality)
        heartbeat_frame = frame_builder(cfg.id, cfg.kind, MessageType.HEARTBEAT, quality)
        # In wire units the battery at instant A/Q after s sends is
        # 200 − r·s − g·A/Q.  Over unit·Q, with unit = rd·gd, its numerator is
        # Q·left − per_ms·A, where left = (200 − r·s)·unit and per_ms = g·unit:
        # its sign says whether the battery is empty, and its quotient rounded
        # half to even is the battery byte.
        r = 200 * cost / cap
        g = 200 * drain / (MS_PER_HOUR * cap)
        unit = r.denominator * g.denominator
        step, per_ms = r.numerator * g.denominator, g.numerator * r.denominator
        left = 200 * unit
        sent = quanta = last_tx = 0
        consumed = Fraction(0)  # registered flow at the segment start
        for start, end, rate in self.trace.segments():
            a = rate.numerator
            if a:
                # quantum n lies num(n)/den after the segment start, with
                # num(n) = n·(lin + quad·(n − 1)) − base
                b, c, dc = rate.denominator, consumed.numerator, consumed.denominator
                k = 2 * dd * dc
                lin = k * q * MS_PER_HOUR * b
                quad = dc * q * dn * MS_PER_HOUR * b
                base = 2 * dd * c * MS_PER_HOUR * b
                den = k * a
            while True:
                beat = last_tx + interval
                if a:
                    # t is the crossing's emission ms; end and beat are whole
                    # ms, so the crossing lies at or before them exactly when
                    # t does, and it wins a tie with the heartbeat
                    n = quanta + 1
                    num = n * (lin + quad * quanta) - base
                    t = start - (-num // den)
                if a and t <= end and t <= beat:
                    quanta = n
                    build = quantum_frame
                    at_q, at_a = den, start * den + num
                elif beat <= end:
                    t = beat
                    build = heartbeat_frame
                    at_q, at_a = 1, beat
                else:
                    break
                # empty before the frame: drain killed the meter at
                # left / per_ms (without drain, left > 0 between frames)
                level = at_q * left - per_ms * at_a
                if level <= 0:
                    self._die(-(-left // per_ms), Fraction(0))
                    return
                sent += 1
                left -= step
                level -= at_q * step
                byte = 0
                if level > 0:
                    whole = unit * at_q
                    byte, rest = divmod(level, whole)
                    rest *= 2
                    if rest > whole or (rest == whole and byte & 1):
                        byte += 1
                last_tx = t
                session = (sent - 1) % SESSION_MOD
                yield t, session, build(session, byte, 0, quanta % 2**32)
                if level <= 0:
                    self._die(t, self._battery(sent, Fraction(at_a, at_q)))
                    return
            if left <= per_ms * end:
                self._die(-(-left // per_ms), Fraction(0))
                return
            consumed += rate * (end - start) / MS_PER_HOUR
        self.battery_remaining = self._battery(sent, self.trace.horizon_ms)

    def _battery(self, sent: int, at: Fraction | int) -> Fraction:
        cfg = self.cfg
        return (cfg.battery_capacity - cfg.tx_cost * sent
                - cfg.idle_drain_per_hour * at / MS_PER_HOUR)

    def _die(self, at_ms: int, battery: Fraction) -> None:
        self.depleted_at_ms = at_ms
        self.battery_remaining = battery
