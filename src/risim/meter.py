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
    quality: QualityVector | None = None   # fixed readout; None means nominal

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


def _message(cfg: MeterConfig, rt: MeterRuntime, session: int,
             mtype: MessageType) -> MeterMessage:
    if cfg.battery_capacity > 0:
        frac = max(Fraction(0), min(Fraction(1), rt.battery_remaining / cfg.battery_capacity))
    else:
        frac = Fraction(0)
    return MeterMessage(
        meter_id=cfg.id,
        session=session % SESSION_MOD,
        kind=cfg.kind,
        message_type=mtype,
        quality=cfg.quality or QualityVector.nominal(cfg.kind),
        state=MeterState(
            battery_level=round(frac * 200) / 200,
            cumulative_quanta=rt.cumulative_quanta % 2**32,
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
        snapshot = replace(rt, battery_remaining=battery, cumulative_quanta=quanta)
        messages.append(_message(cfg, snapshot, session, MessageType.QUANTUM_EVENT))
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
    snapshot = replace(rt, battery_remaining=battery)
    msg = _message(cfg, snapshot, rt.next_session, MessageType.HEARTBEAT)
    rt = replace(
        rt,
        next_session=rt.next_session + 1,
        battery_remaining=battery,
        last_tx_ms=now_ms,
    )
    return rt, msg


class MeterRun:
    """Exact event schedule for one meter over one trace.

    Crossing instants are rational solutions on the piecewise-constant trace;
    the logged time is the first whole millisecond at or after the instant,
    so ordering and conservation are exact.  Events at exactly the horizon
    are included.  After iteration, ``runtime`` holds the final state and
    ``depleted_at_ms`` the battery death time if it died inside the horizon.
    """

    def __init__(self, cfg: MeterConfig, trace: ConsumptionTrace) -> None:
        self.cfg = cfg
        self.trace = trace
        self.runtime = MeterRuntime.installed(cfg)
        self.depleted_at_ms: int | None = None

    def events(self) -> Iterator[tuple[int, MeterMessage]]:
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
