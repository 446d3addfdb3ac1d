"""Deterministic discrete-event engine and the polling baseline.

One run advances a single merged event stream in (time, meter, session)
order.  All randomness flows from the scenario seed through two derived
streams: trace generation (per meter) and channel losses, so a given config
plus seed reproduces its event log byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .center import MonitoringCenter, SessionLedger, evenly_spaced
from .concentrator import ConcentratorConfig, VisibilityMap, broadcast, receive
from .domain import (
    BASE_UNIT,
    ConfigError,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    MessageType,
    Registry,
    encode_frame,
)
from .eventlog import EventKind, EventLogRecord
from .meter import MeterConfig, MeterRun
from .traces import CHANNEL_STREAM, ConsumptionTrace, TraceSpec, generate_trace, mix_seed

#: bytes of one polling-mode register reading on the wire: a 3-byte header,
#: 8-byte meter id, 8-byte register, 4-byte poll counter
TI_READING_BYTES = 23


class LoadBoundExceeded(RuntimeError):
    """Measured channel load exceeded its analytic ceiling."""


@dataclass(frozen=True)
class SimMeter:
    """One meter in a scenario: device config, demand recipe, radio links."""

    config: MeterConfig
    trace: TraceSpec
    links: tuple[tuple[int, float], ...]   # (concentrator_id, loss)


@dataclass(frozen=True)
class Building:
    meters: tuple[SimMeter, ...]
    concentrators: tuple[ConcentratorConfig, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    horizon_ms: int
    buildings: tuple[Building, ...]
    mode: str = "ri"                       # ri | ti | both
    ti_poll_interval_ms: int = MS_PER_HOUR
    rmse_grid_ms: int = MS_PER_MINUTE

    def meters(self) -> list[SimMeter]:
        return [m for b in self.buildings for m in b.meters]

    def concentrators(self) -> list[ConcentratorConfig]:
        return [c for b in self.buildings for c in b.concentrators]

    def build_registry(self) -> Registry:
        reg = Registry()
        for sm in self.meters():
            reg.add_meter(sm.config.id, sm.config.kind, sm.config.quantum_du)
        for c in self.concentrators():
            reg.add_concentrator(c.id)
        return reg

    def visibility(self) -> VisibilityMap:
        return VisibilityMap({sm.config.id: list(sm.links) for sm in self.meters()})

    def validate(self) -> None:
        if self.mode not in ("ri", "ti", "both"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if self.horizon_ms < 0:
            raise ConfigError("horizon must be nonnegative")
        if self.ti_poll_interval_ms <= 0:
            raise ConfigError("poll interval must be positive")
        if self.rmse_grid_ms <= 0:
            raise ConfigError("metric grid must be positive")
        registry = self.build_registry()   # raises on duplicate ids
        known = set(registry.concentrator_ids())
        for sm in self.meters():
            for cid, _ in sm.links:
                if cid not in known:
                    raise ConfigError(
                        f"meter {sm.config.id:#x} links to undeclared "
                        f"concentrator {cid:#x}"
                    )
            if sm.trace.kind not in ("zero", "constant", "diurnal", "appliance"):
                raise ConfigError(
                    f"meter {sm.config.id:#x}: unknown trace kind {sm.trace.kind!r}"
                )
        self.visibility().require_coverage(m.config.id for m in self.meters())


@dataclass
class DetailMetric:
    """Reconstruction fidelity and channel cost for one meter and mode."""

    meter_id: int
    rmse_du: float
    message_count: int
    bytes_sent: int
    mean_square_du: Fraction = field(repr=False, default_factory=lambda: Fraction(0))


@dataclass
class RiRunResult:
    records: list[EventLogRecord]
    center: MonitoringCenter
    metrics: dict[int, DetailMetric]
    traces: dict[int, ConsumptionTrace]
    runs: dict[int, MeterRun]
    next_seq: int


@dataclass
class TiRunResult:
    records: list[EventLogRecord]
    readings: dict[int, list[tuple[int, int]]]
    metrics: dict[int, DetailMetric]
    traces: dict[int, ConsumptionTrace]
    next_seq: int


def _generate_traces(scenario: ScenarioConfig) -> dict[int, ConsumptionTrace]:
    if scenario.horizon_ms == 0:
        return {}
    return {
        sm.config.id: generate_trace(
            sm.trace, scenario.seed, scenario.horizon_ms, sm.config.id
        )
        for sm in scenario.meters()
    }


def run_ri(scenario: ScenarioConfig, start_seq: int = 0) -> RiRunResult:
    """Run the event-driven mode end to end and ingest at the center."""
    scenario.validate()
    registry = scenario.build_registry()
    vis = scenario.visibility()
    conc = {c.id: c for c in scenario.concentrators()}
    traces = _generate_traces(scenario)
    center = MonitoringCenter(registry, initial_session=0)

    emissions: list[tuple[int, int, int, object]] = []
    runs: dict[int, MeterRun] = {}
    for sm in sorted(scenario.meters(), key=lambda m: m.config.id):
        mid = sm.config.id
        if mid not in traces:
            continue
        run = MeterRun(sm.config, traces[mid])
        for t, msg in run.events():
            emissions.append((t, mid, msg.session, msg))
        runs[mid] = run
    emissions.sort(key=lambda e: (e[0], e[1], e[2]))

    rng = random.Random(mix_seed(scenario.seed, CHANNEL_STREAM))
    records: list[EventLogRecord] = []
    seq = start_seq
    counts: dict[int, int] = {}
    octets: dict[int, int] = {}

    def emit(kind: EventKind, t: int, payload: dict) -> None:
        nonlocal seq
        records.append(EventLogRecord(seq, t, kind, payload))
        seq += 1

    for t, mid, session, msg in emissions:
        frame = encode_frame(msg)
        counts[mid] = counts.get(mid, 0) + 1
        octets[mid] = octets.get(mid, 0) + len(frame)
        ekind = (
            EventKind.QUANTUM_EVENT
            if msg.message_type is MessageType.QUANTUM_EVENT
            else EventKind.HEARTBEAT
        )
        emit(ekind, t, {
            "cumulative_quanta": msg.state.cumulative_quanta,
            "frame_hex": frame.hex(),
            "meter_id": mid,
            "resource": msg.kind.value,
            "session": session,
        })
        for cid, delivered in broadcast(vis, msg, rng):
            if not delivered:
                emit(EventKind.DROP, t, {
                    "concentrator_id": cid,
                    "meter_id": mid,
                    "session": session,
                    "stage": "radio",
                })
                continue
            emit(EventKind.DELIVERY, t, {
                "concentrator_id": cid,
                "meter_id": mid,
                "session": session,
            })
            ccfg = conc[cid]
            if ccfg.uplink_loss > 0 and rng.random() < ccfg.uplink_loss:
                emit(EventKind.DROP, t, {
                    "concentrator_id": cid,
                    "meter_id": mid,
                    "session": session,
                    "stage": "uplink",
                })
                continue
            report = receive(ccfg, msg, t)
            outcome = center.ingest(report)
            emit(EventKind.CENTER_INGEST, t, {
                "concentrator_id": cid,
                "frame_hex": frame.hex(),
                "meter_id": mid,
                "outcome": outcome.value,
                "rx_time_ms": report.rx_time_ms,
                "session": session,
            })

    metrics: dict[int, DetailMetric] = {}
    for sm in scenario.meters():
        mid = sm.config.id
        trace = traces.get(mid)
        ledger = center.ledgers().get(mid)
        steps = reconstruction_steps(ledger, sm.config.quantum_du) if ledger else []
        mse = _step_mean_square(trace, steps, scenario.rmse_grid_ms, scenario.horizon_ms)
        metrics[mid] = DetailMetric(
            meter_id=mid,
            rmse_du=math.sqrt(float(mse)),
            message_count=counts.get(mid, 0),
            bytes_sent=octets.get(mid, 0),
            mean_square_du=mse,
        )
    return RiRunResult(records, center, metrics, traces, runs, seq)


def run_ti(scenario: ScenarioConfig, start_seq: int = 0) -> TiRunResult:
    """Run the polling baseline: every meter reports its register each Δt."""
    scenario.validate()
    traces = _generate_traces(scenario)
    dt = scenario.ti_poll_interval_ms
    records: list[EventLogRecord] = []
    readings: dict[int, list[tuple[int, int]]] = {}
    seq = start_seq

    meters = sorted(scenario.meters(), key=lambda m: m.config.id)
    n_polls = scenario.horizon_ms // dt if scenario.horizon_ms else 0
    for k in range(1, n_polls + 1):
        t = k * dt
        for sm in meters:
            mid = sm.config.id
            register = int(traces[mid].cumulative_du(t))
            readings.setdefault(mid, []).append((t, register))
            records.append(EventLogRecord(seq, t, EventKind.TI_READING, {
                "meter_id": mid,
                "poll_index": k,
                "register_du": register,
                "unit": BASE_UNIT[sm.config.kind],
            }))
            seq += 1

    metrics: dict[int, DetailMetric] = {}
    for sm in meters:
        mid = sm.config.id
        mse = _step_mean_square(
            traces.get(mid), _as_increments(readings.get(mid, [])),
            scenario.rmse_grid_ms, scenario.horizon_ms,
        )
        metrics[mid] = DetailMetric(
            meter_id=mid,
            rmse_du=math.sqrt(float(mse)),
            message_count=len(readings.get(mid, [])),
            bytes_sent=TI_READING_BYTES * len(readings.get(mid, [])),
            mean_square_du=mse,
        )
    return TiRunResult(records, readings, metrics, traces, seq)


def _as_increments(levels: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convert (time, cumulative) readings to (time, increment) jumps."""
    out = []
    prev = 0
    for t, level in levels:
        out.append((t, level - prev))
        prev = level
    return out


def reconstruction_steps(ledger: SessionLedger | None,
                         quantum_du: int) -> list[tuple[Fraction, int]]:
    """(time, increment_du) jumps of the center's reconstructed curve.

    Accepted quantum events jump at their reception times; quanta recovered
    inside bounded gaps jump at uniform quantile times between the bounding
    receptions, keeping every step exactly one quantum tall.
    """
    if ledger is None or ledger.is_empty:
        return []
    jumps: list[tuple[Fraction, int]] = []
    for rec in ledger.accepted_sessions():
        if rec.message_type is MessageType.QUANTUM_EVENT:
            jumps.append((Fraction(rec.rx_time_ms), quantum_du))
    for t_lo, t_hi, quanta in ledger.bounded_runs():
        jumps.extend((t, quantum_du) for t in evenly_spaced(t_lo, t_hi, quanta))
    jumps.sort(key=lambda j: j[0])
    return jumps


def _step_mean_square(trace: ConsumptionTrace | None, steps, grid_ms: int,
                      horizon_ms: int) -> Fraction:
    """Exact mean squared deciunit error of a step curve on the metric grid."""
    if horizon_ms == 0 or trace is None:
        return Fraction(0)
    ordered = sorted(steps, key=lambda s: s[0])
    acc = Fraction(0)
    n = 0
    level = 0
    idx = 0
    for t in range(0, horizon_ms + 1, grid_ms):
        while idx < len(ordered) and ordered[idx][0] <= t:
            level += ordered[idx][1]
            idx += 1
        err = trace.cumulative_du(t) - level
        acc += err * err
        n += 1
    return acc / n


# ---------------------------------------------------------------------------
# sweeps and comparisons

@dataclass
class SweepRow:
    value: int            # quantum in deciunits, or poll interval in ms
    label: str
    rmse_du: float
    message_count: int
    bytes_sent: int
    mean_square_du: Fraction = field(repr=False, default_factory=lambda: Fraction(0))


def detail_sweep(scenario: ScenarioConfig, param: str,
                 values: list[tuple[int, str]]) -> list[SweepRow]:
    """One run per value with the trace stream held fixed.

    ``param`` is "dr" (emission quantum, deciunits) or "dt" (poll interval,
    ms); ``values`` pairs each number with its display label.
    """
    if param not in ("dr", "dt"):
        raise ConfigError(f"sweep parameter must be 'dr' or 'dt', got {param!r}")
    rows = []
    for value, label in values:
        if value <= 0:
            raise ConfigError(f"sweep value must be positive: {label}")
        if param == "dr":
            variant = replace(scenario, buildings=tuple(
                replace(b, meters=tuple(
                    replace(m, config=replace(m.config, quantum_du=value))
                    for m in b.meters
                ))
                for b in scenario.buildings
            ))
            result = run_ri(variant)
            metrics = result.metrics
        else:
            variant = replace(scenario, ti_poll_interval_ms=value)
            metrics = run_ti(variant).metrics
        per = list(metrics.values())
        mse = sum((m.mean_square_du for m in per), Fraction(0)) / max(len(per), 1)
        rows.append(SweepRow(
            value=value,
            label=label,
            rmse_du=math.sqrt(float(mse)),
            message_count=sum(m.message_count for m in per),
            bytes_sent=sum(m.bytes_sent for m in per),
            mean_square_du=mse,
        ))
    return rows


@dataclass
class CompareRow:
    mode: str
    meter_id: int
    message_count: int
    bytes_sent: int
    rmse_du: float
    battery_lifetime_ms: int | None


def compare_runs(scenario: ScenarioConfig) -> tuple[RiRunResult, TiRunResult, list[CompareRow]]:
    """Paired event-driven and polling runs over the same traces."""
    ri = run_ri(scenario)
    ti = run_ti(scenario, start_seq=ri.next_seq)
    rows: list[CompareRow] = []
    for sm in sorted(scenario.meters(), key=lambda m: m.config.id):
        mid = sm.config.id
        rows.append(CompareRow(
            mode="ri",
            meter_id=mid,
            message_count=ri.metrics[mid].message_count,
            bytes_sent=ri.metrics[mid].bytes_sent,
            rmse_du=ri.metrics[mid].rmse_du,
            battery_lifetime_ms=_ri_lifetime_estimate(sm.config, ri.runs.get(mid), scenario.horizon_ms),
        ))
        rows.append(CompareRow(
            mode="ti",
            meter_id=mid,
            message_count=ti.metrics[mid].message_count,
            bytes_sent=ti.metrics[mid].bytes_sent,
            rmse_du=ti.metrics[mid].rmse_du,
            battery_lifetime_ms=_ti_lifetime_estimate(sm.config, scenario),
        ))
    return ri, ti, rows


def _ri_lifetime_estimate(cfg: MeterConfig, run: MeterRun | None,
                          horizon_ms: int) -> int | None:
    """Observed depletion time, or linear extrapolation past the horizon."""
    if run is None or horizon_ms == 0:
        return None
    if run.depleted_at_ms is not None:
        return run.depleted_at_ms
    consumed = cfg.battery_capacity - run.runtime.battery_remaining
    if consumed <= 0:
        return None
    return int(cfg.battery_capacity * horizon_ms / consumed)


def _ti_lifetime_estimate(cfg: MeterConfig, scenario: ScenarioConfig) -> int | None:
    """Closed-form estimate: polling spends tx_cost every interval, plus idle drain."""
    per_ms = (
        cfg.tx_cost / scenario.ti_poll_interval_ms
        + cfg.idle_drain_per_hour / MS_PER_HOUR
    )
    if per_ms <= 0:
        return None
    return int(cfg.battery_capacity / per_ms)


# ---------------------------------------------------------------------------
# worst-case channel load

@dataclass
class LoadReport:
    """Measured worst-case channel pressure plus its two ceilings.

    ``bound_per_second`` is the aggregate rate ceiling (sum of max flow over
    quantum per meter); ``bucket_ceiling`` is the hard per-second count
    ceiling that also accounts for quantization of slow emitters, which is
    what the measured peak can never pass.
    """

    peak_per_second: int
    bound_per_second: Fraction
    bucket_ceiling: int
    total_messages: int


def worst_case_load(scenario: ScenarioConfig) -> LoadReport:
    """Channel load with every meter pinned at its declared maximum flow.

    Emission times at constant flow form an exact arithmetic progression, so
    per-second counts come from integer arithmetic rather than an event
    loop; the times are identical to what the full engine would produce.
    Heartbeat traffic (at most one message per interval per meter) is
    outside the consumption-driven measurement, and batteries are assumed
    ample: depletion could only lower the peak.  Raises LoadBoundExceeded
    if the measured peak somehow passes the hard bucket ceiling, which
    would mean the counting itself is broken.
    """
    scenario.validate()
    horizon = scenario.horizon_ms
    seconds = (horizon + 999) // 1000
    totals = np.zeros(max(seconds, 1), dtype=np.int64)
    bound_per_hour = Fraction(0)
    bucket_ceiling = 0
    total = 0
    for sm in scenario.meters():
        cfg = sm.config
        flow = cfg.max_flow_du_per_hour
        if flow is None:
            raise ConfigError(f"meter {cfg.id:#x} declares no max flow rate")
        bound_per_hour += Fraction(flow) / cfg.quantum_du
        if flow == 0 or horizon == 0:
            continue
        period = Fraction(cfg.quantum_du) * MS_PER_HOUR / flow   # ms per event
        a, b = period.numerator, period.denominator
        n_events = (horizon * b) // a
        total += n_events
        # a 1000 ms bucket spans 999 whole-ms steps, so it holds at most
        # floor(999 / period) + 1 events of one progression
        bucket_ceiling += (999 * b) // a + 1
        # events land at ceil(k * a / b); count per bucket via the exact
        # cumulative #\{k : k*a/b <= T\} = floor(T*b/a), capped at n_events
        uppers = np.minimum(np.arange(1, seconds + 1, dtype=np.int64) * 1000 - 1, horizon)
        lowers = np.arange(0, seconds, dtype=np.int64) * 1000 - 1
        lowers[0] = 0
        if b * (horizon + 1000) < 2**62:
            cum_hi = np.minimum(n_events, (uppers * b) // a)
            cum_lo = np.minimum(n_events, (lowers * b) // a)
            totals[:seconds] += cum_hi - cum_lo
        else:
            for j in range(seconds):
                hi = min(n_events, (int(uppers[j]) * b) // a)
                lo = min(n_events, (int(lowers[j]) * b) // a)
                totals[j] += hi - lo
    peak = int(totals.max()) if seconds else 0
    if peak > bucket_ceiling:
        raise LoadBoundExceeded(
            f"measured peak {peak}/s exceeds the bucket ceiling {bucket_ceiling}/s"
        )
    return LoadReport(
        peak_per_second=peak,
        bound_per_second=bound_per_hour / 3600,
        bucket_ceiling=bucket_ceiling,
        total_messages=total,
    )
