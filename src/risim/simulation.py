"""Deterministic discrete-event engine and the polling baseline.

One run advances a single merged event stream in (time, meter, session)
order.  All randomness flows from the scenario seed through two derived
streams: trace generation (per meter) and channel losses, so a given config
plus seed reproduces its event log byte for byte.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from .center import MonitoringCenter, SessionLedger, place_lost
from .concentrator import ConcentratorConfig, broadcast, loss_threshold, probability
from .concentrator import receive  # unused here; perfbench's tracer patches this name
from .domain import (
    BASE_UNIT,
    ConfigError,
    MS_PER_HOUR,
    MS_PER_MINUTE,
    Registry,
    encode_frame,  # unused here; perfbench's tracer patches this name
    frame_size,
    whole_number,
)
from .eventlog import EventLog
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
    links: tuple[tuple[int, Fraction], ...]   # (concentrator_id, loss)


@dataclass(frozen=True)
class Building:
    meters: tuple[SimMeter, ...]
    concentrators: tuple[ConcentratorConfig, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """A whole scenario; it checks itself when built, ``replace`` included."""

    seed: int
    horizon_ms: int
    buildings: tuple[Building, ...]
    mode: str = "ri"                       # ri | ti | both
    ti_poll_interval_ms: int = MS_PER_HOUR
    rmse_grid_ms: int = MS_PER_MINUTE

    def __post_init__(self) -> None:
        self.validate()

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

    def validate(self) -> None:
        whole_number(self.seed, "scenario seed")
        if self.mode not in ("ri", "ti", "both"):
            raise ConfigError(f"unknown mode: {self.mode!r}")
        if whole_number(self.horizon_ms, "scenario horizon_ms") < 0:
            raise ConfigError("horizon must be nonnegative")
        if whole_number(self.ti_poll_interval_ms, "scenario ti_poll_interval_ms") <= 0:
            raise ConfigError("poll interval must be positive")
        if whole_number(self.rmse_grid_ms, "scenario rmse_grid_ms") <= 0:
            raise ConfigError("metric grid must be positive")
        registry = self.build_registry()   # raises on duplicate ids
        known = set(registry.concentrator_ids())
        for sm in self.meters():
            mid, cids = sm.config.id, [cid for cid, _ in sm.links]
            for cid, loss in sm.links:
                if cid not in known:
                    raise ConfigError(f"meter {mid:#x} links to undeclared concentrator {cid:#x}")
                if cids.count(cid) > 1:
                    raise ConfigError(f"meter {mid:#x}: duplicate link to concentrator {cid:#x}")
                probability(loss, f"meter {mid:#x}: link loss")
        orphans = [f"{sm.config.id:#x}" for sm in self.meters() if not sm.links]
        if orphans:
            raise ConfigError(f"meters with no concentrator link: {', '.join(orphans)}")


@dataclass
class DetailMetric:
    """Reconstruction fidelity and channel cost for one meter and mode."""

    meter_id: int
    message_count: int
    bytes_sent: int
    mean_square_du: Fraction


@dataclass
class RiRunResult:
    center: MonitoringCenter
    metrics: dict[int, DetailMetric]
    traces: dict[int, ConsumptionTrace]
    runs: dict[int, MeterRun]


@dataclass
class TiRunResult:
    readings: dict[int, list[tuple[int, int]]]
    metrics: dict[int, DetailMetric]
    traces: dict[int, ConsumptionTrace]


def _generate_traces(scenario: ScenarioConfig) -> dict[int, ConsumptionTrace]:
    if scenario.horizon_ms == 0:
        return {}
    return {
        sm.config.id: generate_trace(
            sm.trace, scenario.seed, scenario.horizon_ms, sm.config.id
        )
        for sm in scenario.meters()
    }


def run_ri(scenario: ScenarioConfig, log: EventLog | None = None) -> RiRunResult:
    """Run the event-driven mode end to end and ingest at the center, handing
    each emission, with the fate of its copy on each link, to ``log`` as it
    happens; with no log none is built."""
    registry = scenario.build_registry()
    conc = {c.id: c for c in scenario.concentrators()}
    skew = {cid: c.clock_skew_ms for cid, c in conc.items()}
    # per meter, (concentrator, radio threshold, uplink threshold) by concentrator id
    links = {sm.config.id: tuple(sorted((cid, loss_threshold(loss),
                                         loss_threshold(conc[cid].uplink_loss))
                                        for cid, loss in sm.links))
             for sm in scenario.meters()}
    traces = _generate_traces(scenario)
    center = MonitoringCenter(registry)

    runs = {
        sm.config.id: MeterRun(sm.config, traces[sm.config.id])
        for sm in scenario.meters()
        if sm.config.id in traces
    }
    # each meter yields (time, meter, session, frame) tuples in order, so merging
    # them gives the global (time, meter, session) order without holding them all
    emissions = heapq.merge(*(run.events() for run in runs.values()))

    rng = random.Random(mix_seed(scenario.seed, CHANNEL_STREAM))
    counts: dict[int, int] = {}
    for t, mid, session, frame in emissions:
        counts[mid] = counts.get(mid, 0) + 1
        fates = broadcast(links[mid], rng)
        # each copy that reaches the center, stamped by its concentrator's clock
        copies = [(cid, t + skew[cid]) for cid, lost in fates if lost is None]
        outcomes = center.fold_emission(frame, mid, session, copies) if copies else ()
        if log is not None:
            folded = iter(outcomes)
            log.emission(t, frame, [(cid, lost) if lost else (cid, next(folded), t + skew[cid])
                                    for cid, lost in fates])

    metrics: dict[int, DetailMetric] = {}
    ledgers = center.ledgers()
    for sm in scenario.meters():
        mid = sm.config.id
        trace = traces.get(mid)
        ledger = ledgers.get(mid)
        steps = reconstruction_steps(ledger, sm.config.quantum_du) if ledger else []
        mse = _step_mean_square(trace, steps, scenario.rmse_grid_ms, scenario.horizon_ms)
        metrics[mid] = DetailMetric(
            meter_id=mid,
            message_count=counts.get(mid, 0),
            bytes_sent=counts.get(mid, 0) * frame_size(sm.config.kind),
            mean_square_du=mse,
        )
    return RiRunResult(center, metrics, traces, runs)


def run_ti(scenario: ScenarioConfig, log: EventLog | None = None) -> TiRunResult:
    """Run the polling baseline: every meter reports its register each Δt
    while its battery lasts, one ``ti_reading`` record per poll to ``log``."""
    traces = _generate_traces(scenario)
    dt = scenario.ti_poll_interval_ms

    meters = sorted(scenario.meters(), key=lambda m: m.config.id)
    n_polls = scenario.horizon_ms // dt if scenario.horizon_ms else 0
    poll_times = [k * dt for k in range(1, n_polls + 1)]
    readings: dict[int, list[tuple[int, int]]] = {}
    for sm in meters:
        polls = _ti_polls_sent(sm.config, dt, n_polls)
        if polls:
            readings[sm.config.id] = _registers_at(traces[sm.config.id], poll_times[:polls])
    if log is not None:
        polled = [(sm.config.id, BASE_UNIT[sm.config.kind], readings[sm.config.id])
                  for sm in meters if sm.config.id in readings]
        for k in range(1, n_polls + 1):
            for mid, unit, meter_readings in polled:
                if k <= len(meter_readings):
                    t, register = meter_readings[k - 1]
                    log.ti_reading(t, mid, k, register, unit)

    metrics: dict[int, DetailMetric] = {}
    for sm in meters:
        mid = sm.config.id
        mse = _step_mean_square(
            traces.get(mid), _as_increments(readings.get(mid, [])),
            scenario.rmse_grid_ms, scenario.horizon_ms,
        )
        metrics[mid] = DetailMetric(
            meter_id=mid,
            message_count=len(readings.get(mid, [])),
            bytes_sent=TI_READING_BYTES * len(readings.get(mid, [])),
            mean_square_du=mse,
        )
    return TiRunResult(readings, metrics, traces)


def _registers_at(trace: ConsumptionTrace, times: list[int]) -> list[tuple[int, int]]:
    """(t, whole deciunits consumed through t) for each of ``times``.

    The times are increasing and inside the trace's horizon, so one forward
    pass over the trace's segments reads them all.
    """
    out = []
    i = 0
    consumed = Fraction(0)
    for start, end, rate in trace.segments():
        if i == len(times):
            break
        # consumed + rate·(t − start)/1 h = (c·b·1 h + d·a·(t − start)) / (d·b·1 h)
        c, d = consumed.numerator, consumed.denominator
        a, b = rate.numerator, rate.denominator
        top, per_ms, scale = c * b * MS_PER_HOUR, d * a, d * b * MS_PER_HOUR
        while i < len(times) and times[i] <= end:
            t = times[i]
            out.append((t, (top + per_ms * (t - start)) // scale))
            i += 1
        consumed += rate * (end - start) / MS_PER_HOUR
    return out


def _ti_polls_sent(cfg: MeterConfig, dt: int, n_polls: int) -> int:
    """How many of ``n_polls`` polls a meter sends before its battery is empty.

    Poll k at k·dt goes out while the battery is above zero before it, the
    rule of the emission schedule: capacity − (k−1)·tx_cost − idle drain up to
    k·dt > 0, i.e. k·per_poll < capacity + tx_cost.
    """
    per_poll = cfg.tx_cost + cfg.idle_drain_per_hour * dt / MS_PER_HOUR
    headroom = cfg.battery_capacity + cfg.tx_cost
    if per_poll == 0:
        return n_polls if headroom > 0 else 0
    return max(0, min(n_polls, math.ceil(headroom / per_poll) - 1))


def _as_increments(levels: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convert (time, cumulative) readings to (time, increment) jumps."""
    out = []
    prev = 0
    for t, level in levels:
        out.append((t, level - prev))
        prev = level
    return out


def reconstruction_steps(ledger: SessionLedger | None,
                         quantum_du: int) -> list[tuple[int | Fraction, int]]:
    """(time, increment_du) jumps of the center's reconstructed curve, in no
    particular order: ``_step_mean_square`` places and sorts them.

    Accepted quantum events jump at their integer reception times; quanta
    recovered inside bounded gaps jump at the uniform times ``place_lost``
    gives between the bounding receptions, keeping every step exactly one
    quantum tall.
    """
    if ledger is None or ledger.is_empty:
        return []
    jumps: list[tuple[int | Fraction, int]] = [(t, quantum_du) for t in ledger.quantum_times()]
    for run in ledger.lost_runs():
        jumps.extend((t, quantum_du) for t in place_lost(run.t_lo, run.t_hi, run.quanta))
    return jumps


def _step_mean_square(trace: ConsumptionTrace | None, steps, grid_ms: int,
                      horizon_ms: int) -> Fraction:
    """Exact mean squared deciunit error of a step curve on the metric grid.

    The grid points are k·grid_ms for k = 0..horizon_ms // grid_ms, and a
    (time, integer increment) step counts at every point at or after its
    time.  Between the grid indices where a trace segment or a step begins,
    the error is linear in k, so the squared sum of each such piece is a
    closed form in its length, Σk and Σk².  Scaled by
    MS_PER_HOUR · lcm(rate denominators), every term is an integer, so the
    cost is O(segments + steps) and the result is exact.
    """
    if horizon_ms == 0 or trace is None:
        return Fraction(0)
    n_points = horizon_ms // grid_ms + 1
    # the first grid index at or after each step's time
    jumps = sorted(
        (-(-t.numerator // (t.denominator * grid_ms)), inc) for t, inc in steps if inc
    )
    segments = trace.segments()
    lcm = math.lcm(*(rate.denominator for _, _, rate in segments))
    scale = MS_PER_HOUR * lcm
    # past its horizon the trace holds its total
    segments.append((trace.horizon_ms, n_points * grid_ms, Fraction(0)))
    acc = 0
    consumed = 0   # scaled consumption at the segment start
    level = 0      # scaled step curve
    j = 0
    for start, end, rate in segments:
        slope = lcm * rate.numerator // rate.denominator   # scaled du per ms
        k = -(-start // grid_ms)
        stop = min(-(-end // grid_ms), n_points)
        while k < stop:
            while j < len(jumps) and jumps[j][0] <= k:
                level += scale * jumps[j][1]
                j += 1
            nxt = min(stop, jumps[j][0]) if j < len(jumps) else stop
            n = nxt - k
            a = consumed + slope * (k * grid_ms - start) - level   # error at k
            b = slope * grid_ms                                    # per grid step
            acc += n * a * a + a * b * n * (n - 1) + b * b * ((n - 1) * n * (2 * n - 1) // 6)
            k = nxt
        consumed += slope * (end - start)
    return Fraction(acc, scale * scale * n_points)


def rmse_text(mean_square: Fraction) -> str:
    """The exact root of ``mean_square`` rounded half up to 6 decimals: u millionths,
    u = ⌊(√(4·10¹²·m) + 1) / 2⌋, which the integer root of ⌊4·10¹²·m⌋ gives as well."""
    micro = (math.isqrt(math.floor(4 * 10**12 * mean_square)) + 1) // 2
    return f"{micro // 10**6}.{micro % 10**6:06d}"


# ---------------------------------------------------------------------------
# sweeps and comparisons

@dataclass
class SweepRow:
    value: int            # quantum in deciunits, or poll interval in ms
    label: str
    message_count: int
    bytes_sent: int
    mean_square_du: Fraction


def detail_sweep(scenario: ScenarioConfig, param: str,
                 values: list[tuple[int, str]]) -> list[SweepRow]:
    """One run per value with the trace stream held fixed.

    ``param`` is "dr" (emission quantum, deciunits) or "dt" (poll interval,
    ms); ``values`` pairs each number with its display label.  Both are
    checked before the first run.
    """
    if param not in ("dr", "dt"):
        raise ConfigError(f"sweep parameter must be 'dr' or 'dt', got {param!r}")
    for value, label in values:
        if value <= 0:
            raise ConfigError(f"sweep value must be positive: {label}")
    rows = []
    for value, label in values:
        if param == "dr":
            variant = replace(scenario, buildings=tuple(
                replace(b, meters=tuple(
                    replace(m, config=replace(m.config, quantum_du=value))
                    for m in b.meters
                ))
                for b in scenario.buildings
            ))
            metrics = run_ri(variant).metrics
        else:
            variant = replace(scenario, ti_poll_interval_ms=value)
            metrics = run_ti(variant).metrics
        per = list(metrics.values())
        mse = sum((m.mean_square_du for m in per), Fraction(0)) / max(len(per), 1)
        rows.append(SweepRow(
            value=value,
            label=label,
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
    mean_square_du: Fraction
    battery_lifetime_ms: int | None


def compare_runs(scenario: ScenarioConfig, log: EventLog | None = None
                 ) -> tuple[RiRunResult, TiRunResult, list[CompareRow]]:
    """Paired event-driven and polling runs over the same traces, in one log."""
    ri = run_ri(scenario, log)
    ti = run_ti(scenario, log)
    rows: list[CompareRow] = []
    for sm in sorted(scenario.meters(), key=lambda m: m.config.id):
        mid = sm.config.id
        rows.append(CompareRow(
            mode="ri",
            meter_id=mid,
            message_count=ri.metrics[mid].message_count,
            bytes_sent=ri.metrics[mid].bytes_sent,
            mean_square_du=ri.metrics[mid].mean_square_du,
            battery_lifetime_ms=_ri_lifetime_estimate(sm.config, ri.runs.get(mid), scenario.horizon_ms),
        ))
        rows.append(CompareRow(
            mode="ti",
            meter_id=mid,
            message_count=ti.metrics[mid].message_count,
            bytes_sent=ti.metrics[mid].bytes_sent,
            mean_square_du=ti.metrics[mid].mean_square_du,
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
    consumed = cfg.battery_capacity - run.battery_remaining
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
    ceiling, the sum of ceil(1000 ms / period) per meter.  It also accounts
    for quantization of slow emitters: m events of one progression share a
    second only if (m - 1) * period < 1000 ms, because each lands at the
    first whole millisecond at or after its exact instant.  The measured
    peak can never pass it.
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
    Meters with the same event period share one progression, counted once.
    Heartbeat traffic (at most one message per interval per meter) is
    outside the consumption-driven measurement, and batteries are assumed
    ample: depletion could only lower the peak.  Raises LoadBoundExceeded
    if the measured peak somehow passes the hard bucket ceiling, which
    would mean the counting itself is broken.
    """
    horizon = scenario.horizon_ms
    bound_per_hour = Fraction(0)
    periods: Counter[tuple[int, int]] = Counter()
    for sm in scenario.meters():
        cfg = sm.config
        flow = cfg.max_flow_du_per_hour
        if flow is None:
            raise ConfigError(f"meter {cfg.id:#x} declares no max flow rate")
        bound_per_hour += flow / cfg.quantum_du
        if flow and horizon:
            period = Fraction(cfg.quantum_du) * MS_PER_HOUR / flow   # ms per event
            periods[period.numerator, period.denominator] += 1
    # events land at ceil(k * a / b), so #{events at or before T} is
    # floor(T * b / a); second j counts the events after edge j up to edge
    # j + 1, with edges 0, 999, 1999, ... and the last one cut at the horizon,
    # so second horizon // 1000 holds a frame sent exactly at the horizon
    edges = [0, *range(999, 1000 * (horizon // 1000 + 1), 1000)]
    edges[-1] = min(edges[-1], horizon)
    cumulative = [0] * len(edges)
    bucket_ceiling = 0
    total = 0
    for (a, b), count in periods.items():
        cumulative = [c + count * (e * b // a) for c, e in zip(cumulative, edges)]
        total += count * (horizon * b // a)
        # m events fit in one second only if (m - 1) * a / b < 1000
        bucket_ceiling += count * ((1000 * b - 1) // a + 1)
    peak = max((hi - lo for lo, hi in zip(cumulative, cumulative[1:])), default=0)
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
