"""Deterministic discrete-event engine and the polling baseline.

A run takes one meter at a time, in meter id order, each to its end: its
emissions in time order, or its polls in poll order.  All randomness flows
from the scenario seed through two streams derived per meter: its trace
and its channel losses, so a meter's records depend on no other meter, and
a given config plus seed reproduces its event log byte for byte.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul, sub
from typing import Iterator

from .center import MonitoringCenter, SessionLedger, lost_grid_indices
from .concentrator import broadcast, loss_threshold
from .concentrator import receive  # unused here; perfbench's tracer patches this name
from .config import ScenarioConfig
from .domain import (
    BASE_UNIT,
    ConfigError,
    MS_PER_HOUR,
    device_name,
    encode_frame,  # unused here; perfbench's tracer patches this name
    frame_size,
)
from .eventlog import LINK_TEXT, EventLog, MeterLines
from .meter import MeterConfig, MeterRun
from .traces import CHANNEL_STREAM, ConsumptionTrace, generate_trace, mix_seed

#: bytes of one polling-mode register reading on the wire: a 3-byte header,
#: 8-byte meter id, 8-byte register, 4-byte poll counter
TI_READING_BYTES = 23


class LoadBoundExceeded(RuntimeError):
    """Measured channel load exceeded its analytic ceiling."""


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
    """A polling run: its metrics, its traces and each meter's last
    register, 0 for a meter that sent no poll.  The registers of every
    poll are not kept; ``readings`` recomputes one meter's from its trace."""

    metrics: dict[int, DetailMetric]
    traces: dict[int, ConsumptionTrace]
    last_register: dict[int, int]
    poll_interval_ms: int

    def readings(self, meter_id: int) -> list[tuple[int, int]]:
        """(k·Δt, register) of each poll meter ``meter_id`` sent, in poll
        order; [] for a meter that sent none."""
        dt = self.poll_interval_ms
        count = self.metrics[meter_id].message_count
        if not count:
            return []
        return [(k * dt, register) for k, register
                in enumerate(_registers(self.traces[meter_id], dt, count), 1)]


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
    """Run the event-driven mode end to end and ingest at the center, one
    meter at a time in meter id order, handing each of its emissions, in
    time order, with the fate of its copy on each link, to ``log`` as it
    happens, after the meter's line; with no log no line is written.

    A meter's channel draws come from its own stream, so nothing it sends
    depends on another meter.  Each transmission is one pass: one walk over
    its fates builds the copies that reach the center and the line's link
    entries from ``LINK_TEXT``; the copies are folded into the
    meter's ledger, made on its first copy, and their outcomes complete the
    ingest entries, which a log then writes.
    """
    registry = scenario.build_registry()
    skew = {c.id: c.clock_skew_ms for c in scenario.concentrators()}
    uplink = {c.id: loss_threshold(c.uplink_loss) for c in scenario.concentrators()}
    traces = _generate_traces(scenario)
    center = MonitoringCenter(registry)
    grid = scenario.rmse_grid_ms

    runs: dict[int, MeterRun] = {}
    metrics: dict[int, DetailMetric] = {}
    for sm in sorted(scenario.meters(), key=lambda m: m.config.id):
        cfg = sm.config
        mid = cfg.id
        trace = traces.get(mid)
        sent = 0
        ledger = None   # made on the meter's first copy that reaches the center
        if trace is not None:
            losses = sorted(sm.links)   # (concentrator, radio loss) by concentrator id
            links = tuple((cid, loss_threshold(loss), uplink[cid]) for cid, loss in losses)
            lags = [skew[cid] for cid, _ in losses]
            lines = MeterLines(log, mid, cfg.kind, [cid for cid, _ in losses])
            rng = random.Random(mix_seed(scenario.seed, CHANNEL_STREAM, mid))
            run = runs[mid] = MeterRun(cfg, trace)
            for t, session, frame in run.events():
                sent += 1
                # each copy that reaches the center, stamped by its concentrator's clock
                copies, entries, heard = [], [], []
                for (cid, lost), lag in zip(broadcast(links, rng), lags):
                    if lost is None:
                        rx = t + lag
                        copies.append((cid, rx))
                        heard.append((len(entries), rx))
                    entries.append(LINK_TEXT[lost])
                outcomes = ()
                if copies:
                    if ledger is None:
                        ledger = center.ledger(mid)
                    outcomes = ledger.fold_copies(frame, session, copies)
                if log is not None:
                    lines.write(t, frame, session, entries, heard, outcomes)
        indices = reconstruction_steps(ledger, grid)
        metrics[mid] = DetailMetric(
            meter_id=mid,
            message_count=sent,
            bytes_sent=sent * frame_size(cfg.kind),
            mean_square_du=_step_mean_square(trace, indices, cfg.quantum_du, grid,
                                             scenario.horizon_ms),
        )
    return RiRunResult(center, metrics, traces, runs)


def run_ti(scenario: ScenarioConfig, log: EventLog | None = None) -> TiRunResult:
    """Run the polling baseline: every meter reports its register each Δt
    while its battery lasts, one ``ti_reading`` record per poll to ``log``.

    The meters go one at a time in meter id order, so only one meter's
    registers are alive at once: each list is computed once, logged poll by
    poll and summed into the meter's metric, then dropped.
    """
    traces = _generate_traces(scenario)
    dt = scenario.ti_poll_interval_ms
    grid = scenario.rmse_grid_ms
    n_polls = scenario.horizon_ms // dt if scenario.horizon_ms else 0

    metrics: dict[int, DetailMetric] = {}
    last_register: dict[int, int] = {}
    for sm in sorted(scenario.meters(), key=lambda m: m.config.id):
        cfg = sm.config
        mid = cfg.id
        polls = _ti_polls_sent(cfg, dt, n_polls)
        registers = list(_registers(traces[mid], dt, polls)) if polls else []
        if log is not None:
            unit = BASE_UNIT[cfg.kind]
            for k, register in enumerate(registers, 1):
                log.ti_reading(k * dt, mid, k, register, unit)
        indices = [-(-t // grid) for t in range(dt, polls * dt + 1, dt)]   # ⌈k·dt / grid⌉
        mse = _step_mean_square(traces.get(mid), indices,
                                list(map(sub, registers, [0, *registers])), grid,
                                scenario.horizon_ms)
        last_register[mid] = registers[-1] if registers else 0
        metrics[mid] = DetailMetric(
            meter_id=mid,
            message_count=polls,
            bytes_sent=TI_READING_BYTES * polls,
            mean_square_du=mse,
        )
    return TiRunResult(metrics, traces, last_register, dt)


def _registers(trace: ConsumptionTrace, dt: int, count: int) -> Iterator[int]:
    """⌊consumed(k·dt)⌋, the whole deciunits the trace has consumed by poll
    k, for k = 1..count; count·dt is inside the trace's horizon.

    One forward pass over the trace's segments.  Scaled by MS_PER_HOUR ·
    lcm(rate denominators), as in ``_step_mean_square``, consumption is an
    integer linear in k across a segment, so each register there is one
    floor division of a term of an arithmetic progression.
    """
    segments = trace.segments()
    lcm = math.lcm(*(rate.denominator for _, _, rate in segments))
    floor = (MS_PER_HOUR * lcm).__rfloordiv__   # a scaled amount in whole deciunits
    k = 1            # the next poll
    consumed = 0     # scaled consumption at the segment start
    for start, end, rate in segments:
        if k > count:
            return
        last = min(count, end // dt)   # the last poll inside the segment
        slope = lcm * rate.numerator // rate.denominator   # scaled du per ms
        if last >= k:
            first = consumed + slope * (k * dt - start)
            if slope:
                step = slope * dt
                yield from map(floor, range(first, first + step * (last - k) + 1, step))
            else:
                yield from repeat(floor(first), last - k + 1)
            k = last + 1
        consumed += slope * (end - start)


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


def reconstruction_steps(ledger: SessionLedger | None, grid_ms: int) -> list[int]:
    """The sorted metric grid indices where the center's reconstructed curve
    steps up by one quantum: ⌈t / grid_ms⌉ of each step's time t, or 0 for a
    time before the origin.

    Accepted quantum events step at their integer reception times, read
    from the ledger's blocks; quanta recovered inside bounded gaps step at
    the uniform times ``place_lost`` gives between the bounding receptions,
    whose indices ``lost_grid_indices`` takes in integers.
    """
    if ledger is None or ledger.is_empty:
        return []
    indices = [-(-t // grid_ms) for t in ledger.quantum_times()]
    for run in ledger.lost_runs():
        indices.extend(lost_grid_indices(run.t_lo, run.t_hi, run.quanta, grid_ms))
    indices.sort()
    below = bisect_left(indices, 0)
    indices[:below] = repeat(0, below)
    return indices


def _step_mean_square(trace: ConsumptionTrace | None, indices: list[int],
                      heights: int | list[int], grid_ms: int, horizon_ms: int) -> Fraction:
    """Exact mean squared deciunit error of a step curve on the metric grid.

    The grid points are k·grid_ms for k = 0..N − 1, N = horizon_ms // grid_ms
    + 1.  The curve starts at 0 and steps up by ``heights[j]``, or by
    ``heights`` for every step when it is one int, at grid index
    ``indices[j]``; the indices are sorted and nonnegative, and one of N or
    more is past the grid.  With C the trace and S the curve at each grid
    point, the sum of (C − S)² is ΣC² − 2·ΣC·S + ΣS²:

    - C is linear in k across each trace segment, so ΣC² and the prefix sums
      P(x) = Σ_{k<x} C(k) are closed forms per segment;
    - ΣC·S = Σ_j h_j·(P(N) − P(x_j)); per segment it takes the sums of h,
      h·x and h·x² over the indices inside it, which bisect finds;
    - ΣS² = Σ_j L_j²·(x_{j+1} − x_j), x_m = N, with L_j the level after step
      j, is L_{m−1}²·N − Σ_j x_j·(L_j² − L_{j−1}²), in one pass.

    Scaled by MS_PER_HOUR · lcm(rate denominators) every term is an integer,
    so the result is exact.  The big-integer work is per segment; a step
    costs a few small-integer products and additions, and with one height
    for every step only its index is read.
    """
    if horizon_ms == 0 or trace is None:
        return Fraction(0)
    uniform = type(heights) is int
    n_points = horizon_ms // grid_ms + 1
    m = bisect_left(indices, n_points)   # the steps on the grid
    segments = trace.segments()
    lcm = math.lcm(*(rate.denominator for _, _, rate in segments))
    scale = MS_PER_HOUR * lcm
    # past its horizon the trace holds its total
    segments.append((trace.horizon_ms, n_points * grid_ms, Fraction(0)))
    c_squares = 0    # ΣC², scaled twice
    c_steps = 0      # Σ_j h_j·P(x_j), scaled once
    prefix = 0       # P at the segment's first index, scaled
    consumed = 0     # scaled consumption at the segment start
    lo = 0           # the first step at or after the segment's first index
    for start, end, rate in segments:
        slope = lcm * rate.numerator // rate.denominator   # scaled du per ms
        k = -(-start // grid_ms)
        n = min(-(-end // grid_ms), n_points) - k
        if n > 0:
            # C(k + y) = a + b·y and P(k + y) = prefix + a·y + b·y(y − 1)/2
            a, b = consumed + slope * (k * grid_ms - start), slope * grid_ms
            c_squares += n * a * a + a * b * n * (n - 1) + b * b * ((n - 1) * n * (2 * n - 1) // 6)
            hi = bisect_left(indices, k + n, lo, m)
            if hi > lo:
                xs = indices[lo:hi]
                if uniform:
                    i0, i1, i2 = (heights * (hi - lo), heights * sum(xs),
                                  heights * sum(map(mul, xs, xs)))
                else:
                    hs = heights[lo:hi]
                    i0, i1, i2 = sum(hs), sum(map(mul, hs, xs)), sum(map(mul, hs, map(mul, xs, xs)))
                # Σh·y = i1 − k·i0 and Σh·y(y − 1) = i2 − (2k + 1)·i1 + k(k + 1)·i0
                c_steps += (prefix * i0 + a * (i1 - k * i0)
                            + b * (i2 - (2 * k + 1) * i1 + k * (k + 1) * i0) // 2)
                lo = hi
            prefix += n * a + b * (n * (n - 1) // 2)
        consumed += slope * (end - start)
    on_grid = islice(indices, m)
    if uniform:   # L_j = h·(j + 1), so L_j² − L_{j−1}² = h²·(2j + 1)
        level = heights * m
        s_squares = level * level * n_points - heights * heights * sum(
            map(mul, on_grid, range(1, 2 * m, 2)))
    else:
        squares = [level * level for level in accumulate(heights[:m], initial=0)]
        level = sum(heights[:m])
        s_squares = squares[-1] * n_points - sum(map(mul, on_grid, map(sub, squares[1:], squares)))
    c_s = level * prefix - c_steps                 # ΣC·S, scaled once
    acc = c_squares - 2 * scale * c_s + scale * scale * s_squares
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
            raise ConfigError(f"{device_name('meter', cfg.id)}: no max flow rate declared")
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
