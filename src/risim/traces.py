"""Piecewise-constant consumption traces and their seeded generators.

Rates are exact rationals in deciunits per hour, so cumulative consumption
over any window is a closed-form rational and quantum accounting downstream
never accumulates rounding error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .domain import MS_PER_DAY, MS_PER_HOUR, ConfigError, nonnegative_number, whole_number

_MASK64 = 2**64 - 1

#: relative hourly weights of the default residential day: a morning peak
#: around hour 7 and a taller evening peak around hour 18
DIURNAL_SHAPE = (
    2, 1, 1, 1, 2, 4, 8, 10, 7, 5, 4, 4,
    5, 4, 3, 4, 6, 9, 12, 11, 8, 6, 4, 3,
)

TRACE_STREAM = 1
CHANNEL_STREAM = 2

#: ceiling on an appliance trace's ``bursts_per_day``: one burst start a minute
MAX_BURSTS_PER_DAY = 1440


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Derive a stable 64-bit stream seed from integer components.

    Only integers go in, so the result does not depend on process hash
    randomization and identical inputs give identical streams everywhere.
    """
    h = 0
    for p in parts:
        h = _splitmix64(h ^ _splitmix64(p & _MASK64))
    return h


@dataclass(frozen=True)
class TraceSpec:
    """Declarative recipe for a consumption trace.

    ``seed`` pins the generator stream for this meter regardless of the
    scenario seed; when absent the stream is derived from the scenario seed
    and the meter id.
    """

    kind: str                      # one of TRACE_KINDS
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        """Check the recipe here, so a bad one fails before any run starts."""
        recipe = TRACE_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if recipe is None:
            known = ", ".join(TRACE_KINDS)
            raise ConfigError(f"unknown trace kind {self.kind!r} (expected {known})")
        if self.seed is not None:
            whole_number(self.seed, "trace seed")
        read, names = recipe
        try:
            if not isinstance(self.params, dict):
                raise TypeError(f"params must be a dict, got {self.params!r}")
            for name in self.params:
                if name not in names:
                    raise ValueError(f"unknown parameter {name!r} "
                                     f"(expected {', '.join(names) or 'none'})")
            read(self.params)
        except KeyError as exc:
            raise ConfigError(f"{self.kind} trace needs parameter {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.kind} trace: {exc}") from None


@dataclass(frozen=True)
class ConsumptionTrace:
    """Right-open piecewise-constant rate profile on [0, horizon).

    ``breakpoints`` holds (start_ms, rate_du_per_hour) pairs, the first at
    time zero, strictly increasing, rates nonnegative.
    """

    meter_id: int
    breakpoints: tuple[tuple[int, Fraction], ...]
    horizon_ms: int

    def __post_init__(self) -> None:
        if self.horizon_ms <= 0:
            raise ValueError("trace horizon must be positive")
        if not self.breakpoints:
            raise ValueError("trace needs at least one breakpoint")
        norm = []
        prev = None
        for t, rate in self.breakpoints:
            rate = Fraction(rate)
            if t != int(t):
                raise ValueError("breakpoint times must be integer ms")
            t = int(t)
            if prev is None and t != 0:
                raise ValueError("first breakpoint must be at time 0")
            if prev is not None and t <= prev:
                raise ValueError("breakpoint times must be strictly increasing")
            if not 0 <= t < self.horizon_ms:
                raise ValueError("breakpoints must lie inside the horizon")
            if rate < 0:
                raise ValueError("rates must be nonnegative")
            norm.append((t, rate))
            prev = t
        object.__setattr__(self, "breakpoints", tuple(norm))

    def segments(self) -> list[tuple[int, int, Fraction]]:
        """(start_ms, end_ms, rate) triples covering [0, horizon)."""
        out = []
        for i, (t, rate) in enumerate(self.breakpoints):
            end = (
                self.breakpoints[i + 1][0]
                if i + 1 < len(self.breakpoints)
                else self.horizon_ms
            )
            out.append((t, end, rate))
        return out

    def cumulative_du(self, t_ms) -> Fraction:
        """Exact consumption from time zero through ``t_ms`` (clamped)."""
        t = min(max(t_ms, 0), self.horizon_ms)
        return sum((rate * (Fraction(min(t, end)) - start) / MS_PER_HOUR
                    for start, end, rate in self.segments() if start < t), Fraction(0))


def generate_trace(spec: TraceSpec, seed: int, horizon_ms: int,
                   meter_id: int = 0) -> ConsumptionTrace:
    """Materialize the trace that ``spec`` describes.

    ``seed`` is the fallback stream seed, used only when ``spec`` does not
    pin its own; two scenarios that pin trace seeds therefore produce
    identical traces no matter what their top-level seeds are.
    """
    eff = spec.seed if spec.seed is not None else mix_seed(seed, TRACE_STREAM, meter_id)
    if spec.kind == "zero":
        points = ((0, Fraction(0)),)
    elif spec.kind == "constant":
        points = ((0, _constant_params(spec.params)),)
    elif spec.kind == "diurnal":
        points = _diurnal_points(spec.params, eff, horizon_ms)
    else:
        points = _appliance_points(spec.params, eff, horizon_ms)
    return ConsumptionTrace(meter_id, points, horizon_ms)


def _constant_params(params: dict) -> Fraction:
    return nonnegative_number(params["rate_du_per_hour"], "rate_du_per_hour")


def _diurnal_params(params: dict) -> tuple[Fraction, int, tuple]:
    """Daily total, jitter and hourly shape; raises on an invalid recipe."""
    daily = nonnegative_number(params["daily_total_du"], "daily_total_du")
    jitter = whole_number(params.get("jitter_pct", 20), "jitter_pct")
    shape = params.get("shape", DIURNAL_SHAPE)
    if not isinstance(shape, (list, tuple)) or len(shape) != 24:
        raise ValueError("diurnal shape must be a list of 24 weights")
    shape = tuple(whole_number(w, "shape") for w in shape)
    if any(w < 0 for w in shape) or sum(shape) == 0:
        raise ValueError("diurnal shape must be 24 nonnegative weights, not all zero")
    if not 0 <= jitter < 100:
        raise ValueError(f"jitter_pct must be in [0, 100), got {jitter}")
    return daily, jitter, shape


def _pair(value, field: str) -> tuple[int, int]:
    """A [low, high] range of whole numbers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{field} must be a [low, high] pair, got {value!r}")
    return whole_number(value[0], field), whole_number(value[1], field)


def _appliance_params(params: dict) -> tuple[Fraction, tuple, Fraction, tuple]:
    """Base rate, bursts per day, burst rate and burst duration range."""
    base = nonnegative_number(params.get("base_rate_du_per_hour", 0), "base_rate_du_per_hour")
    n_lo, n_hi = _pair(params.get("bursts_per_day", (2, 6)), "bursts_per_day")
    burst_rate = nonnegative_number(params["burst_rate_du_per_hour"], "burst_rate_du_per_hour")
    d_lo, d_hi = _pair(params.get("burst_duration_ms", (5 * 60_000, 30 * 60_000)),
                       "burst_duration_ms")
    if d_lo <= 0 or d_hi < d_lo or not 0 <= n_lo <= n_hi:
        raise ValueError("bad appliance parameters")
    if n_hi > MAX_BURSTS_PER_DAY:
        raise ValueError(f"bursts_per_day must be at most {MAX_BURSTS_PER_DAY}, got {n_hi}")
    return base, (n_lo, n_hi), burst_rate, (d_lo, d_hi)


#: each trace kind: the reader that checks its parameters, and their names
TRACE_KINDS = {
    "zero": (lambda params: None, ()),
    "constant": (_constant_params, ("rate_du_per_hour",)),
    "diurnal": (_diurnal_params, ("daily_total_du", "jitter_pct", "shape")),
    "appliance": (_appliance_params, ("base_rate_du_per_hour", "bursts_per_day",
                                      "burst_rate_du_per_hour", "burst_duration_ms")),
}


def _diurnal_points(params: dict, seed: int, horizon_ms: int):
    daily, jitter, shape = _diurnal_params(params)
    rng = random.Random(seed)
    total = sum(shape)
    points = []
    t = 0
    while t < horizon_ms:
        hour = (t // MS_PER_HOUR) % 24
        mult = Fraction(rng.randint(100 - jitter, 100 + jitter), 100)
        points.append((t, daily * shape[hour] * mult / total))
        t += MS_PER_HOUR
    return tuple(points)


def _appliance_points(params: dict, seed: int, horizon_ms: int):
    base, (n_lo, n_hi), burst_rate, (d_lo, d_hi) = _appliance_params(params)
    rng = random.Random(seed)
    deltas: dict[int, Fraction] = {}
    days = (horizon_ms + MS_PER_DAY - 1) // MS_PER_DAY
    for day in range(days):
        for _ in range(rng.randint(n_lo, n_hi)):
            start = day * MS_PER_DAY + rng.randrange(MS_PER_DAY)
            if start >= horizon_ms:
                continue
            end = min(start + rng.randint(d_lo, d_hi), horizon_ms)
            deltas[start] = deltas.get(start, Fraction(0)) + burst_rate
            if end < horizon_ms:
                deltas[end] = deltas.get(end, Fraction(0)) - burst_rate
    points = [(0, base)]
    level = base
    for t in sorted(deltas):
        level += deltas[t]
        if t == 0:
            points[0] = (0, level)
        elif level != points[-1][1]:
            points.append((t, level))
    return tuple(points)
