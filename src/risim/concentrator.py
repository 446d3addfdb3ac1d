"""Concentrator: the timestamping relay between meters and the center.

A concentrator hears broadcasts on lossy one-way links, stamps whatever
frame arrives with its own (possibly skewed) clock, and forwards the report
upstream.  It keeps no per-meter state and never deduplicates; that is the
center's job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .domain import (
    CONCENTRATOR_NAMESPACE,
    RADIO,
    UPLINK,
    ConcentratorReport,
    ConfigError,
    device_name,
    id_namespace,
    whole_number,
)

#: ``random.random()`` returns k / DRAW_SCALE for a whole k in [0, DRAW_SCALE)
DRAW_SCALE = 2**53


def loss_threshold(loss) -> float:
    """ceil(loss · DRAW_SCALE) / DRAW_SCALE, a float that holds it exactly: a
    draw is lost when ``random()`` is below it, i.e. when ``random() < loss``."""
    return -(-Fraction(loss) * DRAW_SCALE // 1) / DRAW_SCALE


def probability(loss, what: str) -> Fraction:
    """A loss given to the Python API, as an exact Fraction: an int, float or
    Fraction in [0, 1].  Anything else, a bool included, raises ConfigError
    starting with ``what``."""
    number = isinstance(loss, (int, float, Fraction)) and not isinstance(loss, bool)
    if not (number and 0 <= loss <= 1):
        raise ConfigError(f"{what} must be a probability, got {loss if number else repr(loss)}")
    return Fraction(loss)


@dataclass(frozen=True)
class ConcentratorConfig:
    id: int
    clock_skew_ms: int = 0
    max_skew_ms: int = 1000
    uplink_loss: Fraction = Fraction(0)   # 0 means a reliable wired uplink

    def __post_init__(self) -> None:
        if id_namespace(whole_number(self.id, "concentrator id")) != CONCENTRATOR_NAMESPACE:
            raise ConfigError(f"not a concentrator id: {self.id:#x}")
        where = device_name("concentrator", self.id)
        skew = whole_number(self.clock_skew_ms, f"{where}: clock_skew_ms")
        bound = whole_number(self.max_skew_ms, f"{where}: max_skew_ms")
        if abs(skew) > bound:
            raise ConfigError(f"{where}: clock skew {skew} ms exceeds the declared bound {bound} ms")
        loss = probability(self.uplink_loss, f"{where}: uplink loss")
        object.__setattr__(self, "uplink_loss", loss)


def receive(cfg: ConcentratorConfig, frame: bytes, true_time_ms: int) -> ConcentratorReport:
    """Stamp an incoming frame with this concentrator's clock."""
    return ConcentratorReport(frame, cfg.id, true_time_ms + cfg.clock_skew_ms)


def broadcast(links, rng: random.Random) -> list[tuple[int, str | None]]:
    """The channel rule for one emission over its meter's (concentrator_id,
    radio threshold, uplink threshold) links, in concentrator-id order: every
    radio draw first, then one uplink draw per heard copy whose uplink
    threshold is above 0.  Returns (concentrator_id, lost) per link, where
    ``lost`` is None for a copy that reaches the center, else its drop stage.
    """
    heard = [rng.random() >= radio for _, radio, _ in links]
    fates = []
    for (cid, _, uplink), ok in zip(links, heard):
        if not ok:
            fates.append((cid, RADIO))
        elif uplink > 0 and rng.random() < uplink:
            fates.append((cid, UPLINK))
        else:
            fates.append((cid, None))
    return fates
