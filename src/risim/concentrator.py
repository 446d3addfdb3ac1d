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
    ConcentratorReport,
    ConfigError,
    id_namespace,
)


#: ``random.random()`` returns k / DRAW_SCALE for a whole k in [0, DRAW_SCALE)
DRAW_SCALE = 2**53


def loss_threshold(loss) -> int:
    """ceil(loss · DRAW_SCALE): a draw is lost when it is below, i.e. when ``random() < loss``."""
    return -(-Fraction(loss) * DRAW_SCALE // 1)


@dataclass(frozen=True)
class ConcentratorConfig:
    id: int
    clock_skew_ms: int = 0
    max_skew_ms: int = 1000
    uplink_loss: Fraction = Fraction(0)   # 0 means a reliable wired uplink

    def __post_init__(self) -> None:
        object.__setattr__(self, "uplink_loss", Fraction(self.uplink_loss))
        if id_namespace(self.id) != CONCENTRATOR_NAMESPACE:
            raise ConfigError(f"not a concentrator id: {self.id:#x}")
        if abs(self.clock_skew_ms) > self.max_skew_ms:
            raise ConfigError(
                f"concentrator {self.id:#x}: clock skew {self.clock_skew_ms} ms "
                f"exceeds the declared bound {self.max_skew_ms} ms"
            )
        if not 0 <= self.uplink_loss <= 1:
            raise ConfigError(f"uplink loss must be a probability: {self.uplink_loss}")


def receive(cfg: ConcentratorConfig, frame: bytes, true_time_ms: int) -> ConcentratorReport:
    """Stamp an incoming frame with this concentrator's clock."""
    return ConcentratorReport(frame, cfg.id, true_time_ms + cfg.clock_skew_ms)


class VisibilityMap:
    """Static radio adjacency: which concentrators hear which meters.

    Each link carries its own independent loss probability, held as its
    ``loss_threshold``.  Links are kept in concentrator-id order so that
    delivery draws consume the random stream in a reproducible order.
    """

    def __init__(self, links: dict[int, list[tuple[int, Fraction]]]) -> None:
        self._links: dict[int, tuple[tuple[int, int], ...]] = {}
        for mid, pairs in links.items():
            seen = set()
            for cid, loss in pairs:
                if cid in seen:
                    raise ConfigError(
                        f"meter {mid:#x}: duplicate link to concentrator {cid:#x}"
                    )
                if not 0 <= loss <= 1:
                    raise ConfigError(
                        f"meter {mid:#x}: link loss must be a probability, got {loss}"
                    )
                seen.add(cid)
            self._links[mid] = tuple(sorted((cid, loss_threshold(loss)) for cid, loss in pairs))

    def links_for(self, meter_id: int) -> tuple[tuple[int, int], ...]:
        """(concentrator_id, loss threshold) per link, in concentrator-id order."""
        return self._links.get(meter_id, ())

    def require_coverage(self, meter_ids) -> None:
        """Every registered meter must be audible somewhere."""
        orphans = [m for m in meter_ids if not self._links.get(m)]
        if orphans:
            listed = ", ".join(f"{m:#x}" for m in orphans)
            raise ConfigError(f"meters with no concentrator link: {listed}")


def broadcast(vis: VisibilityMap, meter_id: int,
              rng: random.Random) -> list[tuple[int, bool]]:
    """One Bernoulli delivery draw per visible link, in concentrator-id order.

    Returns (concentrator_id, delivered) pairs; losses are independent across
    links, so one transmission can reach several concentrators at once.
    """
    return [(cid, rng.random() * DRAW_SCALE >= t) for cid, t in vis.links_for(meter_id)]
