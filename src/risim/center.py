"""Monitoring center: dedup, gap detection, reconstruction, restoration.

The center is the only stateful listener.  Per meter it keeps a session
ledger; because session numbers are gapless at the source, the set of lost
messages is known exactly, and because every frame carries the meter's
lifetime quantum count, the amount lost inside any bounded gap is known
exactly too.  Only the *times* of lost events need estimating.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .domain import (
    ConcentratorReport,
    MessageType,
    Registry,
    SESSION_MOD,
    encode_frame,  # unused here; perfbench's tracer patches this name
    frame_header,
    session_delta,
)

#: mass assigned to an empty hour when a profile is normalized, so that
#: estimated timestamps can never collapse onto a zero-measure interval
PROFILE_SMOOTHING_EPS = Fraction(1, 1000)

#: an hour of wall clock, in milliseconds
_HOUR = 3_600_000
_DAY = 24 * _HOUR


class NoData(ValueError):
    """Raised when a query needs at least one accepted report and has none."""


class InsufficientData(ValueError):
    """Raised when an estimator's minimum input requirements are not met."""


class IngestOutcome(Enum):
    ACCEPTED = "accepted"        # new session
    DUPLICATE = "duplicate"      # same session from another path
    STALE = "stale"              # byte-for-byte replay of a seen report
    CONFLICT = "conflict"        # same session, different payload: tamper signal


@dataclass
class AcceptedSession:
    """One deduplicated session as the center remembers it."""

    abs_session: int
    rx_time_ms: int
    rx_concentrator: int
    message_type: MessageType
    cumulative_quanta: int
    frame: bytes
    seen: set  # (concentrator_id, rx_time_ms) pairs observed for this session

    @property
    def report_count(self) -> int:
        return len(self.seen)


class LostRun(NamedTuple):
    """A maximal run of consecutive lost sessions and what bounds it.

    ``first`` is a wire number and the run may wrap past the counter's top
    to 0.  ``t_lo`` and ``t_hi`` are the reception times of the accepted
    sessions around it (``t_lo`` is 0 for the lead-in from a known initial
    session), and ``quanta`` is how many of its sessions were quantum events.
    """

    first: int
    count: int
    t_lo: int
    t_hi: int
    quanta: int


@dataclass(frozen=True)
class ReconstructionResult:
    meter_id: int
    window: tuple[int, int]
    quanta_received: int
    quanta_recovered: int
    amount_du: int
    trailing_uncertainty_du: int

    def __post_init__(self) -> None:
        if self.amount_du < 0 or self.trailing_uncertainty_du < 0:
            raise ValueError("reconstruction amounts must be nonnegative")


@dataclass(frozen=True)
class ConsumerProfile:
    """Hour-of-day consumption weights learned from accepted events."""

    meter_id: int
    hourly_weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_weights) != 24:
            raise ValueError("profile needs exactly 24 hourly weights")
        if not all(isinstance(w, Fraction) and w > 0 for w in self.hourly_weights):
            raise ValueError("profile weights must be positive Fractions after smoothing")
        if sum(self.hourly_weights) != 1:
            raise ValueError("profile weights must sum to exactly 1")


class SessionLedger:
    """Wrap-aware per-meter session bookkeeping.

    Sessions are unrolled onto an unbounded internal axis, so a 32-bit
    counter wrap is invisible to gap accounting.  The accepted sessions are
    the whole record: every known-lost session is a hole between two of
    them, derived when asked, so memory grows with what arrived and not with
    how far a session number jumped.  When ``initial_session`` is given the
    center knows where the meter's numbering began (normal for a registered
    installation) and messages lost before first contact are tracked as
    gaps; without it the ledger anchors at the first session it happens to
    see.
    """

    def __init__(self, meter_id: int, *, initial_session: int | None = None,
                 modulus: int = SESSION_MOD) -> None:
        self.meter_id = meter_id
        self.modulus = modulus
        self.initial_session = initial_session
        self._accepted: dict[int, AcceptedSession] = {}
        self._max_abs: int | None = None  # highest accepted, the unroll reference
        self.stale_replays = 0
        self.conflict_sessions: set[int] = set()

    # -- accessors ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._accepted

    @property
    def highest_session(self) -> int | None:
        return None if self._max_abs is None else self._max_abs % self.modulus

    @property
    def first_covered(self) -> int | None:
        if not self._accepted:
            return None
        lowest = min(self._accepted)
        if self.initial_session is not None:
            lowest = min(lowest, self.initial_session)
        return lowest % self.modulus

    def accepted_sessions(self) -> list[AcceptedSession]:
        return [self._accepted[a] for a in sorted(self._accepted)]

    def _unroll(self, session: int) -> int:
        """Map a wire counter value onto the unbounded internal axis."""
        if self._max_abs is None:
            anchor = self.initial_session if self.initial_session is not None else session
            return anchor + session_delta(anchor % self.modulus, session, self.modulus)
        return self._max_abs + session_delta(
            self._max_abs % self.modulus, session, self.modulus
        )

    # -- ingestion ---------------------------------------------------------

    def ingest(self, report: ConcentratorReport) -> IngestOutcome:
        """Fold one concentrator report into the ledger.

        Duplicates from different paths keep the earliest reception time
        (ties broken by lowest concentrator id); an exact replay is a
        counted no-op; a frame whose bytes differ from the accepted one is
        flagged as tamper evidence and the first is kept.  A frame that
        breaks the decoder rules raises MalformedFrame and changes nothing.
        """
        _, mtype, mid, session, cumulative = frame_header(report.frame)
        if mid != self.meter_id:
            raise ValueError(
                f"report for meter {mid:#x} fed to ledger of {self.meter_id:#x}"
            )
        abs_session = self._unroll(session)
        record = self._accepted.get(abs_session)
        if record is not None:
            if report.frame != record.frame:
                self.conflict_sessions.add(abs_session)
                return IngestOutcome.CONFLICT
            key = (report.concentrator_id, report.rx_time_ms)
            if key in record.seen:
                self.stale_replays += 1
                return IngestOutcome.STALE
            record.seen.add(key)
            if (report.rx_time_ms, report.concentrator_id) < (
                record.rx_time_ms,
                record.rx_concentrator,
            ):
                record.rx_time_ms = report.rx_time_ms
                record.rx_concentrator = report.concentrator_id
            return IngestOutcome.DUPLICATE
        self._accepted[abs_session] = AcceptedSession(
            abs_session=abs_session,
            rx_time_ms=report.rx_time_ms,
            rx_concentrator=report.concentrator_id,
            message_type=mtype,
            cumulative_quanta=cumulative,
            frame=report.frame,
            seen={(report.concentrator_id, report.rx_time_ms)},
        )
        if self._max_abs is None or abs_session > self._max_abs:
            self._max_abs = abs_session
        return IngestOutcome.ACCEPTED

    # -- lost runs ---------------------------------------------------------

    def lost_runs(self) -> list[LostRun]:
        """Every maximal run of known-lost sessions, in emission order.

        Each run is a hole between two accepted sessions, bounded by their
        reception times, and its lost quantum events are the difference of
        their lifetime counters modulo 2**32, the counter's wrap.  Below the
        lowest accepted session lies the lead-in from a known initial
        session, measured from the installation origin (time zero, zero
        lifetime quanta).  Nothing above the highest accepted session is
        known to be lost, so every run is bounded, and its size does not
        depend on how many sessions it spans.
        """
        runs = []
        t_lo, base_quanta = 0, 0
        unseen = self.initial_session  # lowest session not yet accounted for
        for a in sorted(self._accepted):
            rec = self._accepted[a]
            if unseen is not None and a > unseen:
                lost = (rec.cumulative_quanta - base_quanta) % 2**32
                if rec.message_type is MessageType.QUANTUM_EVENT:
                    lost -= 1
                runs.append(LostRun(unseen % self.modulus, a - unseen,
                                    t_lo, rec.rx_time_ms, lost))
            t_lo, base_quanta = rec.rx_time_ms, rec.cumulative_quanta
            unseen = a + 1
        return runs

    # -- reconstruction ----------------------------------------------------

    def reconstruct(self, quantum_du: int, window: tuple[int, int]) -> ReconstructionResult:
        """Consumption over a reception-time window, losses recovered.

        Received quanta are accepted quantum events inside the window.  For
        each lost run bounded by accepted sessions the exact number of lost
        quantum events is the difference of the bounding lifetime counters;
        those count as recovered when both bounds lie inside the window, and
        as trailing uncertainty when the run straddles the window's end.
        Losses before first contact are recovered the same way against the
        installation point when the initial session is known.
        """
        t0, t1 = window
        if t0 > t1:
            raise ValueError(f"window is not ordered: {window}")
        if not self._accepted:
            raise NoData(f"ledger for meter {self.meter_id:#x} is empty")
        if quantum_du <= 0:
            raise ValueError("quantum must be positive")
        received = sum(
            1
            for rec in self._accepted.values()
            if rec.message_type is MessageType.QUANTUM_EVENT
            and t0 <= rec.rx_time_ms <= t1
        )
        recovered = 0
        trailing = 0
        for run in self.lost_runs():
            if run.quanta <= 0 or run.t_lo < t0:
                continue
            if run.t_hi <= t1:
                recovered += run.quanta
            elif run.t_lo <= t1:
                trailing += run.quanta
        return ReconstructionResult(
            meter_id=self.meter_id,
            window=(t0, t1),
            quanta_received=received,
            quanta_recovered=recovered,
            amount_du=(received + recovered) * quantum_du,
            trailing_uncertainty_du=trailing * quantum_du,
        )

    # -- lost-time restoration --------------------------------------------

    def interpolate_lost_times(self, run: LostRun,
                               profile: ConsumerProfile | None = None,
                               ) -> list[tuple[int, Fraction]]:
        """Estimate an emission time for every session of one lost run.

        Uniform spacing between the run's bounding reception times by
        default; with a profile, spacing proportional to the profile's
        hour-of-day mass.  Estimates are strictly inside the bounding
        timestamps and strictly increasing.
        """
        sessions = [(run.first + i) % self.modulus for i in range(run.count)]
        if run.t_hi <= run.t_lo:
            # degenerate zero-width bracket; pin everything at the boundary
            return [(s, Fraction(run.t_lo)) for s in sessions]
        if profile is None:
            times = evenly_spaced(run.t_lo, run.t_hi, run.count)
        else:
            times = _profile_quantiles(profile, run.t_lo, run.t_hi, run.count)
        return list(zip(sessions, times))

    # -- profile learning --------------------------------------------------

    def build_profile(self) -> ConsumerProfile:
        """Learn hour-of-day weights from accepted quantum events.

        Requires at least a full day's span of accepted events so every
        wall-clock hour had a chance to be observed.
        """
        events = [
            rec
            for rec in self._accepted.values()
            if rec.message_type is MessageType.QUANTUM_EVENT
        ]
        if not events:
            raise InsufficientData("no accepted quantum events to learn from")
        span = max(r.rx_time_ms for r in events) - min(r.rx_time_ms for r in events)
        if span < _DAY:
            raise InsufficientData(
                f"profile needs a full day of history, have {span} ms"
            )
        counts = [0] * 24
        for rec in events:
            counts[(rec.rx_time_ms // _HOUR) % 24] += 1
        masses = [c if c > 0 else PROFILE_SMOOTHING_EPS for c in counts]
        total = sum(masses)
        return ConsumerProfile(self.meter_id, tuple(Fraction(m) / total for m in masses))

    # -- drift correction --------------------------------------------------

    def correct_drift(self, quantum_du: int,
                      checkpoints: list[tuple[int, int]]) -> Fraction:
        """Least-squares scale aligning reconstructed amounts to references.

        ``checkpoints`` are (time_ms, true_cumulative_du) pairs from an
        out-of-band reading.  Returns the scalar s minimizing the squared
        error of s * reconstructed(t) against the references.  Requires two
        or more checkpoints spanning at least 1000 quanta.
        """
        if len(checkpoints) < 2:
            raise InsufficientData("drift correction needs at least two checkpoints")
        pairs = []
        for t, true_du in sorted(checkpoints):
            result = self.reconstruct(quantum_du, (0, t))
            pairs.append((result.quanta_received + result.quanta_recovered, true_du))
        if pairs[-1][0] - pairs[0][0] < 1000:
            raise InsufficientData(
                "drift correction needs checkpoints spanning at least 1000 quanta"
            )
        num = sum(q * quantum_du * c for q, c in pairs)
        den = sum((q * quantum_du) ** 2 for q, _ in pairs)
        if den == 0:
            raise InsufficientData("no reconstructed consumption at any checkpoint")
        return Fraction(num, den)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical JSON-safe view; two equal ledgers give equal snapshots."""
        return {
            "meter_id": self.meter_id,
            "initial_session": self.initial_session,
            "first_covered": self.first_covered,
            "highest_session": self.highest_session,
            "sessions": [
                {
                    "session": rec.abs_session % self.modulus,
                    "rx_time_ms": rec.rx_time_ms,
                    "rx_concentrator": rec.rx_concentrator,
                    "type": rec.message_type.value,
                    "cumulative_quanta": rec.cumulative_quanta,
                    "report_count": rec.report_count,
                }
                for rec in self.accepted_sessions()
            ],
            "gaps": [[run.first, run.count] for run in self.lost_runs()],
            "conflicts": sorted(a % self.modulus for a in self.conflict_sessions),
        }


class MonitoringCenter:
    """All per-meter ledgers plus the registry that scopes them."""

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self._ledgers: dict[int, SessionLedger] = {}

    def ledger(self, meter_id: int) -> SessionLedger:
        if meter_id not in self._ledgers:
            if not self.registry.has_meter(meter_id):
                raise KeyError(f"meter not registered: {meter_id:#x}")
            # a registered meter numbers its sessions from 0 at installation
            self._ledgers[meter_id] = SessionLedger(meter_id, initial_session=0)
        return self._ledgers[meter_id]

    def ingest(self, report: ConcentratorReport) -> IngestOutcome:
        _, _, mid, _, _ = frame_header(report.frame)
        return self.ledger(mid).ingest(report)

    def ledgers(self) -> dict[int, SessionLedger]:
        return dict(sorted(self._ledgers.items()))

    def reconstruct_all(self, window: tuple[int, int]) -> list[ReconstructionResult]:
        out = []
        for mid in self.registry.meter_ids():
            ledger = self._ledgers.get(mid)
            if ledger is None or ledger.is_empty:
                out.append(ReconstructionResult(mid, window, 0, 0, 0, 0))
                continue
            out.append(ledger.reconstruct(self.registry.meter(mid).quantum_du, window))
        return out

    def snapshots(self) -> list[dict]:
        return [self._ledgers[mid].snapshot() for mid in sorted(self._ledgers)]


def evenly_spaced(t_lo, t_hi, k: int) -> list[Fraction]:
    """The k points that cut [t_lo, t_hi] into k + 1 equal parts, exactly."""
    return [t_lo + (t_hi - t_lo) * Fraction(i, k + 1) for i in range(1, k + 1)]


def _profile_quantiles(profile: ConsumerProfile, t_lo: int, t_hi: int,
                       k: int) -> list[Fraction]:
    """k interior quantile times of the profile's mass over (t_lo, t_hi).

    The profile is a piecewise-constant density over wall-clock hours,
    repeating daily; its cumulative mass is piecewise linear and strictly
    increasing (weights are positive), so quantiles are unique and strictly
    interior.  One forward sweep over the hour pieces of the bracket places
    all k of them, each at the earliest time its target mass is reached.
    """
    weights = profile.hourly_weights
    pieces = []  # (start, profile mass, weight) per wall-clock hour overlap
    cursor = t_lo
    while cursor < t_hi:
        hour = cursor // _HOUR
        step = min(t_hi, (hour + 1) * _HOUR) - cursor
        weight = weights[hour % 24]
        pieces.append((cursor, weight * step / _HOUR, weight))
        cursor += step
    targets = evenly_spaced(0, sum(mass for _, mass, _ in pieces), k)
    out: list[Fraction] = []
    acc = Fraction(0)
    for start, mass, weight in pieces:
        # linear inside the hour; weights are positive so mass > 0 here
        while len(out) < k and acc + mass >= targets[len(out)]:
            out.append(start + (targets[len(out)] - acc) * _HOUR / weight)
        acc += mass
    return out
