"""Monitoring center: dedup, gap detection, reconstruction, restoration.

The center is the only stateful listener.  Per meter it keeps a session
ledger; because session numbers are gapless at the source, the set of lost
messages is known exactly, and because every frame carries the meter's
lifetime quantum count, the amount lost inside any bounded gap is known
exactly too.  Only the *times* of lost events need estimating.
"""

from __future__ import annotations

import json
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Iterator, NamedTuple

from .domain import (
    FRAME_SUMMARY,
    TYPE_TAG,
    ConcentratorReport,
    MessageType,
    Registry,
    SESSION_MOD,
    TYPE_TAG_AT,
    device_name,
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

#: each message type tag as its type's JSON text, looked up once per snapshot row
_TYPE_TEXT = {tag: json.dumps(mtype) for mtype, tag in TYPE_TAG.items()}
_QUANTUM = TYPE_TAG[MessageType.QUANTUM_EVENT]

#: how many consecutive unrolled sessions share one block of a ledger; a
#: power of two, so that a session's block and slot are a shift and a mask
BLOCK_SESSIONS = 16
_SHIFT = BLOCK_SESSIONS.bit_length() - 1
_LAST = BLOCK_SESSIONS - 1
#: a new block's reception times and earliest concentrator indices, copied
#: by slicing, which allocates the exact size
_TIMES = array("q", bytes(8 * BLOCK_SESSIONS))
_FROMS = array("I", bytes(4 * BLOCK_SESSIONS))
#: per frame length, what writes a frame into its slot of a block's frames:
#: a struct's ``pack_into`` takes about half the time of a slice assignment
_PUT = {size: struct.Struct(f"{size}s").pack_into for size in FRAME_SUMMARY}
#: the senders column of a block that no second copy reached
_NO_SENDERS = (None,) * BLOCK_SESSIONS
#: concentrator indices below this are a session's senders as bits of an int
_MASK_BITS = 64


class NoData(ValueError):
    """Raised when a query needs at least one accepted report and has none."""


class InsufficientData(ValueError):
    """Raised when an estimator's minimum input requirements are not met."""


class IngestOutcome(str, Enum):
    ACCEPTED = "accepted"        # new session
    DUPLICATE = "duplicate"      # same session from another path
    STALE = "stale"              # same session again from a concentrator that sent it
    CONFLICT = "conflict"        # same session, different payload: tamper signal


#: the outcomes as module globals: a fold returns one per copy, and reading a
#: member off its Enum class costs about 14 times as much on Python 3.11
_ACCEPTED, _DUPLICATE, _STALE, _CONFLICT = (IngestOutcome.ACCEPTED, IngestOutcome.DUPLICATE,
                                           IngestOutcome.STALE, IngestOutcome.CONFLICT)


class LostRun(NamedTuple):
    """A maximal run of consecutive lost sessions and what bounds it.

    ``first`` is a wire number and the run may wrap past the counter's top
    to 0.  ``t_lo`` and ``t_hi`` are the reception times of the accepted
    sessions around it (``t_lo`` is 0 for the lead-in from session 0), and
    ``quanta`` is how many of its sessions were quantum events.
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
    how far a session number jumped.  A meter numbers its sessions from 0
    at installation, so messages lost before first contact are gaps too.
    ``modulus`` is the counter's range; only tests shrink it, to make wraps
    cheap to reach.

    The accepted sessions live in blocks of ``BLOCK_SESSIONS`` consecutive
    unrolled numbers, one tuple per block keyed by its number over the block
    size, of four columns with one slot per session and no object of a
    session's own.  The frames lie side by side in one ``bytearray``, each
    as long as the ledger's first accepted frame; a slot is empty while its
    version byte is 0, which no frame has.  The earliest reception times
    are an ``array('q')``, or a list once one of them is outside 64 bits,
    and the earliest concentrators an ``array('I')`` of indices into the
    ledger's id table.  The last column, the concentrator indices that sent
    a copy, is made on the block's first second copy; per session it holds
    None while the earliest concentrator is the only sender, then a bitmask
    while every index is below ``_MASK_BITS``, and a set of indices past
    that, so it grows with the copies and not with the indices.  The
    message type and the lifetime counter are read from the frames, a block
    at a time, when asked.
    """

    def __init__(self, meter_id: int, *, modulus: int = SESSION_MOD) -> None:
        self.meter_id = meter_id
        self.modulus = modulus
        # unrolled session >> _SHIFT -> (frames, rx_time_ms, indices, senders)
        self._blocks: dict[int, tuple] = {}
        self._size = 0                    # the length of every frame kept
        self._concentrators: list[int] = []         # concentrator ids by index
        self._index: dict[int, int] = {}            # concentrator id -> index
        self._max_abs: int | None = None  # highest accepted, the unroll reference
        self._lost: tuple[LostRun, ...] | None = None   # lost_runs() until a fold moves it
        self.stale_replays = 0
        self.conflict_sessions: set[int] = set()

    # -- accessors ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._blocks

    @property
    def highest_session(self) -> int | None:
        return None if self._max_abs is None else self._max_abs % self.modulus

    @property
    def first_covered(self) -> int | None:
        if not self._blocks:
            return None
        key = min(self._blocks)
        if key >= 0:
            return 0
        slots = self._summary(self._blocks[key][0])
        lowest = next(i for i, (version, _, _) in enumerate(slots) if version)
        return ((key << _SHIFT) + lowest) % self.modulus

    def quantum_times(self) -> Iterator[int]:
        """The reception times of the accepted quantum events, in no particular
        order, read from the blocks one at a time."""
        size, is_quantum = self._size, _QUANTUM.__eq__
        for frames, times, _, _ in self._blocks.values():
            yield from compress(times, map(is_quantum, frames[TYPE_TAG_AT::size]))

    def _summary(self, frames: bytearray) -> Iterator[tuple[int, int, int]]:
        """(version, type tag, cumulative quanta) per slot of a block's frames."""
        return FRAME_SUMMARY[self._size].iter_unpack(frames)

    # -- ingestion ---------------------------------------------------------

    def ingest(self, report: ConcentratorReport) -> IngestOutcome:
        """Fold one concentrator report into the ledger.

        A copy is a (session, concentrator) pair: only a concentrator's
        first report of a session counts.  Copies from different
        concentrators keep the earliest reception time (ties broken by
        lowest concentrator id); a later report of the accepted bytes from
        the same concentrator is a counted no-op, whatever its reception
        time; a frame whose bytes differ from the accepted one is flagged as
        tamper evidence and the first is kept.  A frame that breaks the decoder
        rules raises MalformedFrame, and one of another meter or of another
        length than the ledger's frames raises ValueError; neither changes
        anything.
        """
        frame, cid, rx = report
        _, _, mid, session, _ = frame_header(frame)
        if mid != self.meter_id:
            raise ValueError(
                f"report for {device_name('meter', mid)} fed to the ledger of "
                f"{device_name('meter', self.meter_id)}"
            )
        return self.fold_copies(frame, session, ((cid, rx),))[0]

    def fold_copies(self, frame: bytes, session: int, copies) -> list[IngestOutcome]:
        """``ingest`` for each of one or more (concentrator_id, rx_time_ms)
        copies of one frame in turn, whose header has been read and whose
        meter id is this ledger's: the session is unrolled, and the frame
        compared with the kept one, once, and one outcome per copy is
        returned.  A frame of another length than the ledger's raises
        ValueError before any copy is folded."""
        size = len(frame)
        if size != self._size:
            if self._blocks:
                raise ValueError(f"{device_name('meter', self.meter_id)}: a {size}-byte "
                                 f"frame fed to a ledger of {self._size}-byte frames")
            self._size = size
        top = self._max_abs or 0   # the unroll reference: the highest accepted
        abs_session = top + session_delta(top % self.modulus, session, self.modulus)
        key, i = abs_session >> _SHIFT, abs_session & _LAST
        off = i * size
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = (bytearray(BLOCK_SESSIONS * size),
                                         _TIMES[:], _FROMS[:], None)
        frames, times, froms, senders = block
        if frames[off]:   # a frame is kept in the slot
            if not frames.startswith(frame, off):
                self.conflict_sessions.add(abs_session)
                return [_CONFLICT] * len(copies)
            outcomes = []
        else:   # the first copy is accepted
            self._lost = None
            cid, rx = copies[0]
            _PUT[size](frames, off, frame)
            try:
                times[i] = rx
            except OverflowError:
                times = self._widen(key, i, rx)
            c = self._index.get(cid)
            froms[i] = self._concentrator(cid) if c is None else c
            if abs_session > top or self._max_abs is None:
                self._max_abs = abs_session
            if len(copies) == 1:
                return [_ACCEPTED]
            outcomes = [_ACCEPTED]
            copies = copies[1:]
        for cid, rx in copies:   # the kept frame again
            c = self._index.get(cid)
            if c is None:
                c = self._concentrator(cid)
            if senders is None:   # the block's first second copy
                senders = [None] * BLOCK_SESSIONS
                self._blocks[key] = frames, times, froms, senders
            sent = senders[i]
            if sent is None:   # the earliest concentrator is the only sender
                first = froms[i]
                sent = 1 << first if first < _MASK_BITS else {first}
            mask = type(sent) is int
            if sent >> c & 1 if mask else c in sent:
                self.stale_replays += 1
                outcomes.append(_STALE)
                continue
            if not mask:
                sent.add(c)
            elif c < _MASK_BITS:
                sent |= 1 << c
            else:
                sent = {k for k in range(_MASK_BITS) if sent >> k & 1} | {c}
            senders[i] = sent
            earliest = times[i]
            if rx < earliest or rx == earliest and cid < self._concentrators[froms[i]]:
                self._lost = None   # a run's bound may have moved
                try:
                    times[i] = rx
                except OverflowError:
                    times = self._widen(key, i, rx)
                froms[i] = c
            outcomes.append(_DUPLICATE)
        return outcomes

    def _widen(self, key: int, i: int, rx: int) -> list:
        """Block ``key``'s reception times as a list, which holds ``rx`` at
        slot ``i`` where the ``array('q')`` could not, put in the block."""
        frames, times, froms, senders = self._blocks[key]
        times = list(times)
        times[i] = rx
        self._blocks[key] = frames, times, froms, senders
        return times

    def _concentrator(self, cid: int) -> int:
        """The index of concentrator ``cid`` in this ledger's id table, added if new."""
        c = self._index.get(cid)
        if c is None:
            c = self._index[cid] = len(self._concentrators)
            self._concentrators.append(cid)
        return c

    # -- lost runs ---------------------------------------------------------

    def lost_runs(self) -> list[LostRun]:
        """Every maximal run of known-lost sessions, in emission order.

        Each run is a hole between two accepted sessions, bounded by their
        reception times, and its lost quantum events are the difference of
        their lifetime counters modulo 2**32, the counter's wrap.  Below the
        lowest accepted session lies the lead-in from session 0, measured
        from the installation origin (time zero, zero lifetime quanta).
        Nothing above the highest accepted session is known to be lost, so
        every run is bounded, and its size does not depend on how many
        sessions it spans.

        The runs are found once and kept until a fold accepts a session or
        lowers a session's reception time; each call returns a new list.
        """
        if self._lost is None:
            self._lost = tuple(self._find_lost_runs())
        return list(self._lost)

    def _find_lost_runs(self) -> list[LostRun]:
        """``lost_runs``, walked from the blocks.  A full block with no hole
        before it adds no run, so only its last slot is read."""
        blocks, modulus, runs = self._blocks, self.modulus, []
        size, summary = self._size, FRAME_SUMMARY.get(self._size)
        t_lo, below = 0, 0   # the accepted session below, or installation: time, quanta
        unseen = 0  # lowest session not yet accounted for
        for key in sorted(blocks):
            frames, times, _, _ = blocks[key]
            a = key << _SHIFT
            if a <= unseen and 0 not in frames[::size]:
                t_lo, below = times[_LAST], summary.unpack_from(frames, _LAST * size)[2]
                unseen = a + BLOCK_SESSIONS
                continue
            for (version, tag, quanta), rx in zip(summary.iter_unpack(frames), times):
                if version:
                    if a > unseen:
                        lost = (quanta - below) % 2**32
                        if tag == _QUANTUM:
                            lost -= 1
                        runs.append(LostRun(unseen % modulus, a - unseen, t_lo, rx, lost))
                    t_lo, below = rx, quanta
                    unseen = a + 1
                a += 1
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
        installation point.
        """
        t0, t1 = window
        if t0 > t1:
            raise ValueError(f"window is not ordered: {window}")
        if not self._blocks:
            raise NoData(f"ledger for {device_name('meter', self.meter_id)} is empty")
        if quantum_du <= 0:
            raise ValueError("quantum must be positive")
        received = sum(1 for t in self.quantum_times() if t0 <= t <= t1)
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
        """Estimate an emission time for every session of one lost run,
        placed by ``place_lost``."""
        sessions = [(run.first + i) % self.modulus for i in range(run.count)]
        return list(zip(sessions, place_lost(run.t_lo, run.t_hi, run.count, profile)))

    # -- profile learning --------------------------------------------------

    def build_profile(self) -> ConsumerProfile:
        """Learn hour-of-day weights from accepted quantum events.

        Requires at least a full day's span of accepted events so every
        wall-clock hour had a chance to be observed.
        """
        times = list(self.quantum_times())
        if not times:
            raise InsufficientData("no accepted quantum events to learn from")
        span = max(times) - min(times)
        if span < _DAY:
            raise InsufficientData(
                f"profile needs a full day of history, have {span} ms"
            )
        counts = [0] * 24
        for t in times:
            counts[(t // _HOUR) % 24] += 1
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

    def _head(self) -> dict:
        """The snapshot without its ``sessions``."""
        return {
            "meter_id": self.meter_id,
            "initial_session": 0,
            "first_covered": self.first_covered,
            "highest_session": self.highest_session,
            "gaps": [[run.first, run.count] for run in self.lost_runs()],
            "conflicts": sorted(a % self.modulus for a in self.conflict_sessions),
        }

    def snapshot_text(self) -> Iterator[str]:
        """The ledger's snapshot as its ``ledgers.ndjson`` line, ending in a
        newline, in pieces of one session row each: the object's canonical
        JSON (``sort_keys``, no spaces), built from the blocks without a dict
        per session; two equal ledgers give equal text.  ``sessions`` sorts
        after every other key, so the head is the rest of the object dumped
        with its closing brace cut."""
        yield json.dumps(self._head(), sort_keys=True, separators=(",", ":"))[:-1]
        yield ',"sessions":['
        ids, modulus, blocks, sep = self._concentrators, self.modulus, self._blocks, ""
        for key in sorted(blocks):
            frames, times, froms, senders = blocks[key]
            a = key << _SHIFT
            for (version, tag, quanta), rx, c, sent in zip(self._summary(frames), times, froms,
                                                          senders or _NO_SENDERS):
                if version:
                    yield (f'{sep}{{"cumulative_quanta":{quanta},'
                           f'"report_count":{_count(sent)},"rx_concentrator":{ids[c]},'
                           f'"rx_time_ms":{rx},"session":{a % modulus},'
                           f'"type":{_TYPE_TEXT[tag]}}}')
                    sep = ","
                a += 1
        yield "]}\n"


class MonitoringCenter:
    """All per-meter ledgers plus the registry that scopes them."""

    def __init__(self, registry: Registry) -> None:
        self.registry = registry
        self._ledgers: dict[int, SessionLedger] = {}

    def ledger(self, meter_id: int) -> SessionLedger:
        if meter_id not in self._ledgers:
            if not self.registry.has_meter(meter_id):
                raise KeyError(f"{device_name('meter', meter_id)}: not registered")
            self._ledgers[meter_id] = SessionLedger(meter_id)
        return self._ledgers[meter_id]

    def ingest(self, report: ConcentratorReport) -> IngestOutcome:
        """Route a report to its meter's ledger, reading its header once."""
        frame, cid, rx = report
        _, _, mid, session, _ = frame_header(frame)
        return self.fold_emission(frame, mid, session, ((cid, rx),))[0]

    def fold_emission(self, frame: bytes, meter_id: int, session: int,
                      copies) -> list[IngestOutcome]:
        """Every copy of one transmission, ``ingest`` for each in turn: the
        frame of meter ``meter_id``'s session ``session``, as its header gives
        them, heard as the (concentrator_id, rx_time_ms) ``copies`` in
        concentrator-id order.  Returns one outcome per copy.  The ledger is
        looked up once, and with no copies none is created."""
        if not copies:
            return []
        return self.ledger(meter_id).fold_copies(frame, session, copies)

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

    def snapshots(self) -> Iterator[str]:
        """The text of ``ledgers.ndjson``, one line per ledger in meter id
        order, in the pieces that ``SessionLedger.snapshot_text`` gives."""
        for mid in sorted(self._ledgers):
            yield from self._ledgers[mid].snapshot_text()


def _count(senders) -> int:
    """How many concentrators a session's senders slot names."""
    if senders is None:
        return 1
    return senders.bit_count() if type(senders) is int else len(senders)


def place_lost(t_lo, t_hi, k: int, profile: ConsumerProfile | None = None) -> list[Fraction]:
    """The times of a run's k lost events, strictly increasing inside (t_lo, t_hi):
    the points that cut it into k + 1 equal parts, or with a profile into
    k + 1 parts of equal profile mass.  All k sit at t_lo when a skewed clock
    stamped the run's upper bound no later than its lower one."""
    if profile is not None and t_hi > t_lo:
        return _profile_quantiles(profile, t_lo, t_hi, k)
    return [Fraction(n, k + 1) for n in _lost_numerators(t_lo, t_hi, k)]


def lost_grid_indices(t_lo, t_hi, k: int, grid_ms: int) -> Iterator[int]:
    """⌈t / grid_ms⌉ for each time t that ``place_lost`` gives a run's k lost
    events with no profile, in order, in integers: the first index of a
    grid of step ``grid_ms`` at or after each event."""
    scale = (k + 1) * grid_ms
    return (-(-n // scale) for n in _lost_numerators(t_lo, t_hi, k))


def _lost_numerators(t_lo, t_hi, k: int):
    """The uniform times of a run's k lost events, each times k + 1: t_lo·(k+1) +
    (t_hi − t_lo)·i for i = 1..k, or t_lo·(k+1) for all k when t_hi ≤ t_lo."""
    base, step = t_lo * (k + 1), max(t_hi - t_lo, 0)
    return (base + step * i for i in range(1, k + 1))


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
    targets = place_lost(0, sum(mass for _, mass, _ in pieces), k)
    out: list[Fraction] = []
    acc = Fraction(0)
    for start, mass, weight in pieces:
        # linear inside the hour; weights are positive so mass > 0 here
        while len(out) < k and acc + mass >= targets[len(out)]:
            out.append(start + (targets[len(out)] - acc) * _HOUR / weight)
        acc += mass
    return out
