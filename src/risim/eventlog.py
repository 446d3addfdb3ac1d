"""Event log records, NDJSON/CSV serialization, and log replay.

One JSON object per line, fields in canonical (alphabetical) order, UTF-8
with LF line endings, so two byte-identical logs hash equal.  Quantities in
logs and tables are integer deciunits plus a unit string, never floats.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .center import IngestOutcome, MonitoringCenter, SessionLedger
from .domain import BASE_UNIT, ConcentratorReport, Registry, ResourceKind, frame_header
from .domain import decode_frame  # unused here; perfbench's tracer patches this name


class MalformedLog(ValueError):
    """Raised when a log line cannot be read back as a record or frame, or
    when an ingest's logged outcome is not the one its replay gives."""


class EventKind(str, Enum):
    QUANTUM_EVENT = "quantum_event"
    HEARTBEAT = "heartbeat"
    DROP = "drop"
    TI_READING = "ti_reading"
    CENTER_INGEST = "center_ingest"


@dataclass(frozen=True)
class EventLogRecord:
    """One simulator event; ``payload`` holds the kind-specific fields."""

    seq: int
    sim_time_ms: int
    kind: EventKind
    payload: dict

    def __post_init__(self) -> None:
        if self.seq < 0 or self.sim_time_ms < 0:
            raise ValueError("sequence number and time must be nonnegative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "payload": self.payload,
                "seq": self.seq,
                "sim_time_ms": self.sim_time_ms,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


#: the payload values that are strings from a closed set, each as its JSON
#: text; a template looks its strings up here, so a string outside the set
#: raises KeyError instead of writing a line that the reader would refuse.
#: Members are their own words, so a member and its value find the same entry.
_JSON_TEXT = {
    text: json.dumps(text)
    for text in (*EventKind, *ResourceKind, *IngestOutcome, *BASE_UNIT.values(),
                 "radio", "uplink")   # the last two are the drop stages
}


class EventLog:
    """Numbers each record with the next ``seq`` and hands its line to ``sink``;
    runs that share a log share its numbering, so ``ti`` goes on where ``ri``
    stopped.

    There is one method per record kind.  Each writes the line that
    ``EventLogRecord.to_json`` gives for the same record, ending in a newline,
    from one template, with no record object in between.
    """

    def __init__(self, sink) -> None:
        self._sink = sink
        self.seq = 0   # the next record's seq, so also the count emitted

    def emission(self, t: int, frame: bytes) -> None:
        """A ``quantum_event`` or ``heartbeat`` record: one frame a meter sent,
        with its meter id, session, kind, resource and counter read from the
        frame.  A frame that breaks the decoder rules raises MalformedFrame."""
        resource, kind, meter_id, session, cumulative_quanta = frame_header(frame)
        self._sink(
            f'{{"kind":{_JSON_TEXT[kind]},"payload":{{"cumulative_quanta":{cumulative_quanta},'
            f'"frame_hex":"{frame.hex()}","meter_id":{meter_id},'
            f'"resource":{_JSON_TEXT[resource]},"session":{session}}},'
            f'"seq":{self.seq},"sim_time_ms":{t}}}\n')
        self.seq += 1

    def ingest(self, t: int, meter_id: int, session: int, concentrator_id: int,
               rx_time_ms: int, outcome: str, frame: bytes) -> None:
        """A ``center_ingest`` record: one copy the center received, and its outcome."""
        self._sink(
            f'{{"kind":"center_ingest","payload":{{"concentrator_id":{concentrator_id},'
            f'"frame_hex":"{frame.hex()}","meter_id":{meter_id},'
            f'"outcome":{_JSON_TEXT[outcome]},"rx_time_ms":{rx_time_ms},'
            f'"session":{session}}},"seq":{self.seq},"sim_time_ms":{t}}}\n')
        self.seq += 1

    def drop(self, t: int, meter_id: int, session: int, concentrator_id: int,
             stage: str) -> None:
        """A ``drop`` record: one copy lost on the radio link or the uplink."""
        self._sink(
            f'{{"kind":"drop","payload":{{"concentrator_id":{concentrator_id},'
            f'"meter_id":{meter_id},"session":{session},"stage":{_JSON_TEXT[stage]}}},'
            f'"seq":{self.seq},"sim_time_ms":{t}}}\n')
        self.seq += 1

    def ti_reading(self, t: int, meter_id: int, poll_index: int, register_du: int,
                   unit: str) -> None:
        """A ``ti_reading`` record: one register a polled meter reported."""
        self._sink(
            f'{{"kind":"ti_reading","payload":{{"meter_id":{meter_id},'
            f'"poll_index":{poll_index},"register_du":{register_du},'
            f'"unit":{_JSON_TEXT[unit]}}},"seq":{self.seq},"sim_time_ms":{t}}}\n')
        self.seq += 1


def write_events(fh, records) -> None:
    """Append ``records`` to an open text file, one canonical line each."""
    for rec in records:
        fh.write(rec.to_json())
        fh.write("\n")


#: the integers of a line as the templates write them: no sign or leading zero,
#: of any length, and a minus sign for the fields that may be negative
_WHOLE = rb"(?:0|[1-9][0-9]*)"
_SIGNED = rb"(?:0|-?[1-9][0-9]*)"
_HEX = rb'"((?:[0-9a-f]{2})*)"'


def _words(words) -> bytes:
    """A group matching any of ``words`` as its JSON text."""
    return b"(" + b"|".join(re.escape(_JSON_TEXT[word].encode()) for word in words) + b")"


def _line(kind: EventKind, payload: bytes) -> re.Pattern:
    """The pattern of a ``kind`` line with these payload fields; ``seq`` is its last group."""
    return re.compile(b'{"kind":%s,"payload":{%s},"seq":(%s),"sim_time_ms":%s}\n' % (
        re.escape(_JSON_TEXT[kind].encode()), payload, _WHOLE, _WHOLE))


_EMISSION = (b'"cumulative_quanta":%s,"frame_hex":%s,"meter_id":%s,"resource":%s,"session":%s'
             % (_WHOLE, _HEX, _WHOLE, _words(ResourceKind), _WHOLE))

#: one pattern per record kind, keyed by the kind's word: the inverse of its
#: ``EventLog`` template, so a line that matches is a line the writer writes
_LINE = {kind.encode(): _line(kind, payload) for kind, payload in (
    (EventKind.QUANTUM_EVENT, _EMISSION),
    (EventKind.HEARTBEAT, _EMISSION),
    (EventKind.CENTER_INGEST,
     b'"concentrator_id":(%s),"frame_hex":%s,"meter_id":%s,"outcome":%s,'
     b'"rx_time_ms":(%s),"session":%s' % (_WHOLE, _HEX, _WHOLE, _words(IngestOutcome),
                                           _SIGNED, _WHOLE)),
    (EventKind.DROP, b'"concentrator_id":%s,"meter_id":%s,"session":%s,"stage":%s'
     % (_WHOLE, _WHOLE, _WHOLE, _words(("radio", "uplink")))),
    (EventKind.TI_READING, b'"meter_id":%s,"poll_index":%s,"register_du":%s,"unit":%s'
     % (_WHOLE, _WHOLE, _SIGNED, _words(BASE_UNIT.values()))),
)}
_INGEST = _LINE[EventKind.CENTER_INGEST.encode()]

#: a logged outcome's JSON text, as the word that JSON reads from it
_OUTCOME = {_JSON_TEXT[outcome].encode(): outcome.value for outcome in IngestOutcome}


def read_events(path: Path) -> Iterator[tuple[int, bytes, int, int, object]]:
    """Each ``center_ingest`` of the log, one line at a time, as (seq, frame,
    concentrator_id, rx_time_ms, logged outcome); ``seq`` must run 0, 1, 2, ...

    Each line must match its kind's template (``_LINE``), and a line of
    another kind yields nothing and builds nothing.  A line that does not
    match, or that holds an integer too long to read, raises MalformedLog
    naming it and the ``seq`` it should carry.
    """
    seq = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            pattern = _LINE.get(line[9:line.find(b'"', 9)])   # the word after {"kind":"
            match = pattern.fullmatch(line) if pattern else None
            if match is None:
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: not a line EventLog writes")
            try:
                got = int(match[match.lastindex])
                if pattern is _INGEST:
                    cid, frame_hex, outcome, rx_time_ms, _ = match.groups()
                    ingest = (got, bytes.fromhex(frame_hex.decode()), int(cid), int(rx_time_ms),
                              _OUTCOME[outcome])
            except ValueError:   # more digits than int() reads: sys.get_int_max_str_digits()
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: an integer too long to read"
                                   ) from None
            if got != seq:
                raise MalformedLog(f"{path} line {lineno}: seq {got}, expected {seq}")
            seq += 1
            if pattern is _INGEST:
                yield ingest


def write_ledger_snapshots(path: Path, text: Iterable[str]) -> None:
    """Write ``ledgers.ndjson`` from its text in the pieces that
    ``MonitoringCenter.snapshots`` yields, each as it comes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text)


def check_ledger_lines(path: Path, ledgers: dict[int, SessionLedger]) -> Iterator[str]:
    """Where ``ledgers.ndjson`` differs from ``ledgers``, which holds them in
    meter id order, one line at a time: the n-th line must be the n-th
    ledger's line as ``SessionLedger.snapshot_text`` writes it.  Each
    mismatch is named by the meter whose line it is not, by a line that no
    ledger is left for, or by a meter that has no line.
    """
    in_order = iter(ledgers.values())
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            ledger = next(in_order, None)
            if ledger is None:
                yield f"{path.name} line {lineno}: replay rebuilt {len(ledgers)} ledgers"
            elif not _is_line(line, ledger):
                yield f"meter {ledger.meter_id:#x}"
    for ledger in in_order:
        yield f"meter {ledger.meter_id:#x}: {path.name} has no line for it"


def _is_line(line: bytes, ledger: SessionLedger) -> bool:
    """Whether ``line`` is ``ledger``'s line, compared a rendered piece at a time."""
    at = 0
    for piece in ledger.snapshot_text():
        piece = piece.encode()
        if not line.startswith(piece, at):
            return False
        at += len(piece)
    return at == len(line)


def replay_center(ingests) -> MonitoringCenter:
    """Rebuild a fresh center from a log's ingests, as ``read_events`` yields them.

    Every ``center_ingest`` carries the full frame plus reception metadata, so
    the rebuilt ledgers must equal the originals exactly if the log is
    faithful.  Each logged frame goes to the center, whose header read is the
    only one, except that a meter's first logged copy is read once more to
    register the meter.  A frame the center cannot take, or an ``outcome``
    that it does not return, raises MalformedLog naming the record's ``seq``.
    """
    registry = Registry()
    center = MonitoringCenter(registry)
    for seq, frame, concentrator_id, rx_time_ms, logged in ingests:
        report = ConcentratorReport(frame, concentrator_id, rx_time_ms)
        try:
            try:
                outcome = center.ingest(report)
            except KeyError:  # the meter's first logged copy: register it
                kind, _, mid, _, _ = frame_header(frame)
                registry.add_meter(mid, kind)
                outcome = center.ingest(report)
        except ValueError as exc:
            raise MalformedLog(f"seq {seq}: {exc}") from None
        if outcome != logged:
            raise MalformedLog(f"seq {seq}: outcome {logged!r}, replay gives {outcome.value!r}")
    return center


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC 4180 output: header row first, CRLF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
