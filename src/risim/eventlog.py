"""Event log records, NDJSON/CSV serialization, and log replay.

One JSON object per line, fields in canonical (alphabetical) order, UTF-8
with LF line endings, so two byte-identical logs hash equal.  Quantities in
logs and tables are integer deciunits plus a unit string, never floats.
"""

from __future__ import annotations

import csv
import json
import re
from binascii import unhexlify
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .center import IngestOutcome, MonitoringCenter, SessionLedger
from .concentrator import DROP_STAGES
from .domain import (
    BASE_UNIT,
    MalformedFrame,
    MessageType,
    Registry,
    ResourceKind,
    frame_header,
)
from .domain import decode_frame  # unused here; perfbench's tracer patches this name


class MalformedLog(ValueError):
    """Raised when a log line cannot be read back as a record or frame, or
    when an ingest's logged outcome is not the one its replay gives."""


class EventKind(str, Enum):
    QUANTUM_EVENT = "quantum_event"
    HEARTBEAT = "heartbeat"
    TI_READING = "ti_reading"


#: the payload values that are strings from a closed set, each as its JSON
#: text; a template looks its strings up here, so a string outside the set
#: raises KeyError instead of writing a line that the reader would refuse.
#: Members are their own words, so a member and its value find the same entry.
_JSON_TEXT = {
    text: json.dumps(text)
    for text in (*EventKind, *ResourceKind, *IngestOutcome, *BASE_UNIT.values(), *DROP_STAGES)
}


class EventLog:
    """Numbers each record with the next ``seq`` and hands its line to ``sink``;
    runs that share a log share its numbering, so ``ti`` goes on where ``ri``
    stopped.

    There is one method per record kind.  Each writes its line, ending in a
    newline, from one template, with no record object in between: the only
    writer of event lines.  ``EventLogRecord.to_json`` in ``tests/oracles.py``
    is the reference that the tests hold each line to.
    """

    def __init__(self, sink) -> None:
        self._sink = sink
        self.seq = 0   # the next record's seq, so also the count emitted

    def emission(self, t: int, frame: bytes, links) -> None:
        """A ``quantum_event`` or ``heartbeat`` record: one frame a meter sent,
        with its meter id, session, kind, resource and counter read from the
        frame, and its copy's fate on each link: (concentrator_id, drop stage)
        or (concentrator_id, outcome, rx_time_ms).  A frame that breaks the
        decoder rules raises MalformedFrame."""
        resource, kind, meter_id, session, cumulative_quanta = frame_header(frame)
        fates = ",".join([f"[{link[0]},{_JSON_TEXT[link[1]]}]" if len(link) == 2 else
                          f"[{link[0]},{_JSON_TEXT[link[1]]},{link[2]}]" for link in links])
        self._sink(
            f'{{"kind":{_JSON_TEXT[kind]},"payload":{{"cumulative_quanta":{cumulative_quanta},'
            f'"frame_hex":"{frame.hex()}","links":[{fates}],"meter_id":{meter_id},'
            f'"resource":{_JSON_TEXT[resource]},"session":{session}}},'
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
    """Append ``records`` to an open text file, one ``to_json()`` line each."""
    fh.writelines(rec.to_json() + "\n" for rec in records)


#: the integers of a line as the templates write them: no sign or leading zero,
#: of any length, and a minus sign for the fields that may be negative; and
#: ``frame_hex`` as one run of lowercase hex digits, whose count ``read_events``
#: checks is even
_WHOLE = rb"(?:0|[1-9][0-9]*)"
_SIGNED = rb"(?:0|-?[1-9][0-9]*)"
_HEX = rb'"([0-9a-f]*)"'


def _words(words) -> bytes:
    """A non-capturing group matching any of ``words`` as its JSON text."""
    return b"(?:" + b"|".join(re.escape(_JSON_TEXT[word].encode()) for word in words) + b")"


def _line(kind: EventKind, payload: bytes) -> re.Pattern:
    """The pattern of a ``kind`` line with these payload fields; ``seq`` is its last group."""
    return re.compile(b'{"kind":%s,"payload":{%s},"seq":(%s),"sim_time_ms":%s}\n' % (
        re.escape(_JSON_TEXT[kind].encode()), payload, _WHOLE, _WHOLE))


#: one entry of an emission's ``links``: a concentrator id, then a drop stage,
#: or an ingest's outcome and reception time
_LINK = rb"\[%s,(?:%s|%s,%s)\]" % (_WHOLE, _words(DROP_STAGES), _words(IngestOutcome), _SIGNED)
#: an emission's payload; its groups are ``cumulative_quanta``, ``frame_hex``,
#: the text inside ``links``, ``meter_id``, ``resource`` and ``session``
_EMISSION = (rb'"cumulative_quanta":(%s),"frame_hex":%s,"links":\[((?:%s(?:,%s)*)?)\],'
             rb'"meter_id":(%s),"resource":(%s),"session":(%s)'
             % (_WHOLE, _HEX, _LINK, _LINK, _WHOLE, _words(ResourceKind), _WHOLE))

#: one pattern per record kind, keyed by the kind's word: the inverse of its
#: ``EventLog`` template, so a line that matches is a line the writer writes
_LINE = {kind.encode(): _line(kind, payload) for kind, payload in (
    (EventKind.QUANTUM_EVENT, _EMISSION),
    (EventKind.HEARTBEAT, _EMISSION),
    (EventKind.TI_READING, b'"meter_id":%s,"poll_index":%s,"register_du":%s,"unit":%s'
     % (_WHOLE, _WHOLE, _SIGNED, _words(BASE_UNIT.values()))),
)}
_TI_READING = _LINE[EventKind.TI_READING.encode()]

#: the fields of an emission line that its frame's header gives, in the
#: order of ``frame_header``'s tuple, and the text of each resource and type
_FRAME_FIELDS = ("resource", "kind", "meter_id", "session", "cumulative_quanta")
_RESOURCE_TEXT = {kind: _JSON_TEXT[kind].encode() for kind in ResourceKind}
_TYPE_WORD = {mtype: mtype.value.encode() for mtype in MessageType}

#: a logged outcome's JSON text, as the word that JSON reads from it
_OUTCOME = {_JSON_TEXT[outcome].encode(): outcome.value for outcome in IngestOutcome}


def read_events(path: Path) -> Iterator[tuple[int, bytes, tuple, list]]:
    """The copies the center ingested, a log line at a time, as (seq, frame,
    header, copies): one item per emission line with an ingest entry in its
    ``links``, where ``header`` is the frame's as ``frame_header`` reads it
    and ``copies`` is (concentrator_id, rx_time_ms, logged outcome) per
    ingest entry, in concentrator-id order.  ``seq`` must run 0, 1, 2, ...

    Each line must match its kind's template (``_LINE``), with an even number
    of ``frame_hex`` digits.  A line that does not raises MalformedLog naming
    it and its due ``seq``, and so does a line that holds an integer too long
    to read or whose ``links`` are out of concentrator-id order.  A line with
    more than one fault gets the first of these messages that applies: not a
    line EventLog writes; an integer too long to read, in its ``seq``, in a
    concentrator id, or in a reception time if the ids rise; a ``seq`` that is
    not the due one; links not in concentrator-id order.  Each emission's
    frame is decoded and its header read once; a frame that breaks the
    decoder rules raises MalformedLog naming the ``seq``, and a frame-derived
    field that is not the header's raises MalformedLog naming the line, its
    ``seq`` and the field.
    """
    seq = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            word = line[9:line.find(b'"', 9)]   # the word after {"kind":"
            pattern = _LINE.get(word)
            match = pattern.fullmatch(line) if pattern else None
            emission = pattern is not _TI_READING
            if match is None or emission and len(match[2]) & 1:   # frame_hex of whole bytes
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: not a line EventLog writes")
            try:
                got = int(match[match.lastindex])
                copies = _copies(match[3]) if emission and match[3] else ()
            except ValueError:   # more digits than int() reads: sys.get_int_max_str_digits()
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: an integer too long to read"
                                   ) from None
            if got != seq:
                raise MalformedLog(f"{path} line {lineno}: seq {got}, expected {seq}")
            if copies is None:
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: links not in "
                                   "concentrator-id order")
            seq += 1
            if not emission:
                continue
            frame = unhexlify(match[2])
            try:
                header = resource, mtype, mid, session, cumulative = frame_header(frame)
            except MalformedFrame as exc:
                raise MalformedLog(f"seq {got}: {exc}") from None
            logged = (match[5], word, match[4], match[6], match[1])
            derived = (_RESOURCE_TEXT[resource], _TYPE_WORD[mtype],
                       b"%d" % mid, b"%d" % session, b"%d" % cumulative)
            if logged != derived:
                field = next(name for name, a, b in zip(_FRAME_FIELDS, logged, derived) if a != b)
                raise MalformedLog(f"{path} line {lineno}: seq {got}: {field} is not the "
                                   "one its frame_hex gives")
            if copies:
                yield got, frame, header, copies


def _copies(links: bytes) -> list[tuple[int, int, str]] | None:
    """(concentrator_id, rx_time_ms, outcome) per ingest entry of the checked
    text inside ``links``, or None if its concentrator ids do not strictly rise.
    An id too long to read raises ValueError wherever it is; a reception time
    too long to read raises it only if the ids rise."""
    copies, last, unread = [], -1, None
    for entry in links[1:-1].split(b"],["):
        cid, _, fate = entry.partition(b",")
        cid = int(cid)
        if cid <= last:
            copies = None
        last = cid
        if copies is not None:
            outcome, _, rx = fate.partition(b",")
            if rx:
                try:
                    copies.append((cid, int(rx), _OUTCOME[outcome]))
                except ValueError as exc:   # an order fault later in links comes first
                    unread = exc
    if unread is not None and copies is not None:
        raise unread
    return copies


def write_ledger_snapshots(path: Path, text: Iterable[str]) -> None:
    """Write ``ledgers.ndjson`` from its text in the pieces that
    ``MonitoringCenter.snapshots`` yields, each as it comes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text)


#: the longest read that skipping the rest of a ledger line makes
_READ_PIECE = 1 << 16


def check_ledger_lines(path: Path, ledgers: dict[int, SessionLedger]) -> Iterator[str]:
    """Where ``ledgers.ndjson`` differs from ``ledgers``, which holds them in
    meter id order: the n-th line must be the n-th ledger's line as
    ``SessionLedger.snapshot_text`` writes it.  Each rendered piece is
    compared with a read of the file no longer than the piece, so no line is
    held whole.  Each mismatch is named by the meter whose line it is not,
    by a line that no ledger is left for, or by a meter that has no line.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for ledger in ledgers.values():
            matches = _matches_line(fh, ledger)
            if matches is None:
                yield f"meter {ledger.meter_id:#x}: {path.name} has no line for it"
                continue
            lineno += 1
            if not matches:
                yield f"meter {ledger.meter_id:#x}"
        while _skip_line(fh):
            lineno += 1
            yield f"{path.name} line {lineno}: replay rebuilt {len(ledgers)} ledgers"


def _matches_line(fh, ledger: SessionLedger) -> bool | None:
    """Whether the next line of ``fh`` is ``ledger``'s line, read a rendered
    piece at a time and, on a mismatch, read to its end; None at the end of
    the file."""
    for n, piece in enumerate(ledger.snapshot_text()):
        piece = piece.encode()
        got = fh.readline(len(piece))
        if got != piece:
            if n == 0 and not got:
                return None
            if not got.endswith(b"\n"):
                _skip_line(fh)
            return False
    return True


def _skip_line(fh) -> bool:
    """Read to the end of the current line of ``fh`` in bounded pieces;
    whether any of it was left."""
    got = fh.readline(_READ_PIECE)
    left = bool(got)
    while got and not got.endswith(b"\n"):
        got = fh.readline(_READ_PIECE)
    return left


def replay_center(ingests) -> MonitoringCenter:
    """Rebuild a fresh center from a log's ingests, as ``read_events`` yields them.

    Every ingested copy is logged with the full frame plus reception
    metadata, so the rebuilt ledgers must equal the originals exactly if the
    log is faithful.  Each line's copies go to the center in one
    ``fold_emission``, with the frame and the meter id and session of the
    header that ``read_events`` read once per line; the meter's first
    logged line registers it.  A frame whose meter id the registry refuses,
    or an ``outcome`` that the center does not return, raises MalformedLog
    naming the record's ``seq``, and for an outcome the first copy's
    concentrator whose logged outcome differs.
    """
    registry = Registry()
    center = MonitoringCenter(registry)
    for seq, frame, header, copies in ingests:
        kind, _, mid, session, _ = header
        heard = [(cid, rx_time_ms) for cid, rx_time_ms, _ in copies]
        try:
            try:
                outcomes = center.fold_emission(frame, mid, session, heard)
            except KeyError:  # the meter's first logged line: register it
                registry.add_meter(mid, kind)
                outcomes = center.fold_emission(frame, mid, session, heard)
        except ValueError as exc:
            raise MalformedLog(f"seq {seq}: {exc}") from None
        for (cid, _, logged), outcome in zip(copies, outcomes):
            if outcome != logged:
                raise MalformedLog(f"seq {seq}: concentrator {cid:#x}: outcome "
                                   f"{logged!r}, replay gives {outcome.value!r}")
    return center


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC 4180 output: header row first, CRLF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
