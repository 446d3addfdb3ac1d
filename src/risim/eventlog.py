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
from .domain import (
    BASE_UNIT,
    DROP_STAGES,
    FRAME_SUMMARY,
    RADIO,
    TYPE_TAG,
    UPLINK,
    MalformedFrame,
    MessageType,
    Registry,
    ResourceKind,
    device_name,
    frame_header,
    frame_size,
)
from .domain import decode_frame  # unused here; perfbench's tracer patches this name


class MalformedLog(ValueError):
    """Raised when a log line cannot be read back as a record or frame, or
    when an ingest's logged outcome is not the one its replay gives."""


class EventKind(str, Enum):
    METER = "meter"
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


#: an emission line's text up to its counter, per frame type tag
_EMISSION_HEAD = {tag: f'{{"kind":{_JSON_TEXT[mtype]},"payload":{{"cumulative_quanta":'
                  for mtype, tag in TYPE_TAG.items()}
#: an ingest entry's outcome as its JSON text; any other string raises KeyError
_OUTCOME_TEXT = {outcome: _JSON_TEXT[outcome] for outcome in IngestOutcome}
#: a link entry's text by its copy's drop stage, the same on every line; an
#: ingest's (None) is a placeholder that ``MeterLines.write`` fills in
LINK_TEXT = {RADIO: f"[{_JSON_TEXT[RADIO]}]", UPLINK: f"[{_JSON_TEXT[UPLINK]}]", None: None}


class EventLog:
    """Numbers each record with the next ``seq`` and hands its line to ``sink``;
    runs that share a log share its numbering, so ``ti`` goes on where ``ri``
    stopped.

    There is one template per record kind.  Each writes its line, ending in a
    newline, with no record object in between: the only writer of event
    lines.  A meter's lines are written through its ``MeterLines``, which
    writes the ``meter`` line that heads them and each emission line: a run
    makes one per meter, and ``emission`` makes one when its frame's meter
    is not ``meter``'s, the meter whose lines are being written.
    ``EventLogRecord.to_json`` in ``tests/oracles.py`` is the reference that
    the tests hold each line to.
    """

    def __init__(self, sink) -> None:
        self._sink = sink
        self.seq = 0   # the next record's seq, so also the count emitted
        self.meter: MeterLines | None = None

    def emission(self, t: int, frame: bytes, links) -> None:
        """A ``quantum_event`` or ``heartbeat`` record: one frame a meter sent,
        with its meter id, session, kind and counter read from the frame, and
        its copy's fate on each link: (concentrator_id, drop stage) or
        (concentrator_id, outcome, rx_time_ms), in concentrator-id order.  A
        frame of a meter other than the current one first gets its meter
        line, with the frame's resource and the links' concentrator ids.

        A frame that breaks the decoder rules raises MalformedFrame, and a
        word outside a fate's vocabulary KeyError.  ValueError is raised for
        concentrator ids that are negative or do not strictly rise, a meter id
        below the current meter's, and, for the current meter, concentrator
        ids or a resource that are not its meter line's.  Each writes nothing.
        """
        resource, _, meter_id, session, _ = frame_header(frame)
        entries = []
        for link in links:
            if len(link) == 2:
                if link[1] not in DROP_STAGES:
                    raise KeyError(link[1])
                entries.append(LINK_TEXT[link[1]])
            else:
                entries.append(f"[{_OUTCOME_TEXT[link[1]]},{link[2]}]")
        cids = [link[0] for link in links]
        lines = self.meter
        if lines is None or lines.meter_id != meter_id:
            lines = MeterLines(self, meter_id, resource, cids)
        elif lines.cids != cids:
            raise ValueError(f"links {cids} are not the concentrators {lines.cids} "
                             f"of meter {meter_id}'s line")
        elif lines.resource != resource:
            raise ValueError(f"a {resource.value} frame of a {lines.resource.value} meter")
        lines.write(t, frame, session, entries)

    def ti_reading(self, t: int, meter_id: int, poll_index: int, register_du: int,
                   unit: str) -> None:
        """A ``ti_reading`` record: one register a polled meter reported."""
        self._sink(
            f'{{"kind":"ti_reading","payload":{{"meter_id":{meter_id},'
            f'"poll_index":{poll_index},"register_du":{register_du},'
            f'"unit":{_JSON_TEXT[unit]}}},"seq":{self.seq},"sim_time_ms":{t}}}\n')
        self.seq += 1


class MeterLines:
    """The lines of one meter, whose links go to the concentrators ``cids``,
    in id order, written to ``log``: made with a log, it writes the
    ``meter`` line with the meter's id, resource and ``cids``, and becomes
    the log's current ``meter``; ``write`` writes each emission line.  A
    run with no log writes nothing.  A meter id that is not above the log's
    current meter's, or ``cids`` that are negative or do not strictly rise,
    raise ValueError and write nothing.

    What is the same on each emission line is formatted once: the meter id.
    A line then formats only its counter, ``frame_hex``, its links' entries,
    each ingest's outcome and reception time, its session, ``seq`` and time.
    """

    __slots__ = ("_log", "_summary", "_tail", "meter_id", "resource", "cids")

    def __init__(self, log: EventLog | None, meter_id: int, resource: ResourceKind, cids) -> None:
        self._log = log
        self._summary = FRAME_SUMMARY[frame_size(resource)].unpack
        self._tail = f'],"meter_id":{meter_id},"session":'
        self.meter_id, self.resource, self.cids = meter_id, resource, list(cids)
        if log is None:
            return
        if any(cid <= last for last, cid in zip([-1, *self.cids], self.cids)):
            raise ValueError(f"links not in concentrator-id order: {self.cids}")
        if log.meter is not None and meter_id <= log.meter.meter_id:
            raise ValueError(f"meter {meter_id} after meter {log.meter.meter_id}: a log "
                             "takes its meters in increasing id order")
        log._sink(f'{{"kind":"meter","payload":{{"concentrators":[{",".join(map(str, self.cids))}],'
                  f'"meter_id":{meter_id},"resource":{_JSON_TEXT[resource]}}},'
                  f'"seq":{log.seq},"sim_time_ms":0}}\n')
        log.seq += 1
        log.meter = self

    def write(self, t: int, frame: bytes, session: int, entries: list,
              heard=(), outcomes=()) -> None:
        """The line of one of the meter's frames, sent at ``t`` as session
        ``session``: ``entries`` holds each link's text, in ``cids`` order,
        from ``LINK_TEXT``, and ``heard`` the (index in ``entries``,
        rx_time_ms) of each ingest, whose entry this makes with its outcome
        from ``outcomes``.  The frame's type tag and counter are read with one
        ``FRAME_SUMMARY`` unpack, and nothing of it is checked: it is one the
        meter sent.  An outcome that is not an ``IngestOutcome`` raises
        KeyError, and a write after the next meter's line ValueError; each
        writes nothing."""
        log = self._log
        if log.meter is not self:
            raise ValueError(f"meter {self.meter_id}'s lines ended at meter "
                             f"{log.meter.meter_id}'s line")
        for (i, rx), outcome in zip(heard, outcomes):
            entries[i] = f"[{_OUTCOME_TEXT[outcome]},{rx}]"
        _, tag, cumulative_quanta = self._summary(frame)
        log._sink(f'{_EMISSION_HEAD[tag]}{cumulative_quanta},"frame_hex":"{frame.hex()}",'
                  f'"links":[{",".join(entries)}{self._tail}{session}}},'
                  f'"seq":{log.seq},"sim_time_ms":{t}}}\n')
        log.seq += 1


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


def _line(kinds, payload: bytes, time: bytes = _WHOLE) -> re.Pattern:
    """The pattern of a line of any of ``kinds`` with these payload fields and
    a ``sim_time_ms`` of ``time``; ``seq`` is its last group."""
    return re.compile(b'{"kind":%s,"payload":{%s},"seq":(%s),"sim_time_ms":%s}\n' % (
        _words(kinds), payload, _WHOLE, time))


#: one entry of an emission's ``links``, whose concentrator is its meter
#: line's at the same position: a drop stage, or an ingest's outcome and
#: reception time
_LINK = rb"\[(?:%s|%s,%s)\]" % (_words(DROP_STAGES), _words(IngestOutcome), _SIGNED)
#: an emission's payload; its groups are ``cumulative_quanta``, ``frame_hex``,
#: the text inside ``links``, ``meter_id`` and ``session``
_EMISSION = (rb'"cumulative_quanta":(%s),"frame_hex":%s,"links":\[((?:%s(?:,%s)*)?)\],'
             rb'"meter_id":(%s),"session":(%s)' % (_WHOLE, _HEX, _LINK, _LINK, _WHOLE, _WHOLE))

#: the pattern of each record kind, keyed by the kind's word: the inverse of
#: its ``EventLog`` template, so a line that matches is a line the writer
#: writes.  Both emission kinds share one pattern; ``read_events`` picks it by
#: the line's own word, so that word is the line's kind.  A meter line's
#: groups are the text inside ``concentrators``, ``meter_id`` and ``resource``.
_METER_LINE = _line((EventKind.METER,), rb'"concentrators":\[((?:%s(?:,%s)*)?)\],'
                    rb'"meter_id":(%s),"resource":(%s)'
                    % (_WHOLE, _WHOLE, _WHOLE, _words(ResourceKind)), b"0")
_EMISSION_LINE = _line((EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT), _EMISSION)
_TI_READING = _line((EventKind.TI_READING,),
                    b'"meter_id":%s,"poll_index":%s,"register_du":%s,"unit":%s'
                    % (_WHOLE, _WHOLE, _SIGNED, _words(BASE_UNIT.values())))
_LINE = {EventKind.METER.encode(): _METER_LINE,
         EventKind.QUANTUM_EVENT.encode(): _EMISSION_LINE,
         EventKind.HEARTBEAT.encode(): _EMISSION_LINE,
         EventKind.TI_READING.encode(): _TI_READING}

#: the fields of an emission line that its frame's header gives, in the
#: order of ``frame_header``'s tuple after the resource, which its meter line
#: gives; the text of each resource, and the word of each type
_FRAME_FIELDS = ("kind", "meter_id", "session", "cumulative_quanta")
_RESOURCE = {_JSON_TEXT[kind].encode(): kind for kind in ResourceKind}
_TYPE_WORD = {mtype: mtype.value.encode() for mtype in MessageType}

#: a logged outcome's JSON text, as the word that JSON reads from it
_OUTCOME = {_JSON_TEXT[outcome].encode(): outcome.value for outcome in IngestOutcome}


def read_events(path: Path) -> Iterator[tuple[int, bytes, tuple, list]]:
    """The copies the center ingested, a log line at a time, as (seq, frame,
    header, copies): one item per emission line with an ingest entry in its
    ``links``, where ``header`` is the frame's as ``frame_header`` reads it
    and ``copies`` is (concentrator_id, rx_time_ms, logged outcome) per
    ingest entry, in concentrator-id order, its concentrator the one at its
    position in the ``concentrators`` of the meter line before it.  ``seq``
    must run 0, 1, 2, ...

    Each line must match its kind's template (``_LINE``), with an even number
    of ``frame_hex`` digits.  A line that does not raises MalformedLog naming
    it and its due ``seq``, and so does each fault below.  A line with more
    than one fault gets the first message that applies: not a line EventLog
    writes; an integer too long to read, in its ``seq``, a reception time, or
    a meter line's meter id or concentrator ids; a ``seq`` that is not the
    due one.  Then, on a meter line: concentrator ids that do not strictly
    rise; a meter id not above the last meter line's, so that each meter's
    lines are one run, meters in id order.  On an emission line: a frame
    that breaks the decoder rules, whose message names the ``seq``; a
    frame-derived field that is not the header's, named; no meter line
    before it; a ``meter_id`` that is not its meter line's; a ``links``
    count that is not its meter line's; a frame whose resource is not its
    meter line's.  Each emission's frame is decoded and its header read once.
    """
    seq = 0
    meter = None   # (meter_id text, resource, concentrator ids) of the last meter line
    last_mid = -1
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            word = line[9:line.find(b'"', 9)]   # the word after {"kind":"
            pattern = _LINE.get(word)
            match = pattern.fullmatch(line) if pattern else None
            emission = pattern is _EMISSION_LINE
            if match is None or emission and len(match[2]) & 1:   # frame_hex of whole bytes
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: not a line EventLog writes")
            try:
                got = int(match[match.lastindex])
                if emission:
                    n_links, heard = _entries(match[3])
                elif pattern is _METER_LINE:
                    meter_id = int(match[2])
                    cids = [int(cid) for cid in match[1].split(b",")] if match[1] else []
            except ValueError:   # more digits than int() reads: sys.get_int_max_str_digits()
                raise MalformedLog(f"{path} line {lineno}: seq {seq}: an integer too long to read"
                                   ) from None
            if got != seq:
                raise MalformedLog(f"{path} line {lineno}: seq {got}, expected {seq}")
            seq += 1
            if pattern is _METER_LINE:
                if any(b <= a for a, b in zip(cids, cids[1:])):
                    raise MalformedLog(f"{path} line {lineno}: seq {got}: concentrators not "
                                       "in id order")
                if meter_id <= last_mid:
                    raise MalformedLog(f"{path} line {lineno}: seq {got}: meter_id is not above "
                                       "the last meter line's")
                last_mid, meter = meter_id, (match[2], _RESOURCE[match[3]], cids)
                continue
            if not emission:
                continue
            frame = unhexlify(match[2])
            try:
                header = resource, mtype, mid, session, cumulative = frame_header(frame)
            except MalformedFrame as exc:
                raise MalformedLog(f"seq {got}: {exc}") from None
            logged = (word, match[4], match[5], match[1])
            derived = (_TYPE_WORD[mtype], b"%d" % mid, b"%d" % session, b"%d" % cumulative)
            if logged != derived:
                field = next(name for name, a, b in zip(_FRAME_FIELDS, logged, derived) if a != b)
                raise MalformedLog(f"{path} line {lineno}: seq {got}: {field} is not the "
                                   "one its frame_hex gives")
            if meter is None:
                raise MalformedLog(f"{path} line {lineno}: seq {got}: an emission before any "
                                   "meter line")
            meter_text, meter_resource, cids = meter
            if match[4] != meter_text:
                raise MalformedLog(f"{path} line {lineno}: seq {got}: meter_id is not its "
                                   "meter line's")
            if n_links != len(cids):
                raise MalformedLog(f"{path} line {lineno}: seq {got}: links are not one per "
                                   "concentrator of its meter line")
            if resource is not meter_resource:
                raise MalformedLog(f"{path} line {lineno}: seq {got}: its meter line's "
                                   "resource is not the one its frame_hex gives")
            if heard:
                yield got, frame, header, [(cids[i], rx, outcome) for i, rx, outcome in heard]


def _entries(links: bytes) -> tuple[int, list[tuple[int, int, str]]]:
    """The number of entries in the checked text inside ``links``, and (index,
    rx_time_ms, outcome) per ingest entry; a reception time too long to read
    raises ValueError."""
    if not links:
        return 0, []
    entries = links[1:-1].split(b"],[")
    heard = []
    for i, entry in enumerate(entries):
        outcome, _, rx = entry.partition(b",")
        if rx:
            heard.append((i, int(rx), _OUTCOME[outcome]))
    return len(entries), heard


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
                yield f"{device_name('meter', ledger.meter_id)}: {path.name} has no line for it"
                continue
            lineno += 1
            if not matches:
                yield device_name("meter", ledger.meter_id)
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
                raise MalformedLog(f"seq {seq}: {device_name('concentrator', cid)}: outcome "
                                   f"{logged!r}, replay gives {outcome.value!r}")
    return center


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC 4180 output: header row first, CRLF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
