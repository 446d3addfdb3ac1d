"""Event log records, NDJSON/CSV serialization, and log replay.

One JSON object per line, fields in canonical (alphabetical) order, UTF-8
with LF line endings, so two byte-identical logs hash equal.  Quantities in
logs and tables are integer deciunits plus a unit string, never floats.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .center import IngestOutcome, MonitoringCenter
from .domain import (BASE_UNIT, ConcentratorReport, Registry, ResourceKind, frame_header,
                     whole_number)
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

    @classmethod
    def from_json(cls, line: str) -> EventLogRecord:
        obj = json.loads(line)
        if not isinstance(obj["payload"], dict):
            raise ValueError("payload is not a JSON object")
        return cls(
            seq=whole_number(obj["seq"], "seq"),
            sim_time_ms=whole_number(obj["sim_time_ms"], "sim_time_ms"),
            kind=EventKind(obj["kind"]),
            payload=obj["payload"],
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


def read_events(path: Path) -> Iterator[EventLogRecord]:
    """The log's records, one line at a time; ``seq`` must run 0, 1, 2, ..."""
    seq = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    rec = EventLogRecord.from_json(line.decode("utf-8"))
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise MalformedLog(f"{path} line {lineno}: not a record: {exc}") from None
                if rec.seq != seq:
                    raise MalformedLog(f"{path} line {lineno}: seq {rec.seq}, expected {seq}")
                seq += 1
                yield rec


def write_ledger_snapshots(path: Path, snapshots: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for snap in snapshots:
            fh.write(json.dumps(snap, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_ledger_snapshots(path: Path) -> list[dict]:
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    snap = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError) as exc:
                    raise MalformedLog(f"{path} line {lineno}: not JSON: {exc}") from None
                if not isinstance(snap, dict) or type(snap.get("meter_id")) is not int:
                    raise MalformedLog(f"{path} line {lineno}: not a ledger snapshot")
                out.append(snap)
    return out


def replay_center(records) -> MonitoringCenter:
    """Rebuild a fresh center purely from logged ingest events.

    Only ``center_ingest`` records matter; every one carries the full frame
    plus reception metadata, so the rebuilt ledgers must equal the originals
    exactly if the log is faithful.  Each logged frame goes to the center,
    whose header read is the only one, except that a meter's first logged
    copy is read once more to register the meter.  A record whose fields or
    frame cannot be read, or whose ``outcome`` the center does not return,
    raises MalformedLog naming its ``seq``.
    """
    registry = Registry()
    center = MonitoringCenter(registry)
    for rec in records:
        if rec.kind is not EventKind.CENTER_INGEST:
            continue
        try:
            report = ConcentratorReport(
                bytes.fromhex(rec.payload["frame_hex"]),
                whole_number(rec.payload["concentrator_id"], "concentrator_id"),
                whole_number(rec.payload["rx_time_ms"], "rx_time_ms"))
            logged = rec.payload["outcome"]
            try:
                outcome = center.ingest(report)
            except KeyError:  # the meter's first logged copy: register it
                kind, _, mid, _, _ = frame_header(report.frame)
                registry.add_meter(mid, kind)
                outcome = center.ingest(report)
        except KeyError as exc:
            raise MalformedLog(f"seq {rec.seq}: payload has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise MalformedLog(f"seq {rec.seq}: {exc}") from None
        if outcome != logged:
            raise MalformedLog(f"seq {rec.seq}: outcome {logged!r}, replay gives {outcome.value!r}")
    return center


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC 4180 output: header row first, CRLF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
