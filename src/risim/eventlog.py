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

from .center import MonitoringCenter
from .domain import ConcentratorReport, Registry, frame_header, whole_number
from .domain import decode_frame  # unused here; perfbench's tracer patches this name


class MalformedLog(ValueError):
    """Raised when a log line cannot be read back as a record or frame."""


class EventKind(Enum):
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


class EventLog:
    """Numbers each record with the next ``seq`` and hands it to ``sink``; runs
    that share a log share its numbering, so ``ti`` goes on where ``ri`` stopped."""

    def __init__(self, sink) -> None:
        self._sink = sink
        self.seq = 0   # the next record's seq, so also the count emitted

    def emit(self, kind: EventKind, t: int, payload: dict) -> None:
        self._sink(EventLogRecord(self.seq, t, kind, payload))
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
    exactly if the log is faithful.  Each frame is checked once against the
    decoder rules and its bytes go to the center.  A record whose frame or
    fields cannot be read raises MalformedLog naming its ``seq``.
    """
    registry = Registry()
    center = MonitoringCenter(registry)
    for rec in records:
        if rec.kind is not EventKind.CENTER_INGEST:
            continue
        try:
            frame = bytes.fromhex(rec.payload["frame_hex"])
            kind, _, mid, _, _ = frame_header(frame)
            if not registry.has_meter(mid):
                registry.add_meter(mid, kind)
            report = ConcentratorReport(
                frame, whole_number(rec.payload["concentrator_id"], "concentrator_id"),
                whole_number(rec.payload["rx_time_ms"], "rx_time_ms"))
        except KeyError as exc:
            raise MalformedLog(f"seq {rec.seq}: payload has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise MalformedLog(f"seq {rec.seq}: {exc}") from None
        center.ingest(report)
    return center


def write_csv(path: Path, header: list[str], rows) -> None:
    """RFC 4180 output: header row first, CRLF line endings, minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows
