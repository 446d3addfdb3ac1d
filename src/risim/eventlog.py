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

from .center import MonitoringCenter
from .domain import ConcentratorReport, Registry, decode_frame


class MalformedLog(ValueError):
    """Raised when a log line cannot be read back as a record or frame."""


class EventKind(Enum):
    QUANTUM_EVENT = "quantum_event"
    HEARTBEAT = "heartbeat"
    DELIVERY = "delivery"
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
        return cls(
            seq=obj["seq"],
            sim_time_ms=obj["sim_time_ms"],
            kind=EventKind(obj["kind"]),
            payload=obj["payload"],
        )


def write_events(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_events(path: Path) -> list[EventLogRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(EventLogRecord.from_json(line))
                except (KeyError, TypeError, ValueError) as exc:
                    raise MalformedLog(f"{path} line {lineno}: not a record: {exc}") from None
    return out


def write_ledger_snapshots(path: Path, snapshots: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for snap in snapshots:
            fh.write(json.dumps(snap, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_ledger_snapshots(path: Path) -> list[dict]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(json.loads(line))
                except ValueError as exc:
                    raise MalformedLog(f"{path} line {lineno}: not JSON: {exc}") from None
    return out


def replay_center(records) -> MonitoringCenter:
    """Rebuild a fresh center purely from logged ingest events.

    Only ``center_ingest`` records matter; every one carries the full frame
    plus reception metadata, so the rebuilt ledgers must equal the originals
    exactly if the log is faithful.  A record whose frame or fields cannot
    be read raises MalformedLog naming its ``seq``.
    """
    registry = Registry()
    center = MonitoringCenter(registry, initial_session=0)
    for rec in records:
        if rec.kind is not EventKind.CENTER_INGEST:
            continue
        try:
            msg = decode_frame(bytes.fromhex(rec.payload["frame_hex"]))
            if not registry.has_meter(msg.meter_id):
                registry.add_meter(msg.meter_id, msg.kind)
            report = ConcentratorReport(
                message=msg,
                concentrator_id=rec.payload["concentrator_id"],
                rx_time_ms=rec.payload["rx_time_ms"],
            )
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
