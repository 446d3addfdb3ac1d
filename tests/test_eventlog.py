"""Log serialization: canonical NDJSON, CSV framing, replay fidelity."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from risim.eventlog import (
    EventKind,
    EventLogRecord,
    read_csv,
    read_events,
    replay_center,
    write_csv,
    write_events,
)


def test_json_lines_are_canonical():
    rec = EventLogRecord(3, 1500, EventKind.DROP,
                         {"meter_id": 9, "concentrator_id": 4, "session": 0,
                          "stage": "uplink"})
    line = rec.to_json()
    # keys alphabetical, no whitespace: byte-stable across runs
    assert line == (
        '{"kind":"drop","payload":{"concentrator_id":4,"meter_id":9,'
        '"session":0,"stage":"uplink"},"seq":3,"sim_time_ms":1500}'
    )
    assert EventLogRecord.from_json(line) == rec


def test_protocol_lists_exactly_the_record_kinds():
    protocol = (Path(__file__).resolve().parents[1] / "protocol.md").read_text()
    section = protocol.split("\n## Event log", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*?):", section, re.MULTILINE)
    named = [kind for bullet in bullets for kind in re.findall(r"`(\w+)`", bullet)]
    assert sorted(named) == sorted(kind.value for kind in EventKind)


def test_payload_key_order_does_not_change_bytes():
    a = EventLogRecord(0, 0, EventKind.DROP, {"x": 1, "a": 2})
    b = EventLogRecord(0, 0, EventKind.DROP, {"a": 2, "x": 1})
    assert a.to_json() == b.to_json()


def test_negative_fields_rejected():
    with pytest.raises(ValueError):
        EventLogRecord(-1, 0, EventKind.DROP, {})
    with pytest.raises(ValueError):
        EventLogRecord(0, -5, EventKind.DROP, {})


def test_event_file_round_trip(tmp_path):
    records = [
        EventLogRecord(i, 100 * i, EventKind.HEARTBEAT, {"meter_id": i})
        for i in range(5)
    ]
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(fh, records)
    raw = path.read_bytes()
    assert raw.count(b"\n") == 5
    assert b"\r" not in raw  # LF only
    assert list(read_events(path)) == records


def test_csv_uses_crlf_and_header(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, "x"], [2, "y,z"]])
    raw = path.read_bytes()
    assert raw.startswith(b"a,b\r\n")
    assert b'"y,z"' in raw  # embedded comma quoted
    _, rows = read_csv(path)
    assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y,z"}]


def test_replay_ignores_non_ingest_records():
    records = [
        EventLogRecord(0, 10, EventKind.QUANTUM_EVENT, {"meter_id": 1}),
        EventLogRecord(1, 10, EventKind.DROP, {"meter_id": 1}),
    ]
    center = replay_center(records)
    assert center.ledgers() == {}


def test_replay_rebuilds_from_frames():
    from risim.domain import (
        MessageType, MeterMessage, MeterState, QualityVector, ResourceKind,
        concentrator_id, encode_frame, meter_id,
    )
    mid = meter_id(5)
    frames = []
    for s in range(3):
        msg = MeterMessage(
            meter_id=mid, session=s, kind=ResourceKind.HEAT,
            message_type=MessageType.QUANTUM_EVENT,
            quality=QualityVector.nominal(ResourceKind.HEAT),
            state=MeterState(cumulative_quanta=s + 1),
        )
        frames.append(encode_frame(msg))
    records = [
        EventLogRecord(i, 1000 * (i + 1), EventKind.CENTER_INGEST, {
            "frame_hex": frames[i].hex(),
            "concentrator_id": concentrator_id(2),
            "rx_time_ms": 1000 * (i + 1),
            "meter_id": mid,
            "session": i,
            "outcome": "accepted",
        })
        for i in range(3)
    ]
    center = replay_center(records)
    ledger = center.ledgers()[mid]
    assert ledger.accepted_count() == 3
    assert [r.rx_time_ms for r in ledger.accepted_sessions()] == [1000, 2000, 3000]


def test_log_file_is_plain_json_lines(tmp_path):
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(fh, [EventLogRecord(0, 0, EventKind.DROP, {"meter_id": 1})])
    for line in path.read_text().splitlines():
        obj = json.loads(line)  # every line parses standalone
        assert set(obj) == {"kind", "payload", "seq", "sim_time_ms"}
