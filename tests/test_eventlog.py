"""Log serialization: canonical NDJSON, CSV framing, replay fidelity."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from risim.center import IngestOutcome
from risim.domain import (BASE_UNIT, NOMINAL_QUALITY_DU, MalformedFrame, MessageType,
                          MeterMessage, MeterState, QualityVector, ResourceKind, encode_frame)
from risim.eventlog import (
    EventKind,
    EventLog,
    EventLogRecord,
    read_events,
    replay_center,
    write_csv,
    write_events,
)

from oracles import accepted_count, read_csv


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
        NOMINAL_QUALITY_DU, MessageType, MeterMessage, MeterState, QualityVector, ResourceKind,
        concentrator_id, encode_frame, meter_id,
    )
    mid = meter_id(5)
    frames = []
    for s in range(3):
        msg = MeterMessage(
            meter_id=mid, session=s, kind=ResourceKind.HEAT,
            message_type=MessageType.QUANTUM_EVENT,
            quality=QualityVector(ResourceKind.HEAT, NOMINAL_QUALITY_DU[ResourceKind.HEAT]),
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
    assert accepted_count(ledger) == 3
    assert [r.rx_time_ms for r in ledger.accepted_sessions()] == [1000, 2000, 3000]


def test_log_file_is_plain_json_lines(tmp_path):
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(fh, [EventLogRecord(0, 0, EventKind.DROP, {"meter_id": 1})])
    for line in path.read_text().splitlines():
        obj = json.loads(line)  # every line parses standalone
        assert set(obj) == {"kind", "payload", "seq", "sim_time_ms"}


# ---------------------------------------------------------------------------
# the per-kind templates against the reference line


_WHOLE = st.integers(min_value=0, max_value=2**64)
_WIRE32 = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def _template_calls(draw):
    """(method name, arguments, kind, sim_time_ms, payload) for one record of
    any kind, with ints up to 2**64 and every string its field can hold; an
    emission is its frame, whose meter id, session and counter are drawn in
    the wire's 64 and 32 bits."""
    t, mid, session = draw(_WHOLE), draw(_WHOLE), draw(_WHOLE)
    frame = draw(st.binary(max_size=64))
    which = draw(st.sampled_from(list(EventKind)))
    if which in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT):
        resource = draw(st.sampled_from(list(ResourceKind)))
        mid = draw(st.integers(min_value=0, max_value=2**64 - 1))
        session, cumulative = draw(_WIRE32), draw(_WIRE32)
        frame = encode_frame(MeterMessage(
            mid, session, resource, MessageType(which.value),
            QualityVector(resource, NOMINAL_QUALITY_DU[resource]),
            MeterState(battery=draw(st.integers(0, 200)), cumulative_quanta=cumulative)))
        return ("emission", (t, frame),
                which, t, {"cumulative_quanta": cumulative, "frame_hex": frame.hex(),
                           "meter_id": mid, "resource": resource.value, "session": session})
    if which is EventKind.CENTER_INGEST:
        cid, rx = draw(_WHOLE), draw(_WHOLE)
        outcome = draw(st.sampled_from(list(IngestOutcome)))
        return ("ingest", (t, mid, session, cid, rx, outcome, frame),
                which, t, {"concentrator_id": cid, "frame_hex": frame.hex(), "meter_id": mid,
                           "outcome": outcome.value, "rx_time_ms": rx, "session": session})
    if which is EventKind.DROP:
        cid = draw(_WHOLE)
        stage = draw(st.sampled_from(["radio", "uplink"]))
        return ("drop", (t, mid, session, cid, stage),
                which, t, {"concentrator_id": cid, "meter_id": mid, "session": session,
                           "stage": stage})
    poll, register = draw(_WHOLE), draw(_WHOLE)
    unit = draw(st.sampled_from(sorted(set(BASE_UNIT.values()))))
    return ("ti_reading", (t, mid, poll, register, unit),
            which, t, {"meter_id": mid, "poll_index": poll, "register_du": register,
                       "unit": unit})


@settings(max_examples=400, deadline=None)
@given(start=_WHOLE, calls=st.lists(_template_calls(), min_size=1, max_size=6))
def test_templates_write_the_reference_line(start, calls):
    lines = []
    log = EventLog(lines.append)
    log.seq = start
    for method, args, _, _, _ in calls:
        getattr(log, method)(*args)
    assert log.seq == start + len(calls)
    assert lines == [
        EventLogRecord(start + i, t, kind, payload).to_json() + "\n"
        for i, (_, _, kind, t, payload) in enumerate(calls)
    ]


def test_templates_refuse_a_string_outside_the_vocabulary():
    log = EventLog([].append)
    with pytest.raises(KeyError):
        log.drop(0, 1, 0, 2, 'up"link')
    with pytest.raises(KeyError):
        log.ti_reading(0, 1, 1, 0, "m\u00b3")
    assert log.seq == 0


def test_an_emission_of_a_malformed_frame_writes_nothing():
    frame = encode_frame(MeterMessage(
        7, 3, ResourceKind.GAS, MessageType.HEARTBEAT,
        QualityVector(ResourceKind.GAS, NOMINAL_QUALITY_DU[ResourceKind.GAS]), MeterState()))
    lines = []
    log = EventLog(lines.append)
    for bad in (frame[:-1], b"\x02" + frame[1:], frame[:2], frame[:-5] + b"\x08" + frame[-4:]):
        with pytest.raises(MalformedFrame):
            log.emission(0, bad)
    assert log.seq == 0 and lines == []
    log.emission(0, frame)
    assert log.seq == 1 and len(lines) == 1


@pytest.mark.parametrize("member", [*ResourceKind, *MessageType, *IngestOutcome, *EventKind],
                         ids=lambda member: f"{type(member).__name__}.{member.name}")
def test_a_protocol_word_is_its_own_string(member):
    """A member equals its word, hashes like it, is dumped to JSON as it, and
    finds an entry keyed by it: nothing has to translate it."""
    assert member == member.value
    assert hash(member) == hash(member.value)
    assert json.dumps(member) == json.dumps(member.value)
    assert {member.value: 1}[member] == 1
