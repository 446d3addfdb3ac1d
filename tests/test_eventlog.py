"""Log serialization: canonical NDJSON, CSV framing, replay fidelity."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from risim.center import IngestOutcome
from risim.domain import (BASE_UNIT, NOMINAL_QUALITY_DU, MalformedFrame, MessageType,
                          MeterMessage, MeterState, QualityVector, ResourceKind, encode_frame,
                          frame_header)
from risim.eventlog import (
    _JSON_TEXT,
    _LINE,
    EventKind,
    EventLog,
    MalformedLog,
    MeterLines,
    read_events,
    replay_center,
    write_csv,
    write_events,
)

from oracles import (EventLogRecord, accepted_count, accepted_sessions, from_json,
                     is_written_line, links_in_order, read_csv, read_records, reference_ingests,
                     write_records)


def _frame(mid=1, session=0, resource=ResourceKind.GAS, mtype=MessageType.QUANTUM_EVENT,
           cumulative=1) -> bytes:
    return encode_frame(MeterMessage(
        mid, session, resource, mtype, QualityVector(resource, NOMINAL_QUALITY_DU[resource]),
        MeterState(cumulative_quanta=cumulative)))


def test_json_lines_are_canonical():
    rec = EventLogRecord(3, 1500, EventKind.HEARTBEAT,
                         {"meter_id": 9, "links": [[4, "uplink"], [5, "accepted", 1502]],
                          "session": 0})
    line = rec.to_json()
    # keys alphabetical, no whitespace: byte-stable across runs
    assert line == (
        '{"kind":"heartbeat","payload":{"links":[[4,"uplink"],[5,"accepted",1502]],'
        '"meter_id":9,"session":0},"seq":3,"sim_time_ms":1500}'
    )
    assert from_json(line) == rec


def test_protocol_lists_exactly_the_record_kinds():
    protocol = (Path(__file__).resolve().parents[1] / "protocol.md").read_text()
    section = protocol.split("\n## Event log", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*?):", section, re.MULTILINE)
    named = [kind for bullet in bullets for kind in re.findall(r"`(\w+)`", bullet)]
    assert sorted(named) == sorted(kind.value for kind in EventKind)


def test_payload_key_order_does_not_change_bytes():
    a = EventLogRecord(0, 0, EventKind.HEARTBEAT, {"x": 1, "a": 2})
    b = EventLogRecord(0, 0, EventKind.HEARTBEAT, {"a": 2, "x": 1})
    assert a.to_json() == b.to_json()


def test_negative_fields_rejected():
    with pytest.raises(ValueError):
        EventLogRecord(-1, 0, EventKind.HEARTBEAT, {})
    with pytest.raises(ValueError):
        EventLogRecord(0, -5, EventKind.HEARTBEAT, {})


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
    assert list(read_records(path)) == records


def test_csv_uses_crlf_and_header(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [[1, "x"], [2, "y,z"]])
    raw = path.read_bytes()
    assert raw.startswith(b"a,b\r\n")
    assert b'"y,z"' in raw  # embedded comma quoted
    _, rows = read_csv(path)
    assert rows == [{"a": "1", "b": "x"}, {"a": "2", "b": "y,z"}]


def test_replay_ignores_non_ingest_records(tmp_path):
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        log = EventLog(fh.write)
        log.emission(10, _frame(), [(2, "radio"), (3, "uplink")])
        log.emission(10, _frame(session=1), [])
        log.ti_reading(20, 1, 1, 5, "l")
    assert list(read_events(path)) == []
    assert replay_center(read_events(path)).ledgers() == {}


def test_replay_rebuilds_from_frames(tmp_path):
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
        EventLogRecord(i, 1000 * (i + 1), EventKind.QUANTUM_EVENT, {
            "cumulative_quanta": i + 1,
            "frame_hex": frames[i].hex(),
            "links": [[concentrator_id(2), "accepted", 1000 * (i + 1)]],
            "meter_id": mid,
            "resource": "heat",
            "session": i,
        })
        for i in range(3)
    ]
    center = replay_center(read_events(write_records(tmp_path / "events.ndjson", records)))
    ledger = center.ledgers()[mid]
    assert accepted_count(ledger) == 3
    assert [r.rx_time_ms for r in accepted_sessions(ledger)] == [1000, 2000, 3000]


def test_log_file_is_plain_json_lines(tmp_path):
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_events(fh, [EventLogRecord(0, 0, EventKind.HEARTBEAT, {"meter_id": 1})])
    for line in path.read_text().splitlines():
        obj = json.loads(line)  # every line parses standalone
        assert set(obj) == {"kind", "payload", "seq", "sim_time_ms"}


# ---------------------------------------------------------------------------
# the per-kind templates against the reference line


_WHOLE = st.integers(min_value=0, max_value=2**64)
_WIRE32 = st.integers(min_value=0, max_value=2**32 - 1)


_SIGNED = st.integers(min_value=-2**64, max_value=2**64)


@st.composite
def _links(draw):
    """0-8 link entries in increasing concentrator-id order, ids and
    reception times past 64 bits, each a radio or uplink drop or an ingest
    with any outcome."""
    cids = sorted(draw(st.sets(_WHOLE, max_size=8)))
    fates = st.sampled_from([("radio",), ("uplink",)]) | st.tuples(
        st.sampled_from(list(IngestOutcome)), _SIGNED)
    return [(cid, *draw(fates)) for cid in cids]


@st.composite
def _template_calls(draw):
    """(method name, arguments, kind, sim_time_ms, payload) for one record of
    any kind, with ints up to 2**64 and every string its field can hold; an
    emission is its frame, whose meter id, session and counter are drawn in
    the wire's 64 and 32 bits, and its links."""
    t, mid = draw(_WHOLE), draw(_WHOLE)
    which = draw(st.sampled_from(list(EventKind)))
    if which in (EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT):
        resource = draw(st.sampled_from(list(ResourceKind)))
        mid = draw(st.integers(min_value=0, max_value=2**64 - 1))
        session, cumulative = draw(_WIRE32), draw(_WIRE32)
        frame = encode_frame(MeterMessage(
            mid, session, resource, MessageType(which.value),
            QualityVector(resource, NOMINAL_QUALITY_DU[resource]),
            MeterState(battery=draw(st.integers(0, 200)), cumulative_quanta=cumulative)))
        links = draw(_links())
        return ("emission", (t, frame, links),
                which, t, {"cumulative_quanta": cumulative, "frame_hex": frame.hex(),
                           "links": [list(link) for link in links], "meter_id": mid,
                           "resource": resource.value, "session": session})
    poll, register = draw(_WHOLE), draw(_WHOLE)
    unit = draw(st.sampled_from(sorted(set(BASE_UNIT.values()))))
    return ("ti_reading", (t, mid, poll, register, unit),
            which, t, {"meter_id": mid, "poll_index": poll, "register_du": register,
                       "unit": unit})


def _through_meter_lines(log: EventLog, t: int, frame: bytes, links) -> None:
    """``log.emission(t, frame, links)`` as a run writes it: through the
    ``MeterLines`` of the frame's meter, each link's entry taken from its
    ``links`` by the copy's drop stage, or None for an ingest, whose
    outcome and reception time ``write`` adds."""
    resource, _, mid, session, _ = frame_header(frame)
    lines = MeterLines(log, mid, resource, [link[0] for link in links])
    entries, heard, outcomes = [], [], []
    for texts, (_, fate, *rx) in zip(lines.links, links):
        if rx:
            heard.append((len(entries), *rx))
            outcomes.append(fate)
            fate = None
        entries.append(texts[fate])
    lines.write(t, frame, session, entries, heard, outcomes)


#: the writers of an emission line: the validating ``EventLog.emission``,
#: and a meter's ``MeterLines``, which a run writes through
_EMITTERS = {"emission": EventLog.emission, "meter_lines": _through_meter_lines}


def _call(log: EventLog, method: str, args, emitter: str) -> None:
    """``log``'s ``method`` on ``args``, an emission through ``emitter``."""
    if method == "emission":
        _EMITTERS[emitter](log, *args)
    else:
        getattr(log, method)(*args)


@settings(max_examples=400, deadline=None)
@given(start=_WHOLE, calls=st.lists(_template_calls(), min_size=1, max_size=6),
       emitter=st.sampled_from(sorted(_EMITTERS)))
def test_templates_write_the_reference_line(start, calls, emitter):
    lines = []
    log = EventLog(lines.append)
    log.seq = start
    for method, args, _, _, _ in calls:
        _call(log, method, args, emitter)
    assert log.seq == start + len(calls)
    assert lines == [
        EventLogRecord(start + i, t, kind, payload).to_json() + "\n"
        for i, (_, _, kind, t, payload) in enumerate(calls)
    ]


def test_templates_refuse_a_string_outside_the_vocabulary():
    lines = []
    log = EventLog(lines.append)
    for emit in _EMITTERS.values():
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, 'up"link')])
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, "radio"), (3, "lost", 5)])
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, "accepted", 5), (3, "lost", 5)])
    with pytest.raises(KeyError):
        log.ti_reading(0, 1, 1, 0, "m\u00b3")
    assert log.seq == 0 and lines == []


def test_an_emission_of_a_malformed_frame_writes_nothing():
    frame = encode_frame(MeterMessage(
        7, 3, ResourceKind.GAS, MessageType.HEARTBEAT,
        QualityVector(ResourceKind.GAS, NOMINAL_QUALITY_DU[ResourceKind.GAS]), MeterState()))
    lines = []
    log = EventLog(lines.append)
    for bad in (frame[:-1], b"\x02" + frame[1:], frame[:2], frame[:-5] + b"\x08" + frame[-4:]):
        with pytest.raises(MalformedFrame):
            log.emission(0, bad, [(2, "radio")])
    assert log.seq == 0 and lines == []
    log.emission(0, frame, [(2, "radio")])
    assert log.seq == 1 and len(lines) == 1


@pytest.mark.parametrize("links", [
    [(3, "radio"), (2, "radio")],
    [(2, "accepted", 5), (2, "duplicate", 5)],
    [(-1, "radio")],
], ids=["descending", "repeated", "negative"])
def test_an_emission_whose_concentrator_ids_do_not_rise_from_zero_writes_nothing(
        tmp_path, links):
    """``read_events`` refuses the line of such links, so ``emission``
    writes none: it raises before the line, and ``seq`` stays."""
    path = tmp_path / "events.ndjson"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _through_meter_lines(EventLog(fh.write), 0, _frame(), links)
    with pytest.raises(MalformedLog):
        list(read_events(path))
    lines = []
    log = EventLog(lines.append)
    log.seq = 4
    with pytest.raises(ValueError, match="links not in concentrator-id order"):
        log.emission(0, _frame(), links)
    assert log.seq == 4 and lines == []


def test_templates_refuse_a_string_outside_the_vocabulary():
    lines = []
    log = EventLog(lines.append)
    for emit in _EMITTERS.values():
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, 'up"link')])
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, "radio"), (3, "lost", 5)])
        with pytest.raises(KeyError):
            emit(log, 0, _frame(), [(2, "accepted", 5), (3, "lost", 5)])
    with pytest.raises(KeyError):
        log.ti_reading(0, 1, 1, 0, "m\u00b3")
    assert log.seq == 0 and lines == []


def test_an_emission_of_a_malformed_frame_writes_nothing():
    frame = encode_frame(MeterMessage(
        7, 3, ResourceKind.GAS, MessageType.HEARTBEAT,
        QualityVector(ResourceKind.GAS, NOMINAL_QUALITY_DU[ResourceKind.GAS]), MeterState()))
    lines = []
    log = EventLog(lines.append)
    for bad in (frame[:-1], b"\x02" + frame[1:], frame[:2], frame[:-5] + b"\x08" + frame[-4:]):
        with pytest.raises(MalformedFrame):
            log.emission(0, bad, [(2, "radio")])
    assert log.seq == 0 and lines == []
    log.emission(0, frame, [(2, "radio")])
    assert log.seq == 1 and len(lines) == 1


_C2, _C3 = 2, 3


@pytest.mark.parametrize("links", [
    [(_C3, "radio"), (_C2, "radio")],
    [(_C2, "accepted", 5), (_C2, "duplicate", 5)],
    [(-1, "radio")],
], ids=["descending", "repeated", "negative"])
def test_an_emission_whose_concentrator_ids_do_not_rise_from_zero_writes_nothing(links):
    """``read_events`` refuses such links, as not in concentrator-id order or
    not a line EventLog writes, so ``emission`` writes no line for them."""
    lines = []
    log = EventLog(lines.append)
    log.seq = 4
    with pytest.raises(ValueError, match="links not in concentrator-id order"):
        log.emission(0, _frame(), links)
    assert log.seq == 4 and lines == []


@pytest.mark.parametrize("member", [*ResourceKind, *MessageType, *IngestOutcome, *EventKind],
                         ids=lambda member: f"{type(member).__name__}.{member.name}")
def test_a_protocol_word_is_its_own_string(member):
    """A member equals its word, hashes like it, is dumped to JSON as it, and
    finds an entry keyed by it: nothing has to translate it."""
    assert member == member.value
    assert hash(member) == hash(member.value)
    assert json.dumps(member) == json.dumps(member.value)
    assert {member.value: 1}[member] == 1


# ---------------------------------------------------------------------------
# the per-kind patterns against the whole-record reader


def test_every_word_a_template_writes_is_read_by_its_kinds_pattern():
    """The writer's vocabulary and the reader's cannot drift apart: lines
    that use every word of ``_JSON_TEXT``, written by each emission writer,
    each match their kind's pattern, with the widest ids and negative
    reception times."""
    wide = 2**64 - 1
    for emit in _EMITTERS.values():
        lines = []
        log = EventLog(lines.append)
        for resource in ResourceKind:
            for mtype in MessageType:
                emit(log, 0, _frame(mid=wide, resource=resource, mtype=mtype), [])
        emit(log, 0, _frame(mid=wide), [
            (2, "radio"), (3, "uplink"),
            *((4 + i, outcome, -3) for i, outcome in enumerate(IngestOutcome)),
            (wide - 1, "accepted", -2**63), (wide, "uplink")])
        for unit in BASE_UNIT.values():
            log.ti_reading(0, 1, 0, -4, unit)
        assert {word for word, text in _JSON_TEXT.items()
                if any(text in line for line in lines)} == set(_JSON_TEXT)
        for line in lines:
            assert _LINE[json.loads(line)["kind"].encode()].fullmatch(line.encode()), line


#: what an edit sets one field to: the fuzz's hostile values, a negative
#: number and a 25-digit integer, or another whole number
_HOSTILE = st.sampled_from([True, 1.5, "5", -1, 10**24 + 7]) | st.integers(0, 10**20)
_EDITS = ["value", "prefix", "remove", "reorder", "spaces", "upper", "crlf", "blank", "repeat",
          "delete", "entry", "disorder", "odd"]


@st.composite
def _log_lines(draw):
    """(lines, edited): 1-6 template lines numbered from 0, and whether one of
    them was edited: a field set to a hostile value, a "0", "-", "+" or " "
    written before a field's value, a key removed or moved first, spaces
    after the separators, uppercase hex, a CRLF ending, or a blank line
    before it; one element of a link entry set to a hostile value or
    removed; an emission's links put out of concentrator-id order, by
    swapping its first two entries or repeating its only one; one digit of
    an emission's frame_hex deleted; or one line repeated or deleted."""
    lines = []
    log = EventLog(lines.append)
    for method, args, _, _, _ in draw(st.lists(_template_calls(), min_size=1, max_size=6)):
        getattr(log, method)(*args)
    edit = draw(st.sampled_from([None, *_EDITS]))
    if edit is None:
        return lines, False
    if edit in ("entry", "disorder"):
        linked = [i for i, line in enumerate(lines) if json.loads(line)["payload"].get("links")]
        if not linked:
            return lines, False
        i = draw(st.sampled_from(linked))
        obj = json.loads(lines[i])
        links = obj["payload"]["links"]
        if edit == "disorder":
            links[:2] = links[1::-1] if len(links) > 1 else links * 2
        else:
            entry = draw(st.sampled_from(links))
            at = draw(st.integers(0, len(entry) - 1))
            if draw(st.booleans()):
                entry[at] = draw(_HOSTILE)
            else:
                del entry[at]
        lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        return lines, True
    if edit == "odd":
        emissions = [i for i, line in enumerate(lines) if '"frame_hex":"' in line]
        if not emissions:
            return lines, False
        i = draw(st.sampled_from(emissions))
        start = lines[i].index('"frame_hex":"') + len('"frame_hex":"')
        at = draw(st.integers(start, lines[i].index('"', start) - 1))
        lines[i] = lines[i][:at] + lines[i][at + 1:]
        return lines, True
    i = draw(st.integers(0, len(lines) - 1))
    obj = json.loads(lines[i])
    node, key = draw(st.sampled_from([(obj, key) for key in sorted(obj)] +
                                     [(obj["payload"], key) for key in sorted(obj["payload"])]))
    if edit in ("value", "remove", "reorder"):
        if edit == "value":
            node[key] = draw(_HOSTILE)
        elif edit == "remove":
            del node[key]
        else:
            node.update({k: node.pop(k) for k in sorted(node) if k != key})
        lines[i] = json.dumps(obj, sort_keys=edit != "reorder", separators=(",", ":")) + "\n"
    elif edit == "spaces":
        lines[i] = json.dumps(obj, sort_keys=True) + "\n"
    elif edit == "prefix":
        lines[i] = lines[i].replace(f'"{key}":', f'"{key}":' + draw(st.sampled_from("0-+ ")), 1)
    elif edit == "upper":
        lines[i] = re.sub(r'(?<="frame_hex":")[0-9a-f]*', lambda m: m[0].upper(), lines[i])
    elif edit == "crlf":
        lines[i] = lines[i][:-1] + "\r\n"
    elif edit == "blank":
        lines.insert(i, draw(st.sampled_from(["\n", " \r\n"])))
    elif edit == "repeat":
        lines.insert(i, lines[i])
    else:
        del lines[i]
    return lines, True


def _read_all(ingests) -> tuple[list, str | None]:
    """What an ingest iterator yields up to its MalformedLog, and that message."""
    out = []
    try:
        for ingest in ingests:
            out.append(ingest)
    except MalformedLog as exc:
        return out, str(exc)
    return out, None


def _replayed(ingests) -> str:
    """The text of the ledgers ``replay_center`` rebuilds from ``ingests``, or
    its MalformedLog message."""
    try:
        return "".join(replay_center(ingests).snapshots())
    except MalformedLog as exc:
        return str(exc)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("log") / "events.ndjson"


@settings(max_examples=400, deadline=None)
@given(drawn=_log_lines())
def test_read_events_matches_the_whole_record_reader(log_path, drawn):
    """On a log of lines that the templates write, ``read_events`` yields the
    ingests, and raises the MalformedLog, that reading every line as a whole
    record does, and so replay rebuilds the same ledgers or raises the same
    message; each such line is matched by its kind's pattern.  On a log
    edited so that some line is not one the templates write, as
    ``is_written_line`` tells, or whose links are not in concentrator-id
    order, it yields the ingests before the first such line and then raises
    a MalformedLog naming that line and what is wrong with it."""
    lines, edited = drawn
    log_path.write_bytes("".join(lines).encode())
    written = [is_written_line(line.encode()) for line in lines]
    ordered = [written_line and links_in_order(from_json(line))
               for written_line, line in zip(written, lines)]
    assert edited or all(ordered)
    if all(ordered):
        assert _read_all(read_events(log_path)) == _read_all(
            reference_ingests(log_path))
        assert _replayed(read_events(log_path)) == _replayed(
            reference_ingests(log_path))
        for line in lines:
            assert _LINE[json.loads(line)["kind"].encode()].fullmatch(line.encode()), line
        return
    bad = ordered.index(False)
    head = log_path.with_name("head.ndjson")
    head.write_bytes("".join(lines[:bad]).encode())
    want, head_error = _read_all(reference_ingests(head))
    assert head_error is None
    got, message = _read_all(read_events(log_path))
    assert got == want
    reason = "links not in concentrator-id order" if written[bad] else "not a line EventLog writes"
    assert message == f"{log_path} line {bad + 1}: seq {bad}: {reason}"
