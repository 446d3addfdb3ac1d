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
    LINK_TEXT,
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
                     is_written_line, read_csv, read_records, reference_ingests, write_records)


def _frame(mid=1, session=0, resource=ResourceKind.GAS, mtype=MessageType.QUANTUM_EVENT,
           cumulative=1) -> bytes:
    return encode_frame(MeterMessage(
        mid, session, resource, mtype, QualityVector(resource, NOMINAL_QUALITY_DU[resource]),
        MeterState(cumulative_quanta=cumulative)))


def test_json_lines_are_canonical():
    rec = EventLogRecord(3, 1500, EventKind.HEARTBEAT,
                         {"meter_id": 9, "links": [["uplink"], ["accepted", 1502]],
                          "session": 0})
    line = rec.to_json()
    # keys alphabetical, no whitespace: byte-stable across runs
    assert line == (
        '{"kind":"heartbeat","payload":{"links":[["uplink"],["accepted",1502]],'
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
        log.emission(10, _frame(mid=2, session=1), [])
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
    records = [EventLogRecord(0, 0, EventKind.METER, {
        "concentrators": [concentrator_id(2)], "meter_id": mid, "resource": "heat"})] + [
        EventLogRecord(i + 1, 1000 * (i + 1), EventKind.QUANTUM_EVENT, {
            "cumulative_quanta": i + 1,
            "frame_hex": frames[i].hex(),
            "links": [["accepted", 1000 * (i + 1)]],
            "meter_id": mid,
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


#: a link's fate as its entry's arguments after the concentrator id: a drop
#: stage, or an ingest's outcome and a reception time past 64 bits
_FATES = st.sampled_from([("radio",), ("uplink",)]) | st.tuples(
    st.sampled_from(list(IngestOutcome)), _SIGNED)


@st.composite
def _template_calls(draw):
    """The calls of a meter-major log and the records they write, as (method
    name, arguments, kind, sim_time_ms, payload): 1-6 calls of any kind, with
    ints up to 2**64 and every string its field can hold.  Emissions go
    meter by meter, meter ids rising in the wire's 64 bits; a meter's frames
    are of one resource, with sessions and counters in the wire's 32 bits,
    over the meter's 0-8 links, whose concentrator ids rise, each link with
    any fate.  A meter's first emission writes the meter's line before its
    own, which is an item of its own with no method."""
    items, meter = [], None
    mids = iter(sorted(draw(st.sets(st.integers(0, 2**64 - 1), min_size=6, max_size=6))))
    for _ in range(draw(st.integers(1, 6))):
        t = draw(_WHOLE)
        which = draw(st.sampled_from([EventKind.QUANTUM_EVENT, EventKind.HEARTBEAT,
                                      EventKind.TI_READING]))
        if which is EventKind.TI_READING:
            mid, poll, register = draw(_WHOLE), draw(_WHOLE), draw(_WHOLE)
            unit = draw(st.sampled_from(sorted(set(BASE_UNIT.values()))))
            items.append(("ti_reading", (t, mid, poll, register, unit), which, t,
                          {"meter_id": mid, "poll_index": poll, "register_du": register,
                           "unit": unit}))
            continue
        if meter is None or draw(st.booleans()):
            meter = (next(mids), draw(st.sampled_from(list(ResourceKind))),
                     sorted(draw(st.sets(_WHOLE, max_size=8))))
            items.append((None, None, EventKind.METER, 0, {
                "concentrators": meter[2], "meter_id": meter[0], "resource": meter[1].value}))
        mid, resource, cids = meter
        session, cumulative = draw(_WIRE32), draw(_WIRE32)
        frame = encode_frame(MeterMessage(
            mid, session, resource, MessageType(which.value),
            QualityVector(resource, NOMINAL_QUALITY_DU[resource]),
            MeterState(battery=draw(st.integers(0, 200)), cumulative_quanta=cumulative)))
        fates = [draw(_FATES) for _ in cids]
        items.append(("emission", (t, frame, [(cid, *fate) for cid, fate in zip(cids, fates)]),
                      which, t, {"cumulative_quanta": cumulative, "frame_hex": frame.hex(),
                                 "links": [list(fate) for fate in fates], "meter_id": mid,
                                 "session": session}))
    return items


def _through_meter_lines(log: EventLog, t: int, frame: bytes, links) -> None:
    """``log.emission(t, frame, links)`` as a run writes it: through the
    ``MeterLines`` of the frame's meter, made when it is not the log's
    current meter, each link's entry taken from ``LINK_TEXT`` by the copy's
    drop stage, or None for an ingest, whose outcome and reception time
    ``write`` adds."""
    resource, _, mid, session, _ = frame_header(frame)
    entries, heard, outcomes = [], [], []
    for _, fate, *rx in links:
        if rx:
            heard.append((len(entries), *rx))
            outcomes.append(fate)
            fate = None
        entries.append(LINK_TEXT[fate])
    lines = log.meter
    if lines is None or lines.meter_id != mid:
        lines = MeterLines(log, mid, resource, [link[0] for link in links])
    lines.write(t, frame, session, entries, heard, outcomes)


#: the writers of an emission line: the validating ``EventLog.emission``,
#: and a meter's ``MeterLines``, which a run writes through
_EMITTERS = {"emission": EventLog.emission, "meter_lines": _through_meter_lines}


def _call(log: EventLog, method: str | None, args, emitter: str) -> None:
    """``log``'s ``method`` on ``args``, an emission through ``emitter``; a
    meter line (no method) is written by the emission after it."""
    if method == "emission":
        _EMITTERS[emitter](log, *args)
    elif method is not None:
        getattr(log, method)(*args)


@settings(max_examples=400, deadline=None)
@given(start=_WHOLE, calls=_template_calls(), emitter=st.sampled_from(sorted(_EMITTERS)))
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
    """A word outside a fate's vocabulary raises KeyError and writes no
    emission line; ``emission`` writes no meter line for it either."""
    bad_links = ([(2, 'up"link'), (3, "radio")], [(2, "radio"), (3, "lost", 5)],
                 [(2, "accepted", 5), (3, "lost", 5)])
    for emit in _EMITTERS.values():
        lines = []
        log = EventLog(lines.append)
        emit(log, 0, _frame(), [(2, "radio"), (3, "radio")])
        written = list(lines)
        for links in bad_links:
            with pytest.raises(KeyError):
                emit(log, 0, _frame(session=1), links)
        assert log.seq == 2 and lines == written
    lines = []
    log = EventLog(lines.append)
    for links in bad_links:
        with pytest.raises(KeyError):
            log.emission(0, _frame(), links)
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
    assert log.seq == 2 and len(lines) == 2   # the meter's line, then the emission's


_C2, _C3 = 2, 3


@pytest.mark.parametrize("links", [
    [(_C3, "radio"), (_C2, "radio")],
    [(_C2, "accepted", 5), (_C2, "duplicate", 5)],
    [(-1, "radio")],
], ids=["descending", "repeated", "negative"])
def test_an_emission_whose_concentrator_ids_do_not_rise_from_zero_writes_nothing(links):
    """``read_events`` refuses a meter line whose concentrator ids do not
    strictly rise, and a negative id is not a line EventLog writes, so
    neither emission writer writes a line for such links: each raises before
    the meter's line, and ``seq`` stays."""
    for emit in _EMITTERS.values():
        lines = []
        log = EventLog(lines.append)
        log.seq = 4
        with pytest.raises(ValueError, match="links not in concentrator-id order"):
            emit(log, 0, _frame(), links)
        assert log.seq == 4 and lines == []


def _refused_after_one_line(frame: bytes, links, match: str) -> None:
    """After an emission of meter 5 over concentrators 2 and 3, an emission
    of ``frame`` over ``links`` raises ValueError matching ``match`` and
    writes nothing."""
    lines = []
    log = EventLog(lines.append)
    log.emission(0, _frame(mid=5), [(2, "radio"), (3, "radio")])
    written = list(lines)
    with pytest.raises(ValueError, match=match):
        log.emission(1, frame, links)
    assert log.seq == 2 and lines == written


def test_a_meters_lines_end_at_the_next_meters_line():
    """``read_events`` reads an emission under the last meter line before
    it, so a meter's ``MeterLines`` writes no line once the next meter's
    line is written."""
    lines = []
    log = EventLog(lines.append)
    first = MeterLines(log, 1, ResourceKind.GAS, [2])
    MeterLines(log, 2, ResourceKind.GAS, [2])
    with pytest.raises(ValueError, match="lines ended at meter 2's line"):
        first.write(0, _frame(mid=1), 0, [LINK_TEXT["radio"]])
    assert log.seq == 2 and len(lines) == 2


def test_an_emission_of_a_meter_below_the_current_one_writes_nothing():
    """``read_events`` refuses a meter line whose id is not above the last."""
    _refused_after_one_line(_frame(mid=4), [(2, "radio"), (3, "radio")], "increasing id order")


@pytest.mark.parametrize("links", [
    [(2, "radio")],
    [(2, "radio"), (4, "radio")],
    [(2, "radio"), (3, "radio"), (4, "radio")],
], ids=["fewer", "other", "more"])
def test_an_emission_over_other_concentrators_than_its_meter_lines_writes_nothing(links):
    """``read_events`` refuses a count of entries that is not the meter
    line's, and reads an entry as the copy of the concentrator at its
    position, so links over other ids would credit the wrong concentrator."""
    _refused_after_one_line(_frame(mid=5, session=1), links, "are not the concentrators")


def test_an_emission_of_another_resource_than_its_meter_lines_writes_nothing():
    """``read_events`` refuses a frame that is not of its meter line's resource."""
    _refused_after_one_line(_frame(mid=5, session=1, resource=ResourceKind.HEAT),
                            [(2, "radio"), (3, "radio")], "a heat frame of a gas meter")


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
        for n, resource in enumerate(ResourceKind, 1):
            for mtype in MessageType:
                emit(log, 0, _frame(mid=wide - len(ResourceKind) - 1 + n, resource=resource,
                                    mtype=mtype), [])
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
          "delete", "entry", "extra", "disorder", "resource", "odd", "unhead", "move"]
#: the ``seq`` field of a line, which the payload before it cannot hold
_SEQ = re.compile(r',"seq":[0-9]+,')


def _lines_of(lines: list[str], word: str) -> list[int]:
    """The indices of the lines of ``lines`` whose payload has ``word``, non-empty."""
    return [i for i, line in enumerate(lines) if json.loads(line)["payload"].get(word)]


@st.composite
def _log_lines(draw):
    """(lines, edited): 1-6 template calls' lines numbered from 0, and whether
    one of them was edited: a field set to a hostile value, a "0", "-", "+"
    or " " written before a field's value, a key removed or moved first,
    spaces after the separators, uppercase hex, a CRLF ending, or a blank
    line before it; one element of a link entry set to a hostile value or
    removed, or an entry added; a meter line's concentrators put out of
    order, by swapping its first two or repeating its only one, or its
    resource set to another; one digit of an emission's frame_hex deleted;
    one line repeated or deleted; or, with every ``seq`` then numbered on
    from the first line's, a meter line deleted or one line moved."""
    lines = []
    log = EventLog(lines.append)
    for method, args, _, _, _ in draw(_template_calls()):
        if method is not None:
            getattr(log, method)(*args)
    edit = draw(st.sampled_from([None, *_EDITS]))
    if edit is None:
        return lines, False
    if edit in ("entry", "extra", "disorder", "resource"):
        word = {"disorder": "concentrators", "resource": "resource"}.get(edit, "links")
        edited = _lines_of(lines, word)
        if not edited:
            return lines, False
        i = draw(st.sampled_from(edited))
        obj = json.loads(lines[i])
        payload = obj["payload"]
        if edit == "disorder":
            cids = payload["concentrators"]
            cids[:2] = cids[1::-1] if len(cids) > 1 else cids * 2
        elif edit == "resource":
            payload["resource"] = draw(st.sampled_from(
                [kind.value for kind in ResourceKind if kind != payload["resource"]]))
        elif edit == "extra":
            payload["links"].insert(draw(st.integers(0, len(payload["links"]))),
                                    list(draw(_FATES)))
        else:
            entry = draw(st.sampled_from(payload["links"]))
            at = draw(st.integers(0, len(entry) - 1))
            if draw(st.booleans()):
                entry[at] = draw(_HOSTILE)
            else:
                del entry[at]
        lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        return lines, True
    if edit in ("unhead", "move"):
        picks = [i for i, line in enumerate(lines) if edit == "move" or '"kind":"meter"' in line]
        if not picks or len(lines) < 2:
            return lines, False
        i = draw(st.sampled_from(picks))
        line = lines.pop(i)
        if edit == "move":
            lines.insert(draw(st.integers(0, len(lines)).filter(lambda j: j != i)), line)
        first = int(_SEQ.search(line if i == 0 else lines[0])[0][7:-1])
        return [_SEQ.sub(f',"seq":{first + n},', text, count=1)
                for n, text in enumerate(lines)], True
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
    record does, with the meter-major checks, and so replay rebuilds the
    same ledgers or raises the same message; each such line is matched by
    its kind's pattern, and an unedited log reads whole.  On a log edited so
    that some line is not one the templates write, as ``is_written_line``
    tells, it yields the ingests before the first such line and then raises
    the whole-record reader's MalformedLog for the lines before it, or else
    one naming that line as not a line EventLog writes."""
    lines, edited = drawn
    log_path.write_bytes("".join(lines).encode())
    written = [is_written_line(line.encode()) for line in lines]
    assert edited or all(written)
    got, message = _read_all(read_events(log_path))
    if all(written):
        assert (got, message) == _read_all(reference_ingests(log_path))
        assert edited or message is None
        assert _replayed(read_events(log_path)) == _replayed(
            reference_ingests(log_path))
        for line in lines:
            assert _LINE[json.loads(line)["kind"].encode()].fullmatch(line.encode()), line
        return
    bad = written.index(False)
    log_path.write_bytes("".join(lines[:bad]).encode())
    want, head_error = _read_all(reference_ingests(log_path))
    assert got == want
    assert message == (head_error or
                       f"{log_path} line {bad + 1}: seq {bad}: not a line EventLog writes")
