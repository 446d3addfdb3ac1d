"""Frame codec, defaults, identifier and session-arithmetic checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from risim.domain import (
    BASE_UNIT,
    DEFAULT_QUANTUM_DU,
    DuplicateIdError,
    MalformedFrame,
    MessageType,
    NOMINAL_QUALITY_DU,
    MeterMessage,
    MeterState,
    QUALITY_FIELDS,
    QualityVector,
    Registry,
    ResourceKind,
    SESSION_MOD,
    concentrator_id,
    decode_frame,
    encode_frame,
    frame_builder,
    frame_header,
    frame_size,
    id_namespace,
    id_serial,
    meter_id,
    session_delta,
)


def _message(kind=ResourceKind.COLD_WATER, session=0, serial=1,
             message_type=MessageType.QUANTUM_EVENT, quality=None, state=None):
    return MeterMessage(
        meter_id=meter_id(serial),
        session=session,
        kind=kind,
        message_type=message_type,
        quality=quality or QualityVector(kind, NOMINAL_QUALITY_DU[kind]),
        state=state or MeterState(),
    )


# ---------------------------------------------------------------------------
# defaults

def test_default_quantum_table_exact():
    # 100 ml of water is 1000 deciunits, 10 Wh is 100, 5 kcal is 50
    assert DEFAULT_QUANTUM_DU[ResourceKind.COLD_WATER] == 1000
    assert DEFAULT_QUANTUM_DU[ResourceKind.HOT_WATER] == 1000
    assert DEFAULT_QUANTUM_DU[ResourceKind.ELECTRICITY] == 100
    assert DEFAULT_QUANTUM_DU[ResourceKind.HEAT] == 50
    assert BASE_UNIT[ResourceKind.COLD_WATER] == "ml"
    assert BASE_UNIT[ResourceKind.ELECTRICITY] == "Wh"
    assert BASE_UNIT[ResourceKind.HEAT] == "kcal"
    # configurable extras, not factory constants from the field units above
    assert DEFAULT_QUANTUM_DU[ResourceKind.GAS] == 100          # 10 l
    assert DEFAULT_QUANTUM_DU[ResourceKind.GENERIC_SENSOR] == 10  # 1 tick


def test_quality_schema_fixed_per_kind():
    assert QUALITY_FIELDS[ResourceKind.ELECTRICITY] == ("voltage_v", "frequency_hz")
    assert QUALITY_FIELDS[ResourceKind.COLD_WATER] == ("temperature_c", "pressure_kpa")
    assert QUALITY_FIELDS[ResourceKind.HEAT] == ("temperature_c", "pressure_kpa")
    with pytest.raises(ValueError):
        QualityVector(ResourceKind.COLD_WATER, (200,))  # wrong arity


# ---------------------------------------------------------------------------
# frame codec

def test_frame_length_by_layout():
    # 15 header bytes + 2 per quality field + 6 trailer bytes
    assert frame_size(ResourceKind.COLD_WATER) == 25
    assert frame_size(ResourceKind.ELECTRICITY) == 25
    assert frame_size(ResourceKind.GAS) == 23
    assert frame_size(ResourceKind.GENERIC_SENSOR) == 23
    msg = _message(quality=QualityVector(ResourceKind.COLD_WATER, (200, 3000)))
    frame = encode_frame(msg)
    assert len(frame) == 25


def test_session_zero_encodes_as_four_zero_bytes():
    frame = encode_frame(_message(session=0))
    assert frame[11:15] == b"\x00\x00\x00\x00"
    frame = encode_frame(_message(session=0x01020304))
    assert frame[11:15] == b"\x04\x03\x02\x01"  # little-endian


def test_round_trip_identity_simple():
    msg = _message(
        kind=ResourceKind.ELECTRICITY,
        session=41,
        quality=QualityVector(ResourceKind.ELECTRICITY, (2300, 500)),
        state=MeterState(battery=100, cumulative_quanta=41,
                         tamper_flag=True, clockless_idle=True),
    )
    assert decode_frame(encode_frame(msg)) == msg


@given(
    kind=st.sampled_from(list(ResourceKind)),
    session=st.integers(0, SESSION_MOD - 1),
    serial=st.integers(0, 2**40),
    mtype=st.sampled_from(list(MessageType)),
    battery=st.integers(0, 200),
    cumulative=st.integers(0, 2**32 - 1),
    tamper=st.booleans(),
    fault=st.booleans(),
    idle=st.booleans(),
    data=st.data(),
)
def test_round_trip_identity_randomized(kind, session, serial, mtype, battery,
                                        cumulative, tamper, fault, idle, data):
    values = tuple(
        data.draw(st.integers(-(2**15), 2**15 - 1))
        for _ in QUALITY_FIELDS[kind]
    )
    msg = MeterMessage(
        meter_id=meter_id(serial),
        session=session,
        kind=kind,
        message_type=mtype,
        quality=QualityVector(kind, values),
        state=MeterState(
            battery=battery,
            tamper_flag=tamper,
            sensor_fault=fault,
            clockless_idle=idle,
            cumulative_quanta=cumulative,
        ),
    )
    frame = encode_frame(msg)
    assert len(frame) == frame_size(kind)
    assert decode_frame(frame) == msg


def test_decode_rejects_malformed():
    good = encode_frame(_message())
    with pytest.raises(MalformedFrame):
        decode_frame(good[:-1])                      # truncated
    with pytest.raises(MalformedFrame):
        decode_frame(good + b"\x00")                 # trailing garbage
    with pytest.raises(MalformedFrame):
        decode_frame(b"\x02" + good[1:])             # bad version
    with pytest.raises(MalformedFrame):
        decode_frame(good[:1] + b"\xee" + good[2:])  # unknown kind tag
    with pytest.raises(MalformedFrame):
        decode_frame(good[:2] + b"\xee" + good[3:])  # unknown type tag
    bad_battery = bytearray(good)
    bad_battery[19] = 201
    with pytest.raises(MalformedFrame):
        decode_frame(bytes(bad_battery))
    with pytest.raises(MalformedFrame):
        decode_frame(b"")
    # flags bits 3-7 are reserved: such a frame would not re-encode to itself
    gas = encode_frame(_message(kind=ResourceKind.GAS, message_type=MessageType.HEARTBEAT))
    for bit in range(3, 8):
        reserved = bytearray(gas)
        reserved[18] |= 1 << bit
        with pytest.raises(MalformedFrame, match="reserved flag bits"):
            decode_frame(bytes(reserved))


def _header_or_error(frame: bytes):
    try:
        return frame_header(frame)
    except MalformedFrame as exc:
        return str(exc)


def _decoded_or_error(frame: bytes):
    try:
        msg = decode_frame(frame)
    except MalformedFrame as exc:
        return str(exc)
    return msg.kind, msg.message_type, msg.meter_id, msg.session, msg.state.cumulative_quanta


@st.composite
def _frames(draw):
    """A valid frame over every kind, both types, every battery byte and flag
    combination, and sessions and counters up to 2**32 - 1, with its message."""
    kind = draw(st.sampled_from(list(ResourceKind)))
    flags = draw(st.integers(0, 7))
    if draw(st.booleans()):
        values = NOMINAL_QUALITY_DU[kind]
    else:
        values = tuple(draw(st.integers(-(2**15), 2**15 - 1)) for _ in QUALITY_FIELDS[kind])
    msg = MeterMessage(
        meter_id=draw(st.integers(0, 2**64 - 1)),
        session=draw(st.integers(0, SESSION_MOD - 1)),
        kind=kind,
        message_type=draw(st.sampled_from(list(MessageType))),
        quality=QualityVector(kind, values),
        state=MeterState(
            battery=draw(st.integers(0, 200)),
            tamper_flag=bool(flags & 1),
            sensor_fault=bool(flags & 2),
            clockless_idle=bool(flags & 4),
            cumulative_quanta=draw(st.integers(0, 2**32 - 1)),
        ),
    )
    return encode_frame(msg), msg, flags


@settings(max_examples=300, deadline=None)
@given(case=_frames())
def test_header_read_and_builder_match_the_codec(case):
    frame, msg, flags = case
    assert frame_header(frame) == (msg.kind, msg.message_type, msg.meter_id,
                                   msg.session, msg.state.cumulative_quanta)
    assert decode_frame(frame) == msg
    assert encode_frame(decode_frame(frame)) == frame
    if msg.quality.values == NOMINAL_QUALITY_DU[msg.kind]:
        build = frame_builder(msg.meter_id, msg.kind, msg.message_type)
        assert build(msg.session, msg.state.battery, flags,
                     msg.state.cumulative_quanta) == frame


#: offsets of the version, kind, type, battery and flags bytes
_CHECKED_BYTES = (0, 1, 2, -6, -5)


@settings(max_examples=300, deadline=None)
@given(case=_frames(), data=st.data())
def test_header_read_rejects_exactly_what_decode_rejects(case, data):
    frame = case[0]
    mutants = [frame[:-1], frame + bytes([data.draw(st.integers(0, 255))])]
    for offset in _CHECKED_BYTES:
        mutant = bytearray(frame)
        mutant[offset] = data.draw(st.integers(0, 255))
        mutants.append(bytes(mutant))
    for mutant in mutants:
        got = _header_or_error(mutant)
        assert got == _decoded_or_error(mutant)
        if isinstance(got, tuple):
            assert encode_frame(decode_frame(mutant)) == mutant


def test_invalid_messages_unrepresentable():
    with pytest.raises(ValueError):
        _message(session=SESSION_MOD)
    with pytest.raises(ValueError):
        MeterState(battery=201)
    with pytest.raises(ValueError):
        QualityVector(ResourceKind.GAS, (2**15,))
    with pytest.raises(ValueError):
        # quality schema belongs to the message kind
        MeterMessage(
            meter_id=meter_id(1), session=0, kind=ResourceKind.GAS,
            message_type=MessageType.QUANTUM_EVENT,
            quality=QualityVector(ResourceKind.COLD_WATER, (120, 3000)),
            state=MeterState(),
        )


# ---------------------------------------------------------------------------
# identifiers and registry

def test_id_namespaces():
    m = meter_id(7)
    c = concentrator_id(7)
    assert m != c
    assert id_namespace(m) == 0x01
    assert id_namespace(c) == 0x02
    assert id_serial(m) == 7 and id_serial(c) == 7


def test_registry_rejects_duplicates_and_wrong_namespace():
    reg = Registry()
    reg.add_meter(meter_id(1), ResourceKind.COLD_WATER)
    with pytest.raises(DuplicateIdError):
        reg.add_meter(meter_id(1), ResourceKind.HOT_WATER)
    with pytest.raises(ValueError):
        reg.add_meter(concentrator_id(2), ResourceKind.GAS)
    reg.add_concentrator(concentrator_id(1))
    with pytest.raises(DuplicateIdError):
        reg.add_concentrator(concentrator_id(1))
    assert reg.meter(meter_id(1)).quantum_du == 1000


# ---------------------------------------------------------------------------
# session arithmetic

def test_session_delta_basic():
    assert session_delta(0, 1) == 1
    assert session_delta(5, 3) == -2
    assert session_delta(SESSION_MOD - 1, 0) == 1      # wrap forward
    assert session_delta(0, SESSION_MOD - 3) == -3     # small backward step
    # a backward jump of more than half the range is a wrap, not a reset
    assert session_delta(10, 10 + 2**31) == -(2**31)
    assert session_delta(10, 10 + 2**31 - 1) == 2**31 - 1


def test_session_delta_brute_force_small_width():
    # exhaustive check against the shortest-path rule at modulus 2**8
    mod = 2**8
    for a in range(mod):
        for b in range(0, mod, 7):
            d = session_delta(a, b, mod)
            assert (a + d) % mod == b
            assert -mod // 2 < d <= mod // 2 - 1 or d == -mod // 2
            # no other representative of b is closer to a
            assert abs(d) == min(abs(d), mod - abs(d))
