"""Shared protocol vocabulary: resource kinds, identifiers, frames, defaults.

Everything on the wire is integer-valued.  Amounts are deciunits (tenths of
the kind's base unit), times are integer milliseconds, and the frame codec is
bit-exact so event logs replay byte-identically.  The frame layout is
documented field by field in protocol.md at the repository root.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

#: session counters are unsigned 32-bit and wrap modulo this value
SESSION_MOD = 2**32

FRAME_VERSION = 1

#: top byte of every 64-bit identifier names the device role
METER_NAMESPACE = 0x01
CONCENTRATOR_NAMESPACE = 0x02
_SERIAL_BITS = 56

#: state flag bits carried in the frame's flags byte
FLAG_TAMPER = 0x01
FLAG_SENSOR_FAULT = 0x02
FLAG_CLOCKLESS_IDLE = 0x04
#: the flags byte's bits that no flag names: a frame with any of them set is malformed
_RESERVED_FLAGS = 0xFF & ~(FLAG_TAMPER | FLAG_SENSOR_FAULT | FLAG_CLOCKLESS_IDLE)


class ResourceKind(str, Enum):
    """Metered resource families, each with one canonical base unit.  Like
    every protocol word, a member is its own string; messages format ``.value``,
    since Python 3.11+ formats a member as ``Class.NAME``."""

    COLD_WATER = "cold_water"
    HOT_WATER = "hot_water"
    ELECTRICITY = "electricity"
    HEAT = "heat"
    GAS = "gas"
    GENERIC_SENSOR = "generic_sensor"


BASE_UNIT = {
    ResourceKind.COLD_WATER: "ml",
    ResourceKind.HOT_WATER: "ml",
    ResourceKind.ELECTRICITY: "Wh",
    ResourceKind.HEAT: "kcal",
    ResourceKind.GAS: "l",
    ResourceKind.GENERIC_SENSOR: "tick",
}

#: factory-default emission quantum per kind, in deciunits of the base unit
DEFAULT_QUANTUM_DU = {
    ResourceKind.COLD_WATER: 1000,     # 100 ml
    ResourceKind.HOT_WATER: 1000,      # 100 ml
    ResourceKind.ELECTRICITY: 100,     # 10 Wh
    ResourceKind.HEAT: 50,             # 5 kcal
    ResourceKind.GAS: 100,             # 10 l
    ResourceKind.GENERIC_SENSOR: 10,   # 1 tick
}

#: per-kind schema of the quality block: field names, one signed 16-bit
#: deciunit value each, in frame order
QUALITY_FIELDS = {
    ResourceKind.COLD_WATER: ("temperature_c", "pressure_kpa"),
    ResourceKind.HOT_WATER: ("temperature_c", "pressure_kpa"),
    ResourceKind.ELECTRICITY: ("voltage_v", "frequency_hz"),
    ResourceKind.HEAT: ("temperature_c", "pressure_kpa"),
    ResourceKind.GAS: ("temperature_c",),
    ResourceKind.GENERIC_SENSOR: ("reading",),
}

#: plausible sensor readouts used when a scenario does not pin its own
NOMINAL_QUALITY_DU = {
    ResourceKind.COLD_WATER: (120, 3000),
    ResourceKind.HOT_WATER: (550, 3000),
    ResourceKind.ELECTRICITY: (2300, 500),
    ResourceKind.HEAT: (750, 3000),
    ResourceKind.GAS: (200,),
    ResourceKind.GENERIC_SENSOR: (0,),
}


class MessageType(str, Enum):
    QUANTUM_EVENT = "quantum_event"
    HEARTBEAT = "heartbeat"


_KIND_TAG = {
    ResourceKind.COLD_WATER: 1,
    ResourceKind.HOT_WATER: 2,
    ResourceKind.ELECTRICITY: 3,
    ResourceKind.HEAT: 4,
    ResourceKind.GAS: 5,
    ResourceKind.GENERIC_SENSOR: 6,
}
_TAG_KIND = {tag: kind for kind, tag in _KIND_TAG.items()}

#: each message type's tag, the frame's byte 2
TYPE_TAG = {MessageType.QUANTUM_EVENT: 1, MessageType.HEARTBEAT: 2}
_TAG_TYPE = {tag: mt for mt, tag in TYPE_TAG.items()}


class MalformedFrame(ValueError):
    """Raised when a byte string cannot be decoded as a protocol frame."""


class ConfigError(ValueError):
    """Raised for invalid scenario configuration, with the offending field."""


class DuplicateIdError(ConfigError):
    """Raised when a registry is loaded with a non-unique identifier."""


def whole_number(value, field: str) -> int:
    """An integer input field, taken as is: a bool, float or string is refused."""
    if type(value) is not int:
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return value


def nonnegative_number(value, field: str) -> Fraction:
    """A nonnegative number input field as an exact Fraction: an int, float or
    Fraction; a bool, a string or a float that is not finite is refused."""
    number = isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
    if not (number and 0 <= value < math.inf):
        raise ConfigError(f"{field}: expected a nonnegative number, "
                          f"got {value if number else repr(value)}")
    return Fraction(value)


def resource_kind(value, field: str) -> ResourceKind:
    """A resource kind input field, a ``ResourceKind`` or its word, as the member."""
    try:
        return ResourceKind(value)
    except ValueError:
        known = ", ".join(sorted(k.value for k in ResourceKind))
        raise ConfigError(f"{field}: expected one of {known}, got {value!r}") from None


# ---------------------------------------------------------------------------
# identifiers

def meter_id(serial: int) -> int:
    """Build a meter identifier from a plain serial number."""
    if not 0 <= serial < 2**_SERIAL_BITS:
        raise ValueError(f"meter serial out of range: {serial}")
    return (METER_NAMESPACE << _SERIAL_BITS) | serial


def concentrator_id(serial: int) -> int:
    if not 0 <= serial < 2**_SERIAL_BITS:
        raise ValueError(f"concentrator serial out of range: {serial}")
    return (CONCENTRATOR_NAMESPACE << _SERIAL_BITS) | serial


def id_namespace(ident: int) -> int:
    return ident >> _SERIAL_BITS


def id_serial(ident: int) -> int:
    return ident & (2**_SERIAL_BITS - 1)


# ---------------------------------------------------------------------------
# session arithmetic

def session_delta(a: int, b: int, modulus: int = SESSION_MOD) -> int:
    """Signed wrap-aware distance from counter value ``a`` to ``b``.

    A forward distance below half the counter range is a genuine advance;
    anything larger is read as a backward step, i.e. the counter wrapped
    rather than reset.
    """
    d = (b - a) % modulus
    return d if d < modulus // 2 else d - modulus


# ---------------------------------------------------------------------------
# value types

@dataclass(frozen=True)
class QualityVector:
    """Secondary sensor readings attached to every message.

    The field set is fixed by the resource kind; values are signed 16-bit
    deciunits in the order given by ``QUALITY_FIELDS[kind]``.
    """

    kind: ResourceKind
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        names = QUALITY_FIELDS[self.kind]
        if len(self.values) != len(names):
            raise ValueError(
                f"{self.kind.value} quality needs {len(names)} fields, "
                f"got {len(self.values)}"
            )
        for name, v in zip(names, self.values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"quality field {name} must be an integer deciunit")
            if not -(2**15) <= v < 2**15:
                raise ValueError(f"quality field {name} out of 16-bit range: {v}")

@dataclass(frozen=True)
class MeterState:
    """Self-reported device health carried in every message."""

    battery: int = 200                  # wire byte: 0..200 in steps of 0.5 %
    tamper_flag: bool = False
    sensor_fault: bool = False
    clockless_idle: bool = False
    cumulative_quanta: int = 0          # emission quanta since installation

    def __post_init__(self) -> None:
        if type(self.battery) is not int or not 0 <= self.battery <= 200:
            raise ValueError(f"battery must be a byte in 0..200, got {self.battery!r}")
        if self.cumulative_quanta < 0:
            raise ValueError("cumulative_quanta must be nonnegative")


@dataclass(frozen=True)
class MeterMessage:
    """One transmission: a consumption quantum crossing or an idle heartbeat.

    Messages deliberately carry no emission timestamp; time is attached by
    whichever concentrator hears them.
    """

    meter_id: int
    session: int
    kind: ResourceKind
    message_type: MessageType
    quality: QualityVector
    state: MeterState

    def __post_init__(self) -> None:
        if not 0 <= self.session < SESSION_MOD:
            raise ValueError(f"session out of range: {self.session}")
        if not 0 <= self.meter_id < 2**64:
            raise ValueError(f"meter id out of range: {self.meter_id}")
        if self.quality.kind is not self.kind:
            raise ValueError("quality vector kind does not match message kind")


class ConcentratorReport(NamedTuple):
    """A meter's wire frame stamped with reception time by one concentrator."""

    frame: bytes
    concentrator_id: int
    rx_time_ms: int


# ---------------------------------------------------------------------------
# frame codec

#: per kind tag, a frame's meter id, session, battery, flags and cumulative quanta
_HEADER = {tag: struct.Struct(f"<3xQI{2 * len(QUALITY_FIELDS[kind])}xBBI")
           for kind, tag in _KIND_TAG.items()}
#: per frame length, a frame's version byte, type tag and cumulative quanta:
#: what a ledger reads back from the frames it keeps side by side in one buffer
FRAME_SUMMARY = {layout.size: struct.Struct(f"<BxB{layout.size - 7}xI")
                 for layout in _HEADER.values()}


def frame_size(kind: ResourceKind) -> int:
    """Encoded frame length in bytes for the given kind."""
    return _HEADER[_KIND_TAG[kind]].size


def encode_frame(msg: MeterMessage) -> bytes:
    """Serialize a message to its little-endian wire frame, by ``frame_builder``."""
    st = msg.state
    flags = (
        (FLAG_TAMPER if st.tamper_flag else 0)
        | (FLAG_SENSOR_FAULT if st.sensor_fault else 0)
        | (FLAG_CLOCKLESS_IDLE if st.clockless_idle else 0)
    )
    build = frame_builder(msg.meter_id, msg.kind, msg.message_type, msg.quality.values)
    return build(msg.session, st.battery, flags, st.cumulative_quanta % 2**32)


def frame_header(data: bytes) -> tuple[ResourceKind, MessageType, int, int, int]:
    """Check a wire frame against the decoder rules and read its
    (kind, message type, meter id, session, cumulative quanta).

    Raises:
        MalformedFrame: on bad version, unknown kind or type tag, a length
            that does not match the declared kind, an out-of-range battery
            byte, or a reserved flag bit set.
    """
    if len(data) < 3:
        raise MalformedFrame(f"frame too short: {len(data)} bytes")
    version, kind_tag, type_tag = data[0], data[1], data[2]
    if version != FRAME_VERSION:
        raise MalformedFrame(f"unsupported frame version: {version}")
    kind = _TAG_KIND.get(kind_tag)
    if kind is None:
        raise MalformedFrame(f"unknown kind tag: {kind_tag}")
    mtype = _TAG_TYPE.get(type_tag)
    if mtype is None:
        raise MalformedFrame(f"unknown message type tag: {type_tag}")
    layout = _HEADER[kind_tag]
    if len(data) != layout.size:
        raise MalformedFrame(
            f"{kind.value} frame must be {layout.size} bytes, got {len(data)}"
        )
    mid, session, battery, flags, cumulative = layout.unpack(data)
    if battery > 200:
        raise MalformedFrame(f"battery byte out of range: {battery}")
    if flags & _RESERVED_FLAGS:
        raise MalformedFrame(f"reserved flag bits set: {flags:#04x}")
    return kind, mtype, mid, session, cumulative


def decode_frame(data: bytes) -> MeterMessage:
    """Parse a wire frame into a message; raises MalformedFrame as ``frame_header`` does."""
    kind, mtype, mid, session, cumulative = frame_header(data)
    # the quality block starts after the version, tags, meter id and session
    *values, battery, flags = struct.unpack_from(f"<{len(QUALITY_FIELDS[kind])}hBB", data, 15)
    quality = QualityVector(kind, tuple(values))
    state = MeterState(battery, bool(flags & FLAG_TAMPER), bool(flags & FLAG_SENSOR_FAULT),
                       bool(flags & FLAG_CLOCKLESS_IDLE), cumulative)
    return MeterMessage(mid, session, kind, mtype, quality, state)


def frame_builder(meter_id: int, kind: ResourceKind, mtype: MessageType,
                  quality: tuple[int, ...]):
    """``build(session, battery, flags, cumulative)`` for one meter's frames
    of one type and quality values, as a fixed prefix plus one ``struct.pack``:
    the one packer of frames, which ``encode_frame`` calls too."""
    prefix = struct.pack("<BBBQ", FRAME_VERSION, _KIND_TAG[kind], TYPE_TAG[mtype], meter_id)
    block = struct.pack(f"<{len(QUALITY_FIELDS[kind])}h", *quality)
    pack = struct.Struct(f"<I{len(block)}sBBI").pack

    def build(session: int, battery: int, flags: int, cumulative: int) -> bytes:
        return prefix + pack(session, block, battery, flags, cumulative)
    return build


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class MeterInfo:
    kind: ResourceKind
    quantum_du: int


class Registry:
    """Identifier book for one deployment; duplicates are rejected on load."""

    def __init__(self) -> None:
        self._meters: dict[int, MeterInfo] = {}
        self._concentrators: set[int] = set()

    def add_meter(self, ident: int, kind: ResourceKind,
                  quantum_du: int | None = None) -> None:
        if id_namespace(ident) != METER_NAMESPACE:
            raise ConfigError(f"not a meter id: {ident:#x}")
        if ident in self._meters:
            raise DuplicateIdError(f"duplicate meter id: {ident:#x}")
        if quantum_du is None:
            quantum_du = DEFAULT_QUANTUM_DU[kind]
        if quantum_du <= 0:
            raise ConfigError("quantum must be positive")
        self._meters[ident] = MeterInfo(kind, quantum_du)

    def add_concentrator(self, ident: int) -> None:
        if id_namespace(ident) != CONCENTRATOR_NAMESPACE:
            raise ConfigError(f"not a concentrator id: {ident:#x}")
        if ident in self._concentrators:
            raise DuplicateIdError(f"duplicate concentrator id: {ident:#x}")
        self._concentrators.add(ident)

    def meter(self, ident: int) -> MeterInfo:
        return self._meters[ident]

    def has_meter(self, ident: int) -> bool:
        return ident in self._meters

    def meter_ids(self) -> list[int]:
        return sorted(self._meters)

    def concentrator_ids(self) -> list[int]:
        return sorted(self._concentrators)
