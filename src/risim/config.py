"""Scenario files: JSON schema, human units, strict validation.

Quantities in scenario files carry explicit units ("150l", "10 Wh"); the
parser converts them to exact integer deciunits and rejects anything that
does not land on a whole deciunit.  Durations accept "500ms", "10s",
"5min", "2h", "7d", or a bare integer meaning milliseconds.  Rates combine
the two: "12l/min", "600ml/h".  All errors raise ConfigError naming the
offending field.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from .concentrator import ConcentratorConfig, probability
from .domain import (
    ConfigError,
    MS_PER_HOUR,
    ResourceKind,
    concentrator_id,
    id_serial,
    meter_id,
    resource_kind,
    whole_number,
)
from .meter import MeterConfig
from .simulation import Building, ScenarioConfig, SimMeter
from .traces import TRACE_KINDS, TraceSpec

#: deciunits per named quantity unit, scoped by resource kind
QUANTITY_UNITS: dict[ResourceKind, dict[str, int]] = {
    ResourceKind.COLD_WATER: {"ml": 10, "l": 10_000, "m3": 10_000_000},
    ResourceKind.HOT_WATER: {"ml": 10, "l": 10_000, "m3": 10_000_000},
    ResourceKind.ELECTRICITY: {"Wh": 10, "kWh": 10_000, "MWh": 10_000_000},
    ResourceKind.HEAT: {"kcal": 10, "Mcal": 10_000, "Gcal": 10_000_000},
    ResourceKind.GAS: {"l": 10, "m3": 10_000},
    ResourceKind.GENERIC_SENSOR: {"tick": 10, "ticks": 10},
}

DURATION_UNITS = {
    "ms": 1,
    "s": 1_000,
    "min": 60_000,
    "h": 3_600_000,
    "d": 86_400_000,
}

_QTY_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([A-Za-z][A-Za-z0-9]*)\s*$")


def _fraction(value, field: str) -> Fraction:
    """Exact rational from a JSON integer or decimal: a boolean or a string,
    even one of digits, is refused, as the Python API refuses it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    try:
        return Fraction(str(value))
    except ValueError:   # JSON's NaN and Infinity
        raise ConfigError(f"{field}: not a number: {value!r}") from None


def parse_duration_ms(value, field: str) -> int:
    """Duration to integer milliseconds; bare integers are already ms."""
    if not isinstance(value, str):
        if whole_number(value, field) < 0:
            raise ConfigError(f"{field}: duration must be nonnegative, got {value}")
        return value
    m = _QTY_RE.match(value)
    if not m:
        raise ConfigError(f"{field}: cannot parse duration {value!r}")
    amount, unit = Fraction(m.group(1)), m.group(2)
    if unit not in DURATION_UNITS:
        known = ", ".join(sorted(DURATION_UNITS))
        raise ConfigError(f"{field}: unknown duration unit {unit!r} (expected {known})")
    ms = amount * DURATION_UNITS[unit]
    if ms.denominator != 1:
        raise ConfigError(f"{field}: {value!r} is not a whole number of milliseconds")
    return int(ms)


def _quantity_fraction_du(value, kind: ResourceKind, field: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a quantity, got a boolean")
    if isinstance(value, (int, float)) and value == 0:
        return Fraction(0)
    if not isinstance(value, str):
        raise ConfigError(
            f"{field}: quantities need explicit units, e.g. '100ml'; got {value!r}"
        )
    if value.strip() == "0":
        return Fraction(0)
    m = _QTY_RE.match(value)
    if not m:
        raise ConfigError(f"{field}: cannot parse quantity {value!r}")
    amount, unit = Fraction(m.group(1)), m.group(2)
    units = QUANTITY_UNITS[kind]
    if unit not in units:
        known = ", ".join(sorted(units))
        raise ConfigError(
            f"{field}: unit {unit!r} does not measure {kind.value} (expected {known})"
        )
    return amount * units[unit]


def parse_quantity_du(value, kind: ResourceKind, field: str) -> int:
    """Quantity to integer deciunits, rejecting fractional results."""
    du = _quantity_fraction_du(value, kind, field)
    if du.denominator != 1:
        raise ConfigError(f"{field}: {value!r} is not a whole number of deciunits")
    return int(du)


def parse_rate_du_per_hour(value, kind: ResourceKind, field: str) -> Fraction:
    """'<quantity>/<duration>' to an exact deciunits-per-hour rational.

    The divisor may be a bare unit ("l/min") or a full duration ("50l/15min").
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value == 0:
        return Fraction(0)
    if not isinstance(value, str):
        raise ConfigError(f"{field}: expected a rate string like '12l/min', got {value!r}")
    if value.strip() == "0":
        return Fraction(0)
    if "/" not in value:
        raise ConfigError(f"{field}: a rate needs a '/', e.g. '600ml/h'; got {value!r}")
    left, right = value.split("/", 1)
    du = _quantity_fraction_du(left, kind, f"{field} (amount)")
    right = right.strip()
    if right in DURATION_UNITS:
        per_ms = DURATION_UNITS[right]
    else:
        per_ms = parse_duration_ms(right, f"{field} (per)")
        if per_ms == 0:
            raise ConfigError(f"{field}: rate divisor must be a positive duration")
    return du * MS_PER_HOUR / Fraction(per_ms)


def parse_sweep_values(param: str, text: str,
                       kind: ResourceKind | None = None) -> list[tuple[int, str]]:
    """Comma-separated sweep points to (value, label) pairs.

    "dr" points are quantities in the given kind's units; "dt" points are
    durations and need no kind.  Labels keep the author's spelling for
    output tables.  Only ``detail_sweep`` checks the parameter and values.
    """
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError("sweep values list is empty")
    if param == "dr" and kind is None:
        raise ConfigError("quantum sweep values need a resource kind")
    out = []
    for item in items:
        if param == "dr":
            out.append((parse_quantity_du(item, kind, "sweep value"), item))
        else:
            out.append((parse_duration_ms(item, "sweep value"), item))
    return out


# ---------------------------------------------------------------------------
# scenario assembly
#
# Per object, each file key that sets a field maps to that field and the
# reader of its value.  The loader passes a field only when the file sets its
# key, so a default lives only in the dataclass that declares it, and the
# value checks in the object it builds.

def _decimal(value, kind, field) -> Fraction:
    return _fraction(value, field)


def _duration(value, kind, field) -> int:
    return parse_duration_ms(value, field)


def _duration_pair(value, kind, field) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{field} must be a [low, high] pair")
    low, high = value
    return parse_duration_ms(low, f"{field} low"), parse_duration_ms(high, f"{field} high")


_SCENARIO_FIELDS = {
    "seed": ("seed", None),
    "horizon": ("horizon_ms", _duration),
    "mode": ("mode", None),
    "poll_interval": ("ti_poll_interval_ms", _duration),
    "metric_grid": ("rmse_grid_ms", _duration),
}

_CONCENTRATOR_FIELDS = {
    "clock_skew_ms": ("clock_skew_ms", None),
    "max_skew_ms": ("max_skew_ms", None),
    "uplink_loss": ("uplink_loss", _decimal),
}

_METER_FIELDS = {
    "quantum": ("quantum_du", parse_quantity_du),
    "heartbeat_interval": ("heartbeat_interval_ms", _duration),
    "battery_capacity": ("battery_capacity", _decimal),
    "tx_cost": ("tx_cost", _decimal),
    "idle_drain_per_hour": ("idle_drain_per_hour", _decimal),
    "drift_rate": ("drift_rate", _decimal),
    "max_flow": ("max_flow_du_per_hour", parse_rate_du_per_hour),
}

_TRACE_FIELDS = {"seed": ("seed", None)}

_TRACE_PARAM_FIELDS = {
    "rate": ("rate_du_per_hour", parse_rate_du_per_hour),
    "daily_total": ("daily_total_du", _quantity_fraction_du),
    "jitter_pct": ("jitter_pct", None),
    "shape": ("shape", None),
    "base_rate": ("base_rate_du_per_hour", parse_rate_du_per_hour),
    "burst_rate": ("burst_rate_du_per_hour", parse_rate_du_per_hour),
    "bursts_per_day": ("bursts_per_day", None),
    "burst_duration": ("burst_duration_ms", _duration_pair),
}

#: every key the loader reads, per object; any other key is a config error
_KEYS = {
    "scenario": (*_SCENARIO_FIELDS, "buildings"),
    "building": ("concentrators", "radio_loss", "meters"),
    "concentrator": ("serial", *_CONCENTRATOR_FIELDS),
    "meter": ("serial", "kind", *_METER_FIELDS, "trace", "links"),
    "link": ("concentrator", "loss"),
    "trace": ("kind", "params", *_TRACE_FIELDS),
}

#: every trace parameter the loader reads, per trace kind
_TRACE_PARAMS = {
    tkind: tuple(key for key, (field, _) in _TRACE_PARAM_FIELDS.items() if field in names)
    for tkind, (_, names) in TRACE_KINDS.items()
}


def _fields(obj: dict, table: dict, kind: ResourceKind | None, where: str) -> dict:
    """The fields that ``obj`` sets, each read from its key's value (taken as
    it is where the table names no reader)."""
    return {field: read(obj[key], kind, f"{where}{key}") if read else obj[key]
            for key, (field, read) in table.items() if key in obj}


def _known_keys(obj: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse any key the loader does not read, so a misspelt one cannot pass."""
    for key in obj:
        if key not in known:
            expected = ", ".join(known) or "none"
            raise ConfigError(f"{where}: unknown key {key!r} (expected {expected})")


def _trace_spec(obj: dict, kind: ResourceKind, where: str) -> TraceSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: trace needs a 'kind'")
    _known_keys(obj, _KEYS["trace"], f"{where}: trace")
    tkind = obj["kind"]
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: trace params must be an object")
    if isinstance(tkind, str) and tkind in _TRACE_PARAMS:
        _known_keys(params, _TRACE_PARAMS[tkind], f"{where}: {tkind} trace params")
    try:
        params = _fields(params, _TRACE_PARAM_FIELDS, kind, "trace param ")
        return TraceSpec(kind=tkind, params=params, **_fields(obj, _TRACE_FIELDS, kind, "trace "))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _meter_from_dict(obj: dict, building_idx: int, cid_by_serial: dict[int, int],
                     radio_loss: Fraction) -> SimMeter:
    if not isinstance(obj, dict):
        raise ConfigError(f"building {building_idx}: every meter must be an object")
    serial = whole_number(obj.get("serial"), f"building {building_idx}: meter serial")
    where = f"meter {serial}"
    _known_keys(obj, _KEYS["meter"], where)
    kind = resource_kind(obj.get("kind"), f"{where}: kind")
    try:
        mid = meter_id(serial)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    cfg = MeterConfig(id=mid, kind=kind, **_fields(obj, _METER_FIELDS, kind, f"{where}: "))
    trace = _trace_spec(obj.get("trace", {"kind": "zero"}), kind, where)
    links = obj.get("links")
    if links is None:
        return SimMeter(cfg, trace, tuple((cid, radio_loss) for cid in cid_by_serial.values()))
    if not isinstance(links, list):
        raise ConfigError(f"{where}: links must be a list")
    return SimMeter(cfg, trace, tuple(_link(link, cid_by_serial, where) for link in links))


def _link(obj: dict, cid_by_serial: dict[int, int], where: str) -> tuple[int, Fraction]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: every link must be an object")
    _known_keys(obj, _KEYS["link"], f"{where}: link")
    cserial = whole_number(obj.get("concentrator"), f"{where}: link concentrator")
    if cserial not in cid_by_serial:
        raise ConfigError(f"{where}: link to unknown concentrator {cserial!r}")
    return cid_by_serial[cserial], _fraction(obj.get("loss", 0), f"{where}: link loss")


def _building_from_dict(obj: dict, idx: int) -> Building:
    if not isinstance(obj, dict):
        raise ConfigError(f"building {idx}: must be an object")
    _known_keys(obj, _KEYS["building"], f"building {idx}")
    conc_objs = obj.get("concentrators")
    if not conc_objs or not isinstance(conc_objs, list):
        raise ConfigError(f"building {idx}: needs a list of at least one concentrator")
    concentrators = []
    for c in conc_objs:
        if not isinstance(c, dict):
            raise ConfigError(f"building {idx}: every concentrator must be an object")
        serial = whole_number(c.get("serial"), f"building {idx}: concentrator serial")
        where = f"concentrator {serial}"
        _known_keys(c, _KEYS["concentrator"], where)
        try:
            cid = concentrator_id(serial)
        except ValueError as exc:
            raise ConfigError(f"building {idx}: {exc}") from None
        concentrators.append(ConcentratorConfig(
            id=cid, **_fields(c, _CONCENTRATOR_FIELDS, None, f"{where}: ")))
    cid_by_serial = {id_serial(c.id): c.id for c in concentrators}
    where = f"building {idx}: radio_loss"
    radio_loss = probability(_fraction(obj.get("radio_loss", 0), where), where)
    m_objs = obj.get("meters", [])
    if not isinstance(m_objs, list):
        raise ConfigError(f"building {idx}: meters must be a list")
    meters = tuple(_meter_from_dict(m, idx, cid_by_serial, radio_loss) for m in m_objs)
    return Building(meters=meters, concentrators=tuple(concentrators))


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ConfigError("scenario root must be a JSON object")
    _known_keys(obj, _KEYS["scenario"], "scenario")
    if "horizon" not in obj:
        raise ConfigError("scenario needs a 'horizon'")
    buildings = obj.get("buildings")
    if not buildings or not isinstance(buildings, list):
        raise ConfigError("scenario needs a list of at least one building")
    # a file without a seed runs seed 0; a ScenarioConfig always names its own
    fields = {"seed": 0, **_fields(obj, _SCENARIO_FIELDS, None, "")}
    return ScenarioConfig(
        buildings=tuple(_building_from_dict(b, i) for i, b in enumerate(buildings)),
        **fields,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{p}: invalid JSON: nested too deeply") from None
    return scenario_from_dict(obj)


def single_kind(scenario: ScenarioConfig) -> ResourceKind:
    """The one resource kind a homogeneous scenario uses; error if mixed."""
    kinds = {sm.config.kind for sm in scenario.meters()}
    if len(kinds) != 1:
        names = ", ".join(sorted(k.value for k in kinds))
        raise ConfigError(
            f"operation needs a single-kind scenario, found: {names}"
        )
    return next(iter(kinds))
