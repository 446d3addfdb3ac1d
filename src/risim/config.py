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

from .concentrator import ConcentratorConfig
from .domain import (
    ConfigError,
    MS_PER_HOUR,
    ResourceKind,
    concentrator_id,
    id_serial,
    meter_id,
    whole_number,
)
from .meter import MeterConfig
from .simulation import Building, ScenarioConfig, SimMeter
from .traces import TraceSpec

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
    """Exact rational from an int, decimal float, or numeric string."""
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{field}: not a number: {value!r}") from None
    raise ConfigError(f"{field}: expected a number, got {type(value).__name__}")


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
    output tables.
    """
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ConfigError("sweep values list is empty")
    out = []
    for item in items:
        if param == "dr":
            if kind is None:
                raise ConfigError("quantum sweep values need a resource kind")
            value = parse_quantity_du(item, kind, "sweep value")
        elif param == "dt":
            value = parse_duration_ms(item, "sweep value")
        else:
            raise ConfigError(f"sweep parameter must be 'dr' or 'dt', got {param!r}")
        if value <= 0:
            raise ConfigError(f"sweep value must be positive: {item!r}")
        out.append((value, item))
    return out


# ---------------------------------------------------------------------------
# scenario assembly

_KIND_BY_NAME = {k.value: k for k in ResourceKind}

#: every key the loader reads, per object; any other key is a config error
_KEYS = {
    "scenario": ("seed", "horizon", "mode", "poll_interval", "metric_grid", "buildings"),
    "building": ("concentrators", "radio_loss", "meters"),
    "concentrator": ("serial", "clock_skew_ms", "max_skew_ms", "uplink_loss"),
    "meter": ("serial", "kind", "quantum", "heartbeat_interval", "battery_capacity",
              "tx_cost", "idle_drain_per_hour", "drift_rate", "max_flow", "trace", "links"),
    "link": ("concentrator", "loss"),
    "trace": ("kind", "params", "seed"),
}

#: every trace parameter the loader reads, per trace kind
_TRACE_PARAMS = {
    "zero": (),
    "constant": ("rate",),
    "diurnal": ("daily_total", "jitter_pct", "shape"),
    "appliance": ("base_rate", "burst_rate", "bursts_per_day", "burst_duration"),
}

_TRACE_RATE_PARAMS = {
    "rate": "rate_du_per_hour",
    "base_rate": "base_rate_du_per_hour",
    "burst_rate": "burst_rate_du_per_hour",
}


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
    converted: dict = {}
    for name, raw in params.items():
        if name in _TRACE_RATE_PARAMS:
            converted[_TRACE_RATE_PARAMS[name]] = parse_rate_du_per_hour(
                raw, kind, f"{where}: trace param {name}"
            )
        elif name == "daily_total":
            converted["daily_total_du"] = _quantity_fraction_du(
                raw, kind, f"{where}: trace param daily_total"
            )
        elif name == "burst_duration":
            if not isinstance(raw, list) or len(raw) != 2:
                raise ConfigError(f"{where}: burst_duration must be a [low, high] pair")
            lo, hi = raw
            converted["burst_duration_ms"] = (
                parse_duration_ms(lo, f"{where}: burst_duration low"),
                parse_duration_ms(hi, f"{where}: burst_duration high"),
            )
        else:
            converted[name] = raw
    try:
        return TraceSpec(kind=tkind, params=converted, seed=obj.get("seed"))
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _meter_from_dict(obj: dict, building_idx: int) -> tuple[MeterConfig, TraceSpec, list | None]:
    if not isinstance(obj, dict):
        raise ConfigError(f"building {building_idx}: every meter must be an object")
    serial = whole_number(obj.get("serial"), f"building {building_idx}: meter serial")
    where = f"meter {serial}"
    _known_keys(obj, _KEYS["meter"], where)
    kind_name = obj.get("kind")
    kind = _KIND_BY_NAME.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        known = ", ".join(sorted(_KIND_BY_NAME))
        raise ConfigError(f"{where}: unknown kind {kind_name!r} (expected {known})")
    try:
        quantum = obj.get("quantum")
        cfg = MeterConfig(
            id=meter_id(serial),
            kind=kind,
            quantum_du=(
                parse_quantity_du(quantum, kind, f"{where}: quantum")
                if quantum is not None
                else None
            ),
            heartbeat_interval_ms=parse_duration_ms(
                obj.get("heartbeat_interval", "24h"), f"{where}: heartbeat_interval"
            ),
            battery_capacity=_fraction(
                obj.get("battery_capacity", 10**6), f"{where}: battery_capacity"
            ),
            tx_cost=_fraction(obj.get("tx_cost", 1), f"{where}: tx_cost"),
            idle_drain_per_hour=_fraction(
                obj.get("idle_drain_per_hour", 0), f"{where}: idle_drain_per_hour"
            ),
            drift_rate=_fraction(obj.get("drift_rate", 0), f"{where}: drift_rate"),
            max_flow_du_per_hour=(
                parse_rate_du_per_hour(obj["max_flow"], kind, f"{where}: max_flow")
                if "max_flow" in obj
                else None
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{where}: {exc}") from None
    trace = _trace_spec(obj.get("trace", {"kind": "zero"}), kind, where)
    links = obj.get("links")
    return cfg, trace, links


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
        concentrators.append(
            ConcentratorConfig(
                id=cid,
                clock_skew_ms=whole_number(c.get("clock_skew_ms", 0), f"{where}: clock_skew_ms"),
                max_skew_ms=whole_number(c.get("max_skew_ms", 1000), f"{where}: max_skew_ms"),
                uplink_loss=_fraction(c.get("uplink_loss", 0), f"{where}: uplink_loss"),
            )
        )
    cid_by_serial = {id_serial(c.id): c.id for c in concentrators}
    radio_loss = _fraction(obj.get("radio_loss", 0), f"building {idx}: radio_loss")
    m_objs = obj.get("meters", [])
    if not isinstance(m_objs, list):
        raise ConfigError(f"building {idx}: meters must be a list")
    meters = []
    for m_obj in m_objs:
        cfg, trace, links_obj = _meter_from_dict(m_obj, idx)
        if links_obj is not None:
            if not isinstance(links_obj, list):
                raise ConfigError(f"meter {m_obj['serial']}: links must be a list")
            links = []
            for link in links_obj:
                if not isinstance(link, dict):
                    raise ConfigError(f"meter {m_obj['serial']}: every link must be an object")
                _known_keys(link, _KEYS["link"], f"meter {m_obj['serial']}: link")
                cserial = whole_number(
                    link.get("concentrator"), f"meter {m_obj['serial']}: link concentrator"
                )
                cid = cid_by_serial.get(cserial)
                if cid is None:
                    raise ConfigError(
                        f"meter {m_obj['serial']}: link to unknown concentrator {cserial!r}"
                    )
                loss = _fraction(link.get("loss", 0), f"meter {m_obj['serial']}: link loss")
                links.append((cid, loss))
        else:
            links = [(cid, radio_loss) for cid in cid_by_serial.values()]
        meters.append(SimMeter(config=cfg, trace=trace, links=tuple(links)))
    return Building(meters=tuple(meters), concentrators=tuple(concentrators))


def scenario_from_dict(obj: dict) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ConfigError("scenario root must be a JSON object")
    _known_keys(obj, _KEYS["scenario"], "scenario")
    if "horizon" not in obj:
        raise ConfigError("scenario needs a 'horizon'")
    buildings = obj.get("buildings")
    if not buildings or not isinstance(buildings, list):
        raise ConfigError("scenario needs a list of at least one building")
    return ScenarioConfig(
        seed=obj.get("seed", 0),
        horizon_ms=parse_duration_ms(obj["horizon"], "horizon"),
        mode=obj.get("mode", "ri"),
        ti_poll_interval_ms=parse_duration_ms(
            obj.get("poll_interval", "1h"), "poll_interval"
        ),
        rmse_grid_ms=parse_duration_ms(obj.get("metric_grid", "1min"), "metric_grid"),
        buildings=tuple(
            _building_from_dict(b, i) for i, b in enumerate(buildings)
        ),
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
