"""No binary float is held anywhere from a loaded scenario to its results:
the scenario, the metrics and table rows, and every logged frame decoded."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from risim import EventLog, compare_runs, decode_frame, detail_sweep, scenario_from_dict

from oracles import record_sink

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _floats(value, path: str):
    """Paths of every float inside ``value``'s dataclasses, tuples, lists and dicts."""
    if isinstance(value, float):
        yield path
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _floats(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _floats(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _floats(key, f"{path} key {key!r}")
            yield from _floats(item, f"{path}[{key!r}]")


def _lossy_night_idle() -> dict:
    """night_idle.json with every kind of loss spelt as a decimal."""
    obj = json.loads((SCENARIOS / "night_idle.json").read_text())
    building = obj["buildings"][0]
    building["radio_loss"] = 0.15
    building["concentrators"] = [{"serial": 1, "uplink_loss": 0.1}, {"serial": 2}]
    building["meters"].append({"serial": 2, "kind": "cold_water",
                               "links": [{"concentrator": 1, "loss": 0.2},
                                         {"concentrator": 2, "loss": 0.3}]})
    return obj


@pytest.mark.parametrize("obj", [
    pytest.param(json.loads((SCENARIOS / "night_idle.json").read_text()), id="night_idle"),
    pytest.param(json.loads((SCENARIOS / "zero_consumption_48h.json").read_text()),
                 id="zero_consumption_48h"),
    pytest.param(_lossy_night_idle(), id="lossy_night_idle"),
])
def test_no_float_is_held_from_scenario_to_results(obj):
    scenario = scenario_from_dict(obj)
    records = []
    ri, ti, rows = compare_runs(scenario, EventLog(record_sink(records)))
    sweep = detail_sweep(scenario, "dt", [(60_000, "1min"), (3_600_000, "1h")])
    frames = [decode_frame(bytes.fromhex(rec.payload["frame_hex"]))
              for rec in records if "frame_hex" in rec.payload]
    assert frames
    held = {
        "scenario": scenario, "ri.metrics": ri.metrics, "ti.metrics": ti.metrics,
        "compare rows": rows, "sweep rows": sweep, "records": records,
        "frames": frames,
    }
    found = [p for where, value in held.items() for p in _floats(value, where)]
    assert found == []
