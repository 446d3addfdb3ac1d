"""The README's library example runs as written, and its table of scenario
keys is the loader's."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from risim.concentrator import ConcentratorConfig
from risim.config import (_KEYS, _TRACE_PARAMS, Building, ScenarioConfig, SimMeter,
                          scenario_from_dict)
from risim.domain import MS_PER_DAY, ResourceKind, concentrator_id, meter_id
from risim.meter import MeterConfig
from risim.traces import TraceSpec, generate_trace

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4  # one line per meter of scenarios/default.json


#: one row of the README's table of scenario keys: object, key, default
_KEY_ROW = re.compile(r"^\| ([a-z ]+) \| `(\w+)` \| (.+) \|$", re.MULTILINE)


def _documented_keys() -> dict[str, dict[str, str]]:
    """Per object of a scenario file, each key the README lists and its default."""
    section = (ROOT / "README.md").read_text().split("\n## Scenario files\n", 1)[1]
    table: dict[str, dict[str, str]] = {}
    for where, key, default in _KEY_ROW.findall(section.split("\n## ", 1)[0]):
        table.setdefault(where, {})[key] = default
    return table


def _documented_defaults(where: str) -> dict:
    """The keys of ``where`` whose README default is a file value, set to it."""
    return {key: json.loads(default[1:-1])
            for key, default in _documented_keys()[where].items()
            if default.startswith("`")}


def test_readme_lists_exactly_the_keys_the_loader_reads():
    documented = _documented_keys()
    params = {f"{kind} trace params": keys for kind, keys in _TRACE_PARAMS.items()}
    for where, keys in {**_KEYS, **params}.items():
        assert set(documented.pop(where, {})) == set(keys), where
    assert not documented


def test_a_file_of_required_keys_and_one_of_documented_defaults_load_the_same():
    """The loader passes a field only when the file sets its key, so a file
    with only the required keys gets each dataclass's own defaults, and so
    does a file that sets every optional key to its documented default."""
    required = {"horizon": "1d", "buildings": [{
        "concentrators": [{"serial": 1}],
        "meters": [{"serial": 1, "kind": "cold_water"}]}]}
    documented = {**_documented_defaults("scenario"), **required, "buildings": [{
        **_documented_defaults("building"),
        "concentrators": [{**_documented_defaults("concentrator"), "serial": 1}],
        "meters": [{**_documented_defaults("meter"), "serial": 1, "kind": "cold_water",
                    "trace": {**_documented_defaults("trace"), "kind": "zero"},
                    "links": [{**_documented_defaults("link"), "concentrator": 1}]}]}]}
    own_defaults = ScenarioConfig(
        seed=0, horizon_ms=MS_PER_DAY,
        buildings=(Building(
            meters=(SimMeter(MeterConfig(meter_id(1), ResourceKind.COLD_WATER),
                             TraceSpec("zero"), ((concentrator_id(1), 0),)),),
            concentrators=(ConcentratorConfig(concentrator_id(1)),)),))
    assert scenario_from_dict(required) == own_defaults
    assert scenario_from_dict(documented) == own_defaults


@pytest.mark.parametrize("kind, needed", [
    ("diurnal", {"daily_total": "150l"}),
    ("appliance", {"burst_rate": "12l/min"}),
])
def test_documented_trace_param_defaults_make_the_same_trace(kind, needed):
    def trace(params):
        scenario = scenario_from_dict({"horizon": "3d", "buildings": [{
            "concentrators": [{"serial": 1}],
            "meters": [{"serial": 1, "kind": "cold_water",
                        "trace": {"kind": kind, "params": params}}]}]})
        [sm] = scenario.meters()
        return generate_trace(sm.trace, 5, scenario.horizon_ms, sm.config.id)

    documented = _documented_defaults(f"{kind} trace params")
    assert documented
    assert trace({**documented, **needed}) == trace(needed)
