"""Every name the benchmark's tracer patches still resolves.

perfbench/tracer.py intercepts risim's layers by patching module globals
and methods by name.  A renamed target would only show as a missing metric
in the benchmark's slow smoke run; this test names it at once.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import risim.simulation
from risim.config import load_scenario
from risim.domain import MS_PER_HOUR
from risim.eventlog import EventKind, EventLog
from risim.meter import MeterRun

from oracles import record_sink

_ROOT = Path(__file__).resolve().parent.parent
_TRACER = _ROOT / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("key,module,path", _targets())
def test_tracer_target_resolves(key, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        assert hasattr(owner, part), f"{key}: {module}.{path} has no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{key}: {module}.{path} is not callable"


def test_meter_schedule_is_a_generator():
    # the tracer charges the schedule to meter.schedule step by step only
    # when MeterRun.events is a generator; a list-returning version would
    # still resolve by name and move that time into simulation.engine
    assert inspect.isgeneratorfunction(MeterRun.events)


def test_a_logged_run_calls_the_channel_targets_once_per_emission_and_copy(monkeypatch):
    # concentrator.broadcast_s is the time in these two names; a run_ri that
    # stopped calling broadcast would read 0 there and fail nothing else.
    # run_ri stamps each copy with its concentrator's skew from a table, so
    # receive is left only for the tracer and is never called
    targets = [(module, path) for key, module, path in _targets()
               if key == "concentrator.broadcast"]
    assert targets == [("risim.simulation", "broadcast"), ("risim.simulation", "receive")]
    calls = Counter()
    for _, name in targets:
        def counted(*args, _real=getattr(risim.simulation, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(risim.simulation, name, counted)
    scenario = replace(load_scenario(_ROOT / "scenarios" / "default.json"),
                       horizon_ms=6 * MS_PER_HOUR)
    records = []
    risim.simulation.run_ri(scenario, EventLog(record_sink(records)))
    kinds = Counter(rec.kind for rec in records)
    fates = Counter(len(link) for rec in records for link in rec.payload.get("links", ()))
    assert fates[1] > 0                                   # drops
    assert calls["broadcast"] == kinds[EventKind.QUANTUM_EVENT] + kinds[EventKind.HEARTBEAT] > 0
    assert fates[2] > 0 and calls["receive"] == 0         # ingests, none through receive


def test_a_run_calls_the_metric_targets_once_per_meter(monkeypatch):
    # simulation.metrics_s is the time in these two names; a run that
    # computed its metric some other way would read 0 there and fail nothing
    # else.  run_ri rebuilds each ledgered meter's steps and takes their mean
    # square, and run_ti takes the mean square of each meter's polls
    targets = [(module, path) for key, module, path in _targets()
               if key == "simulation.metrics"]
    assert targets == [("risim.simulation", "reconstruction_steps"),
                       ("risim.simulation", "_step_mean_square")]
    calls = Counter()
    for _, name in targets:
        def counted(*args, _real=getattr(risim.simulation, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(risim.simulation, name, counted)
    scenario = replace(load_scenario(_ROOT / "scenarios" / "default.json"),
                       horizon_ms=6 * MS_PER_HOUR)
    meters = len(scenario.meters())
    ri = risim.simulation.run_ri(scenario)
    ledgered = len(ri.center.ledgers())
    assert calls == {"reconstruction_steps": ledgered, "_step_mean_square": meters}
    assert 0 < ledgered == meters
    calls.clear()
    risim.simulation.run_ti(scenario)
    assert calls == {"_step_mean_square": meters}


def test_the_cli_names_the_tracer_patches_are_the_ones_its_commands_call(tmp_path):
    # risim.cli binds these names on first use, never over a bound one; a
    # command that called a binding of its own would leave the tracer's
    # wrapper uncalled, and its key would read 0.  A run of a two-mode
    # scenario and its replay call each cli target once, bar write_events,
    # which is there for the tracer alone
    scenario = json.loads((_ROOT / "scenarios" / "default.json").read_text())
    scenario["horizon"] = "6h"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(risim.simulation.__file__).resolve().parents[1])}
    calls = Counter()
    for command in (["run", str(path), "--out", str(out)], ["replay", str(out)]):
        dump = tmp_path / f"{command[0]}.trace.json"
        subprocess.run([sys.executable, str(_TRACER), "--dump", str(dump), "--", *command],
                       env=env, capture_output=True, check=True)
        traced = json.loads(dump.read_text())
        assert traced["missing"] == []
        calls.update(traced["calls"])
    cli_targets = [(key, path) for key, module, path in _targets() if module == "risim.cli"]
    assert len(cli_targets) == 7
    expected = Counter(key for key, path in cli_targets if path != "write_events")
    assert {key: calls[key] for key, _ in cli_targets} == expected
