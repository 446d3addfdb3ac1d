"""Every name the benchmark's tracer patches still resolves.

perfbench/tracer.py intercepts risim's layers by patching module globals
and methods by name.  A renamed target would only show as a missing metric
in the benchmark's slow smoke run; this test names it at once.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from risim.meter import MeterRun

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
