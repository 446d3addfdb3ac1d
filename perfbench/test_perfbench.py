"""Tests of the benchmark itself: tracer, artifact gate, smoke run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import artifacts
import layers
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, *_ in layers.PER_LAYER
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert spec["workloads"] == [{"name": n, "why": w} for n, w in workloads.WHY.items()]
    assert set(workloads.WHY) == set(workloads.WORKLOADS)


def _layered(x):
    return x + 1


def _outer(x):
    return _layered(x) * 2


def test_tracer_charges_self_time_and_reports_missing_targets():
    module = sys.modules[__name__]
    t = tracer.Tracer()
    t.install((
        ("outer", __name__, "_outer"),
        ("inner", __name__, "_layered"),
        ("gone", __name__, "no_such_callable"),
        ("gone", "no_such_module_for_tracing", "f"),
    ))
    try:
        assert module._outer(1) == 4
        dump = t.dump()
    finally:
        module._outer = module._outer.__wrapped__
        module._layered = module._layered.__wrapped__
    assert dump["calls"] == {"outer": 1, "inner": 1}
    assert dump["total_s"]["outer"] >= dump["total_s"]["inner"]
    assert abs(dump["self_s"]["outer"] - (dump["total_s"]["outer"] - dump["total_s"]["inner"])) < 1e-9
    assert dump["missing_keys"] == ["gone"]
    assert len(dump["missing"]) == 2


def test_generator_steps_are_timed_and_counted_once():
    t = tracer.Tracer()

    def numbers():
        yield from range(3)

    wrapped = t.wrap("gen", numbers)
    assert list(wrapped()) == [0, 1, 2]
    assert t.calls["gen"] == 1
    assert t.self_s["gen"] > 0


def test_metric_of_unpatched_callable_is_missing_not_zero():
    counters = {
        "records_by_kind": {"quantum_event": 3}, "drops_by_stage": {},
        "ingest_outcomes": {"accepted": 3}, "gap_sessions": 0,
        "recovered_quanta": 0, "trailing_quanta": 0, "unrecovered_quanta": 0,
        "ti_readings": 0, "records": 9, "events_bytes": 900,
    }
    dump = tracer.Tracer().dump()
    dump["missing_keys"] = ["center.ingest"]
    values = layers.layer_metrics(layers.merge_dumps([dump]), counters, 0.1)
    assert "center.ingest_s" not in values
    assert "center.ingest_calls" not in values
    assert values["domain.encode_calls"] == 0     # patched, never called
    assert values["center.accepted"] == 3


def _run_dir(tmp_path, received, recovered, trailing_du):
    """A one-meter run whose highest session 5 carries cumulative_quanta 6."""
    emissions = [
        {"kind": "quantum_event", "seq": s, "sim_time_ms": s,
         "payload": {"meter_id": 1, "session": s, "cumulative_quanta": s + 1}}
        for s in range(6)
    ]
    (tmp_path / "events.ndjson").write_text("".join(json.dumps(e) + "\n" for e in emissions))
    (tmp_path / "ledgers.ndjson").write_text(
        json.dumps({"meter_id": 1, "highest_session": 5, "gaps": [2]}) + "\n")
    (tmp_path / "metrics.csv").write_text(
        "mode,meter_id,quanta_received,quanta_recovered,trailing_uncertainty_du\n"
        f"ri,0x1,{received},{recovered},{trailing_du}\n")
    return tmp_path


def test_exact_recovery_fails_on_excess_and_lists_a_shortfall_apart(tmp_path):
    facts = artifacts.ScenarioFacts(quantum_du={1: 10}, modes=("ri",), ti_polls=0)

    exact = artifacts.inspect_run(_run_dir(tmp_path, 4, 1, 10), facts)
    assert exact.failures == [] and exact.shortfalls == []
    assert exact.counters["unrecovered_quanta"] == 0

    excess = artifacts.inspect_run(_run_dir(tmp_path, 5, 1, 10), facts)
    assert len(excess.failures) == 1 and "exact_recovery meter 0x1" in excess.failures[0]

    partial = artifacts.inspect_run(_run_dir(tmp_path, 4, 1, 5), facts)
    assert len(partial.failures) == 1                  # trailing is not whole quanta

    short = artifacts.inspect_run(_run_dir(tmp_path, 4, 1, 0), facts)
    assert short.failures == []
    assert len(short.shortfalls) == 1 and "meter 0x1" in short.shortfalls[0]
    assert short.counters["unrecovered_quanta"] == 1


def test_smoke_run_reports_every_metric_and_passes_its_gate():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [n for n, _ in run.E2E] + [n for n, *_ in layers.PER_LAYER]
    for workload in workloads.WORKLOADS:
        for name in names:
            assert f"{workload}/{name}" in result["metrics"], (workload, name)
    assert "shipped: 3 attempted, 0 failed" in proc.stdout
