"""Per-layer metrics of the traced run, and what each one should move.

Every entry of ``PER_LAYER`` is (name, unit, better, moves, workload):
the end-to-end metric a change to that layer should move and the workload
on which it should move it.  BENCHMARK.json lists the same names, units
and directions; the predictions live here because its schema has no room
for them.  Times ending in ``_s`` are self times unless noted, summed over
the run and replay processes, and so are call counts.  Counts of records,
drops, outcomes, gaps and quanta come from the artifacts of the run and
repeat exactly for a given seed.  ``concentrator.delivery_ratio`` is the
copies that reached the center per radio link draw, and
``center.accept_ratio`` the accepted ingests per ingest.  The ``wall.*``
metrics are the medians of the untraced runs' wall times in the same
invocation, uncalibrated (see run.py).
"""

from __future__ import annotations

PER_LAYER = (
    ("traces.generate_s", "s", "lower", "run_cal_s", "all (guard)"),
    ("traces.breakpoints", "count", "lower", "run_cal_s", "all (guard)"),
    ("traces.cumulative_calls", "count", "lower", "run_cal_s", "idle_fleet"),
    ("traces.cumulative_s", "s", "lower", "run_cal_s", "idle_fleet"),
    ("meter.schedule_s", "s", "lower", "run_cal_s", "district_week; none on idle_fleet"),
    ("meter.emissions", "count", "lower", "run_cal_s", "district_week"),
    ("meter.heartbeats", "count", "lower", "run_cal_s", "idle_fleet"),
    ("meter.emissions_per_s", "1/s", "higher", "run_cal_s", "district_week; none on idle_fleet"),
    ("concentrator.broadcast_s", "s", "lower", "run_cal_s", "lossy_multipath"),
    ("concentrator.link_attempts", "count", "lower", "run_cal_s", "lossy_multipath"),
    ("concentrator.deliveries", "count", "lower", "run_cal_s", "lossy_multipath"),
    ("concentrator.drops_radio", "count", "lower", "run_cal_s", "lossy_multipath"),
    ("concentrator.drops_uplink", "count", "lower", "run_cal_s", "lossy_multipath"),
    ("concentrator.delivery_ratio", "ratio", "higher", "run_cal_s", "lossy_multipath"),
    ("domain.encode_calls", "count", "lower", "run_cal_s", "lossy_multipath"),
    ("domain.encode_s", "s", "lower", "run_cal_s", "lossy_multipath"),
    ("domain.decode_calls", "count", "lower", "replay_cal_s", "lossy_multipath"),
    ("domain.decode_s", "s", "lower", "replay_cal_s", "lossy_multipath"),
    ("center.ingest_s", "s", "lower", "run_cal_s,replay_cal_s", "lossy_multipath; near zero on idle_fleet"),
    ("center.ingest_calls", "count", "lower", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.accepted", "count", "higher", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.duplicates", "count", "lower", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.stale", "count", "lower", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.conflicts", "count", "lower", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.accept_ratio", "ratio", "higher", "run_cal_s,replay_cal_s", "lossy_multipath"),
    ("center.snapshot_s", "s", "lower", "run_cal_s", "district_week"),
    ("center.reconstruct_s", "s", "lower", "run_cal_s", "district_week"),
    ("center.gap_sessions", "count", "lower", "peak_rss_mb", "lossy_multipath"),
    ("center.recovered_quanta", "count", "higher", "peak_rss_mb", "lossy_multipath"),
    ("center.trailing_quanta", "count", "lower", "peak_rss_mb", "lossy_multipath"),
    ("center.unrecovered_quanta", "count", "lower", "none (exact_recovery shortfall, see artifacts.inspect_run)", "district_week"),
    ("simulation.run_ri_s", "s", "lower", "run_cal_s", "all (inclusive span)"),
    ("simulation.run_ti_s", "s", "lower", "run_cal_s", "idle_fleet (inclusive span)"),
    ("simulation.engine_s", "s", "lower", "run_cal_s,peak_rss_mb", "district_week"),
    ("simulation.metrics_s", "s", "lower", "run_cal_s", "idle_fleet"),
    ("simulation.ti_readings", "count", "lower", "run_cal_s", "idle_fleet"),
    ("eventlog.write_s", "s", "lower", "run_cal_s,events_mb", "district_week,idle_fleet"),
    ("eventlog.records", "count", "lower", "run_cal_s,events_mb", "district_week,idle_fleet"),
    ("eventlog.bytes_per_record", "B", "lower", "events_mb", "district_week,idle_fleet"),
    ("eventlog.read_s", "s", "lower", "replay_cal_s", "idle_fleet"),
    ("eventlog.replay_s", "s", "lower", "replay_cal_s", "lossy_multipath"),
    ("tracing.overhead_s", "s", "lower", "none (traced minus untraced wall.run_s)", "all"),
    ("wall.setup_s", "s", "lower", "setup_s (its wall time, uncalibrated)", "all"),
    ("wall.run_s", "s", "lower", "run_cal_s (its wall time, uncalibrated)", "all"),
    ("wall.replay_s", "s", "lower", "replay_cal_s (its wall time, uncalibrated)", "all"),
)

#: tracer span key each time or call metric reads; a metric whose key had
#: a target that could not be patched is reported missing
_SELF = {
    "traces.generate_s": "traces.generate",
    "traces.cumulative_s": "traces.cumulative",
    "meter.schedule_s": "meter.schedule",
    "concentrator.broadcast_s": "concentrator.broadcast",
    "domain.encode_s": "domain.encode",
    "domain.decode_s": "domain.decode",
    "center.ingest_s": "center.ingest",
    "center.snapshot_s": "center.snapshot",
    "center.reconstruct_s": "center.reconstruct",
    "simulation.engine_s": "simulation.run_ri",
    "simulation.metrics_s": "simulation.metrics",
    "eventlog.write_s": "eventlog.write",
    "eventlog.read_s": "eventlog.read",
    "eventlog.replay_s": "eventlog.replay",
}
_TOTAL = {
    "simulation.run_ri_s": "simulation.run_ri",
    "simulation.run_ti_s": "simulation.run_ti",
}
_CALLS = {
    "traces.cumulative_calls": "traces.cumulative",
    "domain.encode_calls": "domain.encode",
    "domain.decode_calls": "domain.decode",
    "center.ingest_calls": "center.ingest",
}


def merge_dumps(dumps: list[dict]) -> dict:
    """Add up the tracer totals of several processes."""
    out = {"calls": {}, "counts": {}, "total_s": {}, "self_s": {},
           "missing": [], "missing_keys": set()}
    for d in dumps:
        for part in ("calls", "counts", "total_s", "self_s"):
            for key, value in d[part].items():
                out[part][key] = out[part].get(key, 0) + value
        out["missing"] += [name for name in d["missing"] if name not in out["missing"]]
        out["missing_keys"].update(d["missing_keys"])
    return out


def layer_metrics(trace: dict, counters: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values from merged tracer totals and artifact counters.

    A metric fed by a callable that could not be patched is left out of the
    result, so it shows as missing rather than as zero.
    """
    missing = trace["missing_keys"]
    out: dict[str, float] = {}
    for table, part in ((_SELF, "self_s"), (_TOTAL, "total_s"), (_CALLS, "calls")):
        for name, key in table.items():
            if key not in missing:
                out[name] = trace[part].get(key, 0)
    if "traces.generate" not in missing:
        out["traces.breakpoints"] = trace["counts"].get("breakpoints", 0)

    kinds = counters["records_by_kind"]
    drops = counters["drops_by_stage"]
    outcomes = counters["ingest_outcomes"]
    emissions = kinds.get("quantum_event", 0)
    heartbeats = kinds.get("heartbeat", 0)
    deliveries = kinds.get("delivery", 0)
    attempts = deliveries + drops.get("radio", 0)
    ingests = sum(outcomes.values())
    out.update({
        "meter.emissions": emissions,
        "meter.heartbeats": heartbeats,
        "concentrator.link_attempts": attempts,
        "concentrator.deliveries": deliveries,
        "concentrator.drops_radio": drops.get("radio", 0),
        "concentrator.drops_uplink": drops.get("uplink", 0),
        "concentrator.delivery_ratio": ingests / attempts if attempts else 0.0,
        "center.accepted": outcomes.get("accepted", 0),
        "center.duplicates": outcomes.get("duplicate", 0),
        "center.stale": outcomes.get("stale", 0),
        "center.conflicts": outcomes.get("conflict", 0),
        "center.accept_ratio": outcomes.get("accepted", 0) / ingests if ingests else 0.0,
        "center.gap_sessions": counters["gap_sessions"],
        "center.recovered_quanta": counters["recovered_quanta"],
        "center.trailing_quanta": counters["trailing_quanta"],
        "center.unrecovered_quanta": counters["unrecovered_quanta"],
        "simulation.ti_readings": counters["ti_readings"],
        "eventlog.records": counters["records"],
        "eventlog.bytes_per_record": (
            counters["events_bytes"] / counters["records"] if counters["records"] else 0.0
        ),
        "tracing.overhead_s": overhead_s,
    })
    schedule = out.get("meter.schedule_s")
    if schedule:
        out["meter.emissions_per_s"] = (emissions + heartbeats) / schedule
    return out
