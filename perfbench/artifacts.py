"""Counters and correctness checks computed from a run's artifacts alone.

Everything here reads the three files ``risim run`` writes and nothing
else, so the counters are deterministic: the same artifact bytes always
give the same counters and the same check results.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ARTIFACTS = ("events.ndjson", "ledgers.ndjson", "metrics.csv")


@dataclass(frozen=True)
class ScenarioFacts:
    """What the checks need to know about the scenario that was run."""

    quantum_du: dict[int, int]        # meter id -> emission quantum
    modes: tuple[str, ...]            # ("ri",), ("ti",) or ("ri", "ti")
    ti_polls: int                     # poll rounds in the horizon

    @classmethod
    def from_scenario(cls, scenario) -> ScenarioFacts:
        modes = ("ri", "ti") if scenario.mode == "both" else (scenario.mode,)
        return cls(
            quantum_du={sm.config.id: sm.config.quantum_du for sm in scenario.meters()},
            modes=modes,
            ti_polls=scenario.horizon_ms // scenario.ti_poll_interval_ms,
        )


@dataclass
class Gate:
    """Counters of one run directory plus every check that failed on it.

    ``shortfalls`` are exact_recovery mismatches where metrics.csv reports
    fewer quanta than the meters emitted; they are listed, and counted in
    ``unrecovered_quanta``, but do not fail the run (see ``inspect_run``).
    """

    counters: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    shortfalls: list[str] = field(default_factory=list)


def sha256s(rundir: Path) -> dict[str, str]:
    out = {}
    for name in ARTIFACTS:
        h = hashlib.sha256()
        with open(rundir / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def inspect_run(rundir: Path, facts: ScenarioFacts) -> Gate:
    """Deterministic counters and the exact-recovery gate of one run.

    Checks, each reported with the meter it failed on:
      * exact_recovery: per meter, received + recovered + trailing quanta in
        metrics.csv equal the lifetime cumulative_quanta that the emission
        record of the ledger's highest session carries.  A sum above that,
        a trailing uncertainty that is not whole quanta, or a highest
        session without an emission record is a failure.  A sum below it
        is reported apart, in ``shortfalls`` and the ``unrecovered_quanta``
        counter: risim reconstructs over a reception-time window that ends
        at the horizon, so a frame a skewed concentrator stamps after the
        horizon is neither received nor recovered nor trailing;
      * ti_readings: the polling baseline logged one reading per meter per
        poll, and metrics.csv reports the last one as the register.
    """
    gate = Gate()
    kinds: Counter = Counter()
    drops: Counter = Counter()
    outcomes: Counter = Counter()
    emitted: dict[int, dict[int, int]] = {}
    last_register: dict[int, int] = {}
    readings: Counter = Counter()
    with open(rundir / "events.ndjson", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec["kind"]
            kinds[kind] += 1
            p = rec["payload"]
            if kind in ("quantum_event", "heartbeat"):
                emitted.setdefault(p["meter_id"], {})[p["session"]] = p["cumulative_quanta"]
            elif kind == "drop":
                drops[p["stage"]] += 1
            elif kind == "center_ingest":
                outcomes[p["outcome"]] += 1
            elif kind == "ti_reading":
                readings[p["meter_id"]] += 1
                last_register[p["meter_id"]] = p["register_du"]

    ledgers: dict[int, dict] = {}
    with open(rundir / "ledgers.ndjson", encoding="utf-8") as fh:
        for line in fh:
            snap = json.loads(line)
            ledgers[snap["meter_id"]] = snap

    with open(rundir / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    recovered = trailing = unrecovered = 0
    seen_modes: Counter = Counter()
    for row in rows:
        mid = int(row["meter_id"], 16)
        seen_modes[row["mode"]] += 1
        if row["mode"] == "ri":
            q = facts.quantum_du[mid]
            trail_du = int(row["trailing_uncertainty_du"])
            rec_q = int(row["quanta_recovered"])
            recovered += rec_q
            trailing += trail_du // q
            snap = ledgers.get(mid)
            hs = snap["highest_session"] if snap else None
            total = int(row["quanta_received"]) + rec_q + trail_du // q
            expected = 0 if hs is None else emitted.get(mid, {}).get(hs)
            what = (f"exact_recovery meter {mid:#x}: received+recovered+trailing = "
                    f"{total} quanta (+{trail_du % q} du), lifetime cumulative_quanta "
                    f"at highest session {hs} = {expected}")
            if trail_du % q or expected is None or total > expected:
                gate.failures.append(what)
            elif total < expected:
                unrecovered += expected - total
                gate.shortfalls.append(what)
        elif row["mode"] == "ti":
            if readings[mid] != facts.ti_polls:
                gate.failures.append(
                    f"ti_readings meter {mid:#x}: {readings[mid]} readings logged, "
                    f"{facts.ti_polls} polls expected"
                )
            elif int(row["amount_du"]) != last_register.get(mid, 0):
                gate.failures.append(
                    f"ti_readings meter {mid:#x}: metrics.csv register "
                    f"{row['amount_du']} != last logged reading {last_register.get(mid, 0)}"
                )
    for mode in facts.modes:
        if seen_modes[mode] != len(facts.quantum_du):
            gate.failures.append(
                f"metrics_rows mode {mode}: {seen_modes[mode]} rows for "
                f"{len(facts.quantum_du)} meters"
            )

    gate.counters = {
        "records": sum(kinds.values()),
        "records_by_kind": dict(sorted(kinds.items())),
        "drops_by_stage": dict(sorted(drops.items())),
        "ingest_outcomes": dict(sorted(outcomes.items())),
        "gap_sessions": sum(len(snap["gaps"]) for snap in ledgers.values()),
        "recovered_quanta": recovered,
        "trailing_quanta": trailing,
        "unrecovered_quanta": unrecovered,
        "ti_readings": kinds["ti_reading"],
        "events_bytes": (rundir / "events.ndjson").stat().st_size,
    }
    return gate

