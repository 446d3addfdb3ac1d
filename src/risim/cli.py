"""Command-line front end: run, sweep, compare, replay.

Exit codes: 0 success, 1 for IO failures, a malformed log or a replay
mismatch, 2 for configuration errors.  RI_SIM_SEED in the environment
overrides every other seed source, then --seed, then the scenario file.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .config import ScenarioConfig

#: the risim modules each command runs.  ``main`` imports them before it
#: imports argparse and builds the parser: a module compiled while those are
#: alive raises the process's peak memory by its compile's transient.
_COMMAND_MODULES = {
    "run": ("config", "simulation", "eventlog"),
    "sweep": ("config", "simulation", "eventlog"),
    "compare": ("config", "simulation", "eventlog"),
    "replay": ("eventlog",),
}

#: the names the commands call through this module's globals, by home
#: module, so that a caller may patch them here (perfbench's tracer does).
#: Each is bound on first use: ``main`` binds those of its command's modules,
#: and a lookup of one from outside binds it too; neither overwrites a name
#: already bound, so a command calls whatever was patched in.
_PATCHABLE = {
    "run_ri": "simulation",
    "run_ti": "simulation",
    "write_events": "eventlog",   # unused here; perfbench's tracer patches this name
    "write_ledger_snapshots": "eventlog",
    "write_csv": "eventlog",
    "read_events": "eventlog",
    "replay_center": "eventlog",
}


def __getattr__(name: str):
    if name not in _PATCHABLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _bind(name)


def _bind(name: str):
    """A patchable name's value, bound from its home module unless already bound."""
    return globals().setdefault(name, getattr(_module(_PATCHABLE[name]), name))


def _module(name: str):
    return import_module(f".{name}", __package__)


def _load(command: str | None) -> None:
    """Import the modules that ``command`` runs and bind their patchable names."""
    modules = _COMMAND_MODULES.get(command, ())
    for module in modules:
        _module(module)
    for name, home in _PATCHABLE.items():
        if home in modules:
            _bind(name)


METRICS_HEADER = [
    "mode", "meter_id", "window_start_ms", "window_end_ms",
    "quanta_received", "quanta_recovered", "amount_du",
    "trailing_uncertainty_du", "unit", "rmse_du",
    "message_count", "bytes_sent",
]

SWEEP_HEADER = ["value", "label", "rmse_du", "message_count", "bytes_sent"]

COMPARE_HEADER = [
    "mode", "meter_id", "message_count", "bytes_sent",
    "rmse_du", "battery_lifetime_ms",
]


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="risim",
        description="Event-driven utility metering simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario and write its logs")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--mode", choices=["ri", "ti", "both"],
                     help="override the scenario's mode")
    run.add_argument("--seed", type=int, help="override the scenario's seed")

    sweep = sub.add_parser("sweep", help="rerun a scenario across parameter values")
    sweep.add_argument("scenario")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--param", required=True, choices=["dr", "dt"],
                       help="dr sweeps the emission quantum, dt the poll interval")
    sweep.add_argument("--values", required=True,
                       help="comma-separated points, e.g. '50ml,100ml,200ml' or '1min,1h'")
    sweep.add_argument("--seed", type=int)

    cmp_ = sub.add_parser("compare", help="paired event-driven vs polling runs")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--seed", type=int)

    replay = sub.add_parser("replay", help="rebuild ledgers from a run's event log")
    replay.add_argument("rundir", help="directory holding events.ndjson and ledgers.ndjson")
    return parser


def _apply_seed(scenario: ScenarioConfig, cli_seed: int | None) -> ScenarioConfig:
    from .domain import ConfigError

    env = os.environ.get("RI_SIM_SEED")
    if env is not None:
        try:
            return replace(scenario, seed=int(env))
        except ValueError:
            raise ConfigError(f"RI_SIM_SEED must be an integer, got {env!r}") from None
    if cli_seed is not None:
        return replace(scenario, seed=cli_seed)
    return scenario


def _metrics_rows(mode: str, scenario: ScenarioConfig, result) -> list[list]:
    from .domain import BASE_UNIT
    from .simulation import rmse_text

    rows = []
    window = (0, scenario.horizon_ms)
    kinds = {sm.config.id: sm.config.kind for sm in scenario.meters()}
    if mode == "ri":
        # reception times: a frame emitted in [0, horizon] is stamped with
        # its concentrator's skew, so the window widens by the extreme skews
        skews = [c.clock_skew_ms for c in scenario.concentrators()]
        window = (min(0, *skews), scenario.horizon_ms + max(0, *skews))
        recon = {r.meter_id: r for r in result.center.reconstruct_all(window)}
        for mid in sorted(kinds):
            r = recon[mid]
            m = result.metrics[mid]
            rows.append([
                "ri", f"{mid:#x}", window[0], window[1],
                r.quanta_received, r.quanta_recovered, r.amount_du,
                r.trailing_uncertainty_du, BASE_UNIT[kinds[mid]],
                rmse_text(m.mean_square_du), m.message_count, m.bytes_sent,
            ])
    else:
        for mid in sorted(kinds):
            m = result.metrics[mid]
            rows.append([
                "ti", f"{mid:#x}", window[0], window[1],
                "", "", result.last_register[mid], "", BASE_UNIT[kinds[mid]],
                rmse_text(m.mean_square_du), m.message_count, m.bytes_sent,
            ])
    return rows


def _cmd_run(args) -> int:
    from .config import load_scenario
    from .eventlog import EventLog

    scenario = _apply_seed(load_scenario(args.scenario), args.seed)
    mode = args.mode or scenario.mode
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[list] = []
    snapshots: Iterable[str] = ()
    with open(out / "events.ndjson", "w", encoding="utf-8", newline="\n") as fh:
        log = EventLog(fh.write)
        if mode in ("ri", "both"):
            ri = run_ri(scenario, log)
            rows.extend(_metrics_rows("ri", scenario, ri))
            snapshots = ri.center.snapshots()
        if mode in ("ti", "both"):
            ti = run_ti(scenario, log)
            rows.extend(_metrics_rows("ti", scenario, ti))
    write_ledger_snapshots(out / "ledgers.ndjson", snapshots)
    write_csv(out / "metrics.csv", METRICS_HEADER, rows)
    print(f"wrote {log.seq} events for {len(rows)} meter rows to {out}")
    return 0


def _cmd_sweep(args) -> int:
    from .config import load_scenario, parse_sweep_values, single_kind
    from .simulation import detail_sweep, rmse_text

    scenario = _apply_seed(load_scenario(args.scenario), args.seed)
    kind = single_kind(scenario) if args.param == "dr" else None
    values = parse_sweep_values(args.param, args.values, kind)
    rows = detail_sweep(scenario, args.param, values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", SWEEP_HEADER, [
        [r.value, r.label, rmse_text(r.mean_square_du), r.message_count, r.bytes_sent]
        for r in rows
    ])
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def _cmd_compare(args) -> int:
    from .config import load_scenario
    from .eventlog import EventLog
    from .simulation import compare_runs, rmse_text

    scenario = _apply_seed(load_scenario(args.scenario), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "events.ndjson", "w", encoding="utf-8", newline="\n") as fh:
        ri, _, rows = compare_runs(scenario, EventLog(fh.write))
    write_ledger_snapshots(out / "ledgers.ndjson", ri.center.snapshots())
    write_csv(out / "compare.csv", COMPARE_HEADER, [
        [
            r.mode, f"{r.meter_id:#x}", r.message_count, r.bytes_sent,
            rmse_text(r.mean_square_du),
            r.battery_lifetime_ms if r.battery_lifetime_ms is not None else "",
        ]
        for r in rows
    ])
    print(f"wrote {len(rows)} comparison rows to {out / 'compare.csv'}")
    return 0


def _cmd_replay(args) -> int:
    from .eventlog import check_ledger_lines

    rundir = Path(args.rundir)
    ledgers = replay_center(read_events(rundir / "events.ndjson")).ledgers()
    mismatches = 0
    for where in check_ledger_lines(rundir / "ledgers.ndjson", ledgers):
        print(f"replay mismatch at {where}", file=sys.stderr)
        mismatches += 1
    if mismatches:
        return 1
    print(f"replay ok: {len(ledgers)} ledgers match")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # risim has no global options, so the first argument names the command;
    # a missing or unknown one loads nothing and falls to argparse's error
    _load(argv[0] if argv else None)
    args = _build_parser().parse_args(argv)
    from .domain import ConfigError
    from .eventlog import MalformedLog

    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "replay": _cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MalformedLog as exc:
        print(f"malformed log: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
