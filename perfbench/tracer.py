"""Self-time tracing of risim's layers from outside the package.

Each target names a public callable of a ``risim`` module and the place
its caller looks it up (``risim.simulation.broadcast``, not
``risim.concentrator.broadcast``), so patching that name intercepts every
call the engine makes.  A span's self time is its duration minus the time
of the traced spans it encloses.  Generators (``MeterRun.events``) are
timed step by step, so the schedule's time is charged to the meter layer
even though the engine pulls from it.

Run as a script it executes one ``risim`` CLI command under tracing and
writes the totals as JSON::

    python3 perfbench/tracer.py --dump trace.json -- run SCENARIO --out DIR
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (span key, module, attribute path).  Keys shared by several targets
#: add up; see layers.py for what each one feeds.
TARGETS = (
    ("traces.generate", "risim.simulation", "generate_trace"),
    ("traces.cumulative", "risim.traces", "ConsumptionTrace.cumulative_du"),
    ("meter.schedule", "risim.meter", "MeterRun.events"),
    ("concentrator.broadcast", "risim.simulation", "broadcast"),
    ("concentrator.broadcast", "risim.simulation", "receive"),
    ("domain.encode", "risim.simulation", "encode_frame"),
    ("domain.encode", "risim.center", "encode_frame"),
    ("domain.decode", "risim.eventlog", "decode_frame"),
    ("center.ingest", "risim.center", "MonitoringCenter.ingest"),
    ("center.snapshot", "risim.center", "MonitoringCenter.snapshots"),
    ("center.reconstruct", "risim.center", "MonitoringCenter.reconstruct_all"),
    ("simulation.run_ri", "risim.cli", "run_ri"),
    ("simulation.run_ti", "risim.cli", "run_ti"),
    ("simulation.metrics", "risim.simulation", "reconstruction_steps"),
    ("simulation.metrics", "risim.simulation", "_step_mean_square"),
    ("eventlog.write", "risim.cli", "write_events"),
    ("eventlog.write", "risim.cli", "write_ledger_snapshots"),
    ("eventlog.write", "risim.cli", "write_csv"),
    ("eventlog.read", "risim.cli", "read_events"),
    ("eventlog.replay", "risim.cli", "replay_center"),
)

class Tracer:
    """Accumulates per-key calls, inclusive time and self time."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self.missing_keys: set[str] = set()
        self._stack: list[list] = []   # open spans: [start, time of traced children]

    def wrap(self, key: str, fn):
        """``fn`` timed as a span named ``key``; a generator per step.

        The traces generated under ``traces.generate`` are also counted by
        their breakpoints.
        """
        stack, calls = self._stack, self.calls
        total_s, self_s, clock = self.total_s, self.self_s, perf_counter

        def close(span: list) -> None:
            took = clock() - span[0]
            stack.pop()
            total_s[key] += took
            self_s[key] += took - span[1]
            if stack:
                stack[-1][1] += took

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[key] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = [clock(), 0.0]
                    stack.append(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(span)
                    yield item
            return gen_wrapper

        counts_breakpoints = key == "traces.generate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            span = [clock(), 0.0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if counts_breakpoints:
                self.counts["breakpoints"] += len(result.breakpoints)
            return result
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Patch every target; a name that cannot be found is recorded as missing."""
        for key, module, path in targets:
            owner_path, _, attr = f"{module}.{path}".rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in owner_path[len(module):].split(".")[1:]:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                self.missing_keys.add(key)
                continue
            setattr(owner, attr, self.wrap(key, fn))

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "missing": self.missing,
            "missing_keys": sorted(self.missing_keys),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True, help="where to write the totals")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- risim arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = Tracer()
    tracer.install()
    from risim.cli import main as risim_main
    code = risim_main(cli_args)
    with open(args.dump, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
