"""Run/replay benchmark of risim on generated workloads.

    python3 perfbench/run.py --workload district_week --seed 1 --seconds 36 --trace 0

The workload seed generates a scenario file.  In a closed loop (one client,
one process at a time, no threads) the benchmark runs ``risim run SCENARIO
--out DIR`` and then ``risim replay DIR``, each in a fresh interpreter, and
gates every repetition on the artifacts: replay exits 0, lost quanta are
recovered exactly, and the three artifacts are byte-identical across
repetitions.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see layers.py) next to
untraced runs of the same scenario.  The shipped scenarios go through the
same gate once per invocation, untimed.  Each metric is printed with its
unit and sample count as the median over the run's repetitions, beside the
maximum: a run has too few samples for a tail percentile with ten samples
beyond it.  The end-to-end times are calibrated, not wall times: each is
a wall time scaled by CALIBRATION_REFERENCE_S over the time of a fixed
Python loop timed around its repetition (see CALIBRATION_SNIPPET), which
reads as seconds on the machine the reference was taken on.  Hence the
unit ``cal_s`` of ``run_cal_s`` and ``replay_cal_s``; ``setup_s`` is
calibrated the same way.  The wall times themselves are printed as
``wall.setup_s``, ``wall.run_s`` and ``wall.replay_s``, and ``--trace 1``
reports them as metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the medians).

``--smoke`` runs tiny sizes of every workload, untraced and traced.
``--holdout-seed`` measures a second seed as well and prints it as its own
block, so a claim can be checked on a seed not used while making it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import artifacts
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: interpreter starts timed for setup_s before every repetition, so that
#: the samples spread over the whole run
SETUP_PER_REP = 2
#: repetitions made however short --seconds is: byte identity needs two
MIN_REPS = 2
#: a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 60

E2E = (
    ("setup_s", "s"),
    ("run_cal_s", "cal_s"),
    ("replay_cal_s", "cal_s"),
    ("peak_rss_mb", "MB"),
    ("replay_peak_rss_mb", "MB"),
    ("events_mb", "MB"),
)

SETUP_SNIPPET = "import sys, risim, risim.config; risim.config.load_scenario(sys.argv[1])"
#: the warm-up also compiles the CLI module, which the timed children import
WARMUP_SNIPPET = SETUP_SNIPPET + "; import risim.cli"

#: A fixed pure-Python loop timed in a fresh interpreter between repetitions.
#: The speed of a shared virtual machine drifts by a third or more over
#: minutes; risim's times and this loop's drift together (per-sample
#: correlation 0.7 on a 2-vCPU VM), so the end-to-end times are scaled by
#: CALIBRATION_REFERENCE_S over the loop's time around each repetition.  On
#: that VM, for back-to-back runs of one scenario, the IQR/median of 30 s
#: window medians fell from 0.28 unscaled to 0.04 scaled.
CALIBRATION_SNIPPET = "s = 0\nfor i in range(2_000_000):\n    s += i * i % 7"
#: the loop's median time on the machine the benchmark was written on
#: (2-vCPU Xeon VM, Python 3.11), so scaled times read as seconds there
CALIBRATION_REFERENCE_S = 0.35
#: calibrated end-to-end time -> the wall time it scales, as named in output
WALL = {"setup_s": "wall.setup_s", "run_cal_s": "wall.run_s", "replay_cal_s": "wall.replay_s"}


@dataclass
class Child:
    """One finished child process: exit code, wall time, its own peak RSS."""

    code: int
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RI_SIM_SEED"}
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class Launcher:
    """Handle on launcher.py, which spawns every child and reports its rusage."""

    def __init__(self) -> None:
        self._env = child_env()
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def spawn(self, argv: list[str], log: Path) -> Child:
        request = {"argv": argv, "log": str(log), "env": self._env,
                   "cwd": str(ROOT), "timeout_s": CHILD_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Child(reply["code"], reply["wall_s"], reply["maxrss_kb"] * 1024 / 1e6)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scenario_facts(scenario: Path) -> artifacts.ScenarioFacts:
    from risim.config import load_scenario
    return artifacts.ScenarioFacts.from_scenario(load_scenario(scenario))


def log_tail(log: Path, lines: int = 3) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


@dataclass
class Rep:
    """One repetition: run and replay children, artifact hashes, gate."""

    run: Child
    replay: Child | None
    hashes: dict
    gate: artifacts.Gate
    trace: dict | None = None


@dataclass
class Measurement:
    label: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    lines: list[str] = field(default_factory=list)

    def record(self, failures: list[str]) -> None:
        """Count one operation; it failed if any check named a failure."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.lines.extend(f"FAILED {self.label}: {f}" for f in failures)


class Bench:
    """Runs repetitions of one scenario and caches the gate per artifact hash."""

    def __init__(self, launcher: Launcher, scenario_dir: Path) -> None:
        self.launcher = launcher
        self.dir = scenario_dir
        self._gates: dict[tuple, artifacts.Gate] = {}

    def setup_time(self, scenario: Path, snippet: str = SETUP_SNIPPET) -> Child:
        """Interpreter start, ``import risim`` and loading the scenario file."""
        return self.launcher.spawn([sys.executable, "-c", snippet, str(scenario)],
                                   self.dir / "setup.log")

    def calibrate(self) -> Child:
        return self.launcher.spawn([sys.executable, "-c", CALIBRATION_SNIPPET],
                                   self.dir / "calibration.log")

    def rep(self, scenario: Path, facts, out: Path, traced: bool) -> Rep:
        shutil.rmtree(out, ignore_errors=True)
        art = out / "artifacts"
        art.mkdir(parents=True)

        def command(name: str) -> list[str]:
            if traced:
                return [sys.executable, str(HERE / "tracer.py"),
                        "--dump", str(out / f"{name}.trace.json"), "--"]
            return [sys.executable, "-m", "risim.cli"]

        failures: list[str] = []
        run = self.launcher.spawn(command("run") + ["run", str(scenario), "--out", str(art)],
                                  out / "run.log")
        if run.code != 0:
            failures.append(f"run_exit: code {run.code}: {log_tail(out / 'run.log')}")
            return Rep(run, None, {}, artifacts.Gate(failures=failures))
        replay = self.launcher.spawn(command("replay") + ["replay", str(art)], out / "replay.log")
        if replay.code != 0:
            failures.append(f"replay_exit: code {replay.code}: {log_tail(out / 'replay.log')}")
        hashes = artifacts.sha256s(art)
        key = tuple(hashes.values())
        if key not in self._gates:
            self._gates[key] = artifacts.inspect_run(art, facts)
        gate = self._gates[key]
        trace = None
        if traced:
            dumps = [json.loads((out / f"{n}.trace.json").read_text()) for n in ("run", "replay")
                     if (out / f"{n}.trace.json").exists()]
            trace = layers.merge_dumps(dumps)
        return Rep(run, replay, hashes,
                   artifacts.Gate(gate.counters, failures + gate.failures, gate.shortfalls),
                   trace)


def _summary(name: str, values: list[float], unit: str) -> str:
    return (f"  {name:<22} median {statistics.median(values):.4f} {unit}, "
            f"max {max(values):.4f} (n={len(values)})")


def _artifact_lines(label: str, rep: Rep) -> list[str]:
    """Hashes, counters and exact-recovery shortfalls of one repetition."""
    lines = [f"  {label}artifacts: " + " ".join(f"{k}={v}" for k, v in rep.hashes.items()),
             f"  {label}counters:  " + json.dumps(rep.gate.counters, sort_keys=True)]
    if rep.gate.shortfalls:
        lines.append(f"  {label}check exact_recovery SHORT by "
                     f"{rep.gate.counters['unrecovered_quanta']} quanta "
                     "(listed, not counted in failed):")
        lines += [f"    {s}" for s in rep.gate.shortfalls]
    return lines


def _rep_failures(rep: Rep, first: Rep | None, first_traced: Rep | None) -> list[str]:
    """The gate's failures plus byte identity against the first repetition."""
    failures = list(rep.gate.failures)
    what = "traced run" if rep.trace is not None else "repetition"
    if first is not None and rep.hashes:
        for name, digest in rep.hashes.items():
            if digest != first.hashes.get(name):
                failures.append(f"byte_identity {name}: {what} differs from the first repetition")
        if rep.gate.counters != first.gate.counters:
            failures.append(f"counters: {what} differs from the first repetition")
    if rep.trace is not None and first_traced is not None and first_traced.trace is not None:
        for part in ("calls", "counts"):
            if rep.trace[part] != first_traced.trace[part]:
                failures.append(f"traced_counts: {part} differ between traced runs")
    return failures


@dataclass
class Round:
    """One untraced repetition with the samples timed before it."""

    calibration_s: float | None
    setups: list[float]
    rep: Rep


def measure(launcher: Launcher, workload: str, seed: int, seconds: float,
            trace: bool, smoke: bool = False, tag: str = "") -> Measurement:
    """Closed-loop repetitions of one workload for about ``seconds``.

    Each untraced repetition is preceded by a calibration sample and setup
    samples; traced, it is followed by a traced one of the same scenario.
    """
    m = Measurement(f"{tag}{workload} seed={seed} trace={int(trace)}")
    wdir = WORK / f"{workload}-{seed}-{'smoke' if smoke else 'full'}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    scenario = wdir / "scenario.json"
    scenario.write_text(
        json.dumps(workloads.WORKLOADS[workload](seed, smoke), indent=1, sort_keys=True),
        encoding="utf-8",
    )
    bench = Bench(launcher, wdir)
    facts = scenario_facts(scenario)

    def sample(child: Child, what: str, log: str) -> float | None:
        """Record one timed helper child as an operation; its time if it passed."""
        ok = child.code == 0
        m.record([] if ok else [f"{what}_exit: code {child.code}: {log_tail(wdir / log)}"])
        return child.wall_s if ok else None

    bench.setup_time(scenario, WARMUP_SNIPPET)
    rounds: list[Round] = []
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.perf_counter()
    last = 0.0
    while len(plain) < MIN_REPS or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        calibration = sample(bench.calibrate(), "calibration", "calibration.log")
        setups = [sample(bench.setup_time(scenario), "setup", "setup.log")
                  for _ in range(SETUP_PER_REP)]
        for is_traced in ((False, True) if trace else (False,)):
            idx = len(plain) + len(traced)
            rep = bench.rep(scenario, facts, wdir / f"rep{idx}", is_traced)
            shutil.rmtree(wdir / f"rep{idx - 2}", ignore_errors=True)  # bound the disk used
            m.record(_rep_failures(rep, plain[0] if plain else None,
                                   traced[0] if traced else None))
            (traced if is_traced else plain).append(rep)
        rounds.append(Round(calibration, [t for t in setups if t is not None], plain[-1]))
        last = time.perf_counter() - t0

    if plain[0].hashes:
        m.lines += _artifact_lines("", plain[0])
    closing = sample(bench.calibrate(), "calibration", "calibration.log")
    raw, scaled = _samples(rounds, closing)
    if not trace:
        _end_to_end(m, raw, scaled)
        return m
    pairs = [(p, t) for p, t in zip(plain, traced)
             if p.replay is not None and t.replay is not None and t.trace is not None]
    if pairs:
        _per_layer(m, pairs, raw)
    return m


def _samples(rounds: list[Round], closing: float | None) -> tuple[dict, dict]:
    """Raw samples of every end-to-end metric, and the calibrated times.

    A repetition's scale is CALIBRATION_REFERENCE_S over the mean of the
    calibration samples taken just before and just after it.  The raw
    times are wall seconds, keyed by their names in WALL.
    """
    calibrations = [r.calibration_s for r in rounds] + [closing]
    raw: dict[str, list[float]] = {name: [] for name, _ in E2E}
    raw.update({wall: [] for wall in WALL.values()})
    scaled: dict[str, list[float]] = {name: [] for name in WALL}
    for i, r in enumerate(rounds):
        if r.rep.replay is None:
            continue
        raw["peak_rss_mb"].append(r.rep.run.rss_mb)
        raw["replay_peak_rss_mb"].append(r.rep.replay.rss_mb)
        raw["events_mb"].append(r.rep.gate.counters["events_bytes"] / 1e6)
        around = calibrations[i:i + 2]
        if None in around:
            continue
        scale = CALIBRATION_REFERENCE_S / statistics.mean(around)
        for name, values in (("setup_s", r.setups), ("run_cal_s", [r.rep.run.wall_s]),
                             ("replay_cal_s", [r.rep.replay.wall_s])):
            raw[WALL[name]] += values
            scaled[name] += [v * scale for v in values]
    raw["calibration"] = [c for c in calibrations if c is not None]
    return raw, scaled


def _end_to_end(m: Measurement, raw: dict, scaled: dict) -> None:
    """Medians of the repetitions, each wall time printed under its calibrated one."""
    for name, unit in E2E:
        values = scaled.get(name) or raw.get(name)
        if not values:
            continue
        m.metrics[name] = (statistics.median(values), unit)
        m.lines.append(_summary(name, values, unit))
        if raw.get(WALL.get(name)):
            m.lines.append(_summary(WALL[name], raw[WALL[name]], "s"))
    known = raw["calibration"]
    if known:
        m.lines.append(
            f"  calibration loop: median {statistics.median(known):.4f} s "
            f"(n={len(known)}), reference {CALIBRATION_REFERENCE_S} s"
        )


def _per_layer(m: Measurement, pairs: list[tuple[Rep, Rep]], raw: dict) -> None:
    """Per-layer values of the traced runs; overhead from adjacent pairs.

    Each untraced run is followed by a traced one, so the median of their
    differences leaves out the machine's slow drift.  The wall times of the
    untraced runs are reported beside them.
    """
    traced = [t for _, t in pairs]
    untraced_run_s = statistics.median([p.run.wall_s for p, _ in pairs])
    overhead = statistics.median([t.run.wall_s - p.run.wall_s for p, t in pairs])
    per_rep = [layers.layer_metrics(r.trace, r.gate.counters, overhead) for r in traced]
    for name, unit, *_ in layers.PER_LAYER:
        if name in raw:
            values = raw[name]
        else:
            values = [v[name] for v in per_rep if name in v]
        if not values:
            m.lines.append(f"  {name:<30} MISSING (a traced callable was not found)")
            continue
        # counts repeat exactly across traced runs (checked); times vary
        value = statistics.median(values) if unit == "s" else values[0]
        m.metrics[name] = (value, unit)
        m.lines.append(f"  {name:<30} {value:.6g} {unit} (n={len(values)})")
    if traced[0].trace["missing"]:
        m.lines.append(f"  tracer could not patch: {', '.join(traced[0].trace['missing'])}")
    m.lines.append(
        f"  tracing overhead: median of traced - untraced wall.run_s = {overhead:.4f} s "
        f"on an untraced median of {untraced_run_s:.4f} s "
        f"(n={len(pairs)} pairs)"
    )


def shipped_pass(launcher: Launcher) -> Measurement:
    """Each shipped scenario once through run, replay and the gate, untimed."""
    m = Measurement("shipped")
    wdir = WORK / "shipped"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    bench = Bench(launcher, wdir)
    for name in workloads.SHIPPED:
        scenario = ROOT / "scenarios" / name
        if not scenario.is_file():
            m.record([f"{name}: scenario file missing"])
            continue
        rep = bench.rep(scenario, scenario_facts(scenario), wdir / name, traced=False)
        m.record([f"{name} {f}" for f in rep.gate.failures])
        if rep.hashes:
            m.lines += _artifact_lines(f"{name} ", rep)
    return m


def environment(args) -> dict:
    try:
        load1 = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load1 = None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "loadavg_1min": load1,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one child process at a time, no threads",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (ROOT / "src" / "risim" / "__init__.py").is_file():
        print(f"perfbench: no risim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    if args.smoke:
        runs = [(w, args.seed, 0.0, t, "") for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, args.seed, args.seconds, bool(args.trace), "")]
        if args.holdout_seed is not None:
            runs.append((args.workload, args.holdout_seed, args.seconds,
                         bool(args.trace), "holdout "))
    metrics: dict = {}
    with Launcher() as launcher:
        results = [shipped_pass(launcher)]
        for workload, seed, seconds, trace, tag in runs:
            m = measure(launcher, workload, seed, seconds, trace, args.smoke, tag)
            results.append(m)
            if args.smoke:
                metrics.update({f"{workload}/{k}": v for k, v in m.metrics.items()})
            elif not tag:
                metrics = m.metrics
    for m in results:
        print(f"{m.label}: {m.attempted} attempted, {m.failed} failed")
        for line in m.lines:
            print(line)
    attempted = sum(m.attempted for m in results)
    failed = sum(m.failed for m in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
