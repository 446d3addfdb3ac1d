"""Child-process launcher for the benchmark.

A process started with fork or vfork inherits its parent's peak RSS as a
floor for its own ``ru_maxrss``.  The benchmark's main process holds
parsed artifacts and numpy, so it starts this small process first and has
it spawn every timed child; the rusage that ``wait4`` returns then belongs
to the child alone.

The launcher pins itself, and so every child, to one CPU: the highest
numbered one it may use.  In a virtual machine each vCPU meets its own
contention on the host, and a child that migrates between vCPUs picks up
both; on a 2-vCPU VM the IQR/median of back-to-back runs of one scenario
was 0.31 unpinned and 0.14 to 0.23 pinned.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "log":
PATH, "env": {...}, "cwd": PATH, "timeout_s": N}``; one JSON reply per line
on stdout, ``{"code": N, "wall_s": X, "maxrss_kb": N}``.  A child still
running at its timeout is killed and reported with its kill status.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], log: str, env: dict, cwd: str, timeout_s: int) -> dict:
    start = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=cwd)
    signal.alarm(timeout_s)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _alarm)
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["log"], req["env"], req["cwd"], req["timeout_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
