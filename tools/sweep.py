"""Order sweep of the `ovc` command line.

Runs, one process at a time,

    ovc cumulants --kind K --word a.a.a.a.a.a.a.a --order 8   for every kind
    ovc verify --suite S --order N    for S in shuffle, splitting, N = 4..8

and prints one JSON line per run with its exit code, wall time, CPU time
(user plus system) and peak RSS, the last two from ``os.wait4`` on the
run's process.  Each run is killed after ``TIMEOUT_S`` (120) seconds; a
killed run is a result (``"timed_out": true``, exit code null), not a
skipped one.

The program comes from the ``src`` directory next to this script's parent
and runs in an empty temporary directory, so nothing else in the checkout
is read:

    python tools/sweep.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# The kinds come from the program under SRC, the one the sweep runs.
sys.path.insert(0, str(SRC))
from ovc.ncpart import KINDS

SUITES = ("shuffle", "splitting")
ORDERS = range(4, 9)
CUMULANT_WORD = ".".join("a" * 8)
TIMEOUT_S = 120.0


def runs():
    for kind in KINDS:
        yield {"command": "cumulants", "kind": kind, "order": 8}, [
            "cumulants", "--kind", kind, "--word", CUMULANT_WORD, "--order", "8",
        ]
    for suite in SUITES:
        for order in ORDERS:
            yield {"command": "verify", "suite": suite, "order": order}, [
                "verify", "--suite", suite, "--order", str(order),
            ]


def run_one(argv, timeout, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "ovc.cli"] + argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = []

    def kill():
        # Popen.kill polls first, so it sends nothing once wait4 has reaped the run
        killed.append(True)
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = bool(killed) and os.WIFSIGNALED(status)
    return {
        "exit": None if timed_out else proc.returncode,
        "timed_out": timed_out,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 2),
    }


def main() -> int:
    if sys.argv[1:]:
        print("usage: python tools/sweep.py  (takes no arguments)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cwd:
        for facts, cli_args in runs():
            facts.update(run_one(cli_args, TIMEOUT_S, cwd))
            facts["timeout_s"] = TIMEOUT_S
            print(json.dumps(facts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
