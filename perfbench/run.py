"""Benchmark of the `ovc` command line, driven from outside.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from its `src`.  Every
sample is a fresh `ovc` process, so caches the program keeps are paid for the
way users pay for them on each invocation.  At most one child runs at a time.

--trace 0 runs rounds of one calibration, one set-up timing and one sample
for S seconds and reports the end-to-end metrics, each time scaled by the
calibration of its round.  --trace 1 alternates plain and traced samples (see
trace_child.py) for S seconds and reports the per-layer metrics.  Either way
the last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the details (seed, machine, quartiles,
per-sample records), which also go to perfbench/out/.  README.md explains
the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Each workload is one `ovc` command; README.md records why it was chosen.
# Samples are kept to a few seconds so that a run's median rests on many of
# them and a traced run stays well inside the time limit.
WORKLOADS = {
    "exact-partitions": ["verify", "--suite", "hopf,operad", "--order", "2"],
    "exact-letters": ["verify", "--suite", "splitting,shuffle", "--order", "3"],
    "mc-basis": ["verify", "--suite", "moment-cumulant", "--order", "3"],
    "cumulant-probes": ["cumulants", "--kind", "free", "--word", "a.a.a.a.a.a", "--order", "6"],
}
CONTROL = ["verify", "--suite", "moment-cumulant", "--order", "2", "--inject-fault"]

# About calibrate.py's time on the machine the benchmark was made on, in
# seconds.  End-to-end times are reported as if the calibration just before
# each timing had taken this long.
CALIBRATION_S = 0.5
SETUP_REPEATS = 5
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # the whole invocation must end within 180 s
DEV_NOISE = 1e-10  # |dev - reference dev| allowed: a tenth of the loosest row tol
VALUE_RTOL = 1e-8  # cumulant values vs the oracle, relative to the largest entry
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def per_layer_metrics() -> list:
    """(name, unit) of each per-layer metric, as BENCHMARK.json lists them.
    Span names come from trace_child.py."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def make_config(seed: int) -> dict:
    """The run configuration for one seed; variable names stay `a` and `b`."""
    rng = random.Random(seed)
    return {
        "d": 2,
        "k": 2,
        "variables": {
            "a": {"seed": rng.randrange(1, 2**31), "hermitian": True},
            "b": {"seed": rng.randrange(1, 2**31), "hermitian": True},
        },
        "tolerance": 1e-9,
        "seed": rng.randrange(1, 2**31),
    }


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class Runner:
    """Spawns one child at a time and measures it from spawn to exit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, argv: list) -> dict:
        """Runs ``argv`` to its end, killing it at the deadline.  Returns its
        exit code, output, wall time, CPU time and peak RSS.  Past the
        deadline nothing is started, and the times are None."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"timeout": True, "code": None, "stdout": "", "stderr": "",
                    "wall_s": None, "cpu_s": None, "peak_rss_mb": None}
        out_path = OUT / ("child-%d.out" % os.getpid())
        err_path = OUT / ("child-%d.err" % os.getpid())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            lock, reaped, killed = threading.Lock(), [False], [False]

            def kill():
                with lock:
                    if not reaped[0]:
                        killed[0] = True
                        proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                with lock:
                    reaped[0] = True
                    proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        stdout, stderr = out_path.read_text(), err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return {
            "timeout": killed[0],
            "code": proc.returncode,
            "stdout": stdout,
            "stderr": stderr[-2000:],
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    def ovc(self, args: list, config_path: Path) -> dict:
        return self.run([sys.executable, "-m", "ovc.cli", *args, "--config", str(config_path)])


# ---------------------------------------------------------------------------
# Correctness


def load_reference(workload: str) -> dict:
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)[workload]


def verify_summary(report: dict) -> dict:
    """The seed-independent shape of a verify report, as kept in reference.json."""
    return {
        "passed": report["passed"],
        "suites": [
            {
                "suite": s["suite"],
                "passed": s["passed"],
                "rows": [
                    {k: row[k] for k in ("id", "passed", "exact", "tol", "dev")}
                    for row in s["assertions"]
                ],
            }
            for s in report["suites"]
        ],
    }


def check_verify(report: dict, reference: dict, args: list, config: dict):
    """Returns None when the report matches the reference, else the reason."""
    want_config = {
        "d": config["d"],
        "k": config["k"],
        "max_order": int(args[args.index("--order") + 1]),
        "seed": config["seed"],
        "suites": sorted(args[args.index("--suite") + 1].split(",")),
        "tolerance": config["tolerance"],
        "fault_injected": False,
    }
    if report.get("config") != want_config:
        return "config echo %r != %r" % (report.get("config"), want_config)
    got = verify_summary(report)
    if got["passed"] is not True or reference["passed"] is not True:
        return "report did not pass"
    if [s["suite"] for s in got["suites"]] != [s["suite"] for s in reference["suites"]]:
        return "suites differ"
    for gs, rs in zip(got["suites"], reference["suites"]):
        if gs["passed"] != rs["passed"] or len(gs["rows"]) != len(rs["rows"]):
            return "suite %s differs" % gs["suite"]
        for g, r in zip(gs["rows"], rs["rows"]):
            if any(g[k] != r[k] for k in ("id", "passed", "exact", "tol")):
                return "row %s differs: %r vs %r" % (r["id"], g, r)
            if (g["dev"] is None) != (r["dev"] is None):
                return "row %s dev presence differs" % r["id"]
            if g["dev"] is not None and not abs(g["dev"] - r["dev"]) <= DEV_NOISE:
                return "row %s dev %r vs %r" % (r["id"], g["dev"], r["dev"])
    return None


def cumulant_reference(args: list, config: dict) -> dict:
    """Expected `ovc cumulants` output, values from the independent oracle."""
    sys.path.insert(0, str(SRC))
    from ovc.cli import RunConfig
    from ovc.ovps import probe_batch

    from oracle import FreeCumulantOracle

    word = args[args.index("--word") + 1]
    arity = len(word.split(".")) + 1
    run_config = RunConfig(config)
    space = run_config.build_space()
    probes = probe_batch(space.d, arity, seed=run_config.seed)
    oracle = FreeCumulantOracle(space.variable(0), space.d, space.k)
    return {
        "kind": args[args.index("--kind") + 1],
        "word": word,
        "arity": arity,
        "d": space.d,
        "k": space.k,
        "basis": "probes",
        "values": oracle.free_cumulant(probes),
    }


def check_cumulants(report: dict, reference: dict):
    for key in ("kind", "word", "arity", "d", "k", "basis"):
        if report.get(key) != reference[key]:
            return "%s %r != %r" % (key, report.get(key), reference[key])
    want = reference["values"]
    got = np.array([[[complex(re, im) for re, im in row] for row in m] for m in report["values"]])
    if got.shape != want.shape:
        return "values shape %r != %r" % (got.shape, want.shape)
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= VALUE_RTOL * scale:
        return "values off by %.3g (scale %.3g)" % (err, scale)
    return None


def judge(sample: dict, check) -> dict:
    """Marks a sample ok or failed: exit code 0 and a matching report."""
    reason = None
    if sample["timeout"]:
        reason = "timeout" if sample["wall_s"] is not None else "deadline passed before start"
    elif sample["code"] != 0:
        reason = "exit code %r: %s" % (sample["code"], sample["stderr"][-300:])
    else:
        try:
            reason = check(json.loads(sample["stdout"]))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = "unreadable report: %r" % (exc,)
    sample["ok"] = reason is None
    sample["reason"] = reason
    del sample["stdout"], sample["stderr"]
    return sample


def negative_control(runner: Runner, config_path: Path) -> dict:
    """--inject-fault must make `ovc verify` exit 1 with "passed": false."""
    res = runner.ovc(CONTROL, config_path)
    try:
        passed = json.loads(res["stdout"])["passed"]
    except (ValueError, KeyError, TypeError):
        passed = None
    return {"code": res["code"], "passed": passed, "ok": res["code"] == 1 and passed is False}


# ---------------------------------------------------------------------------
# Measurement


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"p25": values[0], "median": values[0], "p75": values[0]}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "median": statistics.median(values), "p75": q[2]}


def median_wall(samples: list):
    """Median wall time of the samples that started, or None."""
    walls = [s["wall_s"] for s in samples if s["wall_s"] is not None]
    return statistics.median(walls) if walls else None


def helper_time(runner: Runner, script: str, *args):
    """Wall time of one calibrate.py or setup_child.py child, or None if the
    deadline cut it off."""
    res = runner.run([sys.executable, str(BENCH / script), *args])
    if res["timeout"]:
        return None
    if res["code"] != 0:
        raise BenchError("%s failed: %s" % (script, res["stderr"][-500:]))
    return res["wall_s"]


def for_seconds(seconds: float, step) -> None:
    """Calls ``step`` until the next call would end after ``seconds``, judged
    by the slowest call so far, but at least MIN_ROUNDS times.  ``step``
    returns False to stop at once (a child timed out)."""
    durations = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        go_on = step()
        durations.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if not go_on or (len(durations) >= MIN_ROUNDS and elapsed + max(durations) > seconds):
            return


def end_to_end(runner, args, config_path, seconds, check, details) -> dict:
    """Rounds of one calibration, one set-up and one sample; set-up is topped
    up to SETUP_REPEATS timings.  The machine's speed swings within seconds
    (README.md), so every set-up and sample time is scaled by CALIBRATION_S
    over the time of the calibration just before it, and the metrics are
    medians of scaled times.  Once the deadline has passed nothing more is
    started: a sample it cut off counts as failed and keeps its time, one it
    kept from starting counts as failed only."""
    setups, samples = [], []  # (calibration, set-up time) and (calibration, sample)

    def calibrated_setup():
        calibration = helper_time(runner, "calibrate.py")
        setup = None if calibration is None else helper_time(
            runner, "setup_child.py", str(config_path))
        if setup is not None:
            setups.append((calibration, setup))
        return setup is not None

    def step():
        if not calibrated_setup():
            return False
        samples.append((setups[-1][0], judge(runner.ovc(args, config_path), check)))
        return not samples[-1][1]["timeout"]

    for_seconds(seconds, step)
    while len(setups) < SETUP_REPEATS and calibrated_setup():
        pass
    started = [(c, s) for c, s in samples if s["wall_s"] is not None]
    if not started:
        raise BenchError("the deadline passed before a sample was timed")
    details["samples"] = [s for _, s in samples]
    details["calibration_s"] = [c for c, _ in setups]
    details["setup_s"] = {"raw": [t for _, t in setups],
                          **quartiles([t * CALIBRATION_S / c for c, t in setups])}
    metrics = {}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
        raw = [s[name] for _, s in started]
        if unit == "s":
            values = [v * CALIBRATION_S / c for v, (c, _) in zip(raw, started)]
        else:
            values = raw
        details[name] = {**quartiles(values), "n": len(values), "raw": quartiles(raw)}
        metrics[name] = {"value": details[name]["median"], "unit": unit}
    metrics["setup_s"] = {"value": details["setup_s"]["median"], "unit": "s"}
    return metrics


def layer_values(trace: dict, names: list) -> dict:
    calls, self_s, counts = trace["calls"], trace["self_s"], trace["counts"]
    suite_s = {name: end - start for name, start, end, _ in trace["spans"]}
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name.startswith("suite."):
            out[name] = suite_s.get(span, 0.0)
        elif name in ("ovps.leaf.calls", "ovps.leaf.tuples"):
            out[name] = counts.get(name, 0)
        elif name.startswith("ovps.basis."):
            out[name] = calls.get(name, 0)
        elif field == "distinct_ratio":
            out[name] = trace["cuts_distinct"] / calls[span] if calls.get(span) else 0.0
        elif field in ("calls", "built"):
            out[name] = calls.get(span, 0)
        elif field == "self_s":
            out[name] = self_s.get(span, 0.0)
    return out


def per_layer(runner, args, config_path, seconds, check, details) -> dict:
    """Alternates one plain and one traced sample.  Per-layer times are
    medians over the traced samples; every traced sample must repeat the
    counts of the first."""
    metrics = per_layer_metrics()
    names = [name for name, _ in metrics]
    plain, traced, traces = [], [], []
    trace_path = OUT / ("trace-%d.json" % os.getpid())

    def step():
        plain.append(judge(runner.ovc(args, config_path), check))
        res = runner.run([sys.executable, str(BENCH / "trace_child.py"), str(trace_path),
                          *args, "--config", str(config_path)])
        traced.append(judge(res, check))
        if trace_path.exists():
            with open(trace_path) as fh:
                traces.append(layer_values(json.load(fh), names))
            trace_path.unlink()
        elif traced[-1]["ok"]:
            traced[-1].update(ok=False, reason="no trace written")
        return not (plain[-1]["timeout"] or traced[-1]["timeout"])

    for_seconds(seconds, step)
    details["samples"] = plain + traced
    plain_wall = median_wall(plain)
    traced_wall = median_wall(traced)
    if not traces or plain_wall is None:
        raise BenchError("no traced sample finished before the deadline")
    count_names = [name for name, unit in metrics if unit in ("count", "ratio")]
    details["count_mismatch"] = [
        n for n in count_names if any(t[n] != traces[0][n] for t in traces[1:])
    ]
    details["plain_wall_s"], details["traced_wall_s"] = plain_wall, traced_wall
    values = {}
    for name, unit in metrics:
        if name == "trace.overhead_s":
            values[name] = traced_wall - plain_wall
        elif unit == "s":
            values[name] = statistics.median(t[name] for t in traces)
        else:
            values[name] = traces[0][name]
    return {name: {"value": values[name], "unit": unit} for name, unit in metrics}


def run(ns) -> tuple:
    started = time.monotonic()
    if not (SRC / "ovc" / "cli.py").is_file():
        raise BenchError("no ovc sources under %s" % SRC)
    args = WORKLOADS[ns.workload]
    OUT.mkdir(exist_ok=True)
    config = make_config(ns.seed)
    config_path = OUT / ("config-seed%d.json" % ns.seed)
    config_path.write_text(json.dumps(config, indent=1))
    if args[0] == "verify":
        reference = load_reference(ns.workload)
        check = lambda report: check_verify(report, reference, args, config)
    else:
        reference = cumulant_reference(args, config)
        check = lambda report: check_cumulants(report, reference)

    runner = Runner(deadline=started + RUN_LIMIT_S)
    details = {
        "workload": ns.workload,
        "command": ["ovc", *args, "--config", config_path.name],
        "seed": ns.seed,
        "config": config,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "machine": machine_facts(),
        "loadavg_start": os.getloadavg(),
    }
    details["negative_control"] = negative_control(runner, config_path)
    if ns.trace:
        metrics = per_layer(runner, args, config_path, ns.seconds, check, details)
    else:
        metrics = end_to_end(runner, args, config_path, ns.seconds, check, details)
    details["loadavg_end"] = os.getloadavg()

    samples = details["samples"]
    failed = sum(not s["ok"] for s in samples)
    details["fail_frac"] = failed / len(samples)
    correct = (
        failed == 0
        and details["negative_control"]["ok"]
        and not details.get("count_mismatch")
    )
    result = {"correct": correct, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    name = "result-%s-seed%d-trace%d.json" % (ns.workload, ns.seed, ns.trace)
    (OUT / name).write_text(json.dumps({**details, "result": result}, indent=1))
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    # A TERM signal unwinds like an exception, so the running child is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        details, result = run(ns)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
