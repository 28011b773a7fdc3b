"""`tools/sweep.py` runs each sweep command in its own process and records
its exit code, wall time, CPU time and peak RSS; a run that outlives its
timeout is recorded as a result, not dropped."""

import importlib.util
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_sweep_covers_every_kind_and_order(sweep):
    facts = [f for f, _ in sweep.runs()]
    assert [f["kind"] for f in facts if f["command"] == "cumulants"] == [
        "moment", "free", "boolean", "monotone",
    ]
    verify = [(f["suite"], f["order"]) for f in facts if f["command"] == "verify"]
    assert verify == [(s, n) for s in ("shuffle", "splitting") for n in range(4, 9)]


def test_a_timeout_is_recorded(sweep, tmp_path):
    done = sweep.run_one(["enumerate", "3"], timeout=60, cwd=tmp_path)
    assert done["exit"] == 0 and done["timed_out"] is False
    killed = sweep.run_one(["verify", "--suite", "splitting", "--order", "8"], timeout=0.5, cwd=tmp_path)
    assert killed["exit"] is None and killed["timed_out"] is True
    assert killed["wall_s"] >= 0.5
    for run in (done, killed):
        assert set(run) == {"exit", "timed_out", "wall_s", "cpu_s", "peak_rss_mb"}
        assert run["cpu_s"] >= 0 and run["peak_rss_mb"] > 0
