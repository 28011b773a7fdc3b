import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ovc
from ovc import cli
from ovc.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, RunConfig, main
from ovc.ovps import deviation, elementary_batch, matrix_from_json, probe_batch
from reference_walk import walk_eval


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, ["enumerate", "4"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["count"] == 14
    code, out, _ = run(capsys, ["enumerate", "4", "--interval"])
    assert json.loads(out)["count"] == 8
    code, out, _ = run(capsys, ["enumerate", "0"])
    payload = json.loads(out)
    assert payload["count"] == 1 and payload["partitions"] == ["0"]


def test_enumerate_bound_error(capsys):
    code, out, _ = run(capsys, ["enumerate", "42"])
    assert code == EXIT_USAGE
    assert "error" in json.loads(out)


def test_enumerate_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OVC_MAX_ELEMENTS", "3")
    code, out, _ = run(capsys, ["enumerate", "4"])
    assert code == EXIT_USAGE
    monkeypatch.setenv("OVC_MAX_ELEMENTS", "11")
    code, out, _ = run(capsys, ["enumerate", "4"])
    assert code == EXIT_OK


def test_enumerate_negative_size_is_usage_error(capsys):
    code, out, err = run(capsys, ["enumerate", "-1"])
    assert code == EXIT_USAGE and out == ""
    assert "error" in json.loads(err)


def test_enumerate_non_integer_bound_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OVC_MAX_ELEMENTS", "abc")
    code, out, err = run(capsys, ["enumerate", "3"])
    assert code == EXIT_USAGE and out == ""
    assert "OVC_MAX_ELEMENTS" in json.loads(err)["error"]


def test_variable_spec_that_is_not_a_matrix_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variables": {"a": "x"}}))
    code, out, err = run(
        capsys, ["verify", "--config", str(cfg), "--suite", "operad"]
    )
    assert code == EXIT_USAGE and out == ""
    assert "'a'" in json.loads(err)["error"]


def _run_optimized(argv):
    """Run ``python -O`` so that any ``assert`` in the library is stripped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ovc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O"] + argv, capture_output=True, text=True, env=env,
        timeout=300,
    )


def test_fault_injection_fails_under_optimize():
    proc = _run_optimized(
        ["-m", "ovc.cli", "verify", "--suite", "moment-cumulant", "--order", "2",
         "--inject-fault"]
    )
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert json.loads(proc.stdout)["passed"] is False


def test_word_sum_mismatch_raises_under_optimize():
    proc = _run_optimized(["-c", """
from ovc.morphisms import WordSum
from ovc.ovps import DimensionMismatch, OVMatrixSpace, moment_map
space = OVMatrixSpace(d=2, k=2, variables=1)
try:
    WordSum(space, (2,), [(1, (moment_map(space, [0, 0]),))])
except DimensionMismatch:
    raise SystemExit(0)
raise SystemExit(3)
"""])
    assert proc.returncode == 0, proc.stderr


def test_bad_letters_are_rejected_under_optimize():
    proc = _run_optimized(["-c", """
from ovc import morphisms
from ovc.formal import PartitionWord
from ovc.ncpart import NCPartition
from ovc.ovps import OVMatrixSpace, moment_map
from ovc.winsert import WWord
rejected = []
for build in (PartitionWord, WWord):
    try:
        build(["x"])
    except TypeError:
        rejected.append(build.__name__)
space = OVMatrixSpace(d=1, k=1, variables=1)
morphisms.operadic_factorization = lambda pi: "x"
extension = morphisms.operadic_extension(space, lambda word: moment_map(space, word))
try:
    extension.letter_value(NCPartition([(1,)]))
except TypeError:
    rejected.append("factorization")
raise SystemExit(0 if rejected == ["PartitionWord", "WWord", "factorization"] else 3)
"""])
    assert proc.returncode == 0, proc.stderr


def test_cumulants_scalar_constant(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "k": 1, "variables": {"a": [[[2, 0]]]}}))
    code, out, _ = run(
        capsys, ["cumulants", "--kind", "moment", "--word", "a", "--config", str(cfg)]
    )
    payload = json.loads(out)
    assert code == EXIT_OK and payload["basis"] == "elementary"
    # one elementary tuple (b0 = b1 = 1): E(b0 a b1) = 2
    assert payload["values"] == [[[[2.0, 0.0]]]]


def test_cumulants_boolean_order_one_equals_free(capsys):
    _, out_b, _ = run(capsys, ["cumulants", "--kind", "boolean", "--word", "a"])
    _, out_f, _ = run(capsys, ["cumulants", "--kind", "free", "--word", "a"])
    assert json.loads(out_b)["values"] == json.loads(out_f)["values"]


def test_cumulants_free_matches_moment_difference(capsys):
    code, out, _ = run(capsys, ["cumulants", "--kind", "free", "--word", "a.a"])
    payload = json.loads(out)
    assert code == EXIT_OK
    space = RunConfig({}).build_space()
    from ovc.ovps import moment_map, multimap_partial

    e2 = moment_map(space, [0])
    e3 = moment_map(space, [0, 0])
    nested = multimap_partial(e2, 2, e2)
    batch = elementary_batch(space.d, 3)
    expected = e3.eval_batch(batch) - nested.eval_batch(batch)
    got = np.array([matrix_from_json(v) for v in payload["values"]])
    assert np.max(np.abs(got - expected)) <= 1e-10


def test_cumulants_elementary_values_match_tree_evaluation(capsys):
    code, out, _ = run(capsys, ["cumulants", "--kind", "free", "--word", "a.a"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["basis"] == "elementary"
    assert payload["arity"] == 3
    space = RunConfig({}).build_space()
    from ovc.cumulants import build_free, moment_family

    gen = build_free(moment_family(space)).generator((0, 0))
    expected = walk_eval(gen, elementary_batch(space.d, 3))
    got = np.array([matrix_from_json(v) for v in payload["values"]])
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_cumulants_probe_values_match_tree_evaluation(capsys):
    word = "a.a.a.a.a.a"
    code, out, _ = run(capsys, ["cumulants", "--kind", "free", "--word", word, "--order", "6"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["basis"] == "probes"
    assert payload["arity"] == 7
    config = RunConfig({"max_order": 6})
    space = config.build_space()
    from ovc.cumulants import build_free, moment_family

    gen = build_free(moment_family(space, 6)).generator((0,) * 6)
    expected = walk_eval(gen, probe_batch(space.d, 7, seed=config.seed))
    got = np.array([matrix_from_json(v) for v in payload["values"]])
    assert got.shape == expected.shape
    assert deviation(got, expected) <= 1e-10


def test_cumulants_order_overflow(capsys):
    code, out, err = run(
        capsys, ["cumulants", "--kind", "free", "--word", "a.a.a", "--order", "2"]
    )
    assert code == EXIT_USAGE and "error" in json.loads(err)


def test_unknown_variable(capsys):
    code, _, err = run(capsys, ["cumulants", "--kind", "moment", "--word", "z"])
    assert code == EXIT_USAGE and "error" in json.loads(err)


def test_config_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 5, "k": 5}))
    code, _, err = run(capsys, ["verify", "--config", str(bad), "--suite", "operad"])
    assert code == EXIT_USAGE and "error" in json.loads(err)
    bad.write_text(json.dumps({"tolerance": 1e-15}))
    code, _, err = run(capsys, ["verify", "--config", str(bad), "--suite", "operad"])
    assert code == EXIT_USAGE
    code, _, err = run(capsys, ["verify", "--suite", "nonsense"])
    assert code == EXIT_USAGE


def test_verify_deterministic_output(capsys):
    args = ["verify", "--suite", "operad", "--seed", "3"]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_verify_pass_and_fault_injection(capsys):
    base = ["verify", "--suite", "moment-cumulant", "--order", "2"]
    code, out, _ = run(capsys, base)
    assert code == EXIT_OK and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, base + ["--inject-fault"])
    payload = json.loads(out)
    assert code == EXIT_FAIL and payload["passed"] is False
    failing = [
        a["id"]
        for s in payload["suites"]
        for a in s["assertions"]
        if not a["passed"]
    ]
    assert "moment-cumulant.matrix-free" in failing


def test_cumulants_monotone_kind(capsys):
    code, out, _ = run(capsys, ["cumulants", "--kind", "monotone", "--word", "a.b"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["arity"] == 3
    # order two: the monotone generator coincides with the free one
    _, out_f, _ = run(capsys, ["cumulants", "--kind", "free", "--word", "a.b"])
    free_vals = np.array([matrix_from_json(v) for v in json.loads(out_f)["values"]])
    mono_vals = np.array([matrix_from_json(v) for v in payload["values"]])
    assert np.max(np.abs(free_vals - mono_vals)) <= 1e-10


def test_readme_library_example():
    from ovc import OVMatrixSpace, build_free, moment_family, verify_mc

    space = OVMatrixSpace(d=2, k=2, variables=2, seed=7)
    free = build_free(moment_family(space))
    k2 = free.generator((0, 0))
    assert k2.arity == 3
    report = verify_mc(space, order=2)
    assert all(v <= 1e-9 for v in report["max_dev"].values())


def test_suite_report_order_is_by_name(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "operad,monotone-scalar", "--order", "2"]
    )
    payload = json.loads(out)
    assert [s["suite"] for s in payload["suites"]] == ["monotone-scalar", "operad"]
