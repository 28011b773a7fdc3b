import ast
import contextlib
import gc
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovc
from ovc import cli
from ovc.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, RunConfig, main
from ovc.cumulants import cumulant_families
from ovc.ovps import MultiMap, OVMatrixSpace, deviation, elementary_batch, probe_batch
from ovc.suites import FAULT_SUITES, SUITES, VerifyContext
from helpers import matrix_from_json
from reference_walk import walk_eval

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


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
    code, out, err = run(capsys, ["enumerate", "42"])
    assert code == EXIT_USAGE and out == ""
    assert "enumeration bound" in json.loads(err)["error"]


def test_enumerate_negative_size_is_usage_error(capsys):
    code, out, err = run(capsys, ["enumerate", "-1"])
    assert code == EXIT_USAGE and out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command", [["enumerate", "3"], ["verify", "--suite", "operad"]])
@pytest.mark.parametrize("flag", ["--config", "--seed"])
def test_missing_config_and_negative_seed_are_usage_errors(command, flag, tmp_path):
    # enumerate reads neither flag, so argparse rejects both
    value = str(tmp_path / "missing.json") if flag == "--config" else "-5"
    code, out, _ = _invoke(command + [flag, value])
    assert code == EXIT_USAGE and out == ""


def test_variable_spec_that_is_not_a_matrix_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variables": {"a": "x"}}))
    code, out, err = run(
        capsys, ["verify", "--config", str(cfg), "--suite", "operad"]
    )
    assert code == EXIT_USAGE and out == ""
    assert "'a'" in json.loads(err)["error"]


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "moment-cumulant", "--order", "2"],
    ["verify", "--suite", "operad", "--order", "2"],
    ["cumulants", "--kind", "free", "--word", "a"],
])
@pytest.mark.parametrize("entry", [[float("nan"), 0.0], [0.0, float("inf")], [float("-inf"), 0.0]])
def test_non_finite_matrix_entry_is_usage_error(capsys, tmp_path, command, entry):
    # json reads NaN and Infinity, so the configuration must reject them
    cfg = tmp_path / "cfg.json"
    matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], entry]]
    cfg.write_text(json.dumps({"d": 1, "k": 2, "variables": {"a": matrix}}))
    code, out, err = run(capsys, command + ["--config", str(cfg)])
    assert code == EXIT_USAGE and out == ""
    assert "variable 'a' has a non-finite entry" in json.loads(err)["error"]


def _strict_json(text):
    def refuse(constant):
        raise ValueError("not JSON: %s" % constant)

    return json.loads(text, parse_constant=refuse)


def test_non_finite_values_fail_their_rows(capsys, tmp_path):
    # every moment of order >= 2 of 1e200 overflows, and the cumulants
    # subtract infinities; no row may read such values as equal
    cfg = tmp_path / "cfg.json"
    huge = [[[1e200, 0.0]]]
    cfg.write_text(json.dumps({"d": 1, "k": 1, "variables": {"a": huge, "b": huge}}))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, _ = run(capsys, ["verify", "--config", str(cfg)])
        cum_code, cum_out, cum_err = run(
            capsys, ["cumulants", "--kind", "free", "--word", "a.a", "--config", str(cfg)]
        )
    assert code == EXIT_FAIL
    rows = {
        row["id"]: row
        for suite in _strict_json(out)["suites"]
        for row in suite["assertions"]
    }
    failed = {ident for ident, row in rows.items() if not row["passed"]}
    moment_rows = {
        "moment-cumulant.%s-%s" % (space, kind)
        for space in ("scalar", "matrix")
        for kind in ("free", "boolean", "monotone")
    }
    moment_rows |= {
        "oracle.moment-exchange",
        "oracle.extension-vs-recursive",
        "oracle.exponential-vs-recursive",
        "oracle.two-variable-extension",
        "oracle.antipode-inverse",
        "splitting.free-fixed-point",
        "splitting.boolean-fixed-point",
        "monotone.exchange-hypothesis",
        "monotone.log-cross-check",
    }
    assert moment_rows <= failed
    assert all(rows[ident]["dev"] is None for ident in failed)
    assert cum_code == EXIT_USAGE and cum_out == ""
    assert "not finite" in json.loads(cum_err)["error"]


def test_one_identity_map_per_space(capsys, monkeypatch):
    spaces, identities = [], []
    build_space, build_map = OVMatrixSpace.__init__, MultiMap.__init__

    def counted_space(self, *args, **kwargs):
        build_space(self, *args, **kwargs)
        spaces.append(self)

    def counted_map(self, space, arity, kind, *args, **kwargs):
        build_map(self, space, arity, kind, *args, **kwargs)
        if kind == "id":
            identities.append(self)

    monkeypatch.setattr(OVMatrixSpace, "__init__", counted_space)
    monkeypatch.setattr(MultiMap, "__init__", counted_map)
    code, _, _ = run(capsys, ["verify", "--suite", "shuffle,splitting", "--order", "3"])
    assert code == EXIT_OK
    assert len(identities) == len(spaces) >= 1
    assert identities == [space.identity for space in spaces]


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ([1, 2], [], "JSON object"),
        ({"tolerance": "x"}, [], "tolerance"),
        ({"variables": {"a": {"seed": "x"}}}, [], "seed of variable 'a'"),
        ({}, ["--seed", "-5"], "seed must be non-negative"),
        ({"variables": {"a": {"seed": -1}}}, [], "seed of variable 'a'"),
        ({"tolerance": float("nan")}, [], "tolerance"),
        ({"variables": ["a"]}, [], "variables"),
        ({"suites": "hopf"}, [], "list of suite names"),
        ({"variables": {"a": {}}, "suites": ["oracle"]}, [], "two variables"),
        ({"suites": ["hopf", "operad", "hopf"]}, [], "more than once: hopf"),
        ({"suites": []}, [], "no suites"),
        ({"d": 2.7, "k": True, "max_order": 2.9}, [], "d must be an integer"),
        ({"k": True}, [], "k must be a number"),
        ({"max_order": 2.9}, [], "max_order must be an integer"),
        ({"tolerance": True}, [], "tolerance must be a number"),
        ({"seed": True}, [], "seed must be a number"),
        ({"variables": {"a": {"seed": 3.9}}}, [], "seed of variable 'a' must be an integer"),
        ({"max_ordr": 2, "suites": ["operad"]}, [], "unknown keys in the configuration: max_ordr"),
        ({"variables": {"a": {"seed": 5, "hermitan": False}}}, [],
         "unknown keys in the seed spec of variable 'a': hermitan"),
        # an integer too large for a float
        ({"variables": {"a": [[[10**400, 0]]]}}, [],
         "variable 'a' is neither a seed spec nor a matrix"),
        # a number written as a JSON string is not a number
        ({"d": "2", "max_order": "2", "seed": "7", "tolerance": "1e-9"}, [],
         "d must be a number"),
        ({"tolerance": "1e-9"}, [], "tolerance must be a number"),
        ({"variables": {"a": {"seed": "101"}}}, [], "seed of variable 'a' must be a number"),
        # a boolean is not a number, in a matrix entry as in a seed
        ({"d": 1, "k": 1, "variables": {"a": [[[True, False]]]}}, [],
         "variable 'a' is neither a seed spec nor a matrix"),
    ],
)
def test_malformed_configuration_is_usage_error(capsys, tmp_path, config, argv, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    suite = [] if "suites" in config else ["--suite", "operad"]
    code, out, err = run(capsys, ["verify", "--config", str(cfg)] + argv + suite)
    assert code == EXIT_USAGE and out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "operad", "--order", "2"],
    ["cumulants", "--kind", "moment", "--word", "a"],
])
@pytest.mark.parametrize("flag", ["false", 0, None])
def test_hermitian_must_be_a_boolean(capsys, tmp_path, command, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"variables": {"a": {"seed": 5, "hermitian": flag}, "b": {}}}))
    code, out, err = run(capsys, command + ["--config", str(cfg)])
    assert code == EXIT_USAGE and out == ""
    assert "hermitian of variable 'a' must be true or false" in json.loads(err)["error"]


@pytest.mark.parametrize("command", [
    ["verify", "--suite", "operad", "--order", "2"],
    # with a variable named e, "e" would still read as the empty word and
    # print the identity, not E(e) = 2
    ["cumulants", "--kind", "moment", "--word", "e"],
])
@pytest.mark.parametrize("name", ["e", "", "a.b", ".", " a", "a "])
def test_a_variable_name_no_word_can_name_is_a_usage_error(capsys, tmp_path, command, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "k": 1, "variables": {name: [[[2, 0]]]}}))
    code, out, err = run(capsys, command + ["--config", str(cfg)])
    assert code == EXIT_USAGE and out == ""
    assert "variable name %r" % name in json.loads(err)["error"]


def test_benchmark_configuration_keys_are_accepted(capsys, tmp_path):
    # the shape of the configurations that perfbench/run.py writes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "d": 2, "k": 2, "tolerance": 1e-9, "seed": 11,
        "variables": {"a": {"seed": 3, "hermitian": True}, "b": {"seed": 4, "hermitian": False}},
    }))
    code, out, err = run(capsys, ["verify", "--config", str(cfg), "--suite", "operad", "--order", "2"])
    assert code == EXIT_OK, err
    assert json.loads(out)["passed"] is True


def test_negative_seed_is_usage_error_for_cumulants(capsys):
    code, out, err = run(capsys, ["cumulants", "--kind", "free", "--word", "a", "--seed", "-5"])
    assert code == EXIT_USAGE and out == ""
    assert "seed" in json.loads(err)["error"]


def test_unreadable_configuration_is_usage_error(capsys, tmp_path):
    # an empty path names no file; it does not select the default config
    for path in (str(tmp_path), ""):
        code, out, err = run(capsys, ["verify", "--config", path, "--suite", "operad"])
        assert code == EXIT_USAGE and out == ""
        assert "cannot read the configuration" in json.loads(err)["error"]


def _child_env():
    """The environment of a child interpreter that imports this ``ovc``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ovc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def _run_optimized(argv):
    """Run ``python -O`` so that any ``assert`` in the library is stripped."""
    return subprocess.run(
        [sys.executable, "-O"] + argv, capture_output=True, text=True, env=_child_env(),
        timeout=300,
    )


def test_non_finite_values_print_no_numpy_warning(tmp_path):
    # each command overflows; stderr holds the JSON error of exit 2, or
    # nothing on exit 1, and no floating-point warning of numpy
    cfg = tmp_path / "cfg.json"
    huge = [[[1e200, 0.0]]]
    cfg.write_text(json.dumps({"d": 1, "k": 1, "variables": {"a": huge, "b": huge}}))
    for argv, code in (
        (["cumulants", "--kind", "free", "--word", "a.a"], EXIT_USAGE),
        (["verify", "--suite", "moment-cumulant", "--order", "2"], EXIT_FAIL),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "ovc.cli"] + argv + ["--config", str(cfg)],
            capture_output=True, text=True, env=_child_env(), timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        if code == EXIT_USAGE:
            assert proc.stdout == ""
            assert "not finite" in json.loads(proc.stderr)["error"]
        else:
            assert proc.stderr == ""


def test_exact_commands_never_load_the_numeric_layer():
    proc = subprocess.run([sys.executable, "-c", """
import contextlib, io, json, sys
from ovc import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--suite", "hopf,operad", "--order", "2"]),
             cli.main(["enumerate", "6"])]
loaded = [name for name in ("numpy", "ovc.ovps", "dataclasses", "inspect")
          if name in sys.modules]
from ovc import OVMatrixSpace
import ovc
for name in ovc.__all__:
    getattr(ovc, name)
print(json.dumps([codes, loaded, OVMatrixSpace.__module__]))
"""], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK, EXIT_OK], [], "ovc.ovps"]


def test_import_loads_no_submodule_and_each_name_comes_from_its_module():
    proc = subprocess.run([sys.executable, "-c", """
import importlib, json, sys
import ovc
loaded = [name for name in sys.modules if name.startswith("ovc.")]
wrong = [name for name in ovc.__all__ if getattr(ovc, name)
         is not getattr(importlib.import_module("ovc." + ovc._EXPORTS[name]), name)]
print(json.dumps([loaded, wrong, len(ovc.__all__)]))
"""], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], 28]


def test_probe_and_enumeration_commands_load_only_their_layers():
    proc = subprocess.run([sys.executable, "-c", """
import contextlib, io, json, sys
from ovc import cli
unneeded = ("ovc.suites", "ovc.formal", "ovc.morphisms", "ovc.winsert")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["enumerate", "6"])]
    loaded = [[name for name in ("numpy", "ovc.ovps") + unneeded if name in sys.modules]]
    codes.append(cli.main(["cumulants", "--kind", "monotone", "--word", "a.a.a.a.a",
                           "--order", "5"]))
loaded.append([name for name in unneeded if name in sys.modules])
print(json.dumps([codes, loaded]))
"""], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[EXIT_OK, EXIT_OK], [[], []]]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_command_line_runs_blas_on_one_thread():
    env = {key: value for key, value in _child_env().items()
           if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    script = """
import contextlib, io, os, sys
from ovc import cli
if sys.argv[1] == "main":
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["enumerate", "1"])
import numpy
print(len(os.listdir("/proc/self/task")))
"""
    threads = {}
    for mode in ("main", "import"):
        proc = subprocess.run([sys.executable, "-c", script, mode], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        threads[mode] = int(proc.stdout)
    assert threads["main"] == 1
    if len(os.sched_getaffinity(0)) > 1:
        assert threads["import"] > 1


def test_cumulants_rejects_a_config_naming_an_unknown_suite(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["hopf", "bogus"]}))
    code, out, err = run(capsys, ["cumulants", "--kind", "free", "--word", "a",
                                  "--config", str(cfg)])
    assert code == EXIT_USAGE and out == ""
    assert "bogus" in json.loads(err)["error"]


def test_insertion_operad_loads_no_numeric_code():
    proc = subprocess.run([sys.executable, "-c", """
import json, sys
import ovc.winsert
print(json.dumps([name for name in ("numpy", "ovc.ovps", "ovc.cumulants", "ovc.morphisms")
                  if name in sys.modules]))
"""], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_morphisms_load_no_formal_sums():
    # a morphism reads cuts, profiles and letter types off the words it is
    # given, so its module never names a word type
    proc = subprocess.run([sys.executable, "-c", """
import json, sys
import ovc.morphisms
print(json.dumps([name for name in ("ovc.formal", "ovc.winsert") if name in sys.modules]))
"""], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _buffered_env():
    """``_child_env`` with a buffered stdout, as in a plain run, so that
    output can still be pending when the interpreter exits."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_closed_stdout_is_usage_error():
    # the listing is far larger than a pipe's buffer, so writing it fails
    # once the reader has gone
    with subprocess.Popen(
        [sys.executable, "-m", "ovc.cli", "enumerate", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env(),
    ) as proc:
        head = proc.stdout.read(40)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=300)
    assert head.startswith(b'{"count": 16796')
    assert code == EXIT_USAGE and "Traceback" not in err
    assert "Broken pipe" in json.loads(err)["error"]


def test_stdout_closed_before_start_is_usage_error():
    # Python then sets sys.stdout to None, and print to None writes nothing
    proc = subprocess.run(
        [sys.executable, "-m", "ovc.cli", "enumerate", "3"],
        preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
        env=_buffered_env(), timeout=300,
    )
    assert proc.returncode == EXIT_USAGE and "Traceback" not in proc.stderr
    assert "closed" in json.loads(proc.stderr)["error"]


def _read_only_stderr():
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize(
    "preexec", [lambda: os.close(2), _read_only_stderr], ids=["closed", "read-only"]
)
def test_unwritable_stderr_keeps_the_usage_code(preexec):
    # closed before start, Python sets sys.stderr to None, and print to None
    # would write the error to stdout; a read-only descriptor fails the write
    proc = subprocess.run(
        [sys.executable, "-m", "ovc.cli", "enumerate", "-1"],
        preexec_fn=preexec, stdout=subprocess.PIPE, text=True, env=_buffered_env(),
        timeout=300,
    )
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stderr_keeps_the_usage_code():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ovc.cli", "enumerate", "-1"],
            stdout=subprocess.PIPE, stderr=full, text=True, env=_buffered_env(), timeout=300,
        )
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""


def test_closed_pipe_of_stdout_and_stderr_is_usage_error():
    # the reader goes after 10 bytes, so the error line fails on the same pipe
    with subprocess.Popen(
        [sys.executable, "-m", "ovc.cli", "enumerate", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=_buffered_env(),
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=300)
    assert head == b'{"count": '
    assert code == EXIT_USAGE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_is_usage_error():
    # a short report fits the output buffer, so only the flush can fail
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ovc.cli", "enumerate", "3"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_buffered_env(), timeout=300,
        )
    assert proc.returncode == EXIT_USAGE and "Traceback" not in proc.stderr
    assert "No space left" in json.loads(proc.stderr)["error"]


def test_fault_injection_fails_under_optimize():
    proc = _run_optimized(
        ["-m", "ovc.cli", "verify", "--suite", "moment-cumulant", "--order", "2",
         "--inject-fault"]
    )
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert json.loads(proc.stdout)["passed"] is False


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    frozen = gc.get_freeze_count()
    assert main(["enumerate", "4"]) == EXIT_OK
    assert main(["verify", "--suite", "operad", "--order", "2"]) == EXIT_OK
    assert main(["enumerate", "-1"]) == EXIT_USAGE
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen and gc.isenabled()


def test_the_script_and_the_main_block_call_the_same_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        module, _, name = tomllib.load(fh)["project"]["scripts"]["ovc"].partition(":")
    assert importlib.import_module(module) is cli and getattr(cli, name) is cli.entry
    main_blocks = [
        node for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for block in main_blocks for stmt in block.body] == [name + "()"]


@pytest.mark.parametrize("argv, code", [(["enumerate", "3"], EXIT_OK),
                                        (["enumerate", "-1"], EXIT_USAGE)])
def test_a_process_exits_with_the_code_of_main_and_a_frozen_heap(argv, code):
    # atexit handlers still run, after the report, with the heap frozen
    proc = subprocess.run([sys.executable, "-c", """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["ovc"] + sys.argv[1:]
runpy.run_module("ovc.cli", run_name="__main__", alter_sys=True)
""", *argv], capture_output=True, text=True, env=_child_env(), timeout=300)
    assert proc.returncode == code
    *report, last = proc.stderr.splitlines()
    assert last == "frozen True"
    if code == EXIT_OK:
        assert json.loads(proc.stdout)["count"] == 5 and report == []
    else:
        assert proc.stdout == "" and "error" in json.loads(report[0])


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
from ovc.ovps import DimensionMismatch, OVMatrixSpace, moment_map
from ovc.winsert import WWord
rejected = []
for build in (PartitionWord, WWord):
    try:
        build(["x"])
    except TypeError:
        rejected.append(build.__name__)
space = OVMatrixSpace(d=1, k=1, variables=1)
# a generator one input short for every color word
extension = morphisms.operadic_extension(space, lambda word: moment_map(space, word[1:]))
try:
    extension.letter_value(PartitionWord([NCPartition([(1,)])]))
except DimensionMismatch:
    rejected.append("arity")
raise SystemExit(0 if rejected == ["PartitionWord", "WWord", "arity"] else 3)
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
    gen = cumulant_families(space)["free"].generator((0, 0))
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
    gen = cumulant_families(space)["free"].generator((0,) * 6)
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
    for suite, message in (
        ("hopf,hopf", "more than once: hopf"),
        (",", "no suites"),
        ("", "no suites"),
    ):
        code, out, err = run(capsys, ["verify", "--suite", suite])
        assert code == EXIT_USAGE and out == ""
        assert message in json.loads(err)["error"]
    for indent in ("10000", "-1"):
        code, out, err = run(capsys, ["enumerate", "2", "--json-indent", indent])
        assert code == EXIT_USAGE and out == ""
        assert "--json-indent" in json.loads(err)["error"]


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


def test_injected_fault_fails_exactly_the_free_rows(capsys):
    # the corrupted free entry of FAULT_WORD reaches the matrix lattice sum
    # and the free fixed point on letter words, and no other row
    code, out, _ = run(capsys, ["verify", "--inject-fault"])
    failing = [
        a["id"]
        for s in json.loads(out)["suites"]
        for a in s["assertions"]
        if not a["passed"]
    ]
    assert code == EXIT_FAIL
    assert failing == ["moment-cumulant.matrix-free", "splitting.free-fixed-point"]


@pytest.mark.parametrize(
    "suite, order",
    [pytest.param(suite, 2, id=suite)
     for suite in ("shuffle", "hopf", "oracle", "monotone-scalar", "operad")]
    # splitting reads the corrupted two-letter word only from order 2 on
    + [pytest.param("splitting", 1, id="splitting-order-1")],
)
def test_fault_injection_needs_a_suite_that_reads_the_table(capsys, suite, order):
    # none of these runs reads the corrupted entry, so it could not fail
    code, out, err = run(capsys, ["verify", "--suite", suite, "--order", str(order),
                                  "--inject-fault"])
    assert code == EXIT_USAGE and out == ""
    error = json.loads(err)["error"]
    assert all(name in error for name in FAULT_SUITES)


def test_fault_injection_fails_the_splitting_suite(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "hopf,splitting", "--order", "2",
                                "--inject-fault"])
    failing = [
        a["id"]
        for s in json.loads(out)["suites"]
        for a in s["assertions"]
        if not a["passed"]
    ]
    assert code == EXIT_FAIL
    assert failing == ["splitting.free-fixed-point"]


def test_fault_injection_at_order_one_fails_the_moment_cumulant_suite(capsys):
    # splitting reads no two-letter word at order 1; moment-cumulant does
    code, out, _ = run(capsys, ["verify", "--suite", "moment-cumulant,splitting", "--order",
                                "1", "--inject-fault"])
    failing = [
        a["id"]
        for s in json.loads(out)["suites"]
        for a in s["assertions"]
        if not a["passed"]
    ]
    assert code == EXIT_FAIL
    assert failing == ["moment-cumulant.matrix-free"]


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
    from ovc import OVMatrixSpace, cumulant_families, verify_mc

    space = OVMatrixSpace(d=2, k=2, variables=2, seed=7)
    free = cumulant_families(space)["free"]
    k2 = free.generator((0, 0))
    assert k2.arity == 3
    report = verify_mc(cumulant_families(space), order=2)
    assert all(v <= 1e-9 for v in report["max_dev"].values())


def _readme_config():
    with open(README) as fh:
        text = fh.read()
    start = text.index("```json\n") + len("```json\n")
    return text[start : text.index("```", start)]


def test_readme_configuration_example_runs(capsys, tmp_path):
    cfg = tmp_path / "readme.json"
    cfg.write_text(_readme_config())
    code, out, err = run(
        capsys, ["verify", "--config", str(cfg), "--suite", "operad", "--order", "2"]
    )
    assert code == EXIT_OK, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "config",
    [
        json.loads(_readme_config()),
        {"d": 2, "k": 3, "variables": {"a": {"seed": 5, "hermitian": False}, "b": {}}},
    ],
    ids=["readme", "non-hermitian"],
)
def test_verify_scalar_space_is_the_config_read_with_d_1(config):
    config = RunConfig(config)
    ctx = VerifyContext(space=config.build_space())
    expected = config.build_space(d=1, k=config.d * config.k)
    assert (ctx.scalar_space.d, ctx.scalar_space.k) == (1, config.d * config.k)
    assert ctx.scalar_space.variables.keys() == expected.variables.keys()
    for i, mat in expected.variables.items():
        assert ctx.scalar_space.variables[i].tobytes() == mat.tobytes()


def test_verify_scalar_space_follows_the_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "k": 1, "variables": {"a": [[[2, 0]]]}}))
    code, _, err = run(capsys, ["verify", "--config", str(cfg), "--suite", "operad"])
    assert code == EXIT_OK, err


def test_suite_report_order_is_by_name(capsys):
    code, out, _ = run(
        capsys, ["verify", "--suite", "operad,monotone-scalar", "--order", "2"]
    )
    payload = json.loads(out)
    assert [s["suite"] for s in payload["suites"]] == ["monotone-scalar", "operad"]


# ---------------------------------------------------------------------------
# Exit-code contract under fuzzed configurations and options

def test_public_constructors_validate_under_optimize():
    proc = _run_optimized(["-c", """
from ovc.formal import BoxStack, GradingError, PartitionWord, unit_word, word
from ovc.ncpart import CrossingError, NCPartition, full_partition
rejected = []
try:
    PartitionWord([1])
except TypeError:
    rejected.append("word")
try:
    BoxStack((word(full_partition(2)), unit_word(2)))
except GradingError:
    rejected.append("stack")
try:
    NCPartition([(1, 3), (2, 4)])
except CrossingError:
    rejected.append("partition")
raise SystemExit(0 if rejected == ["word", "stack", "partition"] else 3)
"""])
    assert proc.returncode == 0, proc.stderr


_BAD = st.sampled_from(["x", None, [1], {"a": 1}, True, -1, 0, 1.5, float("inf"), float("nan")])
_SUITE_NAMES = sorted(SUITES)
_FIELDS = ["d", "k", "tolerance", "seed", "variables", "max_order", "suites",
           "body", "variable", "--order", "--seed", "--tol", "--suite"]


@st.composite
def cli_cases(draw):
    """An argv and a config file body.  At most one field is malformed and
    the rest take valid values, so that many cases run a command.  Verify
    runs one suite at order <= 2: the order and the suite come from the
    config or the command line, whichever the case sets."""
    broken = draw(st.sampled_from(_FIELDS + [None] * 6))

    def field(name, good):
        return draw(_BAD) if broken == name else draw(good)

    spec = field("variable", st.one_of(
        st.fixed_dictionaries({}, optional={"seed": st.integers(0, 2**40),
                                            "hermitian": st.booleans()}),
        st.just([[[float(i == j) * (i + 1), 0.0] for j in range(4)] for i in range(4)]),
    ))
    config = {"variables": {"a": spec, "b": {}}}
    for name, good in (("d", st.integers(1, 2)), ("k", st.integers(1, 2)),
                       ("tolerance", st.floats(1e-12, 1.0)), ("seed", st.integers(0, 2**40))):
        if broken == name or draw(st.booleans()):
            config[name] = field(name, good)
    if broken == "variables":
        config["variables"] = draw(st.one_of(_BAD, st.just({})))
    order = draw(st.one_of(st.none(), st.integers(1, 2)))
    if order is None:
        config["max_order"] = field("max_order", st.integers(1, 2))
    elif broken == "--order":
        order = draw(st.sampled_from([-1, 0, 9]))
    suite = draw(st.one_of(st.none(), st.sampled_from(_SUITE_NAMES)))
    if suite is None:
        config["suites"] = draw(st.one_of(st.just(["bogus"]), st.just("hopf"), _BAD)
                                if broken == "suites" else
                                st.lists(st.sampled_from(_SUITE_NAMES), max_size=1))
    elif broken == "--suite":
        suite = draw(st.sampled_from(["bogus", "", "hopf,bogus"]))
    body = config if broken != "body" else draw(st.one_of(_BAD, st.just([config])))
    command = draw(st.sampled_from(["verify", "verify", "verify", "cumulants", "enumerate"]))
    if command == "enumerate":
        argv = ["enumerate", str(draw(st.integers(-2, 8)))]
        if draw(st.booleans()):
            argv.append("--interval")
        return argv, body  # enumerate takes no config, order, seed or tol
    if command == "cumulants":
        argv = ["cumulants",
                "--kind", draw(st.sampled_from(["moment", "free", "boolean", "monotone"])),
                "--word", draw(st.sampled_from(["a", "a.b", "b.a", "e", "z", "a..b", ""]))]
    else:
        argv = ["verify"]
        if suite is not None:
            argv.append("--suite=" + suite)
        if draw(st.booleans()):
            argv.append("--inject-fault")
    if order is not None:
        argv.append("--order=%d" % order)
    for flag, good, bad in (("--seed", st.integers(0, 2**40), st.integers(-5, -1)),
                            ("--tol", st.floats(1e-12, 1.0), st.sampled_from(
                                [float("nan"), float("inf"), -1.0, 0.0]))):
        if broken == flag or draw(st.booleans()):
            argv.append("%s=%s" % (flag, draw(bad if broken == flag else good)))
    return argv, body


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(cli_cases())
def test_fuzzed_invocations_keep_the_exit_code_contract(case):
    argv, body = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(body, fh)
        if argv[0] != "enumerate":
            argv = argv + ["--config", path]
        code, out, err = _invoke(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert out == ""
        assert err.startswith("usage:") or "error" in json.loads(err)
        return
    failed = []
    if argv[0] == "verify":
        report = json.loads(out)
        failed = [a["id"] for s in report["suites"] for a in s["assertions"] if not a["passed"]]
    assert (code == EXIT_FAIL) == bool(failed)
