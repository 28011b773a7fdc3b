"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (visible with -s or on failure).
Numeric criteria report the worst relative deviation observed; symbolic
criteria are exact in rational arithmetic.
"""

import json
import time

import pytest

from ovc import cli
from ovc.ncpart import (
    EMPTY,
    NCPartition,
    count_monotone_labelings,
    enumerate_interval,
    enumerate_nc,
    is_noncrossing,
    nesting_forest,
    tree_factorial,
)
from ovc.ovps import OVMatrixSpace
from ovc.suites import (
    VerifyContext,
    suite_hopf,
    suite_moment_cumulant,
    suite_monotone_scalar,
    suite_operad,
    suite_oracle,
    suite_shuffle,
    suite_splitting,
)
from ovc.winsert import letter_word, split_insert_defect

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(
        space=OVMatrixSpace(d=2, k=2, variables=2, seed=7),
        tol=1e-9,
        seed=7,
        max_order=4,
    )


def _report(criterion, ok, elapsed, budget, detail=""):
    line = "criterion %-28s %s  (%.1fs < %ds)%s" % (
        criterion,
        "PASS" if ok else "FAIL",
        elapsed,
        budget,
        " " + detail if detail else "",
    )
    print(line)
    assert ok, line
    assert elapsed < budget, line


def _run_rows(rows):
    ok = all(r["passed"] for r in rows)
    worst = max((r["dev"] for r in rows if r["dev"] is not None), default=0.0)
    failing = [r["id"] for r in rows if not r["passed"]]
    detail = "max dev %.2e" % worst
    if failing:
        detail += " failing: %s" % ",".join(failing)
    return ok, detail


def _set_partitions(ground):
    if not ground:
        yield []
        return
    first, rest = ground[0], ground[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            copied = [list(b) for b in sub]
            copied[i].insert(0, first)
            yield copied


def test_criterion_1_counts():
    t0 = time.time()
    ok = True
    for p in range(8):
        brute = sorted(
            (
                NCPartition(bs)
                for bs in _set_partitions(tuple(range(1, p + 1)))
                if is_noncrossing(bs)
            ),
            key=NCPartition.sort_key,
        )
        ok &= len(brute) == CATALAN[p]
        ok &= enumerate_nc(p) == brute
        if p >= 1:
            ok &= len(enumerate_interval(p)) == 2 ** (p - 1)
    _report("1 combinatorial-counts", ok, time.time() - t0, 5)


def test_criterion_2_operad_laws(ctx):
    t0 = time.time()
    ok, detail = _run_rows(suite_operad(ctx))
    _report("2 operad-laws", ok, time.time() - t0, 5, detail)


def test_criterion_3_hopf_suite(ctx):
    t0 = time.time()
    ok, detail = _run_rows(suite_hopf(ctx))
    _report("3 hopf-suite", ok, time.time() - t0, 60, detail)


def test_criterion_4_shuffle_suite(ctx):
    t0 = time.time()
    rows = suite_shuffle(ctx)
    ok, detail = _run_rows(rows)
    ok &= all(r["tol"] <= 1e-9 for r in rows)
    _report("4 shuffle-suite", ok, time.time() - t0, 120, detail)


def test_criterion_5_oracle_equivalence(ctx):
    t0 = time.time()
    rows = suite_oracle(ctx)
    core = [r for r in rows if "vs-recursive" in r["id"] or "exchange" in r["id"]]
    ok, detail = _run_rows(rows)
    ok &= all(r["tol"] <= 1e-10 for r in core)
    _report("5 oracle-equivalence", ok, time.time() - t0, 60, detail)


def test_criterion_6_moment_cumulant(ctx):
    t0 = time.time()
    rows = suite_moment_cumulant(ctx)
    ok, detail = _run_rows(rows)
    kinds = {r["id"] for r in rows}
    for label in ("scalar", "matrix"):
        for kind in ("free", "boolean", "monotone"):
            ok &= "moment-cumulant.%s-%s" % (label, kind) in kinds
    ok &= all(r["tol"] <= 1e-9 for r in rows)
    _report("6 moment-cumulant", ok, time.time() - t0, 120, detail)


def test_criterion_7_fixed_points(ctx):
    t0 = time.time()
    rows = suite_splitting(ctx)
    ok, detail = _run_rows(rows)
    by_id = {r["id"]: r for r in rows}
    ok &= by_id["splitting.free-fixed-point"]["tol"] <= 1e-9
    ok &= by_id["splitting.boolean-fixed-point"]["tol"] <= 1e-9
    ok &= by_id["splitting.intertwining"]["exact"]
    _report("7 insertion-fixed-points", ok, time.time() - t0, 120, detail)


def test_criterion_8_monotone(ctx):
    t0 = time.time()
    rows = suite_monotone_scalar(ctx)
    ok, detail = _run_rows(rows)
    import math

    for p in range(7):
        for pi in enumerate_nc(p):
            ok &= count_monotone_labelings(pi) * tree_factorial(
                nesting_forest(pi)
            ) == math.factorial(pi.n_blocks)
    _report("8 monotone-formula", ok, time.time() - t0, 30, detail)


def test_criterion_9_negative_controls(capsys):
    t0 = time.time()
    lhs, rhs = split_insert_defect(letter_word([0]), [letter_word([1]), EMPTY])
    ok = lhs != rhs
    code = cli.main(
        ["verify", "--suite", "moment-cumulant", "--order", "2", "--inject-fault"]
    )
    out = capsys.readouterr().out
    ok &= code == 1 and json.loads(out)["passed"] is False
    with capsys.disabled():
        _report("9 negative-controls", ok, time.time() - t0, 60)
