"""The operad suite's cut-duality oracle: it must catch a wrong cut set, and
it inverts gap insertion once per size instead of once per partition."""

import sys

import pytest

from ovc import ncpart, suites
from ovc.ncpart import EMPTY, Cut, NCPartition, full_partition
from ovc.ovps import OVMatrixSpace
from ovc.suites import VerifyContext, suite_operad

TARGET = NCPartition([(1, 4), (2, 3)])


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(
        space=OVMatrixSpace(d=2, k=2, variables=2, seed=7),
        scalar_space=OVMatrixSpace(d=1, k=4, variables=2, seed=7),
    )


def _passed(rows):
    return {row["id"]: row["passed"] for row in rows}


def _cuts_of_target_edited(monkeypatch, edit):
    real = suites.cuts
    monkeypatch.setattr(
        suites, "cuts", lambda pi: edit(real(pi)) if pi == TARGET else real(pi)
    )


def test_cut_duality_fails_when_a_cut_is_dropped(ctx, monkeypatch):
    _cuts_of_target_edited(monkeypatch, lambda found: found[:-1])
    assert _passed(suite_operad(ctx))["operad.cut-duality"] is False


def test_cut_duality_fails_on_a_spurious_pair(ctx, monkeypatch):
    spurious = Cut(full_partition(4), (EMPTY,) * 5, 0)
    _cuts_of_target_edited(monkeypatch, lambda found: found + [spurious])
    assert _passed(suite_operad(ctx))["operad.cut-duality"] is False


def test_operad_suite_inserts_each_pair_once(ctx, monkeypatch):
    real = ncpart.gap_insert
    calls = []

    def counted(pi, alphas):
        calls.append(None)
        return real(pi, alphas)

    for name, module in list(sys.modules.items()):
        if name.startswith("ovc") and getattr(module, "gap_insert", None) is real:
            monkeypatch.setattr(module, "gap_insert", counted)
    suite_operad(ctx)
    assert 0 < len(calls) < 5000
