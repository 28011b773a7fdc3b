"""The operad suite's cut-duality oracle: it must catch a wrong cut set, and
it inverts gap insertion once per size instead of once per partition.  Its
associativity check must catch an insertion that is not associative.  The
unshuffle-axiom check builds each word's coproducts once and still catches
a wrong coproduct or half-coproduct.  The suites share one set of cumulant
tables per space, and an injected fault changes one entry of one table.  A
corrupted boolean entry fails only the splitting suite's boolean fixed
point."""

import itertools
import sys
from collections import Counter

import numpy as np
import pytest

from ovc import cumulants, ncpart, suites
from ovc.formal import (
    all_words,
    coproduct,
    delta_prec,
    delta_succ,
    reduced_coproduct,
    single,
    word,
)
from ovc.ncpart import EMPTY, Cut, NCPartition, full_partition
from ovc.ovps import OVMatrixSpace
from ovc.suites import (
    FAULT_WORD,
    VerifyContext,
    suite_moment_cumulant,
    suite_monotone_scalar,
    suite_operad,
    suite_splitting,
)

TARGET = NCPartition([(1, 4), (2, 3)])


@pytest.fixture(scope="module")
def ctx():
    return VerifyContext(space=OVMatrixSpace(d=2, k=2, variables=2, seed=7))


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


def test_associativity_fails_when_insertion_is_not_associative(ctx, monkeypatch):
    # reading the three gap arguments of a two-element partition in reverse
    # keeps every size, so the sampled composites still exist, but inserting
    # in two stages no longer matches inserting the composites at once
    real = suites.gap_insert

    def reversed_gaps(pi, alphas):
        return real(pi, alphas[::-1] if pi.size == 2 else alphas)

    monkeypatch.setattr(suites, "gap_insert", reversed_gaps)
    assert _passed(suite_operad(ctx))["operad.associativity"] is False


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


WORDS = all_words(4, 1)
NESTED_WORD = word(NCPartition([(1, 3), (2,)]))


def _missing_one_term(f, target):
    """``f`` with the first term (in sorted order) of its value on ``target``
    dropped."""

    def g(w):
        value = f(w)
        if w == target:
            basis, coeff = value.items()[0]
            value = value - single(basis, coeff)
        return value

    return g


def test_unshuffle_axioms_hold_and_build_each_value_once():
    counts = {name: Counter() for name in ("full", "reduced", "prec", "succ")}

    def counted(name, f):
        def g(w):
            counts[name][w] += 1
            return f(w)

        return g

    axioms = suites._unshuffle_axioms(
        WORDS,
        counted("full", coproduct),
        counted("reduced", reduced_coproduct),
        counted("prec", delta_prec),
        counted("succ", delta_succ),
    )
    assert axioms == (True, True, True, True)
    for name, per_word in counts.items():
        assert per_word and max(per_word.values()) == 1, name


def test_unshuffle_memo_keeps_only_recent_words():
    calls = Counter()

    def f(w):
        calls[w] += 1
        return w

    memo = suites._memoised(f)
    for w in range(257):
        memo(w)
    memo(256)
    memo(0)  # evicted by the 257th word
    assert calls[256] == 1 and calls[0] == 2


def test_unshuffle_axioms_catch_a_coproduct_missing_one_cut():
    coassoc, *_ = suites._unshuffle_axioms(
        WORDS, _missing_one_term(coproduct, NESTED_WORD), reduced_coproduct,
        delta_prec, delta_succ,
    )
    assert coassoc is False


def test_unshuffle_axioms_catch_a_corrupted_left_half():
    _, left, _, _ = suites._unshuffle_axioms(
        WORDS, coproduct, reduced_coproduct,
        _missing_one_term(delta_prec, NESTED_WORD), delta_succ,
    )
    assert left is False


def test_suites_build_one_table_set_per_space(monkeypatch):
    ctx = VerifyContext(space=OVMatrixSpace(d=2, k=2, variables=2, seed=7), max_order=2)
    spaces = []
    real = cumulants.cumulant_families

    def counted(space):
        spaces.append(space)
        return real(space)

    # the suites import the table builder when they run
    monkeypatch.setattr(cumulants, "cumulant_families", counted)
    suite_moment_cumulant(ctx)
    suite_monotone_scalar(ctx)
    assert spaces == [ctx.scalar_space, ctx.space]


def test_injected_fault_changes_only_the_matrix_free_entry_of_its_word():
    space = OVMatrixSpace(d=2, k=2, variables=2, seed=7)
    clean, faulty = VerifyContext(space=space), VerifyContext(space=space, inject_fault=True)
    words = [w for n in range(1, 4) for w in itertools.product((0, 1), repeat=n)]
    for attr in ("families", "scalar_families"):
        for kind, family in getattr(faulty, attr).items():
            for w in words:
                same = np.array_equal(
                    family.generator(w).tensor(),
                    getattr(clean, attr)[kind].generator(w).tensor(),
                )
                assert same != (attr == "families" and kind == "free" and w == FAULT_WORD)


def test_corrupted_boolean_entry_fails_only_the_boolean_fixed_point():
    ctx = VerifyContext(space=OVMatrixSpace(d=2, k=2, variables=2, seed=7), max_order=3)
    ctx.families["boolean"].corrupt((0, 1))
    failing = [r["id"] for r in suite_splitting(ctx) if not r["passed"]]
    assert failing == ["splitting.boolean-fixed-point"]
