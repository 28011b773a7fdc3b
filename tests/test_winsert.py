import itertools
import random

import pytest

from ovc import formal
from ovc.cumulants import cumulant_families
from ovc.formal import (
    UnitWordError,
    counit,
    eta_eps,
    nabla,
    single,
    stack,
)
from ovc.morphisms import (
    eta_eps_morphism,
    exp_prec,
    family_infinitesimal,
    moment_morphism,
    morphism_dev,
    precompose,
)
from ovc.ncpart import EMPTY, ArityMismatch, Cut, NCPartition, cuts, gap_insert
from ovc.ovps import OVMatrixSpace
from ovc.winsert import (
    WWord,
    all_w_words,
    letter_word,
    letter_word_to_text,
    split,
    split_insert_defect,
    w_antipode,
    w_coproduct,
    w_delta_prec,
    w_delta_succ,
    w_reduced_coproduct,
    w_word,
)
from helpers import W_ONE
from reference_letters import interleave, split_by_letters, subset_cuts

A, B, C = letter_word([0]), letter_word([1]), letter_word([2])
AB = letter_word([0, 1])


def lift(x):
    return x


WORDS = all_w_words((0, 1), 3, 2)
SINGLES = [w for w in all_w_words((0, 1), 4, 1) if len(w) == 1]


# ---------------------------------------------------------------------------
# Insertion operad


def test_word_insert_examples():
    assert gap_insert(EMPTY, [B]) == B
    assert gap_insert(A, [B, C]) == letter_word([1, 0, 2])
    assert gap_insert(AB, [EMPTY, C, EMPTY]) == letter_word([0, 2, 1])
    with pytest.raises(ArityMismatch):
        gap_insert(A, [B])


def test_insertion_operad_laws():
    words = [EMPTY, A, B, AB]
    for x in words:
        assert gap_insert(x, [EMPTY] * x.arity) == x
        assert gap_insert(EMPTY, [x]) == x
    # associativity through the two-stage composite
    for x in [A, AB]:
        for ys in itertools.product([EMPTY, A, B], repeat=x.arity):
            mid = gap_insert(x, ys)
            pool = [EMPTY, C]
            for zs in itertools.product(pool, repeat=mid.arity):
                direct = gap_insert(mid, zs)
                pos, inner = 0, []
                for y in ys:
                    inner.append(gap_insert(y, zs[pos : pos + y.arity]))
                    pos += y.arity
                assert direct == gap_insert(x, inner)


# every color tuple over three variables up to size 5: 364 letter words
COLOR_TUPLES = [c for n in range(6) for c in itertools.product(range(3), repeat=n)]


def test_letter_words_are_finest_colorings():
    assert letter_word(()) is EMPTY
    for colors in COLOR_TUPLES[1:]:
        x = letter_word(colors)
        assert x is NCPartition([(i,) for i in range(1, len(colors) + 1)], colors=colors)
        assert x.colors == colors and x.n_blocks == x.size == len(colors)


def test_gap_insert_of_letter_words_interleaves():
    rng = random.Random(19)
    for host in COLOR_TUPLES:
        for _ in range(8):
            # arguments of up to 3 letters, the first 40 tuples
            args = [rng.choice(COLOR_TUPLES[:40]) for _ in range(len(host) + 1)]
            got = gap_insert(letter_word(host), [letter_word(a) for a in args])
            assert got is letter_word(interleave(host, args)), (host, args)


def test_cuts_of_letter_words_keep_every_subset():
    for colors in COLOR_TUPLES:
        x = letter_word(colors)
        expected = [
            Cut(letter_word(lower), tuple(map(letter_word, uppers)), mask)
            for lower, uppers, mask in subset_cuts(colors)
        ]
        assert cuts(x) == expected, colors


def test_wword_letters_must_be_letter_words():
    for bad in (
        NCPartition([(1, 2)], colors=(0, 1)),
        NCPartition([(1,), (2,)]),
        (0, 1),
        "a",
    ):
        with pytest.raises(TypeError):
            WWord((A, bad))
        with pytest.raises(TypeError):
            w_word(bad)
    assert WWord((EMPTY, A)).letters == (EMPTY, A)


def test_w_vcompose_units():
    for w in WORDS:
        assert w.vcompose(WWord.unit(w.inputs)) == w
        assert WWord.unit(w.outputs).vcompose(w) == w


# ---------------------------------------------------------------------------
# Coproducts


def test_w_coproduct_single_letter():
    got = w_coproduct(w_word(A))
    expected = single(stack(w_word(EMPTY), w_word(A))) + single(
        stack(w_word(A), WWord.unit(2))
    )
    assert got == expected


def test_w_coproduct_two_letter_word():
    got = w_coproduct(w_word(AB))
    assert len(got) == 4
    assert got.coeff(stack(w_word(EMPTY), w_word(AB))) == 1
    assert got.coeff(stack(w_word(AB), WWord.unit(3))) == 1
    assert got.coeff(stack(w_word(A), w_word(EMPTY, B))) == 1
    assert got.coeff(stack(w_word(B), w_word(A, EMPTY))) == 1


def test_w_half_coproducts():
    reduced = w_delta_prec(w_word(AB))
    assert reduced == single(stack(w_word(A), w_word(EMPTY, B)))
    assert w_delta_succ(w_word(AB)) == single(stack(w_word(B), w_word(A, EMPTY)))
    assert formal.cut_sum(w_word(A), True) == single(stack(w_word(A), WWord.unit(2)))
    assert formal.cut_sum(w_word(A), False) == single(stack(w_word(EMPTY), w_word(A)))
    with pytest.raises(UnitWordError):
        w_delta_prec(W_ONE)


def test_half_coproducts_of_letter_words_and_their_splits():
    for w in WORDS:
        if w.is_unit():
            for x in (w, split(w)):
                for half in (formal.half_coproducts, formal.delta_prec, formal.delta_succ):
                    with pytest.raises(UnitWordError):
                        half(x)
            continue
        assert formal.half_coproducts(w) == (w_delta_prec(w), w_delta_succ(w))
        s = split(w)
        assert formal.half_coproducts(s) == (formal.delta_prec(s), formal.delta_succ(s))


def test_w_reduced_splits():
    for w in WORDS:
        if w.is_unit():
            continue
        assert w_delta_prec(w) + w_delta_succ(w) == w_reduced_coproduct(w)


def test_w_coassociativity():
    for w in WORDS:
        lhs = formal.map_stack(w_coproduct, lift, w_coproduct(w))
        rhs = formal.map_stack(lift, w_coproduct, w_coproduct(w))
        assert lhs == rhs, w


def test_w_unshuffle_axioms():
    for w in WORDS:
        if w.is_unit():
            continue
        a1l = formal.map_stack(w_delta_prec, lift, w_delta_prec(w))
        a1r = formal.map_stack(lift, w_reduced_coproduct, w_delta_prec(w))
        assert a1l == a1r, w
        a2l = formal.map_stack(w_delta_succ, lift, w_delta_prec(w))
        a2r = formal.map_stack(lift, w_delta_prec, w_delta_succ(w))
        assert a2l == a2r, w
        a3l = formal.map_stack(w_reduced_coproduct, lift, w_delta_succ(w))
        a3r = formal.map_stack(lift, w_delta_succ, w_delta_succ(w))
        assert a3l == a3r, w


def test_w_counit_laws():
    for w in WORDS:
        left = nabla(formal.map_stack(eta_eps, lift, w_coproduct(w)))
        right = nabla(formal.map_stack(lift, eta_eps, w_coproduct(w)))
        assert left == single(w) and right == single(w)
    assert counit(WWord.unit(2)) == 2
    assert counit(w_word(A)) is None


# ---------------------------------------------------------------------------
# Antipode


def test_w_antipode_values():
    assert w_antipode(w_word(EMPTY)) == single(w_word(EMPTY))
    assert w_antipode(w_word(A)) == single(w_word(A), -1)
    assert w_antipode(w_word(AB)) == single(w_word(AB))


def test_w_antipode_is_the_length_sign():
    for w in all_w_words((0, 1), 4, 2):
        assert w_antipode(w) == single(w, (-1) ** w.total_size), w


def test_w_antipode_identity():
    for w in WORDS:
        lhs = nabla(formal.map_stack(w_antipode, lift, w_coproduct(w)))
        rhs = nabla(formal.map_stack(lift, w_antipode, w_coproduct(w)))
        expected = eta_eps(single(w))
        assert lhs == expected, w
        assert rhs == expected, w


# ---------------------------------------------------------------------------
# Splitting map


def test_split_examples():
    assert split(w_word(EMPTY)) == single(formal.word(NCPartition([])))
    two = split(w_word(AB))
    assert len(two) == 2
    blocks = {b.letters[0].blocks for b in two.terms}
    assert blocks == {((1, 2),), ((1,), (2,))}
    assert all(b.letters[0].colors == (0, 1) for b in two.terms)
    three = split(w_word(letter_word([0, 0, 0])))
    assert len(three) == 5
    assert split(W_ONE) == single(formal.ONE)


def test_split_equals_the_letter_by_letter_product():
    words = all_w_words((0, 1), 4, 2)
    for w in words:
        assert split(w) == split_by_letters(w), w.text()
    rng = random.Random(29)
    for _ in range(20):
        picks = [rng.choice(words) for _ in range(5)]
        # repeated words: their coefficients add up, or cancel
        s = formal.FormalSum([(w, rng.randint(-2, 2)) for w in picks + picks[:3]])
        assert split(s) == split_by_letters(s)
    assert split(formal.FormalSum([(w_word(AB), 2), (w_word(AB), -2)])).is_zero()


def test_split_intertwines_half_coproducts():
    for w in all_w_words((0, 1), 4, 2):
        if w.is_unit():
            continue
        lhs_prec = formal.map_stack(split, split, w_delta_prec(w))
        rhs_prec = formal.delta_prec(split(w))
        assert lhs_prec == rhs_prec, w
        lhs_succ = formal.map_stack(split, split, w_delta_succ(w))
        rhs_succ = formal.delta_succ(split(w))
        assert lhs_succ == rhs_succ, w


def test_split_counit_compatibility():
    for w in WORDS:
        left = formal.eta_eps(split(w))
        expected = split(eta_eps(single(w)))
        assert left == expected


def test_split_is_not_an_insertion_morphism():
    lhs, rhs = split_insert_defect(A, [w_word(B).letters[0], EMPTY])
    assert lhs != rhs
    # splitting the inserted word sees colorings that straddle the insertion
    assert len(lhs) == 2 and len(rhs) == 1


# ---------------------------------------------------------------------------
# Morphisms through the splitting map


@pytest.fixture(scope="module")
def space():
    return OVMatrixSpace(d=2, k=2, variables=2, seed=47)


def test_pullback_of_unit_is_unit(space):
    unit_nc = eta_eps_morphism(space)
    unit_w = eta_eps_morphism(space, WWord)
    assert morphism_dev(precompose(unit_nc, split, word_type=WWord), unit_w, WORDS) <= 1e-12


def test_pullback_of_free_exponential_gives_moments(space):
    families = cumulant_families(space)
    K = exp_prec(family_infinitesimal(families["free"]))
    e_w = moment_morphism(families["moment"], WWord)
    words = all_w_words((0, 1), 3, 1)
    assert morphism_dev(precompose(K, split, word_type=WWord), e_w, words) <= 1e-9


def test_pullback_of_boolean_exponential_gives_moments(space):
    from ovc.morphisms import exp_succ

    families = cumulant_families(space)
    B = exp_succ(family_infinitesimal(families["boolean"]))
    e_w = moment_morphism(families["moment"], WWord)
    words = all_w_words((0, 1), 3, 1)
    assert morphism_dev(precompose(B, split, word_type=WWord), e_w, words) <= 1e-9


def test_word_exponentials_factor_through_splitting(space):
    # solving the fixed point on the words side agrees with solving it on
    # the partition side and pulling back: the infinitesimal data only
    # survives on one-block colorings, so both routes see the same input
    from ovc.morphisms import exp_succ

    families = cumulant_families(space)
    free, boolean = families["free"], families["boolean"]
    words = all_w_words((0, 1), 3, 2)
    left_w = exp_prec(family_infinitesimal(free, WWord))
    left_nc = precompose(exp_prec(family_infinitesimal(free)), split, word_type=WWord)
    assert morphism_dev(left_w, left_nc, words) <= 1e-9
    right_w = exp_succ(family_infinitesimal(boolean, WWord))
    right_nc = precompose(exp_succ(family_infinitesimal(boolean)), split, word_type=WWord)
    assert morphism_dev(right_w, right_nc, words) <= 1e-9


def test_builders_read_the_table_entries_on_both_word_types(space):
    # a letter word's letter_partition is its one-block coloring, so the
    # generic builders hand back the table entry itself, on letter words
    # as on one-block partitions; on other partitions they are unchanged:
    # e_pi_map for moments, no generator for the infinitesimals
    import numpy as np

    from ovc.cumulants import e_pi_map

    families = cumulant_families(space)
    moments = families["moment"]
    w_moments = moment_morphism(moments, WWord)
    w_infs = {kind: family_infinitesimal(t, WWord) for kind, t in families.items()}
    for w in all_w_words((0, 1), 4, 1):
        if w.is_unit():
            continue
        (x,) = w.letters
        assert w_moments.letter_value(x) is moments.generator(x.colors)
        for kind, inf in w_infs.items():
            ((_, maps),) = inf.value(w).terms
            assert maps[0] is families[kind].generator(x.colors)
    nc_moments = moment_morphism(moments)
    nc_infs = {kind: family_infinitesimal(t) for kind, t in families.items()}
    for w in formal.all_words(4, 1):
        if w.is_unit():
            continue
        (pi,) = w.letters
        colors = (0,) * pi.size
        value = nc_moments.letter_value(pi)
        if pi.n_blocks == 1:
            assert value is moments.generator(colors)
        else:
            assert np.array_equal(value.tensor(), e_pi_map(pi, moments).tensor())
        for kind, inf in nc_infs.items():
            expected = families[kind].generator(colors) if pi.n_blocks == 1 else None
            assert inf.gen(pi) is expected


def test_letter_word_block_bound_is_the_finest_split():
    for w in all_w_words((0, 1), 4, 2):
        assert w.total_blocks == max(b.total_blocks for b in split(w).terms)


def test_power_series_round_trip_on_letter_words(space):
    from ovc.morphisms import exp_star, log_star, seeded_infinitesimal

    k = seeded_infinitesimal(space, seed=48, word_type=WWord)
    words = all_w_words((0, 1), 4, 2)
    assert morphism_dev(log_star(exp_star(k)), k, words) <= 1e-9


def test_verify_fixed_points_small(space):
    from ovc.suites import VerifyContext, suite_splitting

    rows = {r["id"]: r for r in suite_splitting(VerifyContext(space, max_order=3))}
    for ident in ("splitting.free-fixed-point", "splitting.boolean-fixed-point"):
        assert rows[ident]["passed"] and rows[ident]["dev"] <= 1e-9, rows[ident]


def test_letter_word_text():
    assert letter_word_to_text(EMPTY) == "e"
    assert letter_word_to_text(letter_word([0, 1, 0])) == "a.b.a"
    assert w_word(EMPTY, AB).text() == "[e][a.b]" and W_ONE.text() == "1"
