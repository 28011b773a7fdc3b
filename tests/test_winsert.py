import itertools

import pytest

from ovc import formal
from ovc.formal import (
    UnitWordError,
    counit,
    delta_prec_plus,
    delta_succ_plus,
    eta_eps,
    nabla,
    single,
    stack,
)
from ovc.morphisms import eta_eps_morphism, exp_prec, family_infinitesimal, morphism_dev
from ovc.ncpart import ArityMismatch, NCPartition
from ovc.ovps import OVMatrixSpace
from ovc.winsert import (
    EMPTY_WORD,
    W_COALGEBRA,
    W_ONE,
    LetterWord,
    WWord,
    all_w_words,
    letter_cuts,
    letter_word_to_text,
    pullback,
    split,
    split_insert_defect,
    verify_fixed_points,
    w_antipode,
    w_coproduct,
    w_delta_prec,
    w_delta_succ,
    w_moment_morphism,
    w_reduced_coproduct,
    w_word,
    word_insert,
)

A, B, C = LetterWord([0]), LetterWord([1]), LetterWord([2])
AB = LetterWord([0, 1])


def lift(x):
    return x


WORDS = all_w_words((0, 1), 3, 2)
SINGLES = all_w_words((0, 1), 4, 1, min_letters=1)


# ---------------------------------------------------------------------------
# Insertion operad


def test_word_insert_examples():
    assert word_insert(EMPTY_WORD, [B]) == B
    assert word_insert(A, [B, C]) == LetterWord([1, 0, 2])
    assert word_insert(AB, [EMPTY_WORD, C, EMPTY_WORD]) == LetterWord([0, 2, 1])
    with pytest.raises(ArityMismatch):
        word_insert(A, [B])


def test_insertion_operad_laws():
    words = [EMPTY_WORD, A, B, AB]
    for x in words:
        assert word_insert(x, [EMPTY_WORD] * x.arity) == x
        assert word_insert(EMPTY_WORD, [x]) == x
    # associativity through the two-stage composite
    for x in [A, AB]:
        for ys in itertools.product([EMPTY_WORD, A, B], repeat=x.arity):
            mid = word_insert(x, ys)
            pool = [EMPTY_WORD, C]
            for zs in itertools.product(pool, repeat=mid.arity):
                direct = word_insert(mid, zs)
                pos, inner = 0, []
                for y in ys:
                    inner.append(word_insert(y, zs[pos : pos + y.arity]))
                    pos += y.arity
                assert direct == word_insert(x, inner)


def test_w_vcompose_units():
    for w in WORDS:
        assert w.vcompose(WWord.unit(w.inputs)) == w
        assert WWord.unit(w.outputs).vcompose(w) == w


# ---------------------------------------------------------------------------
# Coproducts


def test_letter_cuts_are_memoised_and_immutable():
    x = LetterWord([0, 1, 0])
    first = letter_cuts(x)
    again = letter_cuts(LetterWord([0, 1, 0]))
    assert first == again and len(first) == 2 ** x.size
    assert again is first
    assert isinstance(first, tuple)
    assert all(isinstance(cut, tuple) and isinstance(cut[1], tuple) for cut in first)
    with pytest.raises(TypeError):
        first[0] = first[1]
    assert (LetterWord([0, 0]), (EMPTY_WORD, B, EMPTY_WORD), True) in first
    assert letter_cuts(EMPTY_WORD) == ((EMPTY_WORD, (EMPTY_WORD,), False),)


def test_w_coproduct_single_letter():
    got = w_coproduct(w_word(A))
    expected = single(stack(w_word(EMPTY_WORD), w_word(A))) + single(
        stack(w_word(A), WWord.unit(2))
    )
    assert got == expected


def test_w_coproduct_two_letter_word():
    got = w_coproduct(w_word(AB))
    assert len(got) == 4
    assert got.coeff(stack(w_word(EMPTY_WORD), w_word(AB))) == 1
    assert got.coeff(stack(w_word(AB), WWord.unit(3))) == 1
    assert got.coeff(stack(w_word(A), w_word(EMPTY_WORD, B))) == 1
    assert got.coeff(stack(w_word(B), w_word(A, EMPTY_WORD))) == 1


def test_w_half_coproducts():
    reduced = w_delta_prec(w_word(AB))
    assert reduced == single(stack(w_word(A), w_word(EMPTY_WORD, B)))
    assert w_delta_succ(w_word(AB)) == single(stack(w_word(B), w_word(A, EMPTY_WORD)))
    assert delta_prec_plus(w_word(A)) == single(stack(w_word(A), WWord.unit(2)))
    assert delta_succ_plus(w_word(A)) == single(stack(w_word(EMPTY_WORD), w_word(A)))
    with pytest.raises(UnitWordError):
        w_delta_prec(W_ONE)


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
    assert w_antipode(w_word(EMPTY_WORD)) == single(w_word(EMPTY_WORD))
    assert w_antipode(w_word(A)) == single(w_word(A), -1)
    assert w_antipode(w_word(AB)) == single(w_word(AB))


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
    assert split(w_word(EMPTY_WORD)) == single(formal.word(NCPartition([])))
    two = split(w_word(AB))
    assert len(two) == 2
    blocks = {b.letters[0].blocks for b in two.terms}
    assert blocks == {((1, 2),), ((1,), (2,))}
    assert all(b.letters[0].colors == (0, 1) for b in two.terms)
    three = split(w_word(LetterWord([0, 0, 0])))
    assert len(three) == 5
    assert split(W_ONE) == single(formal.ONE)


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
    lhs, rhs = split_insert_defect(A, [w_word(B).letters[0], EMPTY_WORD])
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
    unit_w = eta_eps_morphism(space, W_COALGEBRA)
    assert morphism_dev(pullback(unit_nc), unit_w, WORDS) <= 1e-12


def test_pullback_of_free_exponential_gives_moments(space):
    from ovc.cumulants import build_free, moment_family

    free = build_free(moment_family(space))
    K = exp_prec(family_infinitesimal(free))
    e_w = w_moment_morphism(space)
    words = all_w_words((0, 1), 3, 1)
    assert morphism_dev(pullback(K), e_w, words) <= 1e-9


def test_pullback_of_boolean_exponential_gives_moments(space):
    from ovc.cumulants import build_boolean, moment_family
    from ovc.morphisms import exp_succ

    boolean = build_boolean(moment_family(space))
    B = exp_succ(family_infinitesimal(boolean))
    e_w = w_moment_morphism(space)
    words = all_w_words((0, 1), 3, 1)
    assert morphism_dev(pullback(B), e_w, words) <= 1e-9


def test_word_exponentials_factor_through_splitting(space):
    # solving the fixed point on the words side agrees with solving it on
    # the partition side and pulling back: the infinitesimal data only
    # survives on one-block colorings, so both routes see the same input
    from ovc.cumulants import build_boolean, build_free, moment_family
    from ovc.morphisms import exp_succ
    from ovc.winsert import w_family_infinitesimal

    moments = moment_family(space)
    free, boolean = build_free(moments), build_boolean(moments)
    words = all_w_words((0, 1), 3, 2)
    left_w = exp_prec(w_family_infinitesimal(free))
    left_nc = pullback(exp_prec(family_infinitesimal(free)))
    assert morphism_dev(left_w, left_nc, words) <= 1e-9
    right_w = exp_succ(w_family_infinitesimal(boolean))
    right_nc = pullback(exp_succ(family_infinitesimal(boolean)))
    assert morphism_dev(right_w, right_nc, words) <= 1e-9


def test_verify_fixed_points_small(space):
    report = verify_fixed_points(space, max_order=3)
    assert report["passed"], report
    assert report["free_dev"] <= 1e-9 and report["boolean_dev"] <= 1e-9


def test_letter_word_text():
    assert letter_word_to_text(EMPTY_WORD) == "e"
    assert letter_word_to_text(LetterWord([0, 1, 0])) == "a.b.a"
    assert w_word(EMPTY_WORD, AB).text() == "[e][a.b]" and W_ONE.text() == "1"
