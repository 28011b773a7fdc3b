import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc import formal, morphisms, ovps
from ovc.cumulants import cumulant_families, e_pi_map
from ovc.formal import antipode, all_words, unit_word, word
from ovc.morphisms import (
    WORD_BASIS_LIMIT,
    UnitAmbiguity,
    WordSum,
    convolve,
    eta_eps_morphism,
    exp_prec,
    exp_star,
    exp_succ,
    family_infinitesimal,
    half_prec,
    half_succ,
    log_star,
    moment_morphism,
    morphism_dev,
    operadic_extension,
    precompose,
    seeded_infinitesimal,
    shuffle,
)
from ovc.ncpart import (
    EMPTY,
    NCPartition,
    enumerate_nc,
    full_partition,
    tree_factorial,
)
from ovc.ovps import (
    DimensionMismatch,
    MultiMap,
    OVMatrixSpace,
    deviation,
    elementary_batch,
    exchange_dev,
    moment_map,
    multimap_compose,
    multimap_dev,
    multimap_lincomb,
    multimap_partial,
    random_multimap,
    sandwich_map,
)
from reference_walk import walk_eval
from strategies import multimap_trees

TOL = 1e-9


@pytest.fixture(scope="module")
def space():
    return OVMatrixSpace(d=2, k=2, variables=2, seed=41)


@pytest.fixture(scope="module")
def scalar_space():
    return OVMatrixSpace(d=1, k=4, variables=1, seed=43)


@pytest.fixture(scope="module")
def words3():
    return all_words(3, 2)


def gen1(n):
    return full_partition(n - 1)


# ---------------------------------------------------------------------------
# Convolution monoid


def test_convolution_unit_laws(space, words3):
    unit = eta_eps_morphism(space)
    f = seeded_infinitesimal(space, seed=1)
    assert morphism_dev(convolve(unit, f), f, words3) <= 1e-12
    assert morphism_dev(convolve(f, unit), f, words3) <= 1e-12


def test_convolution_associativity(space):
    f = seeded_infinitesimal(space, seed=2)
    g = seeded_infinitesimal(space, seed=3)
    h = seeded_infinitesimal(space, seed=4)
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    assert morphism_dev(left, right, all_words(4, 2)) <= TOL


def test_pros_morphism_inverse_is_antipode_pullback(space):
    # a morphism compatible with insertion is convolution-inverted by
    # precomposition with the antipode
    moments = moment_morphism(cumulant_families(space)["moment"])
    inv = precompose(moments, antipode)
    unit = eta_eps_morphism(space)
    words = all_words(4, 1) + [unit_word(2), word(gen1(2), gen1(2))]
    assert morphism_dev(convolve(moments, inv), unit, words) <= TOL
    assert morphism_dev(convolve(inv, moments), unit, words) <= TOL


# ---------------------------------------------------------------------------
# Half-shuffles


def test_half_shuffle_unit_conventions(space, words3):
    unit = eta_eps_morphism(space)
    f = seeded_infinitesimal(space, seed=5)
    assert morphism_dev(half_prec(f, unit), f, words3) <= 1e-12
    assert morphism_dev(half_succ(unit, f), f, words3) <= 1e-12
    zero = 0 * eta_eps_morphism(space)
    assert morphism_dev(half_prec(unit, f), zero, words3) <= 1e-12
    assert morphism_dev(half_succ(f, unit), zero, words3) <= 1e-12
    with pytest.raises(UnitAmbiguity):
        half_prec(unit, unit)


def test_half_shuffles_sum_to_convolution(space, words3):
    f = seeded_infinitesimal(space, seed=6)
    g = seeded_infinitesimal(space, seed=7)
    lhs = half_prec(f, g) + half_succ(f, g)
    assert morphism_dev(lhs, convolve(f, g), words3) <= TOL


def test_shuffle_axioms(space, words3):
    f = seeded_infinitesimal(space, seed=8)
    g = seeded_infinitesimal(space, seed=9)
    h = seeded_infinitesimal(space, seed=10)
    a1l = half_prec(half_prec(f, g), h)
    a1r = half_prec(f, shuffle(g, h))
    assert morphism_dev(a1l, a1r, words3) <= TOL
    a2l = half_prec(half_succ(f, g), h)
    a2r = half_succ(f, half_prec(g, h))
    assert morphism_dev(a2l, a2r, words3) <= TOL
    a3l = half_succ(f, half_succ(g, h))
    a3r = half_succ(shuffle(f, g), h)
    assert morphism_dev(a3l, a3r, words3) <= TOL


def test_left_right_inverse_lemma(space, words3):
    x = seeded_infinitesimal(space, seed=11)
    lhs = convolve(exp_succ((-1) * x), exp_prec(x))
    assert morphism_dev(lhs, eta_eps_morphism(space), words3) <= TOL


# ---------------------------------------------------------------------------
# Exponentials


def test_a_morphism_defined_through_itself_recurses_on_smaller_words(space, words3):
    # X = k + k > X: the cut that moves all of w above has a unit lower
    # word, where k vanishes, so X is never evaluated on w itself
    k = seeded_infinitesimal(space, seed=3)
    X = morphisms.Morphism(space, 0, lambda w: rhs.value(w))
    rhs = k + half_succ(k, X)
    for w in words3:
        X.value(w)
    for n in range(1, 5):
        w = word(full_partition(n))
        assert multimap_dev(X.value(w), k.value(w)) == 0.0
    w = word(NCPartition([(1,), (2,)]))
    assert multimap_dev(X.value(w), k.value(w)) > 0.1


def test_exp_prec_on_single_blocks(space):
    k = seeded_infinitesimal(space, seed=12)
    K = exp_prec(k)
    for n in range(1, 5):
        pi = gen1(n + 1)
        assert multimap_dev(K.letter_value(word(pi)), k.gen(word(pi))) <= 1e-12


def test_exp_prec_on_nested_partition(space):
    k = seeded_infinitesimal(space, seed=13)
    K = exp_prec(k)
    pi = NCPartition([(1, 3), (2,)])
    got = K.letter_value(word(pi))
    # contributing cuts: keep everything (generator on pi itself) and keep
    # the outer block with the singleton inserted in its middle slot
    expected_terms = multimap_partial(k.gen(word(gen1(3))), 2, k.gen(word(gen1(2))))
    direct = k.gen(word(pi))
    combo = WordSum.sum(
        space, (pi.arity,), (WordSum.word(space, (expected_terms,)), WordSum.word(space, (direct,)))
    )
    assert multimap_dev(WordSum.word(space, (got,)), combo) <= TOL


def test_exp_prec_nested_single_block_support(space):
    # with the generator supported on one-block letters only, the nested
    # partition has a single contributing cut
    k = seeded_infinitesimal(space, seed=13, single_block=True)
    K = exp_prec(k)
    pi = NCPartition([(1, 3), (2,)])
    expected = multimap_partial(k.gen(word(gen1(3))), 2, k.gen(word(gen1(2))))
    assert multimap_dev(K.letter_value(word(pi)), expected) <= 1e-12


def test_exp_prec_solves_fixed_point(space, words3):
    k = seeded_infinitesimal(space, seed=14)
    K = exp_prec(k)
    rhs = eta_eps_morphism(space) + half_prec(k, K)
    assert morphism_dev(K, rhs, words3) <= TOL


def test_exp_succ_solves_fixed_point(space, words3):
    b = seeded_infinitesimal(space, seed=15)
    B = exp_succ(b)
    rhs = eta_eps_morphism(space) + half_succ(B, b)
    assert morphism_dev(B, rhs, words3) <= TOL


def test_exp_succ_boolean_structure(space):
    # with single-block support and exchangeable generators the solution
    # kills nested blocks and reverses chains on interval partitions
    moments = cumulant_families(space)["moment"]
    b = family_infinitesimal(moments)
    B = exp_succ(b)
    nested = NCPartition([(1, 3), (2,)])
    zero = WordSum(space, (nested.arity,))
    assert multimap_dev(WordSum.word(space, (B.letter_value(word(nested)),)), zero) <= TOL
    two = NCPartition([(1,), (2,)])
    g2 = b.gen(word(gen1(2)))
    expected = multimap_partial(g2, 1, g2)
    assert multimap_dev(B.letter_value(word(two)), expected) <= TOL
    three = NCPartition([(1,), (2,), (3,)])
    chain = multimap_partial(multimap_partial(g2, 1, g2), 1, g2)
    assert multimap_dev(B.letter_value(word(three)), chain) <= TOL


def test_exp_succ_chain_with_mixed_block_sizes(space):
    moments = cumulant_families(space)["moment"]
    b = family_infinitesimal(moments)
    B = exp_succ(b)
    # interval partition with blocks {1,2} and {3}: the chain composes the
    # later block around the earlier one through the first slot
    pi = NCPartition([(1, 2), (3,)])
    expected = multimap_partial(b.gen(word(gen1(2))), 1, b.gen(word(gen1(3))))
    assert multimap_dev(B.letter_value(word(pi)), expected) <= TOL
    # and the mirrored shape {1} | {2,3}
    pi2 = NCPartition([(1,), (2, 3)])
    expected2 = multimap_partial(b.gen(word(gen1(3))), 1, b.gen(word(gen1(2))))
    assert multimap_dev(B.letter_value(word(pi2)), expected2) <= TOL


def test_exp_succ_on_single_blocks(space):
    b = seeded_infinitesimal(space, seed=16)
    B = exp_succ(b)
    for n in range(1, 5):
        pi = gen1(n + 1)
        assert multimap_dev(B.letter_value(word(pi)), b.gen(word(pi))) <= 1e-12


def test_exp_star_single_block(space):
    m = seeded_infinitesimal(space, seed=17)
    E = exp_star(m)
    for n in range(2, 5):
        w = word(gen1(n))
        assert multimap_dev(E.value(w), m.value(w)) <= TOL


def test_exp_star_matches_left_exponential_over_tree_factorial(scalar_space):
    m = seeded_infinitesimal(scalar_space, seed=18, single_block=True)
    star = exp_star(m)
    left = exp_prec(m)
    for p in range(1, 5):
        for pi in enumerate_nc(p):
            w = word(pi)
            weight = Fraction(1, tree_factorial(pi))
            expected = left.value(w).scale(weight)
            assert multimap_dev(star.value(w), expected) <= TOL, pi


def test_log_star_round_trips(space, words3):
    m = seeded_infinitesimal(space, seed=19)
    E = exp_star(m)
    back = log_star(E)
    assert morphism_dev(back, m, words3) <= TOL
    # and the other composition order, starting from a horizontal morphism
    K = exp_prec(seeded_infinitesimal(space, seed=20))
    again = exp_star(_as_infinitesimal_from(log_star(K), space))
    assert morphism_dev(again, K, words3) <= TOL


def _as_infinitesimal_from(m, space):
    from ovc.morphisms import InfinitesimalMorphism

    def gen(w1):
        return m.value(w1).collapse()

    return InfinitesimalMorphism(space, gen)


def test_letter_functions_take_one_letter_words_only(space):
    families = cumulant_families(space)
    two_letters = word(gen1(3), gen1(2))
    for letter_fn in (
        moment_morphism(families["moment"]).letter_value,
        exp_prec(seeded_infinitesimal(space, seed=13)).letter_value,
        family_infinitesimal(families["free"]).gen,
        seeded_infinitesimal(space, seed=13).gen,
    ):
        with pytest.raises(ValueError):
            letter_fn(two_letters)


def test_log_star_requires_normalized_unit(space):
    f = seeded_infinitesimal(space, seed=21)
    with pytest.raises(ValueError):
        log_star(f)


# ---------------------------------------------------------------------------
# Operadic extension


def test_operadic_extension_two_singletons(space):
    family = cumulant_families(space)["moment"]
    ext = operadic_extension(space, lambda w: family.generator(w))
    e2 = family.generator((0,))
    expected = multimap_partial(e2, 2, e2)
    got = ext.letter_value(word(NCPartition([(1,), (2,)])))
    assert multimap_dev(got, expected) <= 1e-10


def test_operadic_extension_matches_recursive_evaluator(space):
    family = cumulant_families(space)["moment"]
    color_words = [w for n in range(1, 4) for w in itertools.product((0, 1), repeat=n)]
    assert exchange_dev(family.generator, color_words) <= 1e-9
    ext = operadic_extension(space, family.generator)
    for p in range(5):
        for pi in enumerate_nc(p):
            colored = NCPartition(pi.blocks, colors=tuple(i % 2 for i in range(p)))
            assert multimap_dev(
                ext.letter_value(word(colored)), e_pi_map(colored, family)
            ) <= 1e-10, pi


def test_operadic_extension_equals_left_exponential_of_cumulants(space):
    free = cumulant_families(space)["free"]
    K = exp_prec(family_infinitesimal(free))
    ext = operadic_extension(space, lambda w: free.generator(w))
    for p in range(1, 5):
        for pi in enumerate_nc(p):
            assert multimap_dev(ext.letter_value(word(pi)), K.letter_value(word(pi))) <= TOL, pi


def test_exchange_dev_detects_noncommuting_generators(space):
    def bad_gen(word):
        # sandwich maps with unrelated random frames break the exchange rule
        return random_multimap(space, len(word) + 1, np.random.default_rng(len(word)))

    assert exchange_dev(bad_gen, [(0,) * n for n in range(1, 4)]) > 1e-6


def test_exp_star_rejects_unit_component(space):
    with pytest.raises(ValueError):
        exp_star(eta_eps_morphism(space))


# ---------------------------------------------------------------------------
# Infinitesimal locality, order bounds


def test_infinitesimal_locality(space):
    k = seeded_infinitesimal(space, seed=22)
    w = word(gen1(2), gen1(3))
    assert not k.value(w).terms
    padded = word(EMPTY, gen1(3), EMPTY)
    v = k.value(padded)
    assert v.profile == (1, 3, 1) and len(v.terms) == 1


def test_every_identity_is_the_space_identity(space):
    # the unit of the operad of maps is one node per space, wherever it
    # appears: an empty partition, the padding of a partial composition, the
    # empty letters of a morphism's word and a unit word's value
    moments = cumulant_families(space)["moment"]
    assert e_pi_map(EMPTY, moments) is space.identity
    e2 = moments.generator((0,))
    assert multimap_partial(e2, 1, e2).parts[2] is space.identity
    padded = word(EMPTY, gen1(3), EMPTY)
    (_, maps), = seeded_infinitesimal(space, seed=22).value(padded).terms
    assert maps[0] is maps[2] is space.identity
    assert moment_morphism(moments).value(padded).terms[0][1][0] is space.identity
    for unit in (unit_word(2), word(EMPTY, EMPTY)):
        (_, maps), = eta_eps_morphism(space).value(unit).terms
        assert all(m is space.identity for m in maps)


def test_morphisms_of_other_spaces_do_not_combine(space):
    other_space = OVMatrixSpace(d=2, k=2, variables=2, seed=41)
    unit = eta_eps_morphism(space)
    f = seeded_infinitesimal(space, seed=23)
    for other in (
        eta_eps_morphism(other_space),
        seeded_infinitesimal(other_space, seed=23),
    ):
        for left in (unit, f):
            for combine in (convolve, half_prec, lambda a, b: a + b):
                with pytest.raises(DimensionMismatch):
                    combine(left, other)
                with pytest.raises(DimensionMismatch):
                    combine(other, left)


def test_concurrent_evaluation_matches_sequential(space):
    from concurrent.futures import ThreadPoolExecutor

    sequential = exp_prec(seeded_infinitesimal(space, seed=24))
    words = [word(pi) for p in range(1, 5) for pi in enumerate_nc(p)]
    for w in words:
        sequential.value(w)
    concurrent = exp_prec(seeded_infinitesimal(space, seed=24))
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(concurrent.value, words * 2))
    dev = max(multimap_dev(concurrent.value(w), sequential.value(w)) for w in words)
    assert dev <= 1e-12


def test_word_sum_profile_checks_raise(space):
    e2 = moment_map(space, [0])
    e3 = moment_map(space, [0, 0])
    with pytest.raises(DimensionMismatch):
        WordSum(space, (2,), [(1, (e3,))])
    with pytest.raises(DimensionMismatch):
        WordSum.sum(space, (3,), (WordSum.word(space, (e2,)), WordSum.word(space, (e3,))))
    with pytest.raises(DimensionMismatch):
        WordSum.word(space, (e2, e2)).collapse()


# ---------------------------------------------------------------------------
# Whole-basis comparison through structure tensors


def _kron_reference(ws):
    """Per term, the Kronecker product of each map's reference-walk values
    on its own elementary batch, over every combination of rows."""
    d = ws.space.d
    total = 0
    for coeff, maps in ws.terms:
        values = [walk_eval(m, elementary_batch(d, m.arity)) for m in maps]
        rows = [
            functools.reduce(np.kron, combo, np.ones((1, 1)))
            for combo in itertools.product(*values)
        ]
        total = total + coeff * np.array(rows)
    return total


@st.composite
def word_sums(draw):
    """A sum of 1-3 words of 1-3 random map trees with at most 4 inputs."""
    d = draw(st.sampled_from((1, 2)))
    space = OVMatrixSpace(d=d, k=2, variables=2, seed=draw(st.integers(0, 99)))
    n_maps = draw(st.integers(min_value=1, max_value=3))
    profile = []
    for i in range(n_maps):
        spare = 4 - sum(profile) - (n_maps - 1 - i)
        profile.append(draw(st.integers(min_value=1, max_value=spare)))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                              allow_infinity=False),
                           min_size=1, max_size=3))
    terms = [(c, [draw(multimap_trees(space, a, depth=2)) for a in profile]) for c in coeffs]
    return WordSum(space, profile, terms)


@settings(max_examples=60, deadline=None)
@given(word_sums())
def test_word_sum_tensor_is_the_kronecker_product_of_map_values(ws):
    d = ws.space.d
    t = ws.tensor()
    side = d ** len(ws.profile)
    assert t.shape == ((d * d) ** sum(ws.profile), side, side)
    if ws.terms:
        assert deviation(t, _kron_reference(ws)) <= 1e-12
    else:
        assert not t.any()
    assert ws.tensor() is not t


def test_word_sum_tensor_above_the_basis_limit_is_none(space):
    leaf = random_multimap(space, 7, np.random.default_rng(2))
    assert WordSum.word(space, (leaf,)).tensor() is None


def _refuse_batches(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batch was evaluated")

    for owner, name in ((MultiMap, "eval_batch"), (WordSum, "eval_batch"),
                        (ovps, "elementary_batch"), (ovps, "probe_batch")):
        monkeypatch.setattr(owner, name, refuse)


def test_multimap_dev_compares_word_sum_tensors_at_the_basis_limit(space, monkeypatch):
    rng = np.random.default_rng(6)
    k = seeded_infinitesimal(space, seed=31)
    K = exp_prec(k)
    w = word(gen1(2), gen1(2))
    assert (space.d ** 2) ** sum(w.profile()) == WORD_BASIS_LIMIT
    walked = K.value(w).eval_batch(elementary_batch(space.d, 4))
    other = WordSum.word(space, (random_multimap(space, 2, rng),) * 2)
    expected = deviation(walked, other.eval_batch(elementary_batch(space.d, 4)))
    _refuse_batches(monkeypatch)
    assert multimap_dev(K.value(w), K.value(w)) == 0.0
    assert abs(multimap_dev(K.value(w), other) - expected) <= 1e-12 * expected


def test_multimap_dev_compares_word_sums_on_probes_above_the_basis_limit(space, monkeypatch):
    k = seeded_infinitesimal(space, seed=32)
    w = word(gen1(5))
    calls = []
    original = ovps.probe_batch
    monkeypatch.setattr(
        ovps, "probe_batch", lambda *a, **kw: calls.append(a) or original(*a, **kw)
    )
    assert multimap_dev(exp_prec(k).value(w), exp_prec(k).value(w)) == 0.0
    assert calls == [(space.d, 5)]


@pytest.mark.parametrize("arity, tensors", [(1, True), (4, True), (7, False)])
def test_a_map_and_its_one_letter_word_compare_alike(space, arity, tensors):
    # one switch and one probe seed: a map and the word of that one map
    # are read on the same basis, the elementary one or the same probes
    rng = np.random.default_rng(40 + arity)
    f, g = random_multimap(space, arity, rng), random_multimap(space, arity, rng)
    near = multimap_lincomb(space, arity, [(1, f), (1e-6, g)])
    assert (WordSum.word(space, (f,)).tensor() is not None) == tensors
    assert (f.tensor() is not None) == (arity <= 4)
    for a, b in ((f, g), (f, near), (f, f)):
        dev = multimap_dev(a, b)
        assert multimap_dev(WordSum.word(space, (a,)), WordSum.word(space, (b,))) == dev
    assert 0 < multimap_dev(f, near) < 1e-5


def test_multimap_dev_rejects_mixed_types_and_profiles(space):
    rng = np.random.default_rng(47)
    f2, f3 = random_multimap(space, 2, rng), random_multimap(space, 3, rng)
    f1 = random_multimap(space, 1, rng)
    mismatched = [
        (f3, WordSum.word(space, (f3,))),
        (WordSum.word(space, (f3,)), f3),
        (f2, f3),
        (WordSum.word(space, (f1, f2)), WordSum.word(space, (f2, f1))),
        (WordSum.word(space, (f3,)), WordSum.word(space, (f1, f2))),
        (WordSum(space, ()), WordSum.word(space, (f1,))),
    ]
    for a, b in mismatched:
        with pytest.raises(DimensionMismatch):
            multimap_dev(a, b)


def test_multimap_dev_on_empty_words_compares_coefficients(space):
    a = WordSum(space, (), [(2, ())])
    b = WordSum(space, (), [(1, ()), (1.5, ())])
    assert multimap_dev(a, a) == 0.0
    assert multimap_dev(a, b) == pytest.approx(0.5 / 2.5)


def test_seeded_infinitesimal_keeps_one_leaf_per_letter(space):
    letters = [gen1(2), gen1(3), NCPartition([(1,), (2,)])]
    forward = seeded_infinitesimal(space, seed=33)
    backward = seeded_infinitesimal(space, seed=33)
    first = [forward.gen(word(x)) for x in letters]
    second = [backward.gen(word(x)) for x in reversed(letters)][::-1]
    for x, f, g in zip(letters, first, second):
        assert forward.gen(word(x)) is f
        assert forward.gen(word(NCPartition(x.blocks))) is f
        assert np.array_equal(f.tensor(), g.tensor())
    assert first[0] is not second[0]
