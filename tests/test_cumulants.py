import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ovc import cumulants, ncpart
from ovc.cumulants import (
    CumulantFamily,
    cumulant_families,
    e_pi_map,
    family_sum_map,
    lattice,
    verify_mc,
)
from ovc.ncpart import MalformedPartition, NCPartition, enumerate_nc
from ovc.ovps import (
    DimensionMismatch,
    OVMatrixSpace,
    moment_map,
    multimap_dev,
    multimap_lincomb,
    probe_batch,
    random_matrix,
)
from ovc.winsert import letter_word
from reference_collapse import interval_blocks, rightmost_collapse

ORACLE = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"


@pytest.fixture(scope="module")
def space():
    return OVMatrixSpace(d=2, k=2, variables=2, seed=23)


@pytest.fixture(scope="module")
def scalar_space():
    return OVMatrixSpace(d=1, k=4, variables=2, seed=29)


def colored(blocks, word):
    return NCPartition(blocks, colors=tuple(word))


def random_args(space, n, seed=0):
    rng = np.random.default_rng(seed)
    return [random_matrix(rng, space.d) for _ in range(n)]


def test_single_block_is_the_generator(space):
    fam = cumulant_families(space)["moment"]
    pi = colored([(1, 2, 3)], (0, 0, 0))
    assert multimap_dev(e_pi_map(pi, fam), fam.generator((0, 0, 0))) <= 1e-12


def test_two_singletons_collapse_orders_agree(space):
    fam = cumulant_families(space)["moment"]
    pi = colored([(1,), (2,)], (0, 0))
    args = random_args(space, 3, seed=1)
    a = space.variable(0)
    outer_first = space.cond_expect(
        space.embed(args[0])
        @ a
        @ space.embed(space.cond_expect(space.embed(args[1]) @ a @ space.embed(args[2])))
    )
    inner_first = space.cond_expect(
        space.embed(space.cond_expect(space.embed(args[0]) @ a @ space.embed(args[1])))
        @ a
        @ space.embed(args[2])
    )
    got = e_pi_map(pi, fam).eval(*args)
    assert np.max(np.abs(outer_first - inner_first)) <= 1e-10
    assert np.max(np.abs(got - outer_first)) <= 1e-10


def test_nested_block_evaluation(space):
    fam = cumulant_families(space)["moment"]
    pi = colored([(1, 3), (2,)], (0, 0, 0))
    args = random_args(space, 4, seed=2)
    a = space.variable(0)
    inner = space.cond_expect(space.embed(args[1]) @ a @ space.embed(args[2]))
    expected = space.cond_expect(
        space.embed(args[0]) @ a @ space.embed(inner) @ a @ space.embed(args[3])
    )
    assert np.max(np.abs(e_pi_map(pi, fam).eval(*args) - expected)) <= 1e-10


def test_collapse_order_independence(space):
    fam = cumulant_families(space)["moment"]
    for p in range(1, 6):
        for pi in enumerate_nc(p):
            word = tuple(i % 2 for i in range(p))
            cpi = NCPartition(pi.blocks, colors=word)
            if len(interval_blocks(cpi)) < 2:
                continue
            first = e_pi_map(cpi, fam)
            last = rightmost_collapse(cpi, fam)
            assert multimap_dev(first, last) <= 1e-10, cpi


def test_order_one_cumulants_all_agree(space):
    families = cumulant_families(space)
    moments = families["moment"]
    for fam in (families["free"], families["boolean"], families["monotone"]):
        assert multimap_dev(fam.generator((0,)), moments.generator((0,))) <= 1e-12
        assert multimap_dev(fam.generator((1,)), moments.generator((1,))) <= 1e-12


def test_order_two_free_equals_boolean(space):
    families = cumulant_families(space)
    moments, free, boolean = families["moment"], families["free"], families["boolean"]
    # only two partitions at order 2 and both are interval partitions
    assert multimap_dev(free.generator((0, 0)), boolean.generator((0, 0))) <= 1e-11
    k2 = free.generator((0, 0))
    e2, e3 = moments.generator((0,)), moments.generator((0, 0))
    args = random_args(space, 3, seed=3)
    nested = e2.eval(args[0], e2.eval(args[1], args[2]))
    expected = e3.eval(*args) - nested
    assert np.max(np.abs(k2.eval(*args) - expected)) <= 1e-10


def test_order_two_monotone_equals_free(space):
    families = cumulant_families(space)
    free, monotone = families["free"], families["monotone"]
    assert multimap_dev(free.generator((0, 0)), monotone.generator((0, 0))) <= 1e-11


def test_order_three_boolean_differs_from_free(space):
    families = cumulant_families(space)
    free, boolean = families["free"], families["boolean"]
    assert multimap_dev(free.generator((0, 0, 0)), boolean.generator((0, 0, 0))) > 1e-9


def test_verify_mc_small(space):
    report = verify_mc(cumulant_families(space), order=3)
    assert all(v <= 1e-10 for v in report["max_dev"].values()), report["max_dev"]


def test_verify_mc_targets_are_the_moment_leaves_of_its_families(space, monkeypatch):
    built, compared = Counter(), []
    real_moment_map, real_dev = cumulants.moment_map, cumulants.multimap_dev

    def counted_moment_map(space, word):
        built[tuple(word)] += 1
        return real_moment_map(space, word)

    def recorded_dev(f, g):
        compared.append(g)
        return real_dev(f, g)

    monkeypatch.setattr(cumulants, "moment_map", counted_moment_map)
    monkeypatch.setattr(cumulants, "multimap_dev", recorded_dev)
    families = cumulant_families(space)
    report = verify_mc(families, 3)
    assert built and max(built.values()) == 1  # one moment table, one leaf per word
    targets = [families["moment"].generator(row["word"]) for row in report["rows"]]
    assert compared == [t for t in targets for _ in range(3)]


def test_verify_mc_scalar_space(scalar_space):
    report = verify_mc(cumulant_families(scalar_space), order=4)
    assert all(v <= 1e-9 for v in report["max_dev"].values()), report["max_dev"]


def test_verify_mc_two_variables(space):
    families = cumulant_families(space)
    for word in [(0, 1), (0, 1, 0), (1, 0, 0, 1)]:
        target = families["moment"].generator(word)
        for kind in ncpart.CUMULANT_KINDS:
            dev = multimap_dev(family_sum_map(word, families[kind]), target)
            assert dev <= 1e-9, (word, kind, dev)


def test_corrupted_table_fails(space):
    families = cumulant_families(space)
    moments = families["moment"]
    leaf = moments.generator((0, 0))
    before = leaf.tensor().copy()
    families["free"].corrupt((0, 0))
    report = verify_mc(families, order=3)
    assert report["max_dev"]["free"] > 1e-6
    assert report["max_dev"]["boolean"] <= 1e-10
    assert report["max_dev"]["monotone"] <= 1e-10
    # the moment leaves the families share are untouched
    assert moments.generator((0, 0)) is leaf
    assert np.array_equal(leaf.tensor(), before)


def test_a_cumulant_table_rejects_the_moments_of_another_space(space, scalar_space):
    with pytest.raises(DimensionMismatch):
        CumulantFamily(space, "free", moments=CumulantFamily(scalar_space, "moment"))


def test_families_share_the_moment_leaf_of_each_word(space):
    families = cumulant_families(space)
    moments = families["moment"]
    for word in [(0,), (0, 1), (1, 0, 0)]:
        leaf = moments.generator(word)
        # entries hold their tensors from the moment they are built
        assert leaf.kind == "gen" and leaf._tensor is not None
        for kind in ("free", "boolean", "monotone"):
            gen = families[kind].generator(word)
            assert gen.kind == "lincomb" and gen._tensor is not None
            assert gen.parts[0] == (1, leaf)


def test_family_builds_are_bitwise_deterministic(space):
    # query order must not influence the built tables
    from ovc.ovps import elementary_batch

    first = cumulant_families(space)["free"]
    first.generator((0, 0, 0))
    first.generator((0, 0))
    second = cumulant_families(space)["free"]
    second.generator((0,))
    second.generator((0, 0))
    second.generator((0, 0, 0))
    batch = elementary_batch(space.d, 4)
    a = first.generator((0, 0, 0)).eval_batch(batch)
    b = second.generator((0, 0, 0)).eval_batch(batch)
    assert np.array_equal(a, b)


def test_generators_are_outer_bimodular(space):
    # each gap holds a single element of B, so interior regrouping is
    # automatic; the substantive remnant of balanced bilinearity is that
    # every generator intertwines left/right multiplication in the outer
    # slots, inherited from the bimodule property of the expectation
    rng = np.random.default_rng(31)
    beta, gamma = random_matrix(rng, space.d), random_matrix(rng, space.d)
    for fam in cumulant_families(space).values():
        for word in [(0,), (0, 1), (0, 0, 1)]:
            gen = fam.generator(word)
            args = random_args(space, gen.arity, seed=37)
            framed = [beta @ args[0]] + args[1:-1] + [args[-1] @ gamma]
            lhs = gen.eval(*framed)
            rhs = beta @ gen.eval(*args) @ gamma
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# The tables come from the first-block recursion; the lattice sums of
# ``verify_mc`` check them by another route.


class LatticeReference:
    """The tables the lattice sums define: each entry is the moment map
    minus the weighted evaluations of every other partition of its word."""

    def __init__(self, moments, kind):
        self.space, self.kind, self.moments = moments.space, kind, moments
        self._table = {}

    def generator(self, word):
        word = tuple(word)
        if word not in self._table:
            n = len(word)
            terms = [(1, self.moments.generator(word))]
            for weight, pi in lattice(self.kind, n):
                if pi.n_blocks > 1:
                    colored_pi = NCPartition(pi.blocks, colors=word)
                    terms.append((-weight, e_pi_map(colored_pi, self)))
            entry = multimap_lincomb(self.space, n + 1, terms)
            entry.tensor()
            self._table[word] = entry
        return self._table[word]


def values(gen):
    t = gen.tensor()
    if t is not None:
        return t
    return gen.eval_batch(probe_batch(gen.space.d, gen.arity))


def relative_gap(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


AGREEMENT_WORDS = [(0,) * n for n in range(1, 7)] + [(0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)]


@pytest.mark.parametrize("kind", ["free", "boolean", "monotone"])
def test_recursion_tables_match_the_lattice_subtraction(space, kind):
    moments = CumulantFamily(space, "moment")
    family = CumulantFamily(space, kind, moments=moments)
    reference = LatticeReference(moments, kind)
    for word in AGREEMENT_WORDS:
        got, want = values(family.generator(word)), values(reference.generator(word))
        assert relative_gap(got, want) <= 1e-10, word


def test_free_probe_entry_matches_the_dense_oracle(space):
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    oracle_module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(oracle_module)
    finally:
        sys.dont_write_bytecode = saved
    oracle = oracle_module.FreeCumulantOracle(space.variable(0), space.d, space.k)
    gen = cumulant_families(space)["free"].generator((0,) * 7)
    assert gen.tensor() is None  # the probe path
    batch = probe_batch(space.d, gen.arity, seed=5)
    np.testing.assert_allclose(
        gen.eval_batch(batch), oracle.free_cumulant(batch), rtol=1e-8, atol=1e-12
    )


def _monotone_weight_by_block_count(original):
    def mutated(kind, n):
        if kind != "monotone":
            return original(kind, n)
        return [(Fraction(1, max(pi.n_blocks, 1)), pi) for _, pi in original(kind, n)]

    return mutated


def _free_without_crossing_nests(original):
    # drops the non-interval partitions of three or more blocks
    def mutated(kind, n):
        if kind != "free":
            return original(kind, n)
        return [
            (w, pi)
            for w, pi in original(kind, n)
            if pi.n_blocks < 3 or pi.is_interval()
        ]

    return mutated


@pytest.mark.parametrize(
    "kind, mutation",
    [
        ("monotone", _monotone_weight_by_block_count),
        ("free", _free_without_crossing_nests),
    ],
)
def test_lattice_mutations_fail_the_check(space, monkeypatch, kind, mutation):
    monkeypatch.setattr(cumulants, "lattice", mutation(cumulants.lattice))
    report = verify_mc(cumulant_families(space), order=4)
    assert report["max_dev"][kind] > 1e-9, report["max_dev"]


def test_the_lattice_table_is_the_one_in_ncpart():
    # the mutations above patch the name family_sum_map reads
    assert cumulants.lattice is ncpart.lattice


@pytest.mark.parametrize("kind", ["moment", "bogus", "Free", None])
def test_the_lattice_rejects_a_kind_without_cumulants(kind):
    with pytest.raises(ValueError, match="no cumulant lattice"):
        lattice(kind, 4)
    sizes = {k: len(lattice(k, 4)) for k in ncpart.CUMULANT_KINDS}
    assert sizes == {"free": 14, "boolean": 8, "monotone": 14}


@pytest.mark.parametrize("word", [[1.9, True], ["1", "0"], [0.99], [True], [0, -1]])
def test_variable_words_are_read_as_strictly_as_letter_words(space, word):
    free = cumulant_families(space)["free"]
    entry_points = [
        letter_word,
        free.generator,
        free.corrupt,
        lambda w: moment_map(space, w),
    ]
    for read in entry_points:
        with pytest.raises(MalformedPartition):
            read(word)


def test_corruption_stays_in_its_entry(space):
    clean = cumulant_families(space)["free"]
    corrupted = cumulant_families(space)["free"]
    corrupted.corrupt((0, 0))
    assert not np.array_equal(
        corrupted.generator((0, 0)).tensor(), clean.generator((0, 0)).tensor()
    )
    assert np.array_equal(
        corrupted.generator((0, 0, 0)).tensor(), clean.generator((0, 0, 0)).tensor()
    )


def test_a_corrupted_entry_is_one_node(space):
    family = cumulant_families(space)["free"]
    family.corrupt((0, 0))
    assert family.generator((0, 0)) is family.generator([0, 0])
