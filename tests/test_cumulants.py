import itertools

import numpy as np
import pytest

from ovc.cumulants import (
    build_boolean,
    build_free,
    build_monotone,
    contiguous_blocks,
    e_pi,
    e_pi_map,
    family_sum_map,
    moment_family,
    verify_mc,
)
from ovc.ncpart import NCPartition, enumerate_nc, full_partition
from ovc.ovps import OVMatrixSpace, multimap_dev, multimap_eq, random_matrix


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
    fam = moment_family(space)
    pi = colored([(1, 2, 3)], (0, 0, 0))
    assert multimap_eq(e_pi_map(pi, fam), fam.generator((0, 0, 0)), tol=1e-12)


def test_two_singletons_collapse_orders_agree(space):
    fam = moment_family(space)
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
    got = e_pi(pi, fam, args)
    assert np.max(np.abs(outer_first - inner_first)) <= 1e-10
    assert np.max(np.abs(got - outer_first)) <= 1e-10


def test_nested_block_evaluation(space):
    fam = moment_family(space)
    pi = colored([(1, 3), (2,)], (0, 0, 0))
    args = random_args(space, 4, seed=2)
    a = space.variable(0)
    inner = space.cond_expect(space.embed(args[1]) @ a @ space.embed(args[2]))
    expected = space.cond_expect(
        space.embed(args[0]) @ a @ space.embed(inner) @ a @ space.embed(args[3])
    )
    assert np.max(np.abs(e_pi(pi, fam, args) - expected)) <= 1e-10


def test_collapse_order_independence(space):
    fam = moment_family(space)
    for p in range(1, 6):
        for pi in enumerate_nc(p):
            word = tuple(i % 2 for i in range(p))
            cpi = NCPartition(pi.blocks, colors=word)
            if len(contiguous_blocks(cpi)) < 2:
                continue
            first = e_pi_map(cpi, fam, pick=0)
            last = e_pi_map(cpi, fam, pick=-1)
            assert multimap_dev(first, last) <= 1e-10, cpi


def test_order_one_cumulants_all_agree(space):
    moments = moment_family(space)
    for fam in (build_free(moments), build_boolean(moments), build_monotone(moments)):
        assert multimap_eq(fam.generator((0,)), moments.generator((0,)), tol=1e-12)
        assert multimap_eq(fam.generator((1,)), moments.generator((1,)), tol=1e-12)


def test_order_two_free_equals_boolean(space):
    moments = moment_family(space)
    free, boolean = build_free(moments), build_boolean(moments)
    # only two partitions at order 2 and both are interval partitions
    assert multimap_eq(free.generator((0, 0)), boolean.generator((0, 0)), tol=1e-11)
    k2 = free.generator((0, 0))
    e2, e3 = moments.generator((0,)), moments.generator((0, 0))
    args = random_args(space, 3, seed=3)
    nested = e2.eval(args[0], e2.eval(args[1], args[2]))
    expected = e3.eval(*args) - nested
    assert np.max(np.abs(k2.eval(*args) - expected)) <= 1e-10


def test_order_two_monotone_equals_free(space):
    moments = moment_family(space)
    free, monotone = build_free(moments), build_monotone(moments)
    assert multimap_eq(free.generator((0, 0)), monotone.generator((0, 0)), tol=1e-11)


def test_order_three_boolean_differs_from_free(space):
    moments = moment_family(space)
    free, boolean = build_free(moments), build_boolean(moments)
    assert not multimap_eq(free.generator((0, 0, 0)), boolean.generator((0, 0, 0)))


def test_verify_mc_small(space):
    report = verify_mc(space, order=3)
    assert all(v <= 1e-10 for v in report["max_dev"].values()), report["max_dev"]


def test_verify_mc_scalar_space(scalar_space):
    report = verify_mc(scalar_space, order=4)
    assert all(v <= 1e-9 for v in report["max_dev"].values()), report["max_dev"]


def test_verify_mc_two_variables(space):
    words = [(0, 1), (0, 1, 0), (1, 0, 0, 1)]
    report = verify_mc(space, order=4, words=words)
    assert all(v <= 1e-9 for v in report["max_dev"].values()), report["max_dev"]


def test_corrupted_table_fails(space):
    moments = moment_family(space)
    families = {
        "free": build_free(moments),
        "boolean": build_boolean(moments),
        "monotone": build_monotone(moments),
    }
    leaf = moments.generator((0, 0))
    before = leaf.tensor().copy()
    families["free"].corrupt((0, 0))
    report = verify_mc(space, order=3, families=families)
    assert report["max_dev"]["free"] > 1e-6
    assert report["max_dev"]["boolean"] <= 1e-10
    assert report["max_dev"]["monotone"] <= 1e-10
    # the moment leaves the families share are untouched
    assert moments.generator((0, 0)) is leaf
    assert np.array_equal(leaf.tensor(), before)


def test_families_share_the_moment_leaf_of_each_word(space):
    moments = moment_family(space)
    families = [build_free(moments), build_boolean(moments), build_monotone(moments)]
    for word in [(0,), (0, 1), (1, 0, 0)]:
        leaf = moments.generator(word)
        # entries hold their tensors from the moment they are built
        assert leaf.kind == "gen" and leaf._tensor is not None
        for fam in families:
            gen = fam.generator(word)
            assert gen.kind == "lincomb" and gen._tensor is not None
            assert gen.parts[0] == (1, leaf)


def test_family_order_bound(space):
    fam = moment_family(space, max_order=2)
    with pytest.raises(ValueError):
        fam.generator((0, 0, 0))


def test_family_builds_are_bitwise_deterministic(space):
    # query order must not influence the built tables
    from ovc.ovps import elementary_batch

    first = build_free(moment_family(space))
    first.generator((0, 0, 0))
    first.generator((0, 0))
    second = build_free(moment_family(space))
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
    moments = moment_family(space)
    rng = np.random.default_rng(31)
    beta, gamma = random_matrix(rng, space.d), random_matrix(rng, space.d)
    for fam in (moments, build_free(moments), build_boolean(moments), build_monotone(moments)):
        for word in [(0,), (0, 1), (0, 0, 1)]:
            gen = fam.generator(word)
            args = random_args(space, gen.arity, seed=37)
            framed = [beta @ args[0]] + args[1:-1] + [args[-1] @ gamma]
            lhs = gen.eval(*framed)
            rhs = beta @ gen.eval(*args) @ gamma
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(rhs)))
