import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc import ovps
from helpers import matrix_from_json
from reference_walk import walk_eval
from strategies import multimap_trees
from ovc.ovps import (
    DimensionMismatch,
    OVMatrixSpace,
    deviation,
    elementary_batch,
    matrix_to_json,
    moment_map,
    multimap_compose,
    multimap_dev,
    multimap_lincomb,
    multimap_partial,
    probe_batch,
    random_matrix,
    random_multimap,
    sandwich_map,
)


@pytest.fixture(scope="module")
def space():
    return OVMatrixSpace(d=2, k=2, variables=2, seed=11)


def test_cond_expect_unital(space):
    assert np.allclose(space.cond_expect(np.eye(space.dk)), np.eye(space.d), atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_a_value_that_is_not_finite_deviates_infinitely(bad):
    finite = np.ones((3, 2, 2), dtype=complex)
    other = finite.copy()
    other[1, 0, 1] = bad
    with np.errstate(invalid="ignore"):
        for x, y in ((finite, other), (other, finite), (other, other)):
            assert deviation(x, y) == np.inf


def test_cond_expect_retracts_embedding(space):
    rng = np.random.default_rng(3)
    b = random_matrix(rng, space.d)
    assert np.allclose(space.cond_expect(space.embed(b)), b, atol=1e-14)


def test_bimodule_property(space):
    rng = np.random.default_rng(5)
    a = random_matrix(rng, space.dk)
    b1, b2 = random_matrix(rng, space.d), random_matrix(rng, space.d)
    lhs = space.cond_expect(space.embed(b1) @ a @ space.embed(b2))
    rhs = b1 @ space.cond_expect(a) @ b2
    assert deviation(lhs, rhs) <= 1e-12


def test_space_validation():
    with pytest.raises(DimensionMismatch):
        OVMatrixSpace(d=2, k=2, variables={0: np.eye(3)})
    with pytest.raises(KeyError):
        OVMatrixSpace(d=1, k=1, variables=1).variable(5)


def test_moment_map_order_zero_is_identity(space):
    e1 = moment_map(space, [])
    rng = np.random.default_rng(1)
    b = random_matrix(rng, space.d)
    assert np.allclose(e1.eval(b), b, atol=1e-13)


def test_moment_map_at_identity(space):
    ev = moment_map(space, [0]).eval(np.eye(space.d), np.eye(space.d))
    assert np.allclose(ev, space.cond_expect(space.variable(0)), atol=1e-13)


def test_moment_generator_relation(space):
    # inserting one single-variable moment map into the last slot of another
    # equals inserting the other way around into the first slot
    for n in range(2, 5):
        for m in range(2, 5):
            en = moment_map(space, [0] * (n - 1))
            em = moment_map(space, [0] * (m - 1))
            left = multimap_partial(en, n, em)
            right = multimap_partial(em, 1, en)
            assert multimap_dev(left, right) <= 1e-10


def test_compose_with_identities_is_identity(space):
    f = moment_map(space, [0, 1])
    assert multimap_compose(f, [space.identity] * f.arity) is f


def test_nested_composition_matches_direct_matrix_computation(space):
    e2 = moment_map(space, [0])
    nested = multimap_partial(e2, 2, e2)
    rng = np.random.default_rng(8)
    a = space.variable(0)
    bs = [random_matrix(rng, space.d) for _ in range(3)]
    inner = space.cond_expect(space.embed(bs[1]) @ a @ space.embed(bs[2]))
    expected = space.cond_expect(space.embed(bs[0]) @ a @ space.embed(inner))
    assert deviation(nested.eval(*bs), expected) <= 1e-12


def test_composition_associativity(space):
    rng = np.random.default_rng(21)
    f = random_multimap(space, 2, rng)
    g = random_multimap(space, 2, rng)
    h = random_multimap(space, 3, rng)
    one_way = multimap_partial(multimap_partial(f, 2, g), 1, h)
    other = multimap_partial(multimap_partial(f, 1, h), 4, g)
    assert multimap_dev(one_way, other) <= 1e-10


def test_multimap_eq_basics(space):
    # equality of maps is a deviation within the default tolerance
    e2 = moment_map(space, [0])
    e3 = moment_map(space, [0, 0])
    assert multimap_dev(e2, e2) <= 1e-9
    assert multimap_dev(multimap_partial(e2, 2, e2), multimap_partial(e2, 1, e2)) <= 1e-9
    assert multimap_dev(e3, multimap_partial(e2, 2, e2)) > 1e-9
    with pytest.raises(DimensionMismatch):
        multimap_dev(e2, e3)


def test_multilinearity(space):
    f = moment_map(space, [0, 1])
    rng = np.random.default_rng(13)
    base = [random_matrix(rng, space.d) for _ in range(f.arity)]
    for slot in range(f.arity):
        x, y = random_matrix(rng, space.d), random_matrix(rng, space.d)
        lam = 0.7 - 0.2j
        args_sum = list(base)
        args_sum[slot] = x + lam * y
        args_x, args_y = list(base), list(base)
        args_x[slot] = x
        args_y[slot] = y
        lhs = f.eval(*args_sum)
        rhs = f.eval(*args_x) + lam * f.eval(*args_y)
        assert deviation(lhs, rhs) <= 1e-10


def test_lincomb_eval(space):
    e2 = moment_map(space, [0])
    doubled = multimap_lincomb(space, 2, [(1, e2), (1, e2)])
    rng = np.random.default_rng(2)
    bs = [random_matrix(rng, space.d) for _ in range(2)]
    assert deviation(doubled.eval(*bs), 2 * e2.eval(*bs)) <= 1e-13


def test_maps_of_two_spaces_neither_combine_nor_compose(space):
    other = OVMatrixSpace(d=2, k=2, variables=2, seed=12)
    e2, foreign = moment_map(space, [0]), moment_map(other, [0])
    with pytest.raises(DimensionMismatch):
        multimap_lincomb(space, 2, [(1, e2), (1, foreign)])
    with pytest.raises(DimensionMismatch):
        multimap_lincomb(space, 2, [(1, foreign)])
    with pytest.raises(DimensionMismatch):
        multimap_compose(e2, (space.identity, foreign))


def test_compose_letterwise_matches_direct_nesting(space):
    e2 = moment_map(space, [0])
    rng = np.random.default_rng(4)
    bs = [random_matrix(rng, space.d) for _ in range(4)]
    direct = e2.eval(e2.eval(*bs[:2]), e2.eval(*bs[2:4]))
    composed = multimap_compose(e2, (e2, e2))
    assert composed.arity == 4
    assert deviation(composed.eval(*bs), direct) <= 1e-12
    with pytest.raises(DimensionMismatch):
        multimap_compose(e2, (e2,))


def test_identity_is_not_recognised_by_label(space):
    f = moment_map(space, [0, 1])
    # a sandwich of identity matrices has the identity's values, but it is
    # a leaf, not the identity
    lookalike = sandwich_map(space, [np.eye(space.d)] * 2)
    composed = multimap_compose(f, [lookalike] * f.arity)
    assert composed is not f and composed.kind == "compose"
    assert multimap_compose(lookalike, [f]) is not f
    # same values all the same
    assert multimap_dev(composed, f) <= 1e-12
    assert multimap_compose(space.identity, [f]) is f


def test_identity_tensor_is_the_elementary_basis(space):
    t = space.identity.tensor()
    assert np.array_equal(t, elementary_batch(space.d, 1)[0])


def test_leaf_needs_its_tensor_builder(space):
    with pytest.raises(ValueError):
        ovps.MultiMap(space, 2, "gen", fn=lambda args: args[0])


@st.composite
def spaces_and_trees(draw):
    d = draw(st.sampled_from((1, 2)))
    space = OVMatrixSpace(d=d, k=2, variables=2, seed=draw(st.integers(0, 99)))
    arity = draw(st.integers(min_value=1, max_value=5))
    return space, draw(multimap_trees(space, arity))


@settings(max_examples=80, deadline=None)
@given(spaces_and_trees())
def test_tensor_matches_tree_evaluation(space_and_tree):
    space, f = space_and_tree
    t = f.tensor()
    assert t.shape == ((space.d * space.d) ** f.arity, space.d, space.d)
    assert deviation(t, walk_eval(f, elementary_batch(space.d, f.arity))) <= 1e-12


def _nodes(m):
    yield m
    for part in m.parts:
        yield from _nodes(part[1] if m.kind == "lincomb" else part)


@st.composite
def probe_cases(draw):
    """A random tree up to arity 8, so above the basis limit at d=2, in which
    a random choice of linear combinations hold their tensors, and a probe
    batch whose size need not be a multiple of d*d."""
    d = draw(st.sampled_from((1, 2)))
    space = OVMatrixSpace(d=d, k=2, variables=2, seed=draw(st.integers(0, 99)))
    arity = draw(st.integers(min_value=1, max_value=8))
    f = draw(multimap_trees(space, arity))
    for node in _nodes(f):
        if node.kind == "lincomb" and draw(st.booleans()):
            node.tensor()
    n_probes = draw(st.integers(min_value=1, max_value=9))
    return f, probe_batch(d, arity, n_probes=n_probes, seed=draw(st.integers(0, 99)))


@settings(max_examples=80, deadline=None)
@given(probe_cases())
def test_probe_evaluation_matches_reference_walk(case):
    f, args = case
    assert deviation(f.eval_batch(args), walk_eval(f, args)) <= 1e-12


def test_lincomb_with_tensor_contracts_instead_of_walking(space):
    leaf = random_multimap(space, 3, np.random.default_rng(9))
    f = multimap_lincomb(space, 3, [(2 - 1j, leaf)])
    args = probe_batch(space.d, 3, n_probes=7)
    expected = walk_eval(f, args)
    assert f.tensor() is not None

    def no_walk(batch):
        raise AssertionError("leaf evaluated although its combination holds a tensor")

    leaf.fn = no_walk
    assert deviation(f.eval_batch(args), expected) <= 1e-12


def test_contraction_intermediates_stay_within_the_tensor(space, monkeypatch):
    f = multimap_lincomb(space, 5, [(1, random_multimap(space, 5, np.random.default_rng(3)))])
    t = f.tensor()
    sizes = []
    einsum = np.einsum

    def recording(*a, **kw):
        out = einsum(*a, **kw)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "einsum", recording)
    f.eval_batch(probe_batch(space.d, 5))
    assert sizes and max(sizes) <= t.size


def _dense_values(t, args):
    """The values on a batch as the sum over every elementary tuple of its
    coordinate product times the tuple's entry of ``t``."""
    d = t.shape[-1]
    n_mats = d * d
    if not args:
        return t.copy()
    codes = np.arange(len(t))
    weights = np.ones((len(args[0]), len(t)), dtype=complex)
    for slot, a in enumerate(args):
        e = codes // n_mats ** (len(args) - 1 - slot) % n_mats
        weights *= a.reshape(len(a), n_mats)[:, e]
    return np.einsum("nc,cij->nij", weights, t)


@pytest.mark.parametrize("d, max_arity", [(1, 6), (2, 6), (3, 3)])
@pytest.mark.parametrize("n_rows", [1, 5, 20, 100])
def test_contraction_matches_the_dense_sum(d, max_arity, n_rows):
    rng = np.random.default_rng(d * 1000 + n_rows)
    for arity in range(max_arity + 1):
        shape = ((d * d) ** arity, d, d)
        t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        args = probe_batch(d, arity, n_probes=n_rows, seed=arity)
        got = ovps._contract(t, args)
        np.testing.assert_allclose(got, _dense_values(t, args), rtol=1e-12, atol=0)


def _einsum_tensor(m):
    """Reference structure tensor: every composed slot contracted with one
    ``einsum``, the kernel that ``_compose_tensor``'s matrix product
    replaced, at every level of the DAG."""
    if m.kind == "lincomb":
        return sum(complex(c) * _einsum_tensor(part) for c, part in m.parts)
    if m.kind != "compose":
        return m.tensor()
    d = m.space.d
    n_mats = d * d
    out = _einsum_tensor(m.parts[0])
    done = 1
    for beta in m.parts[1:]:
        width = n_mats ** beta.arity
        if beta.kind != "id":
            inner = _einsum_tensor(beta).reshape(width, n_mats)
            out = np.einsum("peq,xe->pxq", out.reshape(done, n_mats, -1), inner)
        done *= width
    return out.reshape(done, d, d)


def _nested(space, arity, depth, rng):
    """A composition of ``arity`` inputs nested ``depth`` levels deep over
    sandwich and moment leaves, with identities among its inner maps."""
    if depth == 0 or arity < 2:
        if arity >= 1 and rng.random() < 0.5:
            return moment_map(space, rng.integers(0, 2, size=arity - 1).tolist())
        return random_multimap(space, arity, rng)
    n_cuts = rng.integers(1, arity)
    cuts = sorted(rng.choice(np.arange(1, arity), size=n_cuts, replace=False).tolist())
    widths = [b - a for a, b in zip([0] + cuts, cuts + [arity])]
    inner = [
        space.identity if w == 1 and rng.random() < 0.5 else _nested(space, w, depth - 1, rng)
        for w in widths
    ]
    outer = _nested(space, len(widths), depth - 1, rng)
    if rng.random() < 0.3:
        other = random_multimap(space, len(widths), rng)
        outer = multimap_lincomb(space, len(widths), [(1.5j, outer), (-0.5, other)])
    return multimap_compose(outer, inner)


@pytest.mark.parametrize("d, max_arity", [(1, 6), (2, 6), (3, 3)])
def test_composed_tensor_matches_the_einsum_reference(d, max_arity):
    space = OVMatrixSpace(d=d, k=2, variables=2, seed=d)
    rng = np.random.default_rng(40 + d)
    cases = []
    # one inner map, of every arity that fits, at every slot position: the
    # identity fills every other slot
    for outer in range(1, max_arity + 1):
        for slot in range(1, outer + 1):
            for inner in range(max_arity - outer + 2):
                alpha = random_multimap(space, outer, rng)
                cases.append(multimap_partial(alpha, slot, random_multimap(space, inner, rng)))
    for arity in range(2, max_arity + 1):
        for depth in (2, 3):
            cases.extend(_nested(space, arity, depth, rng) for _ in range(4))
    assert any(f.kind == "compose" and any(p.kind == "compose" for p in f.parts) for f in cases)
    for f in cases:
        t = f.tensor()
        ref = _einsum_tensor(f)
        assert t.shape == ref.shape and t.flags.c_contiguous
        # d*d summands per slot, up to 6 slots, each rounded at complex128
        # epsilon: 1e-13 of the largest entry bounds the difference
        assert np.max(np.abs(t - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_arity_zero_sandwich_evaluates_to_a_batch_of_one(space):
    f = random_multimap(space, 0, np.random.default_rng(5))
    assert f.arity == 0
    values = f.eval_batch([])
    assert values.shape == (1, space.d, space.d)
    assert np.array_equal(values, f.tensor())
    doubled = multimap_lincomb(space, 0, [(2, f)])
    assert doubled.tensor() is not None
    assert np.array_equal(doubled.eval_batch([]), 2 * values)


def test_tensor_above_the_basis_limit_uses_probes(space, monkeypatch):
    f = moment_map(space, [0, 1, 0, 1, 0, 1])
    assert f.arity == 7 and f.tensor() is None
    calls = []
    original = ovps.probe_batch
    monkeypatch.setattr(
        ovps, "probe_batch", lambda *a, **kw: calls.append(a) or original(*a, **kw)
    )
    assert multimap_dev(f, f) == 0.0
    assert calls == [(space.d, 7)]


def test_probe_batch_deterministic():
    a = probe_batch(2, 3, seed=99)
    b = probe_batch(2, 3, seed=99)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _fresh_probes(d, arity, n_probes, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n_probes, d, d)) + 1j * rng.standard_normal((n_probes, d, d)))
            / np.sqrt(2) for _ in range(arity)]


@pytest.mark.parametrize("seed, arities", [(1001, (2, 9, 4, 0, 9)), (1002, (9, 4, 2)),
                                           (1003, (1, 3, 6, 5))])
def test_probe_batch_is_one_draw_per_key(seed, arities):
    for arity in arities:
        got = probe_batch(2, arity, n_probes=7, seed=seed)
        want = _fresh_probes(2, arity, 7, seed)
        assert len(got) == arity
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        for a in got:
            with pytest.raises(ValueError):
                a[0, 0, 0] = 1.0
    longest = probe_batch(2, max(arities), n_probes=7, seed=seed)
    assert all(x is y for x, y in zip(probe_batch(2, 2, n_probes=7, seed=seed), longest))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(17)
    m = random_matrix(rng, 3)
    assert np.allclose(matrix_from_json(matrix_to_json(m)), m)
