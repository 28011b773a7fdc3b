import itertools
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovc import ncpart
from ovc.formal import word_from_text
from ovc.ncpart import (
    EMPTY,
    MAX_BLOCKS,
    MAX_ELEMENTS,
    ArityMismatch,
    CrossingError,
    Cut,
    EnumerationBound,
    MalformedPartition,
    NCPartition,
    collapse_factorization,
    count_monotone_labelings,
    cuts,
    enumerate_interval,
    enumerate_nc,
    first_blocks,
    from_text,
    full_partition,
    gap_insert,
    is_noncrossing,
    operadic_factorization,
    partial_insert,
    restrict,
    standardize,
    to_text,
    tree_factorial,
)
from ovc.winsert import letter_word

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]


def set_partitions(ground):
    """Brute-force oracle: every set partition of the ordered tuple."""
    if not ground:
        yield []
        return
    first, rest = ground[0], ground[1:]
    for sub in set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            copied = [list(b) for b in sub]
            copied[i].insert(0, first)
            yield copied


def brute_nc(p):
    found = [
        NCPartition(bs)
        for bs in set_partitions(tuple(range(1, p + 1)))
        if is_noncrossing(bs)
    ]
    return sorted(found, key=NCPartition.sort_key)


def gen1(n):
    """Generator of arity n: the one-block partition of n - 1 elements."""
    return full_partition(n - 1)


# ---------------------------------------------------------------------------
# is_noncrossing


def test_is_noncrossing_interval():
    assert is_noncrossing([(1, 2), (3,)])
    assert is_noncrossing(iter([(1,), (2,)]))


def test_is_noncrossing_crossing_pair():
    assert not is_noncrossing([(1, 3), (2, 4)])
    assert not is_noncrossing(b for b in [(1, 3), (2, 4)])


def test_is_noncrossing_nested():
    # checked against the exhaustive quadruple definition
    blocks = [(1, 4), (2, 3)]
    flat = sorted(x for b in blocks for x in b)
    naive = any(
        a < c < b < d
        for (b1, b2) in itertools.permutations(blocks, 2)
        for a, b in itertools.combinations(b1, 2)
        for c, d in itertools.combinations(b2, 2)
    )
    assert flat == [1, 2, 3, 4]
    assert not naive
    assert is_noncrossing(blocks)


def test_is_noncrossing_matches_quadruple_scan():
    for p in range(8):
        for bs in set_partitions(tuple(range(1, p + 1))):
            naive = any(
                a < c < b < d
                for b1, b2 in itertools.permutations(bs, 2)
                for a, b in itertools.combinations(sorted(b1), 2)
                for c, d in itertools.combinations(sorted(b2), 2)
            )
            assert is_noncrossing(bs) == (not naive)


def test_is_noncrossing_rejects_malformed():
    with pytest.raises(MalformedPartition):
        is_noncrossing([(1, 2), (2, 3)])
    with pytest.raises(MalformedPartition):
        is_noncrossing([(1,), (3,)])
    for blocks in ([(True, 2)], [(True,)], [(1, None)], iter([(1,), (3,)])):
        with pytest.raises(MalformedPartition):
            is_noncrossing(blocks)


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_nc_counts_and_sets():
    for p in range(7):
        got = enumerate_nc(p)
        assert got == brute_nc(p)
        assert len(got) == CATALAN[p]


def test_enumerate_nc_zero():
    assert enumerate_nc(0) == [EMPTY]


def test_enumerate_nc_bound():
    with pytest.raises(EnumerationBound):
        enumerate_nc(MAX_ELEMENTS + 1)


def test_enumerate_interval_bound():
    with pytest.raises(EnumerationBound):
        enumerate_interval(MAX_ELEMENTS + 1)


def test_enumerate_interval_counts():
    assert enumerate_interval(1) == [NCPartition([(1,)])]
    for p in range(1, 7):
        got = enumerate_interval(p)
        assert len(got) == 2 ** (p - 1)
        filtered = [pi for pi in enumerate_nc(p) if pi.is_interval()]
        assert got == filtered


def test_enumerate_interval_is_subsequence_of_nc():
    for p in range(6):
        nc = enumerate_nc(p)
        idx = [nc.index(i) for i in enumerate_interval(p)]
        assert idx == sorted(idx)


def test_both_enumerations_match_brute_force_up_to_nine():
    # 9 is the largest size verify enumerates
    for p in range(10):
        brute = brute_nc(p)
        assert enumerate_nc(p) == brute
        assert enumerate_interval(p) == [pi for pi in brute if pi.is_interval()]


@pytest.mark.parametrize("enumerate_fn", [enumerate_nc, enumerate_interval])
@pytest.mark.parametrize("size", [True, False, 2.0, "3", -1])
def test_enumeration_sizes_are_checked_like_full_partition(enumerate_fn, size):
    with pytest.raises(MalformedPartition):
        full_partition(size)
    with pytest.raises(MalformedPartition):
        enumerate_fn(size)
    # a bool size would have been interned as the partition of its value
    assert type(NCPartition([(1,)]).size) is int


@pytest.mark.parametrize("n", range(8))
def test_first_blocks_split_the_positions(n):
    split = list(first_blocks(n))
    blocks = [block for block, _ in split]
    assert len(blocks) == (2 ** (n - 1) if n else 0)
    assert len(set(blocks)) == len(blocks)
    for block, ranges in split:
        assert block[0] == 0 and len(ranges) == len(block)
        # each member followed by the range it leaves: 0..n-1 in order
        assert [x for i, r in zip(block, ranges) for x in (i, *r)] == list(range(n))
    assert blocks[-1:] == ([tuple(range(n))] if n else [])
    intervals = list(first_blocks(n, intervals=True))
    assert len(intervals) == n
    assert intervals == [(b, rs) for b, rs in split if b == tuple(range(len(b)))]
    for block, ranges in intervals:
        assert all(not r for r in ranges[:-1])
        assert ranges[-1] == range(len(block), n)


# ---------------------------------------------------------------------------
# Insertion


def test_gap_insert_basic_examples():
    assert gap_insert(gen1(2), [gen1(2), EMPTY]) == NCPartition([(1,), (2,)])
    assert gap_insert(gen1(3), [EMPTY, gen1(2), EMPTY]) == NCPartition([(1, 3), (2,)])


def test_generator_relation():
    for m in range(2, 6):
        for n in range(2, 6):
            left = partial_insert(gen1(m), m, gen1(n))
            right = partial_insert(gen1(n), 1, gen1(m))
            assert left == right


def test_partial_insert_unit_and_examples():
    pi = NCPartition([(1, 3), (2,)])
    for i in range(1, pi.arity + 1):
        assert partial_insert(pi, i, EMPTY) == pi
    assert partial_insert(gen1(3), 2, gen1(2)) == NCPartition([(1, 3), (2,)])
    assert partial_insert(gen1(2), 1, gen1(3)) == NCPartition([(1, 2), (3,)])
    with pytest.raises(ArityMismatch):
        partial_insert(gen1(2), 3, EMPTY)
    # a slot follows the integer rule: not a bool, not a float
    for slot in (True, 1.0):
        with pytest.raises(ArityMismatch):
            partial_insert(full_partition(2), slot, gen1(2))


def test_gap_insert_unit_laws():
    for p in range(5):
        for pi in enumerate_nc(p):
            assert gap_insert(pi, [EMPTY] * pi.arity) == pi
            assert gap_insert(EMPTY, [pi]) == pi


def test_gap_insert_associativity():
    # monoid axiom: composing in two stages equals the one-stage composite
    small = enumerate_nc(1) + enumerate_nc(2)
    for pi in enumerate_nc(2):
        for alphas in itertools.product(small, repeat=pi.arity):
            mid = gap_insert(pi, alphas)
            arities = [a.arity for a in alphas]
            for betas in itertools.product(enumerate_nc(0) + enumerate_nc(1), repeat=sum(arities)):
                two_stage = gap_insert(mid, betas)
                pos, inner = 0, []
                for a, r in zip(alphas, arities):
                    inner.append(gap_insert(a, betas[pos : pos + r]))
                    pos += r
                assert two_stage == gap_insert(pi, inner)


def test_gap_insert_colors():
    pi = NCPartition([(1, 2)], colors=(0, 1))
    a = NCPartition([(1,)], colors=(2,))
    out = gap_insert(pi, [a, EMPTY, a])
    assert out.colors == (2, 0, 1, 2)
    with pytest.raises(ArityMismatch):
        gap_insert(pi, [NCPartition([(1,)]), EMPTY, EMPTY])


# ---------------------------------------------------------------------------
# Cuts


def brute_insertion_table(p):
    """Independent oracle: group every pair (L, U) with a total of p elements
    by the partition gap_insert(L, U) produces."""
    table = {}
    for q in range(p + 1):
        for lower in enumerate_nc(q):
            remaining = p - q
            for sizes in itertools.product(range(remaining + 1), repeat=lower.arity):
                if sum(sizes) != remaining:
                    continue
                for upper in itertools.product(*(enumerate_nc(s) for s in sizes)):
                    table.setdefault(gap_insert(lower, upper), set()).add(
                        (lower, tuple(upper))
                    )
    return table


def brute_cuts(pi):
    assert pi.colors is None
    return brute_insertion_table(pi.size).get(pi, set())


def test_cuts_basic_examples():
    got = cuts(gen1(3))
    assert [(c.lower, c.upper) for c in got] == [
        (EMPTY, (gen1(3),)),
        (gen1(3), (EMPTY, EMPTY, EMPTY)),
    ]
    nested = NCPartition([(1, 3), (2,)])
    got = cuts(nested)
    assert len(got) == 3
    assert (gen1(3), (EMPTY, gen1(2), EMPTY)) in [(c.lower, c.upper) for c in got]
    assert len(cuts(NCPartition([(1,), (2,)]))) == 4
    assert cuts(EMPTY) == [Cut(EMPTY, (EMPTY,), 0)]


def test_cuts_reassemble_and_match_brute_force():
    for p in range(7):
        table = brute_insertion_table(p)
        for pi in enumerate_nc(p):
            got = cuts(pi)
            for c in got:
                assert gap_insert(c.lower, c.upper) == pi
            assert {(c.lower, c.upper) for c in got} == table.get(pi, set())
            masks = [c.kept_mask for c in got]
            assert masks == sorted(masks)


def test_cuts_preserve_colors():
    pi = NCPartition([(1, 3), (2,)], colors=(0, 1, 0))
    for c in cuts(pi):
        assert gap_insert(c.lower, c.upper) == pi


def test_colored_cuts_equal_the_direct_computation():
    """Recoloring the cuts of the uncolored shape gives exactly the
    restrictions of the colored partition to each direct cut's kept
    elements and gaps, on every 2-colored partition of size <= 5."""
    for p in range(6):
        for shape in enumerate_nc(p):
            direct, _ = ncpart._shape_cuts(shape)
            assert all(c.lower.colors is None for c in direct)
            for colors in itertools.product((0, 1), repeat=p):
                pi = NCPartition(shape.blocks, colors=colors)
                expected = []
                for c in direct:
                    kept = sorted(
                        x for i, b in enumerate(pi.blocks) if c.kept_mask >> i & 1 for x in b
                    )
                    bounds = [0] + kept + [p + 1]
                    upper = tuple(
                        restrict(pi, range(lo + 1, hi)) for lo, hi in zip(bounds, bounds[1:])
                    )
                    expected.append(Cut(restrict(pi, kept), upper, c.kept_mask))
                assert cuts(pi) == expected


# ---------------------------------------------------------------------------
# Nesting scan, factorials, monotone labelings


def parents(pi):
    return ncpart._parents(pi.blocks, pi.size)


def test_parents_shapes():
    # the roots are the blocks with no parent, a block's children those naming it
    assert parents(NCPartition([(1,), (2,)])) == [None, None]
    assert parents(NCPartition([(1, 3), (2,)])) == [None, 0]
    assert parents(NCPartition([(1, 6), (2, 3), (4, 5)])) == [None, 0, 0]


def test_tree_factorial_values():
    assert tree_factorial(gen1(2)) == 1
    assert tree_factorial(NCPartition([(1, 3), (2,)])) == 2
    assert tree_factorial(NCPartition([(1, 6), (2, 3), (4, 5)])) == 3
    assert tree_factorial(EMPTY) == 1


def reference_parents(pi):
    """Each block's tightest englobing block, by a search over all pairs of
    block spans (None for an outer block)."""
    found = []
    for i, b in enumerate(pi.blocks):
        best = None
        for j, w in enumerate(pi.blocks):
            if j != i and w[0] < b[0] and b[-1] < w[-1]:
                if best is None or w[0] > pi.blocks[best][0]:
                    best = j
        found.append(best)
    return found


def reference_tree_factorial(parent):
    """Product over the trees of the forest ``parent`` of the recursive
    factorial n * t_1! ... t_k!; the empty forest gives 1."""
    children = [[] for _ in parent]
    for i, par in enumerate(parent):
        if par is not None:
            children[par].append(i)

    def rec(v):
        size, fact = 1, 1
        for c in children[v]:
            s, f = rec(c)
            size += s
            fact *= f
        return size, size * fact

    return math.prod(rec(r)[1] for r, par in enumerate(parent) if par is None)


def test_scan_and_tree_factorial_match_the_references():
    seen = 0
    for p in range(9):
        for pi in enumerate_nc(p):
            expected = reference_parents(pi)
            assert parents(pi) == expected, pi
            assert tree_factorial(pi) == reference_tree_factorial(expected), pi
            seen += 1
    assert seen == sum(CATALAN) + 1430


def test_labeling_cross_check_does_not_share_the_scan(monkeypatch):
    # a scan that reports no nesting lets the brute force count all 3!
    # labelings, while the formula reads the spans: 3! / 3
    pi = NCPartition([(1, 6), (2, 3), (4, 5)])
    monkeypatch.setattr(ncpart, "_parents", lambda blocks, size: [None] * len(blocks))
    assert count_monotone_labelings(pi) * tree_factorial(pi) != math.factorial(3)


def test_count_monotone_labelings_examples():
    assert count_monotone_labelings(NCPartition([(1,), (2,)])) == 2
    assert count_monotone_labelings(NCPartition([(1, 3), (2,)])) == 1
    assert count_monotone_labelings(NCPartition([(1, 6), (2, 3), (4, 5)])) == 2


def test_count_monotone_labelings_bound():
    singletons = NCPartition([(x,) for x in range(1, MAX_BLOCKS + 2)])
    with pytest.raises(EnumerationBound):
        count_monotone_labelings(singletons)


def test_count_monotone_matches_formula():
    for p in range(7):
        for pi in enumerate_nc(p):
            n = count_monotone_labelings(pi)
            assert n * tree_factorial(pi) == math.factorial(pi.n_blocks)


# ---------------------------------------------------------------------------
# Factorization


def as_tuples(factorization, pi):
    """The factorization of ``pi`` as nested tuples: ("leaf", size, colors)
    and ("partial", outer, slot, inner)."""
    return factorization(
        pi,
        lambda size, colors: ("leaf", size, colors),
        lambda outer, slot, inner: ("partial", outer, slot, inner),
    )


def test_factorization_examples():
    assert as_tuples(operadic_factorization, gen1(3)) == ("leaf", 2, None)
    expr = as_tuples(operadic_factorization, NCPartition([(1, 3), (2,)]))
    assert expr == ("partial", ("leaf", 2, None), 2, ("leaf", 1, None))
    expr = as_tuples(operadic_factorization, NCPartition([(1,), (2,)]))
    assert expr == ("partial", ("leaf", 1, None), 2, ("leaf", 1, None))
    pi = NCPartition([(1, 3), (2,)], colors=(0, 1, 2))
    expr = as_tuples(operadic_factorization, pi)
    assert expr == ("partial", ("leaf", 2, (0, 2)), 2, ("leaf", 1, (1,)))
    assert as_tuples(collapse_factorization, gen1(3)) == ("leaf", 2, None)
    # the leftmost interval block of 1,3|2 is {2}: into slot 2 of 1,2
    expr = as_tuples(collapse_factorization, NCPartition([(1, 3), (2,)]))
    assert expr == ("partial", ("leaf", 2, None), 2, ("leaf", 1, None))
    expr = as_tuples(collapse_factorization, NCPartition([(1,), (2,)], colors=(0, 1)))
    assert expr == ("partial", ("leaf", 1, (1,)), 1, ("leaf", 1, (0,)))


def test_collapse_calls_leaf_before_it_recurses():
    seen = []

    def leaf(size, colors):
        seen.append(colors)
        return full_partition(size, colors)

    pi = NCPartition([(1,), (2, 4), (3,)], colors=(0, 1, 2, 3))
    assert collapse_factorization(pi, leaf, partial_insert) == pi
    assert seen == [(0,), (2,), (1, 3)]


def test_factorization_round_trip():
    # both factorizations are exact, uncolored and 2-colored
    for p in range(1, 7):
        for shape in enumerate_nc(p):
            for pi in (shape, NCPartition(shape.blocks, colors=[i % 2 for i in range(p)])):
                for factorization in (operadic_factorization, collapse_factorization):
                    assert factorization(pi, full_partition, partial_insert) == pi


def test_factorization_round_trip_colored():
    pi = NCPartition([(1, 4), (2,), (3,), (5,)], colors=(0, 1, 0, 1, 0))
    assert operadic_factorization(pi, full_partition, partial_insert) == pi


def test_factorization_rejects_unit():
    for factorization in (operadic_factorization, collapse_factorization):
        with pytest.raises(ArityMismatch):
            factorization(EMPTY, full_partition, partial_insert)


# ---------------------------------------------------------------------------
# Standardize, restriction, text format


def test_standardize_examples():
    assert standardize([(2, 7), (4,)]) == NCPartition([(1, 3), (2,)])
    assert standardize([]) == EMPTY
    assert standardize([(5,)]) == NCPartition([(1,)])
    # each block is read once, so one-shot iterables work at both levels
    assert standardize(iter([(2,), (5,)])) == NCPartition([(1,), (2,)])
    assert standardize([iter((2, 5))]) == NCPartition([(1, 2)])


def test_standardize_names_an_element_without_a_color():
    with pytest.raises(MalformedPartition, match="element 7 has no color"):
        standardize([(5,), (7,)], colors={5: 0})


def test_restrict_straddle_error():
    with pytest.raises(MalformedPartition):
        restrict(NCPartition([(1, 3), (2,)]), [1, 2])


def test_text_round_trip_examples():
    assert to_text(EMPTY) == "0"
    assert from_text("0") == EMPTY
    assert to_text(NCPartition([(1, 3), (2,)])) == "1,3|2"
    colored = NCPartition([(1, 3), (2,)], colors=(0, 1, 0))
    assert to_text(colored) == "1,3|2;a,b,a"
    assert from_text("1,3|2;a,b,a") == colored


@pytest.mark.parametrize(
    "read, text",
    [(from_text, t) for t in ("", "1,,2", "x", "1|")] + [(word_from_text, "[]")],
)
def test_unreadable_elements_are_malformed(read, text):
    with pytest.raises(MalformedPartition, match="cannot read element"):
        read(text)


@st.composite
def nc_partitions(draw):
    p = draw(st.integers(min_value=0, max_value=6))
    pool = enumerate_nc(p)
    pi = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
    if draw(st.booleans()) and p > 0:
        colors = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(p))
        pi = NCPartition(pi.blocks, colors=colors)
    return pi


@settings(max_examples=200, deadline=None)
@given(nc_partitions())
def test_text_round_trip_property(pi):
    assert from_text(to_text(pi)) == pi


@settings(max_examples=200, deadline=None)
@given(nc_partitions(), st.integers(min_value=1, max_value=100))
def test_standardize_shift_invariance(pi, shift):
    shifted = [tuple(x + shift for x in b) for b in pi.blocks]
    colors = None
    if pi.colors is not None:
        colors = {x + shift: pi.colors[x - 1] for x in range(1, pi.size + 1)}
    assert standardize(shifted, colors=colors) == pi


# ---------------------------------------------------------------------------
# Crossing check, caches and invariants


@pytest.mark.parametrize(
    "build",
    [
        lambda: NCPartition([(1,)], colors=(-2,)),
        lambda: NCPartition([(1,)], colors=("x",)),
        lambda: NCPartition([(1, 2)], colors=(0, 1.0)),
        lambda: NCPartition([(1,)], colors=(True,)),
        lambda: NCPartition([(1,)], colors=(0, 1)),
        lambda: standardize([(3,), (5,)], colors={3: 0, 5: -1}),
        lambda: full_partition(2, colors=(0, -1)),
        lambda: full_partition(1, colors=(False,)),
        lambda: full_partition(2, colors=(0,)),
        lambda: full_partition(0, colors=(0,)),
        lambda: full_partition(-1),
        lambda: full_partition(True),
        lambda: letter_word([1.9, -2]),
        lambda: letter_word(["x"]),
        lambda: from_text("1;\u00b2"),
        lambda: from_text("1;v\u00b2"),
        lambda: standardize([(1,), (2,)], colors=[5, 6, 7]),
        lambda: standardize([(5,)], colors=[0]),
    ],
)
def test_colors_are_checked_at_the_boundary(build):
    with pytest.raises(MalformedPartition):
        build()


@pytest.mark.parametrize(
    "blocks", [[(True, 2)], [(True,)], [(1, "x")], [5], 5, None]
)
def test_boolean_elements_are_rejected(blocks):
    # every reader of raw blocks checks each element is an int, not a bool,
    # and each block and the block list are iterable
    for read in (NCPartition, is_noncrossing, standardize):
        with pytest.raises(MalformedPartition):
            read(blocks)
    # nothing was interned under a boolean element
    assert to_text(full_partition(1)) == "1"


def test_two_crossing_blocks_are_rejected():
    with pytest.raises(CrossingError, match=r"blocks \(1, 3\) and \(2, 4\) cross"):
        NCPartition([(1, 3), (2, 4)])


@st.composite
def block_lists(draw):
    """Random set partitions of {1..p}, p <= 8, in arbitrary block and
    element order."""
    p = draw(st.integers(min_value=0, max_value=8))
    labels = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=p, max_size=p))
    blocks = {}
    for x, label in zip(range(1, p + 1), labels):
        blocks.setdefault(label, []).append(x)
    blocks = [draw(st.permutations(b)) for b in blocks.values()]
    return draw(st.permutations(blocks))


@settings(max_examples=300, deadline=None)
@given(block_lists())
def test_crossing_error_exactly_when_crossing(blocks):
    canon = sorted(tuple(sorted(b)) for b in blocks)
    crossing = [
        (b1, b2)
        for b1, b2 in itertools.combinations(canon, 2)
        if any(
            a < c < b < d or c < a < d < b
            for a, b in itertools.combinations(b1, 2)
            for c, d in itertools.combinations(b2, 2)
        )
    ]
    noncrossing = is_noncrossing(blocks)
    assert (ncpart._parents(canon, sum(map(len, canon))) is None) == (not noncrossing)
    if noncrossing:
        assert not crossing
        assert NCPartition(blocks).blocks == tuple(canon)
    else:
        with pytest.raises(CrossingError) as err:
            NCPartition(blocks)
        assert str(err.value) == "blocks %r and %r cross" % crossing[0]


def test_enumerate_nc_returns_a_fresh_list():
    first = enumerate_nc(3)
    first.clear()
    assert len(enumerate_nc(3)) == CATALAN[3]


def test_cuts_returns_a_fresh_list():
    pi = NCPartition([(1, 3), (2,)])
    first = cuts(pi)
    expected = list(first)
    first.append(first[0])
    first.reverse()
    assert cuts(pi) == expected


def test_colored_cuts_are_not_cached():
    pi = NCPartition([(1, 4), (2,), (3,)], colors=(0, 1, 0, 2))
    cuts(NCPartition(pi.blocks))  # the uncolored shape is cached by design
    before = ncpart._shape_cuts.cache_info().currsize
    for c in cuts(pi):
        assert gap_insert(c.lower, c.upper) == pi
    assert ncpart._shape_cuts.cache_info().currsize == before


def test_invariant_checks_survive_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncpart.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = """
from ovc import ncpart
from ovc.ncpart import InvariantError, NCPartition

pi = NCPartition([(1, 3), (2,)])
# a scan without nesting lets a cut drop the outer block but keep the inner
ncpart._parents = lambda blocks, size: [None] * len(blocks)
try:
    ncpart.cuts(pi)
except InvariantError:
    raise SystemExit(0)
raise SystemExit(3)
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
