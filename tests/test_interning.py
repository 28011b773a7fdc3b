"""The exact layer is interned: every route to a partition, a letter word or
a word returns the one live object with that value, so equality and
hashing are identity.  A letter word is a partition, its finest coloring,
so the package holds two intern tables: partitions and words."""

import gc
import importlib
import pkgutil
import sys
import threading
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

import ovc
from ovc import formal, ncpart, winsert
from ovc.formal import PartitionWord
from ovc.ncpart import (
    EMPTY,
    NCPartition,
    cuts,
    enumerate_interval,
    enumerate_nc,
    from_text,
    full_partition,
    gap_insert,
    is_noncrossing,
    restrict,
    standardize,
    to_text,
)
from ovc.winsert import WWord, letter_word
from helpers import W_ONE


@st.composite
def nc_partitions(draw, max_size=5, colored=None):
    p = draw(st.integers(min_value=0, max_value=max_size))
    pi = draw(st.sampled_from(enumerate_nc(p)))
    if colored is None:
        colored = draw(st.booleans())
    if colored and p:
        colors = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(p))
        pi = NCPartition(pi.blocks, colors=colors)
    return pi


letter_words = st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(letter_word)


@settings(max_examples=150, deadline=None)
@given(nc_partitions(), st.integers(min_value=1, max_value=50))
def test_every_route_to_a_partition_returns_one_object(pi, shift):
    shuffled = [tuple(reversed(b)) for b in reversed(pi.blocks)]
    assert NCPartition(shuffled, colors=pi.colors) is pi
    assert NCPartition._trusted(pi.blocks, pi.size, pi.colors) is pi
    assert from_text(to_text(pi)) is pi
    shifted = [tuple(x + shift for x in b) for b in pi.blocks]
    colors = None
    if pi.colors is not None:
        colors = {x + shift: c for x, c in enumerate(pi.colors, start=1)}
    assert standardize(shifted, colors=colors) is pi
    assert gap_insert(pi, [EMPTY] * pi.arity) is pi
    for cut in cuts(pi):
        assert gap_insert(cut.lower, cut.upper) is pi
        for letter in (cut.lower, *cut.upper):
            assert NCPartition(letter.blocks, colors=letter.colors) is letter


@settings(max_examples=100, deadline=None)
@given(st.lists(nc_partitions(max_size=3), max_size=3))
def test_every_route_to_a_partition_word_returns_one_object(letters):
    w = PartitionWord(letters)
    assert PartitionWord(tuple(letters)) is w
    assert PartitionWord._trusted(tuple(letters)) is w
    assert formal.word(*letters) is w
    assert formal.word_from_text(w.text()) is w
    assert w.inputs == sum(l.arity for l in letters)
    for lower, upper, _ in w.cuts():
        assert PartitionWord(lower.letters) is lower
        assert PartitionWord(upper.letters) is upper
        assert lower.vcompose(upper) is w


@settings(max_examples=100, deadline=None)
@given(st.lists(letter_words, max_size=3))
def test_every_route_to_a_letter_word_returns_one_object(letters):
    for x in letters:
        assert letter_word(list(x.colors or ())) is x
        assert NCPartition(x.blocks, colors=x.colors) is x
        assert gap_insert(x, [EMPTY] * x.arity) is x
        for lower, upper, _ in cuts(x):
            assert letter_word(lower.colors or ()) is lower
            assert all(letter_word(u.colors or ()) is u for u in upper)
            assert gap_insert(lower, upper) is x
    w = WWord(letters)
    assert WWord._trusted(tuple(letters)) is w
    assert winsert.w_word(*letters) is w
    assert w.inputs == sum(x.arity for x in letters)
    for lower, upper, _ in w.cuts():
        assert WWord(lower.letters) is lower and WWord(upper.letters) is upper


def test_partition_words_and_letter_words_are_never_one_object():
    assert formal.ONE is not W_ONE and formal.ONE != W_ONE
    for n in range(4):
        assert PartitionWord.unit(n) is not WWord.unit(n)
        assert PartitionWord.unit(n) != WWord.unit(n)
    assert len({formal.ONE, W_ONE, PartitionWord.unit(1), WWord.unit(1)}) == 4


def test_the_package_holds_two_intern_tables():
    tables = set()
    for info in pkgutil.iter_modules(ovc.__path__):
        module = importlib.import_module("ovc." + info.name)
        tables |= {id(v) for v in vars(module).values() if isinstance(v, ncpart.InternTable)}
    assert tables == {id(ncpart._PARTITIONS), id(formal._WORDS)}


def _relabelled(pi, alphas):
    """gap_insert by reading order: the elements of gap i's argument, then
    element i + 1 of ``pi``; every block keeps its members."""
    owner, colors = [], []
    for i, alpha in enumerate(alphas):
        for x in range(1, alpha.size + 1):
            owner.append((i + 1, next(j for j, b in enumerate(alpha.blocks) if x in b)))
            colors.extend(alpha.colors[x - 1:x] if alpha.colors else ())
        if i < pi.size:
            owner.append((0, next(j for j, b in enumerate(pi.blocks) if i + 1 in b)))
            colors.extend(pi.colors[i:i + 1] if pi.colors else ())
    blocks = {}
    for position, key in enumerate(owner, start=1):
        blocks.setdefault(key, []).append(position)
    return list(blocks.values()), (tuple(colors) if colors else None)


@st.composite
def insertions(draw):
    colored = draw(st.booleans())
    pi = draw(nc_partitions(max_size=3, colored=colored))
    alphas = [draw(nc_partitions(max_size=3, colored=colored)) for _ in range(pi.arity)]
    return pi, alphas


@settings(max_examples=200, deadline=None)
@given(insertions())
def test_gap_insert_equals_the_validating_constructor(case):
    pi, alphas = case
    result = gap_insert(pi, alphas)
    blocks, colors = _relabelled(pi, alphas)
    assert NCPartition(blocks, colors=colors) is result
    assert is_noncrossing(result.blocks)
    assert result.blocks == tuple(sorted(tuple(sorted(b)) for b in result.blocks))
    assert result.size == pi.size + sum(a.size for a in alphas)


@settings(max_examples=150, deadline=None)
@given(nc_partitions(max_size=6), st.data())
def test_trusted_sub_partitions_equal_the_validating_constructor(pi, data):
    """Cuts and restrictions relabel blocks of a valid partition without
    checking them; each result is the one ``standardize`` validates."""
    colors = None if pi.colors is None else dict(enumerate(pi.colors, start=1))
    for cut in cuts(pi):
        kept = [b for i, b in enumerate(pi.blocks) if cut.kept_mask >> i & 1]
        removed = [b for b in pi.blocks if b not in kept]
        assert standardize(kept[::-1], colors=colors) is cut.lower
        positions = sorted(x for b in kept for x in b)
        bounds = [0] + positions + [pi.size + 1]
        assert len(cut.upper) == len(bounds) - 1
        for upper, lo, hi in zip(cut.upper, bounds, bounds[1:]):
            segment = [b for b in removed if lo < b[0] and b[-1] < hi]
            assert standardize(segment[::-1], colors=colors) is upper
    chosen = data.draw(st.permutations(pi.blocks))
    chosen = chosen[: data.draw(st.integers(min_value=0, max_value=len(chosen)))]
    positions = [x for b in chosen for x in b]
    assert restrict(pi, positions) is standardize(chosen, colors=colors)


def test_enumerated_partitions_equal_the_validating_constructor():
    for p in range(8):
        for pi in enumerate_nc(p):
            assert NCPartition(pi.blocks) is pi
        for pi in enumerate_interval(p):
            assert NCPartition(pi.blocks) is pi
        assert NCPartition([range(1, p + 1)] if p else []) is full_partition(p)


def test_threads_building_the_same_words_get_one_object():
    # values no other test builds, so the threads race to create them
    values = [tuple(range(40 + i, 44 + i)) for i in range(30)]
    barrier = threading.Barrier(8, timeout=60)
    results = [None] * 8

    def build(slot):
        barrier.wait()
        out = []
        for v in values:
            letter = letter_word(v)
            colored = NCPartition([range(1, len(v) + 1)], colors=v)
            out.append((letter, WWord((letter, letter)), colored, PartitionWord((colored,))))
        results[slot] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    for other in results[1:]:
        for mine, theirs in zip(results[0], other):
            assert all(a is b for a, b in zip(mine, theirs))


def test_threads_dropping_and_rebuilding_values_keep_one_object():
    """Each round's objects die in whichever thread lets go of them last,
    while the other threads already rebuild the same values: a dying
    object's callback must drop only its own entry, so every round still
    has one object per value."""
    values = [tuple(range(70 + i, 73 + i)) for i in range(20)]
    n_threads, rounds = 4, 30
    barrier = threading.Barrier(n_threads, timeout=60)
    built = [None] * n_threads
    mismatches, finished = [], []

    def work(slot):
        for _ in range(rounds):
            mine = []
            for v in values:
                letter = letter_word(v)
                colored = NCPartition([range(1, 4)], colors=v)
                mine += [letter, WWord((letter,)), colored, PartitionWord((colored,))]
            built[slot] = mine
            barrier.wait()
            mismatches.extend(
                slot for other in built for a, b in zip(mine, other) if a is not b
            )
            barrier.wait()
            built[slot] = mine = None
        finished.append(slot)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == list(range(n_threads)) and not mismatches


def test_a_dropped_word_is_freed_and_rebuilt_equal():
    letters = (9, 8, 9, 7)
    w = WWord((letter_word(letters),))
    text, alive = w.text(), weakref.ref(w)
    del w
    gc.collect()
    assert alive() is None  # the intern tables hold their objects weakly
    again = WWord((letter_word(letters),))
    trusted = WWord._trusted((NCPartition._trusted(((1,), (2,), (3,), (4,)), 4, letters),))
    assert again is trusted and again == trusted and hash(again) == hash(trusted)
    assert again.text() == text and {again: 1}[trusted] == 1


def test_a_dropped_partition_is_freed_and_rebuilt_equal():
    blocks, colors = ((1, 4), (2, 3), (5,)), (9, 8, 8, 9, 7)
    pi = NCPartition(blocks, colors=colors)
    text, alive = to_text(pi), weakref.ref(pi)
    del pi
    gc.collect()
    assert alive() is None
    # the dead object's entry went with it
    assert (blocks, colors) not in ncpart._PARTITIONS
    again = NCPartition(blocks, colors=colors)
    trusted = NCPartition._trusted(blocks, 5, colors)
    assert again is trusted and again == trusted and hash(again) == hash(trusted)
    assert to_text(again) == text and {again: 1}[trusted] == 1


class _Gone:
    """A weakly referenceable stand-in for an object that has died."""


def test_a_dead_reference_reads_as_no_object():
    """A collection clears every reference before it runs any callback, so
    an entry can hold a dead reference for a while.  Reading it must make a
    new object, and the old reference's callback must not drop the entry
    that replaced it."""
    blocks, colors = ((1, 3), (2,), (4,)), (9, 7, 9, 8)
    key = (blocks, colors)
    assert key not in ncpart._PARTITIONS
    stale = ncpart._InternRef(_Gone())  # dead at once: nothing else holds it
    stale.key = key
    assert stale() is None
    ncpart._PARTITIONS[key] = stale
    try:
        pi = NCPartition._trusted(blocks, 4, colors)
        assert pi is not None and pi.blocks == blocks and pi.colors == colors
        assert NCPartition(blocks, colors=colors) is pi
        assert ncpart._PARTITIONS[key]() is pi
        ncpart._PARTITIONS._drop(stale)
        assert ncpart._PARTITIONS[key]() is pi
    finally:
        if ncpart._PARTITIONS.get(key) is stale:
            del ncpart._PARTITIONS[key]
