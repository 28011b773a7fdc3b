"""Non-crossing partitions and their gap-insertion composition.

A partition of ``{1, ..., p}`` is kept in canonical form: blocks sorted by
their minimum, elements sorted inside each block.  A partition of p elements
is treated as an operator with ``p + 1`` inputs, one per gap between
consecutive elements (gap 0 sits before element 1, gap p after element p),
and a single output.  Composition inserts one partition into each gap of
another; restricted to non-crossing partitions this is again non-crossing.

Partitions may carry *colors*: one variable index per element.  Uncolored is
represented by the absence of a color list, never by a default color.
All values are immutable and interned: every route to a partition returns
the one live object with its blocks and colors, so equality and hashing are
identity.  Every function here is pure.  Both enumerations (per size) and
``cuts`` of uncolored partitions are memoised per process; each returns a
fresh list on every call.  The cuts of a colored partition come from the
one memoised walk of its uncolored shape, which records per cut the
positions of the kept elements, whose colors color the lower partition,
and each gap's bounds, whose slice of the colors colors its upper
partition.

Validation happens once, at the boundary: ``NCPartition(...)``,
``standardize`` and ``from_text`` check the ground set, the crossings and
the colors, each a non-negative ``int``.
Every internal route starts from a valid partition and builds through the
unchecked ``NCPartition._trusted``, because its result is valid by
construction:

- ``gap_insert``: inserting non-crossing partitions into the gaps of a
  non-crossing one gives a non-crossing one, and the relabelling keeps each
  block sorted, so only the block order is restored;
- the lower and upper partitions of a cut, and ``restrict``: a subset of a
  valid partition's canonical blocks, relabelled 1..p in increasing order,
  keeps its blocks sorted, in block order and uncrossed;
- ``enumerate_nc`` and ``enumerate_interval``: one recursion over
  ``first_blocks``, which splits off the block holding the first position
  and leaves its gaps and tail to partition on their own, so no two blocks
  cross (and with interval blocks only, every block is a run);
- ``full_partition``: one block, so only its size and colors are checked;
- recoloring: the shapes are valid, and the colors are a valid colored
  partition's, sliced by position.

One stack scan, ``_parents``, reads each block's parent (the innermost
block still open when it opens) or finds a crossing; the validating
constructors, the cuts and the monotone labelings all read it.

The kinds (``KINDS``) and their lattices live here too: ``lattice(kind, n)``
is the one table of the partitions each cumulant kind sums over and their
weights.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import weakref
from types import NoneType
from typing import Iterable, NamedTuple, Optional, Sequence

# Enumeration bounds.  ``verify`` never reaches them: max_order <= 8 keeps
# every enumerated size at 9 or below.
MAX_ELEMENTS = 10
MAX_BLOCKS = 9

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class MalformedPartition(ValueError):
    """Blocks do not form a partition of an initial integer segment."""


class CrossingError(MalformedPartition):
    """Blocks form a partition but contain a crossing."""


class ArityMismatch(ValueError):
    """Composition applied with the wrong number or shape of arguments."""


class EnumerationBound(RuntimeError):
    """Requested enumeration exceeds MAX_ELEMENTS elements or MAX_BLOCKS
    blocks."""


class InvariantError(ArithmeticError):
    """A computed result failed its internal consistency check."""


def _checked_ground(blocks) -> int:
    """Return p after checking blocks partition {1..p} exactly; each
    element is a positive ``int`` (not a ``bool``)."""
    seen = set()
    for b in blocks:
        if len(b) == 0:
            raise MalformedPartition("empty block")
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise MalformedPartition("elements must be positive integers, got %r" % (x,))
            if x in seen:
                raise MalformedPartition("element %d occurs twice" % x)
            seen.add(x)
    p = len(seen)
    if seen and (min(seen) != 1 or max(seen) != p):
        raise MalformedPartition("elements must cover 1..p without gaps")
    return p


def _checked_colors(colors, size: int) -> Optional[tuple]:
    """``colors`` as a tuple, after checking that there are ``size`` of
    them and that each is a non-negative ``int`` (not a ``bool``); None
    when there are none, since a partition without elements records no
    coloring."""
    if colors is None:
        return None
    colors = tuple(colors)
    if len(colors) != size:
        raise MalformedPartition("expected %d colors, got %d" % (size, len(colors)))
    for c in colors:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise MalformedPartition("colors must be non-negative integers, got %r" % (c,))
    return colors or None


def _blocks_cross(b1, b2) -> bool:
    # b1, b2 sorted and disjoint; crossing iff their elements alternate
    # at least three times along the merged order.  Only names the pair
    # in a CrossingError; the check itself is _parents.
    merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
    changes = sum(1 for u, v in zip(merged, merged[1:]) if u[1] != v[1])
    return changes >= 3


def _parents(blocks, size) -> Optional[list]:
    """Stack scan in O(p) over blocks that partition 1..p, each sorted:
    reading 1..p left to right, every element after the first of its block
    must belong to the innermost block still open.  Returns each block's
    parent, the innermost block open when it opens (None for an outer
    block), or None when two blocks cross."""
    owner = [0] * (size + 1)
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    parents = [None] * len(blocks)
    open_blocks = []
    for x in range(1, size + 1):
        i = owner[x]
        b = blocks[i]
        if x == b[0]:
            if open_blocks:
                parents[i] = open_blocks[-1]
            open_blocks.append(i)
        elif open_blocks[-1] != i:
            return None
        if x == b[-1]:
            open_blocks.pop()
    return parents


def is_noncrossing(blocks) -> bool:
    """True iff no a < c < b < d exists with a,b in one block, c,d in another.

    The blocks must partition {1..p} for some p; otherwise a
    MalformedPartition error is raised.
    """
    blocks = [tuple(b) for b in blocks]
    size = _checked_ground(blocks)
    return _parents([sorted(b) for b in blocks], size) is not None


# Re-entrant, because a reference's callback takes it too and may run
# inside ``intern_object`` when a collection frees an interned object.
_INTERN_LOCK = threading.RLock()


class _InternRef(weakref.ref):
    """A weak reference to an interned object that remembers its key,
    which is set after the reference is made."""

    __slots__ = ("key",)


class InternTable(dict):
    """An intern table: a dict from keys to weak references of their one
    live object.  ``table.get(key, NoneType)()`` reads it with one lookup
    and one call; a missing key reads as ``None``, as a dead reference
    does.  When an object dies, its reference's callback drops that entry,
    and only while it is still the entry: a newer object made under the
    same key after the death stays."""

    __slots__ = ()
    _lock = _INTERN_LOCK  # a class attribute outlives module teardown

    def _drop(self, ref):
        with self._lock:
            if self.get(ref.key) is ref:
                del self[ref.key]


def intern_object(table: InternTable, key, cls, **fields):
    """The live object of ``cls`` stored under ``key`` in ``table``, made
    with ``fields`` when there is none or its reference is dead.  Callers
    read the table first, so only creation takes the lock; the lock is
    shared by every intern table, and no two threads make two objects for
    one key."""
    with _INTERN_LOCK:
        obj = table.get(key, NoneType)()
        if obj is None:
            obj = object.__new__(cls)
            for name, value in fields.items():
                object.__setattr__(obj, name, value)
            ref = _InternRef(obj, table._drop)
            ref.key = key
            table[key] = ref
        return obj


_PARTITIONS = InternTable()


class NCPartition:
    """A (possibly colored) non-crossing partition in canonical form.

    ``size`` is the number of partitioned elements p, ``blocks`` a tuple of
    integer tuples and ``colors`` either None or a tuple of p variable
    indices.  ``NCPartition([])`` is the empty partition, the operad unit.
    There is one live object per (blocks, colors) value: the constructor
    returns it, so partitions compare and hash by identity.
    """

    __slots__ = ("size", "blocks", "colors", "__weakref__")

    def __new__(cls, blocks: Iterable[Iterable[int]], colors: Optional[Sequence[int]] = None):
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        size = _checked_ground(canon)
        if _parents(canon, size) is None:
            b1, b2 = next(
                pair for pair in itertools.combinations(canon, 2) if _blocks_cross(*pair)
            )
            raise CrossingError("blocks %r and %r cross" % (b1, b2))
        return cls._trusted(canon, size, _checked_colors(colors, size))

    @classmethod
    def _trusted(cls, blocks: tuple, size: int, colors: Optional[tuple]):
        """Internal: the partition with the canonical blocks of a valid one
        of ``size`` elements and ``colors`` (None, or a tuple of ``size``
        indices when ``size > 0``); nothing is checked."""
        pi = _PARTITIONS.get((blocks, colors), NoneType)()
        if pi is None:
            pi = intern_object(
                _PARTITIONS, (blocks, colors), cls, size=size, blocks=blocks, colors=colors
            )
        return pi

    def __setattr__(self, name, value):
        raise AttributeError("NCPartition is immutable")

    @property
    def arity(self) -> int:
        """Number of inputs: one per gap, including front and back."""
        return self.size + 1

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def is_interval(self) -> bool:
        """True iff every block is a contiguous run."""
        return all(b[-1] - b[0] + 1 == len(b) for b in self.blocks)

    def block_colors(self, block_index: int):
        if self.colors is None:
            return None
        return tuple(self.colors[x - 1] for x in self.blocks[block_index])

    def sort_key(self):
        return (self.size, self.blocks, self.colors or ())

    def __repr__(self):
        return "NCPartition(%r)" % (to_text(self),)


EMPTY = NCPartition(())


def full_partition(size: int, colors: Optional[Sequence[int]] = None) -> NCPartition:
    """The one-block partition of ``size`` elements (size 0 gives the unit).

    With arity labelling this is the generator of arity ``size + 1``.  The
    block is valid by construction, so only the size and the colors are
    checked.
    """
    if not isinstance(size, int) or isinstance(size, bool) or size < 0:
        raise MalformedPartition("size must be a non-negative integer, got %r" % (size,))
    blocks = (tuple(range(1, size + 1)),) if size else ()
    return NCPartition._trusted(blocks, size, _checked_colors(colors, size))


def color_name(index: int) -> str:
    return _ALPHABET[index] if index < len(_ALPHABET) else "v%d" % index


def color_index(token: str) -> int:
    token = token.strip()
    if token.isdecimal():
        return int(token)
    if len(token) == 1 and token in _ALPHABET:
        return _ALPHABET.index(token)
    if token.startswith("v") and token[1:].isdecimal():
        return int(token[1:])
    raise MalformedPartition("cannot read variable token %r" % token)


def to_text(pi: NCPartition) -> str:
    """Render as blocks joined by '|', elements by ',' ('0' when empty).

    A colored partition appends ';' plus comma-separated variable names.
    """
    if pi.size == 0:
        return "0"
    body = "|".join(",".join(str(x) for x in b) for b in pi.blocks)
    if pi.colors is None:
        return body
    return body + ";" + ",".join(color_name(c) for c in pi.colors)


def from_text(text: str) -> NCPartition:
    text = text.strip()
    if ";" in text:
        body, tail = text.split(";", 1)
        colors = tuple(color_index(t) for t in tail.split(","))
    else:
        body, colors = text, None
    if body == "0":
        if colors not in (None, ()):
            raise MalformedPartition("the empty partition takes no colors")
        return EMPTY
    try:
        blocks = [tuple(int(x) for x in chunk.split(",")) for chunk in body.split("|")]
    except ValueError:
        raise MalformedPartition("cannot read element in %r" % body) from None
    return NCPartition(blocks, colors=colors)


# ---------------------------------------------------------------------------
# Enumeration


def first_blocks(n: int, intervals: bool = False):
    """Yield each block of the positions 0..n-1 that holds position 0,
    with the ranges of positions it leaves: one per gap between two
    consecutive members, then the tail after its last member.  Blocks come
    by size, then in lexicographic order, so the whole 0..n-1 comes last.
    With ``intervals``, only the blocks 0..s-1, whose gaps are empty.

    This is the split of the left half-shuffle fixed point: both
    enumerations recurse on it, and the cumulant recursion reads it on one
    word (``cumulants.CumulantFamily``)."""
    for k in range(n):
        for rest in (range(1, k + 1),) if intervals else itertools.combinations(range(1, n), k):
            block = (0, *rest)
            yield block, tuple([range(i + 1, j) for i, j in zip(block, block[1:] + (n,))])


def _block_lists(ground: tuple, intervals: bool):
    """Yield the block lists of all non-crossing (or interval) partitions
    of the ordered tuple ``ground``, each exactly once."""
    if not ground:
        yield []
        return
    for block, ranges in first_blocks(len(ground), intervals):
        head = [tuple([ground[i] for i in block])]
        for tail in itertools.product(
            *[list(_block_lists(ground[r.start : r.stop], intervals)) for r in ranges if r]
        ):
            yield head + [b for part in tail for b in part]


def _check_size(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise MalformedPartition("size must be a non-negative integer, got %r" % (p,))
    if p > MAX_ELEMENTS:
        raise EnumerationBound("p=%d exceeds the enumeration bound %d" % (p, MAX_ELEMENTS))


def enumerate_nc(p: int) -> list:
    """All non-crossing partitions of {1..p}, sorted lexicographically by
    canonical block list.  ``enumerate_nc(0)`` is ``[EMPTY]``.

    The partitions are computed once per size and process."""
    _check_size(p)
    return list(_partitions(p, False))


def enumerate_interval(p: int) -> list:
    """All interval partitions of {1..p} (blocks are contiguous runs), in
    the order of ``enumerate_nc``, computed once per size and process."""
    _check_size(p)
    return list(_partitions(p, True))


@functools.lru_cache(maxsize=None)
def _partitions(p: int, intervals: bool) -> tuple:
    # every block list is a non-crossing partition of 1..p with sorted
    # blocks, so sorting the list puts it in canonical form
    parts = [
        NCPartition._trusted(tuple(sorted(bs)), p, None)
        for bs in _block_lists(tuple(range(1, p + 1)), intervals)
    ]
    parts.sort(key=NCPartition.sort_key)
    return tuple(parts)


# ---------------------------------------------------------------------------
# Insertion


def _merge_colors(pi: NCPartition, alphas) -> Optional[tuple]:
    sized = [x for x in (pi, *alphas) if x.size]
    colored = [x for x in sized if x.colors is not None]
    if not colored:
        return None
    if len(colored) != len(sized):
        raise ArityMismatch("mixed colored and uncolored inputs")
    host = pi.colors or ()
    parts = []
    for i, a in enumerate(alphas):
        if a.size:
            parts.extend(a.colors)
        if i < pi.size:
            parts.append(host[i])
    return tuple(parts)


def gap_insert(pi: NCPartition, alphas: Sequence[NCPartition]) -> NCPartition:
    """Insert ``alphas[i]`` into gap i of ``pi`` (one partition per gap).

    The result is the non-crossing partition of
    ``size(pi) + sum(size(alpha_i))`` obtained by relabelling every inserted
    partition into its gap.  Colors concatenate in reading order.  Inserting
    non-crossing partitions gives a non-crossing one, and relabelling keeps
    each block sorted, so the result is only put in block order, not
    checked again.  Empty arguments are only counted: inserting nothing
    returns ``pi`` itself, and inserting into the unit returns the argument.
    """
    alphas = tuple(alphas)
    if len(alphas) != pi.arity:
        raise ArityMismatch(
            "expected %d gap arguments, got %d" % (pi.arity, len(alphas))
        )
    if not pi.size:
        return alphas[0]
    sizes = [a.size for a in alphas]
    prefix = list(itertools.accumulate(sizes, initial=0))
    if not prefix[-1]:
        return pi
    colors = _merge_colors(pi, alphas)
    blocks = [tuple([x + prefix[x] for x in b]) for b in pi.blocks]
    for i, size in enumerate(sizes):
        if size:
            offset = i + prefix[i]
            blocks.extend([tuple([x + offset for x in b]) for b in alphas[i].blocks])
    blocks.sort()
    return NCPartition._trusted(tuple(blocks), prefix[-1] + pi.size, colors)


def partial_insert(pi: NCPartition, slot: int, alpha: NCPartition) -> NCPartition:
    """Insert ``alpha`` into input slot ``slot`` (1-based; slot i is gap i-1)."""
    if not 1 <= slot <= pi.arity:
        raise ArityMismatch("slot %d out of range 1..%d" % (slot, pi.arity))
    alphas = [EMPTY] * pi.arity
    alphas[slot - 1] = alpha
    return gap_insert(pi, alphas)


def standardize(blocks, colors=None) -> NCPartition:
    """Relabel blocks over an arbitrary finite integer ground set to {1..p}.

    ``colors``, if given, maps each original element to its variable index;
    an element it does not map is a ``MalformedPartition``.
    No blocks give the shared EMPTY.  The result is validated like any
    ``NCPartition``.
    """
    if not blocks:
        return EMPTY
    ground = sorted(x for b in blocks for x in b)
    if len(set(ground)) != len(ground):
        raise MalformedPartition("ground set elements repeat")
    rank = {x: i + 1 for i, x in enumerate(ground)}
    new_blocks = [tuple(rank[x] for x in b) for b in blocks]
    try:
        new_colors = tuple(colors[x] for x in ground) if colors is not None else None
    except KeyError as err:
        raise MalformedPartition("element %r has no color" % (err.args[0],)) from None
    return NCPartition(new_blocks, colors=new_colors)


def _sub_partition(blocks, colors) -> NCPartition:
    """Trusted relabelling: the partition that ``blocks``, some canonical
    blocks of one valid partition kept in their canonical order, form on
    their own elements, with that partition's ``colors`` (or None).

    Relabelling the elements 1..p in increasing order keeps each block
    sorted, the blocks ordered by minimum and every pair of blocks as
    (un)crossed as before, so the result is valid by construction and is
    made without checks."""
    ground = sorted([x for b in blocks for x in b])
    if not ground:
        return EMPTY
    rank = {x: i for i, x in enumerate(ground, 1)}
    new_blocks = tuple([tuple([rank[x] for x in b]) for b in blocks])
    new_colors = None if colors is None else tuple([colors[x - 1] for x in ground])
    return NCPartition._trusted(new_blocks, len(ground), new_colors)


def restrict(pi: NCPartition, positions) -> NCPartition:
    """Standardized trace of ``pi`` on a set of positions.

    Every block must lie inside or outside ``positions`` entirely.
    """
    keep = set(positions)
    blocks = []
    for b in pi.blocks:
        inside = [x for x in b if x in keep]
        if inside and len(inside) != len(b):
            raise MalformedPartition("block %r straddles the restriction" % (b,))
        if inside:
            blocks.append(b)
    return _sub_partition(blocks, pi.colors)


# ---------------------------------------------------------------------------
# Nesting structure


def tree_factorial(pi: NCPartition) -> int:
    """The tree factorial of the nesting forest of ``pi``: the product,
    over its blocks, of the size of the block's subtree, that is 1 plus the
    number of blocks that start strictly inside its span (no blocks cross,
    so these are its descendants).  The empty partition gives 1."""
    starts = [b[0] for b in pi.blocks]
    return math.prod([1 + sum([b[0] < s < b[-1] for s in starts]) for b in pi.blocks])


KINDS = ("moment", "free", "boolean", "monotone")
CUMULANT_KINDS = KINDS[1:]


def lattice(kind, n):
    """The (weight, partition) pairs of a cumulant kind on n elements: all
    non-crossing partitions with weight 1 for free, interval partitions with
    weight 1 for boolean, non-crossing partitions weighted by
    ``1 / tree_factorial(pi)`` for monotone.  Any other kind, ``"moment"``
    included, is a ``ValueError``."""
    from fractions import Fraction  # on use: start-up and `ovc enumerate` never need it

    if kind == "free":
        return [(Fraction(1), pi) for pi in enumerate_nc(n)]
    if kind == "boolean":
        return [(Fraction(1), pi) for pi in enumerate_interval(n)]
    if kind == "monotone":
        return [(Fraction(1, tree_factorial(pi)), pi) for pi in enumerate_nc(n)]
    raise ValueError("no cumulant lattice for the kind %r" % (kind,))


def count_monotone_labelings(pi: NCPartition) -> int:
    """Number of bijective block labelings with nested blocks labeled smaller.

    Computed by brute force over all permutations, reading the nesting off
    the scan's parents; the ``monotone.labeling-count`` row of ``verify``
    compares it with #blocks! / tree_factorial, which reads the spans.
    """
    k = pi.n_blocks
    if k > MAX_BLOCKS:
        raise EnumerationBound("%d blocks exceeds the bound %d" % (k, MAX_BLOCKS))
    parents = _parents(pi.blocks, pi.size)
    pairs = [(child, par) for child, par in enumerate(parents) if par is not None]
    return sum(
        all(labels[child] < labels[par] for child, par in pairs)
        for labels in itertools.permutations(range(1, k + 1))
    )


# ---------------------------------------------------------------------------
# Cuts


class Cut(NamedTuple):
    """A decomposition pi = gap_insert(lower, upper).

    ``lower`` keeps an englobing-closed set of blocks (recorded in
    ``kept_mask`` over canonical block indices); ``upper`` is the word of
    standardized remainders, one per gap of ``lower``.
    """

    lower: NCPartition
    upper: tuple
    kept_mask: int


def cuts(pi: NCPartition) -> list:
    """All cuts of ``pi``, ordered by kept_mask value.

    So the first cut keeps no block, ``(EMPTY, (pi,), 0)``, and the last
    keeps them all, ``(pi, (EMPTY,) * pi.arity, 2**n_blocks - 1)``; every
    cut between them keeps some blocks and removes some.  The empty
    partition has the single cut (EMPTY, (EMPTY,), 0).  The cuts of an
    uncolored partition are computed once per process; a colored partition
    takes the cuts of its uncolored shape and colors them from the
    ``_gap_bounds`` that the shape's walk recorded, and nothing colored is
    cached.
    """
    if pi.colors is None:
        return list(_shape_cuts(pi)[0])
    colors = pi.colors
    trusted = NCPartition._trusted
    out = []
    shape_cuts, plan = _shape_cuts(trusted(pi.blocks, pi.size, None))
    for cut, (kept, starts, ends) in zip(shape_cuts, plan):
        lower = cut.lower
        if lower.size:
            lower = trusted(lower.blocks, lower.size, tuple([colors[i] for i in kept]))
        upper = tuple([
            trusted(u.blocks, u.size, colors[lo:hi]) if u.size else EMPTY
            for u, lo, hi in zip(cut.upper, starts, ends)
        ])
        out.append(Cut(lower, upper, cut.kept_mask))
    return out


@functools.lru_cache(maxsize=None)
def _gap_bounds(kept: tuple, size: int) -> tuple:
    """``(kept, starts, ends)`` for the 0-based indices ``kept`` of the
    kept elements of a partition of ``size`` elements: ``lower`` takes the
    colors at ``kept``, and gap g's ``upper`` the colors
    ``[starts[g]:ends[g]]``, the elements between two kept ones.  Shared
    by every cut that keeps the same elements, so the walks stay small."""
    return kept, (0,) + tuple(i + 1 for i in kept), kept + (size,)


@functools.lru_cache(maxsize=None)
def _shape_cuts(pi: NCPartition) -> tuple:
    """One walk of the cuts of the uncolored shape ``pi``: the tuple of its
    cuts, each lower and upper a trusted uncolored sub-partition of ``pi``,
    and the tuple of each cut's ``_gap_bounds``, read off the kept
    positions the walk sorts to find the gaps.  ``cuts`` colors a colored
    partition's cuts from the bounds of its shape."""
    if pi.size == 0:
        return (Cut(EMPTY, (EMPTY,), 0),), (_gap_bounds((), 0),)
    parents = _parents(pi.blocks, pi.size)
    nb = pi.n_blocks
    out, plan = [], []
    for mask in range(1 << nb):
        kept = [i for i in range(nb) if mask >> i & 1]
        if any(parents[i] is not None and not mask >> parents[i] & 1 for i in kept):
            continue
        kept_blocks = [pi.blocks[i] for i in kept]
        lower = _sub_partition(kept_blocks, None)
        positions = sorted(x for b in kept_blocks for x in b)
        bounds = [0] + positions + [pi.size + 1]
        removed = [pi.blocks[i] for i in range(nb) if not mask >> i & 1]
        upper = []
        for g in range(len(positions) + 1):
            lo, hi = bounds[g], bounds[g + 1]
            segment = [b for b in removed if lo < b[0] and b[-1] < hi]
            upper.append(_sub_partition(segment, None))
        if sum(len(b) for b in removed) != sum(u.size for u in upper):
            raise InvariantError(
                "%r: the cut with kept mask %d loses removed elements" % (pi, mask)
            )
        out.append(Cut(lower, tuple(upper), mask))
        plan.append(_gap_bounds(tuple([x - 1 for x in positions]), pi.size))
    return tuple(out), tuple(plan)


# ---------------------------------------------------------------------------
# Operadic factorization


def operadic_factorization(pi: NCPartition, leaf, partial):
    """Evaluate the peel-first factorization of ``pi`` in an operad.

    ``leaf(size, colors)`` is the image of the one-block generator of
    ``size`` elements (``colors`` is None when ``pi`` is uncolored), and
    ``partial(outer, slot, inner)`` composes ``inner`` into the 1-based
    input ``slot`` of ``outer``.  Strategy: peel the block containing
    position 1, then fold the gap contents in right to left so earlier slots
    stay valid.  The empty partition, being the operad unit, has no
    factorization.
    """
    if pi.size == 0:
        raise ArityMismatch("the empty partition is the unit; no factorization")
    block = pi.blocks[0]  # canonical order puts the block containing 1 first
    m = len(block)
    value = leaf(m, pi.block_colors(0))
    bounds = list(block) + [pi.size + 1]
    for gap in range(m, 0, -1):
        lo, hi = bounds[gap - 1], bounds[gap]
        if hi - lo > 1:
            inner = operadic_factorization(restrict(pi, range(lo + 1, hi)), leaf, partial)
            value = partial(value, gap + 1, inner)
    return value


def collapse_factorization(pi: NCPartition, leaf, partial):
    """Evaluate the interval-collapse factorization of ``pi`` in an operad,
    with ``leaf`` and ``partial`` as in ``operadic_factorization``.

    Every non-empty non-crossing partition has an interval block; the
    leftmost one, at positions k..l, is a generator composed into slot k of
    the restriction of ``pi`` to the other positions, which collapses in
    turn.  ``leaf`` is called before the recursion.
    """
    if pi.size == 0:
        raise ArityMismatch("the empty partition is the unit; no factorization")
    block = next(b for b in pi.blocks if b[-1] - b[0] + 1 == len(b))
    k, l = block[0], block[-1]
    value = leaf(len(block), None if pi.colors is None else pi.colors[k - 1 : l])
    if len(block) == pi.size:
        return value
    remaining = [x for x in range(1, pi.size + 1) if not k <= x <= l]
    return partial(collapse_factorization(restrict(pi, remaining), leaf, partial), k, value)
