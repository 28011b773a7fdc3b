"""Moment and cumulant families, and the recursive partition evaluator.

Each cumulant table is built from the first-block recursion, the paper's
half-shuffle fixed points read on one word.  Split a partition at the
block V that holds the word's first letter: the blocks between two letters
of V sit in a gap, the blocks after V's last letter form the tail, and the
evaluated partition is the generator of V composed with the gaps' and the
tail's sums.  So every entry is its moment map minus the terms whose first
block is not the whole word, and each term is one composition of a lower
table entry with moment maps:

* free (E = unit + k < E): every V that contains 1, 2^(n-1) - 1 terms;
* boolean (E = unit + E > b): V = {1..s} with s < n, so the gaps are
  empty and there are n - 1 terms;
* monotone: the weight 1/tree-factorial splits over V as 1/(1 + M), where
  M is the number of blocks nested in V's gaps, times the weights of the
  gaps and of the tail.  The tail sums to its moment map; the gaps need
  the block-count-graded sums F_m, which obey the same recursion with
  F_1 = k and are memoised per word and block count.

The partition evaluator ``e_pi_map`` reads the interval-collapse
factorization of ``ncpart.collapse_factorization`` in the operad of
multilinear maps: each one-block generator goes to the family's generator
for its color word, and each partial composition to ``multimap_partial``.
Collapsing the leftmost interval block, whose generator consumes the gap
arguments around it, leaves an element of B in the merged gap of the
restricted partition, so any non-crossing partition becomes nested
generator compositions.  ``verify_mc`` sums it over the whole lattice of
each kind, so it checks the tables by a route they were not built by.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ncpart import (
    CUMULANT_KINDS,
    KINDS,
    NCPartition,
    collapse_factorization,
    enumerate_interval,
    enumerate_nc,
    nesting_forest,
    tree_factorial,
)
from .ovps import (
    moment_map,
    multimap_compose,
    multimap_dev,
    multimap_lincomb,
    multimap_partial,
)

CORRUPTION_FACTOR = 1.5


class CumulantFamily:
    """Generator table for one kind over a fixed space.

    ``generator(word)`` returns the arity len(word)+1 multilinear map
    attached to the variable word; entries build lazily, are memoized and
    build their structure tensor once (none above the basis limit).  A
    cumulant entry is the moment map of its word, taken from the table of
    ``moments`` so that every word has one moment leaf, minus the
    first-block terms of the module docstring; each term composes a lower
    entry of this table with moment maps (monotone: with graded sums).
    ``corrupt`` scales one entry by ``CORRUPTION_FACTOR``, used as a fault
    injection hook by negative-control tests; it builds the scaled entry
    once and changes what ``generator`` returns, not the table, so no
    other entry sees it.
    """

    def __init__(self, space, kind, moments=None):
        if kind not in KINDS:
            raise ValueError("unknown family kind %r" % (kind,))
        self.space = space
        self.kind = kind
        if kind == "moment":
            moments = self
        elif moments is None:
            raise ValueError("a %s family needs the moment family it inverts" % (kind,))
        self.moments = moments
        self._table = {}
        self._graded_table = {}
        self._corrupted = (None, None)

    def generator(self, word):
        word = tuple(int(v) for v in word)
        corrupted_word, corrupted_entry = self._corrupted
        return corrupted_entry if word == corrupted_word else self._entry(word)

    def corrupt(self, word):
        word = tuple(int(v) for v in word)
        entry = self._entry(word)
        scaled = multimap_lincomb(self.space, entry.arity, [(CORRUPTION_FACTOR, entry)])
        self._corrupted = (word, scaled)

    def _entry(self, word):
        entry = self._table.get(word)
        if entry is None:
            entry = self._table[word] = self._build(word)
            entry.tensor()
        return entry

    def _build(self, word):
        if self.kind == "moment":
            return moment_map(self.space, word)
        n = len(word)
        if n == 0:
            return self.space.identity
        terms = [(1, self.moments._entry(word))]
        terms.extend((-weight, term) for weight, term in self._first_block_terms(word))
        return multimap_lincomb(self.space, n + 1, terms)

    def _first_block_terms(self, word, m=None):
        """The weighted terms of ``word``'s lattice sum whose first block V
        is not the whole word, one composition of V's entry per choice of
        gap maps.  With ``m`` (monotone only), the terms of the partitions
        with m blocks: the tail then holds the graded sum of the m - 1 - M
        blocks that V and its M gap blocks leave, instead of its moment
        map."""
        identity = self.space.identity
        for block, gaps, tail in _first_blocks(word, self.kind == "boolean"):
            outer = self._entry(block)
            for nested, inner in self._gap_sums(gaps):
                if m is None:
                    last = self._moment(tail)
                elif m - 1 - nested in _block_counts(tail):
                    last = self._graded(tail, m - 1 - nested)
                else:
                    continue
                weight = Fraction(1, 1 + nested) if self.kind == "monotone" else 1
                yield weight, multimap_compose(outer, (identity,) + inner + (last,))

    def _moment(self, word):
        return self.moments._entry(word) if word else self.space.identity

    def _gap_sums(self, gaps):
        """The (nested block count, gap maps) choices for the gaps of a
        first block.  Free and boolean gaps hold their moment maps.
        Monotone gaps hold every combination of graded sums, since V's
        share 1/(1 + M) of the weight depends on the M blocks they hold."""
        if self.kind != "monotone":
            yield 0, tuple(self._moment(g) for g in gaps)
            return
        for counts in itertools.product(*(_block_counts(g) for g in gaps)):
            yield sum(counts), tuple(self._graded(g, m) for g, m in zip(gaps, counts))

    def _graded(self, word, m):
        """F_m(word), the monotone lattice sum over the partitions of
        ``word`` with m blocks: F_0 of the empty word is the identity and
        F_1 is the table entry; the others are memoised like entries."""
        if not word:
            return self.space.identity
        if m == 1:
            return self._entry(word)
        graded = self._graded_table.get((word, m))
        if graded is None:
            terms = self._first_block_terms(word, m)
            graded = multimap_lincomb(self.space, len(word) + 1, terms)
            self._graded_table[word, m] = graded
            graded.tensor()
        return graded


def _block_counts(word):
    """The possible block counts of a partition of ``word``."""
    return range(1, len(word) + 1) if word else (0,)


def _first_blocks(word, intervals=False):
    """Split ``word`` at each block that holds its first letter, except
    the whole word: yields (block word, gap words between the block's
    letters, tail word after its last letter).  ``intervals`` keeps the
    blocks {1..s} only."""
    n = len(word)
    if intervals:
        blocks = [tuple(range(s)) for s in range(1, n)]
    else:
        blocks = [
            (0,) + rest
            for s in range(n - 1)
            for rest in itertools.combinations(range(1, n), s)
        ]
    for block in blocks:
        gaps = tuple(word[i + 1 : j] for i, j in zip(block, block[1:]))
        yield tuple(word[i] for i in block), gaps, word[block[-1] + 1 :]


def lattice(kind, n):
    """The (weight, partition) pairs of a cumulant kind on n elements: all
    non-crossing partitions with weight 1 for free, interval partitions with
    weight 1 for boolean, non-crossing partitions weighted by the inverse
    tree factorial of their nesting forest for monotone."""
    if kind == "boolean":
        return [(Fraction(1), pi) for pi in enumerate_interval(n)]
    if kind == "monotone":
        return [
            (Fraction(1, tree_factorial(nesting_forest(pi))), pi)
            for pi in enumerate_nc(n)
        ]
    return [(Fraction(1), pi) for pi in enumerate_nc(n)]


def cumulant_families(space) -> dict:
    """One table per kind over ``space``: the moment table and the free,
    boolean and monotone tables built on it, so every word has one moment
    leaf however many tables read it."""
    moments = CumulantFamily(space, "moment")
    families = {"moment": moments}
    for kind in CUMULANT_KINDS:
        families[kind] = CumulantFamily(space, kind, moments=moments)
    return families


def partition_colors(pi: NCPartition) -> tuple:
    """The variable of each position of ``pi``: an uncolored partition
    reads variable 0 throughout."""
    return pi.colors if pi.colors is not None else (0,) * pi.size


def e_pi_map(pi: NCPartition, family: CumulantFamily):
    """The multilinear map of ``pi``: its interval-collapse factorization
    (``ncpart.collapse_factorization``) evaluated with the family's
    generators.  A one-block partition is its generator, and the empty
    partition the identity."""
    if pi.size == 0:
        return family.space.identity
    if pi.colors is None:
        pi = NCPartition._trusted(pi.blocks, pi.size, partition_colors(pi))
    return collapse_factorization(pi, lambda _, colors: family.generator(colors), multimap_partial)


def family_sum_map(word, family: CumulantFamily):
    """The weighted sum of e_pi over ``lattice(family.kind, len(word))``
    for one word.  Each lattice partition is valid, so coloring it by the
    word is a trusted build."""
    n = len(word)
    colors = tuple(word) if n else None
    terms = [
        (w, e_pi_map(NCPartition._trusted(pi.blocks, n, colors), family))
        for w, pi in lattice(family.kind, n)
    ]
    return multimap_lincomb(family.space, n + 1, terms)


def verify_mc(space, order, words=None, families=None) -> dict:
    """Check the moment-cumulant relations up to ``order``.

    For every test word w, the moment map must equal the free sum over
    non-crossing partitions, the boolean sum over interval partitions and
    the tree-factorial-weighted monotone sum.  Returns a report with the
    per-order maximum deviation for each kind.  The targets are the leaves
    of ``families["moment"]``; pass prebuilt ``families`` (from
    ``cumulant_families``) to check tables that have been tampered with.
    """
    if families is None:
        families = cumulant_families(space)
    if words is None:
        vs = sorted(space.variables)
        words = []
        for n in range(1, order + 1):
            words.append((vs[0],) * n)
            if len(vs) > 1 and n >= 2:
                words.append(tuple(vs[i % 2] for i in range(n)))
    rows = []
    for w in words:
        target = families["moment"].generator(w)
        row = {"word": list(w), "order": len(w)}
        for kind in CUMULANT_KINDS:
            row[kind + "_dev"] = multimap_dev(family_sum_map(w, families[kind]), target)
        rows.append(row)
    worst = {
        kind: max((r[kind + "_dev"] for r in rows), default=0.0)
        for kind in CUMULANT_KINDS
    }
    return {"rows": rows, "max_dev": worst}
