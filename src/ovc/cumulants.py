"""Moment and cumulant families, and the recursive partition evaluator.

Each cumulant table is built from the first-block recursion, the paper's
half-shuffle fixed points read on one word.  Split a partition at the
block V that holds the word's first letter (``ncpart.first_blocks``, the
split both enumerations recurse on): the blocks between two letters
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
  F_1 = k and are memoised per word and block count.  F_None, the sum
  over every block count, is the moment map, so one accessor reads them all.

The partition evaluator ``e_pi_map`` reads the interval-collapse
factorization of ``ncpart.collapse_factorization`` in the operad of
multilinear maps: each one-block generator goes to the family's generator
for its color word, and each partial composition to ``multimap_partial``.
Collapsing the leftmost interval block, whose generator consumes the gap
arguments around it, leaves an element of B in the merged gap of the
restricted partition, so any non-crossing partition becomes nested
generator compositions.  ``verify_mc`` sums it over the whole lattice of
each kind (``ncpart.lattice``), so it checks the tables by a route they
were not built by.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ncpart import (
    CUMULANT_KINDS,
    KINDS,
    NCPartition,
    _checked_colors,
    collapse_factorization,
    first_blocks,
    lattice,
)
from .ovps import (
    DimensionMismatch,
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
        elif moments.space is not space:
            raise DimensionMismatch("the moment family lives over another space")
        self.moments = moments
        self._table = {}
        self._graded_table = {}
        self._corrupted = (None, None)

    def generator(self, word):
        word = _checked_colors(word, len(word)) or ()
        corrupted_word, corrupted_entry = self._corrupted
        return corrupted_entry if word == corrupted_word else self._entry(word)

    def corrupt(self, word):
        word = _checked_colors(word, len(word)) or ()
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
        terms = [(1, self._graded(word, None))]
        terms.extend((-weight, term) for weight, term in self._first_block_terms(word))
        return multimap_lincomb(self.space, n + 1, terms)

    def _first_block_terms(self, word, m=None):
        """The weighted terms of ``word``'s lattice sum F_m whose first
        block V is not the whole word, one composition of V's entry per
        choice of gap sums.  Free and boolean gaps hold F_None; monotone
        gaps hold every combination of graded sums, since V's share
        1/(1 + M) of the weight depends on their M blocks.  The tail holds
        F_None, or with ``m`` F_(m - 1 - M), the blocks V and its gaps leave."""
        identity = self.space.identity
        monotone = self.kind == "monotone"
        for block, ranges in first_blocks(len(word), self.kind == "boolean"):
            if len(block) == len(word):
                continue
            *gaps, tail = [word[r.start : r.stop] for r in ranges]
            outer = self._entry(tuple([word[i] for i in block]))
            for counts in itertools.product(
                *[_block_counts(g) if monotone else (None,) for g in gaps]
            ):
                nested = sum(counts) if monotone else 0
                if m is not None and m - 1 - nested not in _block_counts(tail):
                    continue
                inner = tuple([self._graded(g, c) for g, c in zip(gaps, counts)])
                last = self._graded(tail, None if m is None else m - 1 - nested)
                weight = Fraction(1, 1 + nested) if monotone else 1
                yield weight, multimap_compose(outer, (identity,) + inner + (last,))

    def _graded(self, word, m):
        """F_m(word), the lattice sum over the partitions of ``word`` with
        m blocks.  F_None, the sum over every block count, is the moment
        map; F_0 of the empty word is the identity and F_1 is the table
        entry; the other (monotone) sums are memoised like entries."""
        if not word:
            return self.space.identity
        if m is None:
            return self.moments._entry(word)
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


def verify_mc(families, order) -> dict:
    """Check the moment-cumulant relations of the tables ``families`` (from
    ``cumulant_families``, possibly tampered with) up to ``order``.

    For every test word w, the moment map must equal the free sum over
    non-crossing partitions, the boolean sum over interval partitions and
    the tree-factorial-weighted monotone sum.  The test words repeat the
    first variable of the tables' space and, with two or more variables,
    alternate the first two; the targets are their leaves in
    ``families["moment"]``.  Returns the rows and each kind's maximum.
    """
    vs = sorted(families["moment"].space.variables)
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
