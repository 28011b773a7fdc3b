"""The words-insertion operad on variable words and its splitting map.

A letter word is a finite string of variable indices with one input per gap
(arity = length + 1) and one output; the empty word is the operad unit.
It is kept as its finest coloring: the ``ncpart.NCPartition`` with one
singleton block per position, colored by the letters, and ``ncpart.EMPTY``
for the empty word.  So the words-insertion operad is the singleton
sub-operad of the partition operad: insertion interleaves the arguments
into the gaps of the host word, which is ``ncpart.gap_insert``, and a cut
of a letter word keeps a subset of its positions below and pushes the
complementary segments above, which is ``ncpart.cuts``.  Words of letter
words (``WWord``) share every word operation of ``formal.Word``, cuts and
antipode included, and supply only their letters' text and
``letter_partition``: a singleton block is an interval, so the antipode
is the sign (-1)^length.

The splitting map sends a letter word to the sum of all non-crossing
partitions of its positions, colored by the letters; it intertwines the two
half-coproduct structures, which is what transports the operator-valued
moment-cumulant fixed points from partitions to plain words.  On a word it
is the product of its letters' sums, so ``split`` adds one partition word
per choice of a coloring for each letter into one dict.

Everything here is exact and imports only ``formal`` and ``ncpart``.  The
numeric reading of letter words is ``morphisms``', whose morphisms read
the word type off each word they evaluate: the pullback of a morphism
along the splitting map is ``morphisms.precompose(phi, split)``, and the
fixed points on letter words are rows of ``suites.suite_splitting``.
"""

from __future__ import annotations

import functools
import itertools

from . import formal, ncpart
from .formal import FormalSum, PartitionWord
from .ncpart import EMPTY, NCPartition, enumerate_nc


def letter_word(colors) -> NCPartition:
    """The letter word of a sequence of variable indices: its finest
    coloring, one singleton block per position; ``EMPTY`` when there are
    none.  Each color must be a non-negative ``int``."""
    colors = tuple(colors)
    if not ncpart._checked_colors(colors, len(colors)):
        return EMPTY
    return NCPartition._trusted(_singletons(len(colors)), len(colors), colors)


@functools.lru_cache(maxsize=None)
def _singletons(n: int) -> tuple:
    """The blocks of the finest partition of n elements, shared by every
    letter word of that length."""
    return tuple((i,) for i in range(1, n + 1))


def letter_word_to_text(x: NCPartition) -> str:
    """Variable names separated by '.'; the empty word is 'e'."""
    if not x.size:
        return "e"
    return ".".join(ncpart.color_name(v) for v in x.colors)


class WWord(formal.Word):
    """Horizontal word of letter words; the empty list is the unit 1.  Its
    cuts, unit words, vertical product and antipode are those of
    ``formal.Word``."""

    __slots__ = ()
    SORT_TAG = 2
    letter_text = staticmethod(letter_word_to_text)

    def __new__(cls, letters=()):
        letters = tuple(letters)
        for x in letters:
            if isinstance(x, NCPartition) and x.size and (
                x.colors is None or x.n_blocks != x.size
            ):
                raise TypeError("WWord letters must be letter words, got %r" % (x,))
        return super().__new__(cls, letters)

    @staticmethod
    def letter_partition(x):
        """The one-block coloring of ``x``, the summand of ``split`` that
        is the letter itself."""
        return ncpart.full_partition(x.size, colors=x.colors)


def w_word(*letters) -> WWord:
    return WWord(letters)


def all_w_words(var_indices, max_size, max_letters):
    """All words over the variable alphabet with bounded total size."""
    vs = sorted(var_indices)
    return formal.words_of(
        WWord,
        lambda s: [letter_word(c) for c in itertools.product(vs, repeat=s)],
        max_size,
        max_letters,
    )


# ---------------------------------------------------------------------------
# Coproducts and antipode
#
# The coproducts are ``formal``'s, which serve every word type; these names
# keep letter-word calls apart from partition-word ones, as in the
# per-layer trace of ``perfbench``.


def w_coproduct(w) -> FormalSum:
    return formal.cut_sum(w)


def w_reduced_coproduct(w) -> FormalSum:
    return formal.cut_sum(w, reduced=True)


def w_delta_prec(w) -> FormalSum:
    return formal.cut_sum(w, True, reduced=True)


def w_delta_succ(w) -> FormalSum:
    return formal.cut_sum(w, False, reduced=True)


def w_antipode(w) -> FormalSum:
    """Letterwise sign by word length, multiplicative over concatenation:
    ``formal.antipode``, since every block of a letter word is an
    interval of one position."""
    return formal.antipode(w)


# ---------------------------------------------------------------------------
# Splitting map


def split(w) -> FormalSum:
    """Sum over all non-crossing colorings of each letter's positions;
    multiplicative over words.  The empty letter maps to the empty
    partition, the unit word to the unit word."""
    out = {}
    for basis, c in FormalSum.lift(w).terms.items():
        colorings = (
            [NCPartition._trusted(pi.blocks, pi.size, x.colors) for pi in enumerate_nc(x.size)]
            for x in basis.letters
        )
        for combo in itertools.product(*colorings):
            key = PartitionWord._trusted(combo)
            out[key] = out.get(key, 0) + c
    return FormalSum(out)


def split_insert_defect(alpha: NCPartition, betas) -> tuple:
    """Both sides of the insertion-compatibility failure: splitting after
    inserting vs inserting the split summands.  Returns (lhs, rhs)."""
    lhs = split(w_word(ncpart.gap_insert(alpha, betas)))
    return lhs, formal.vcompose(split(w_word(alpha)), split(WWord(tuple(betas))))
