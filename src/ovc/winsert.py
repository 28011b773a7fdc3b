"""The words-insertion operad on variable words and its splitting map.

A letter word is a finite string of variable indices with one input per gap
(arity = length + 1) and one output; the empty word is the operad unit.
Insertion interleaves: the arguments fill the gaps of the host word.  Words
of letter words carry the same cut machinery as words of partitions: a cut
of a letter word keeps a subset of its positions below and pushes the
complementary segments above, recorded as an ``ncpart.Cut``.

The splitting map sends a letter word to the sum of all non-crossing
partitions of its positions, colored by the letters; it intertwines the two
half-coproduct structures, which is what transports the operator-valued
moment-cumulant fixed points from partitions to plain words.

Everything here is exact and imports only ``formal`` and ``ncpart``.  The
numeric reading of letter words is ``morphisms``' with ``word_type=WWord``:
the pullback of a partition-word morphism along the splitting map is
``morphisms.precompose(phi, split, word_type=WWord)``, and the fixed points
on letter words are rows of ``suites.suite_splitting``.
"""

from __future__ import annotations

import functools
import itertools
from types import NoneType

from . import formal, ncpart
from .formal import FormalSum, PartitionWord, single
from .ncpart import InternTable, NCPartition, enumerate_nc, intern_object

_LETTER_WORDS = InternTable()


class LetterWord:
    """A word of variable indices: one letter of the insertion operad.

    There is one live letter word per tuple of indices: the constructor
    returns it, so letter words compare and hash by identity."""

    __slots__ = ("letters", "__weakref__")

    def __new__(cls, letters=()):
        return cls._trusted(tuple(int(v) for v in letters))

    @classmethod
    def _trusted(cls, letters: tuple):
        """Internal: the letter word of a tuple of ``int`` indices; nothing
        is checked."""
        x = _LETTER_WORDS.get(letters, NoneType)()
        if x is None:
            x = intern_object(_LETTER_WORDS, letters, cls, letters=letters)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("LetterWord is immutable")

    @property
    def size(self):
        return len(self.letters)

    @property
    def arity(self):
        return len(self.letters) + 1

    def __len__(self):
        return len(self.letters)

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __repr__(self):
        return "LetterWord(%r)" % (letter_word_to_text(self),)


EMPTY_WORD = LetterWord(())


def letter_word_to_text(x: LetterWord) -> str:
    """Variable names separated by '.'; the empty word is 'e'."""
    if not x.letters:
        return "e"
    return ".".join(ncpart.color_name(v) for v in x.letters)


def word_insert(x: LetterWord, ys) -> LetterWord:
    """Interleave: the i-th argument fills the gap before the i-th letter."""
    ys = tuple(ys)
    if len(ys) != x.arity:
        raise ncpart.ArityMismatch(
            "expected %d gap arguments, got %d" % (x.arity, len(ys))
        )
    out = []
    for i, v in enumerate(x.letters):
        out.extend(ys[i].letters)
        out.append(v)
    out.extend(ys[-1].letters)
    return LetterWord._trusted(tuple(out))


@functools.lru_cache(maxsize=None)
def letter_cuts(x: LetterWord) -> tuple:
    """All ways to keep a subset of positions below, as ``ncpart.Cut``
    records: bit i of ``kept_mask`` keeps position i + 1 below, so bit 0
    says whether position 1 stays below.  Memoised per letter word; the
    result is immutable and shared between calls."""
    p = x.size
    out = []
    for mask in range(1 << p):
        kept = [i for i in range(p) if mask >> i & 1]
        lower = LetterWord._trusted(tuple(x.letters[i] for i in kept))
        bounds = [-1] + kept + [p]
        upper = tuple(
            LetterWord._trusted(x.letters[bounds[g] + 1 : bounds[g + 1]])
            for g in range(len(kept) + 1)
        )
        out.append(ncpart.Cut(lower, upper, mask))
    return tuple(out)


class WWord(formal.Word):
    """Horizontal word of letter words; the empty list is the unit 1.  Its
    cuts, unit words and vertical product are those of ``formal.Word``."""

    __slots__ = ()
    LETTER = LetterWord
    EMPTY = EMPTY_WORD
    SORT_TAG = 2
    letter_cuts = staticmethod(letter_cuts)
    insert_letter = staticmethod(word_insert)
    letter_text = staticmethod(letter_word_to_text)

    @staticmethod
    def letter_partition(x):
        """The one-block coloring of ``x``, the summand of ``split`` that
        is the letter itself."""
        return ncpart.full_partition(x.size, colors=x.letters)

    @property
    def total_blocks(self):
        """The most blocks of a word in ``split(self)``: its finest
        coloring has one block per position."""
        return self.total_size


def w_word(*letters) -> WWord:
    return WWord(letters)


def all_w_words(var_indices, max_size, max_letters):
    """All words over the variable alphabet with bounded total size."""
    vs = sorted(var_indices)
    return formal.words_of(
        WWord,
        lambda s: [LetterWord(c) for c in itertools.product(vs, repeat=s)],
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
    """Letterwise sign by word length, multiplicative over concatenation."""

    def on_word(basis):
        sign = (-1) ** basis.total_size
        return single(basis, sign)

    return FormalSum.lift(w).map_basis(on_word)


# ---------------------------------------------------------------------------
# Splitting map


def split(w) -> FormalSum:
    """Sum over all non-crossing colorings of each letter's positions;
    multiplicative over words.  The empty letter maps to the empty
    partition, the unit word to the unit word."""
    out = None
    for basis, c in FormalSum.lift(w).terms.items():
        term = single(PartitionWord(()), c)
        for letter in basis.letters:
            colors = letter.letters or None
            colorings = (
                NCPartition._trusted(pi.blocks, pi.size, colors)
                for pi in enumerate_nc(letter.size)
            )
            letter_sum = FormalSum({PartitionWord._trusted((pi,)): 1 for pi in colorings})
            term = formal.hconcat(term, letter_sum)
        out = term if out is None else out + term
    return out if out is not None else FormalSum()


def split_insert_defect(alpha: LetterWord, betas) -> tuple:
    """Both sides of the insertion-compatibility failure: splitting after
    inserting vs inserting the split summands.  Returns (lhs, rhs)."""
    lhs = split(w_word(word_insert(alpha, betas)))
    return lhs, formal.vcompose(split(w_word(alpha)), split(WWord(tuple(betas))))
