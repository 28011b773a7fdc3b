"""The words-insertion operad on variable words and its splitting map.

A letter word is a finite string of variable indices with one input per gap
(arity = length + 1) and one output; the empty word is the operad unit.
Insertion interleaves: the arguments fill the gaps of the host word.  Words
of letter words carry the same cut machinery as words of partitions: a cut
of a letter word keeps a subset of its positions below and pushes the
complementary segments above.

The splitting map sends a letter word to the sum of all non-crossing
partitions of its positions, colored by the letters; it intertwines the two
half-coproduct structures, which is what transports the operator-valued
moment-cumulant fixed points from partitions to plain words.
"""

from __future__ import annotations

import functools
import itertools

from . import formal, ncpart
from .formal import FormalSum, PartitionWord, single
from .morphisms import (
    HorizontalMorphism,
    InfinitesimalMorphism,
    Morphism,
    WordCoalgebra,
    WordSum,
    eta_eps_morphism,
    half_prec,
    half_succ,
    morphism_dev,
)
from .ncpart import NCPartition, enumerate_nc
from .ovps import moment_map


class LetterWord:
    """A word of variable indices: one letter of the insertion operad."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        letters = tuple(int(v) for v in letters)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(("lw", letters)))

    def __setattr__(self, name, value):
        raise AttributeError("LetterWord is immutable")

    @property
    def size(self):
        return len(self.letters)

    @property
    def arity(self):
        return len(self.letters) + 1

    def __eq__(self, other):
        return isinstance(other, LetterWord) and self.letters == other.letters

    def __hash__(self):
        return self._hash

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
    return LetterWord(out)


@functools.lru_cache(maxsize=None)
def letter_cuts(x: LetterWord) -> tuple:
    """All ways to keep a subset of positions below: a tuple of (lower
    letter, upper letters, first-position-kept flag).  Memoised per letter
    word; the result is immutable and shared between calls."""
    p = x.size
    out = []
    for mask in range(1 << p):
        kept = [i for i in range(p) if mask >> i & 1]
        lower = LetterWord(x.letters[i] for i in kept)
        bounds = [-1] + kept + [p]
        upper = tuple(
            LetterWord(x.letters[bounds[g] + 1 : bounds[g + 1]])
            for g in range(len(kept) + 1)
        )
        out.append((lower, upper, p > 0 and bool(mask & 1)))
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


W_ONE = WWord(())


def w_word(*letters) -> WWord:
    return WWord(letters)


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
            colors = letter.letters
            letter_sum = FormalSum(
                [
                    (PartitionWord((NCPartition(pi.blocks, colors=colors or None),)), 1)
                    for pi in enumerate_nc(letter.size)
                ]
            )
            term = formal.hconcat(term, letter_sum)
        out = term if out is None else out + term
    return out if out is not None else FormalSum()


def split_insert_defect(alpha: LetterWord, betas) -> tuple:
    """Both sides of the insertion-compatibility failure: splitting after
    inserting vs inserting the split summands.  Returns (lhs, rhs)."""
    inserted = word_insert(alpha, betas)
    lhs = split(w_word(inserted))
    rhs = {}
    betas_word = WWord(tuple(betas))
    for low, cl in split(w_word(alpha)).terms.items():
        for high, ch in split(betas_word).terms.items():
            for b, c in formal.vcompose(low, high).terms.items():
                rhs[b] = rhs.get(b, 0) + cl * ch * c
    return lhs, FormalSum(rhs)


# ---------------------------------------------------------------------------
# Coalgebra adapter


class WCoalgebra(WordCoalgebra):
    """Cut structure of words of letter words."""

    name = "letter-words"
    word_type = WWord

    @staticmethod
    def block_count(w):
        return w.total_size


W_COALGEBRA = WCoalgebra()


# ---------------------------------------------------------------------------
# Morphisms on the insertion operad


def pullback(phi: Morphism) -> Morphism:
    """Precompose a partition-word morphism with the splitting map."""

    def fn(w):
        total = WordSum.zero(phi.space, w.profile())
        for basis, coeff in split(w).terms.items():
            total = total + phi.value(basis).scale(complex(coeff))
        return total

    return Morphism(
        phi.space, W_COALGEBRA, phi.unit_coeff, fn, name="Sp*(%s)" % phi.name
    )


def w_moment_morphism(space) -> HorizontalMorphism:
    """Letter values are the moment maps of the letter's variable word."""
    return HorizontalMorphism(
        space,
        lambda x: moment_map(space, x.letters),
        coalg=W_COALGEBRA,
        name="moments-W",
    )


def w_family_infinitesimal(family, name=None) -> InfinitesimalMorphism:
    """Generator values from a cumulant family on letter words."""
    return InfinitesimalMorphism(
        family.space,
        lambda x: family.generator(x.letters),
        coalg=W_COALGEBRA,
        name=name or ("inf-%s-W" % family.kind),
    )


def all_w_words(var_indices, max_size, max_letters, min_letters=0):
    """All words over the variable alphabet with bounded total size."""
    vs = sorted(var_indices)
    letters_by_size = {
        s: [LetterWord(c) for c in itertools.product(vs, repeat=s)]
        for s in range(max_size + 1)
    }
    out = []
    for n_letters in range(min_letters, max_letters + 1):
        for sizes in itertools.product(range(max_size + 1), repeat=n_letters):
            if sum(sizes) > max_size:
                continue
            for combo in itertools.product(*(letters_by_size[s] for s in sizes)):
                out.append(WWord(combo))
    out.sort(key=WWord.sort_key)
    return out


def verify_fixed_points(space, max_order, families=None, max_letters=1, tol=1e-9) -> dict:
    """Check the moment-cumulant fixed points on the insertion operad.

    The moment morphism must solve E = unit + k < E with k the free
    cumulant infinitesimal and E = unit + E > b with b the boolean one, on
    every word over the space's variables up to the size bound.
    """
    from .cumulants import build_boolean, build_free, moment_family

    if families is None:
        moments = moment_family(space)
        families = {"free": build_free(moments), "boolean": build_boolean(moments)}
    k = w_family_infinitesimal(families["free"])
    b = w_family_infinitesimal(families["boolean"])
    e_mor = w_moment_morphism(space)
    unit = eta_eps_morphism(space, W_COALGEBRA)
    words = all_w_words(sorted(space.variables), max_order, max_letters, min_letters=0)
    free_dev = morphism_dev(unit + half_prec(k, e_mor), e_mor, words)
    boolean_dev = morphism_dev(unit + half_succ(e_mor, b), e_mor, words)
    return {
        "free_dev": free_dev,
        "boolean_dev": boolean_dev,
        "n_words": len(words),
        "passed": free_dev <= tol and boolean_dev <= tol,
    }
