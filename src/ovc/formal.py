"""Exact symbolic layer: words of operad letters and their Hopf-type structure.

Basis elements are horizontal words (concatenations) of letters, plus
vertically stacked tuples of such words.  The letters are non-crossing
partitions (``PartitionWord``) or, in ``winsert``, words of variables
(``WWord``).  Each word type supplies its letters' cuts and insertion; the
coproducts, half-coproducts, ``nabla``, counit and ``eta_eps`` here are
built from those alone and serve both word types.  Linear
combinations carry exact coefficients: ``int`` while a coefficient is
integral, ``Fraction`` otherwise.  Every identity checked at this level is
exact, never tolerance-based.  Each builder adds its terms into one dict
and makes a single ``FormalSum`` from it, so its cost is linear in the
number of terms it produces.

A word with ``s`` letters has ``s`` outputs and ``sum(arity)`` inputs.  In a
stacked pair ``L % U`` the bottom word ``L`` consumes the outputs of the top
word ``U``; collapsing the pair with the vertical product amounts to
inserting the letters of ``U`` into the gaps of the letters of ``L``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import ncpart
from .ncpart import EMPTY, NCPartition, cuts, gap_insert


class GradingError(ValueError):
    """Inputs/outputs of composed or stacked words do not match."""


class UnitWordError(ValueError):
    """Half-coproducts are undefined on words of empty letters."""


class Word:
    """Horizontal word of operad letters; the empty word is the algebra unit 1.

    The word-level structure is shared by every letter type: cuts, unit
    words and the vertical product.  A subclass names its letter type and
    empty letter and supplies three letter operations: ``letter_cuts``
    (triples of lower letter, upper letters and whether position 1 stays
    below), ``insert_letter`` (fill a letter's gaps) and ``letter_text``.
    """

    __slots__ = ("letters", "_hash")
    LETTER = None
    EMPTY = None
    SORT_TAG = None

    def __init__(self, letters=()):
        letters = tuple(letters)
        letter_type = self.LETTER
        for l in letters:
            if not isinstance(l, letter_type):
                raise TypeError(
                    "%s letters must be %s instances, got %r"
                    % (type(self).__name__, letter_type.__name__, l)
                )
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash(letters))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def unit(cls, n: int):
        """The word of n empty letters (n inputs, n outputs)."""
        return cls((cls.EMPTY,) * n)

    @property
    def outputs(self):
        return len(self.letters)

    @property
    def inputs(self):
        return sum(l.arity for l in self.letters)

    @property
    def total_size(self):
        return sum(l.size for l in self.letters)

    def profile(self):
        return tuple(l.arity for l in self.letters)

    def is_unit(self):
        """True for words of empty letters only (including the empty word)."""
        return all(l.size == 0 for l in self.letters)

    def cuts(self):
        """Cuts of a word: one cut per letter, concatenated.

        Yields (lower word, upper word, block-of-first-position kept).  The
        flag refers to position 1 of the first non-empty letter; it is None
        for unit words.
        """
        cls, letter_cuts = type(self), self.letter_cuts
        anchor = next((i for i, l in enumerate(self.letters) if l.size > 0), None)
        per_letter = [letter_cuts(l) for l in self.letters]
        for combo in itertools.product(*per_letter):
            lower = cls(tuple(c[0] for c in combo))
            upper = cls(tuple(u for c in combo for u in c[1]))
            flag = None if anchor is None else combo[anchor][2]
            yield lower, upper, flag

    def vcompose(self, top):
        """Vertical product: split the letters of ``top`` along the arities
        of this word's letters and insert group by group."""
        if self.inputs != top.outputs:
            raise GradingError(
                "vertical mismatch: %d inputs vs %d outputs" % (self.inputs, top.outputs)
            )
        letters, pos = [], 0
        for l in self.letters:
            letters.append(self.insert_letter(l, top.letters[pos : pos + l.arity]))
            pos += l.arity
        return type(self)(letters)

    def __mul__(self, other):
        return type(self)(self.letters + other.letters)

    def __eq__(self, other):
        return type(other) is type(self) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def sort_key(self):
        return (
            self.SORT_TAG,
            self.total_size,
            len(self.letters),
            tuple(l.sort_key() for l in self.letters),
        )

    def text(self):
        if not self.letters:
            return "1"
        return "".join("[%s]" % self.letter_text(l) for l in self.letters)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.text())


def letter_cut_pairs(letter: NCPartition):
    """Per-letter cut data: (lower letter, upper letters, block-of-1 kept)."""
    out = []
    for cut in cuts(letter):
        one_kept = letter.size > 0 and bool(cut.kept_mask & 1)
        out.append((cut.lower, cut.upper, one_kept))
    return out


class PartitionWord(Word):
    """Horizontal word of non-crossing partitions."""

    __slots__ = ()
    LETTER = NCPartition
    EMPTY = EMPTY
    SORT_TAG = 0
    letter_cuts = staticmethod(letter_cut_pairs)
    letter_text = staticmethod(ncpart.to_text)

    @staticmethod
    def insert_letter(letter, group):
        # looks ``gap_insert`` up on each call, so a wrapped one is used
        return gap_insert(letter, group)

    @property
    def total_blocks(self):
        return sum(l.n_blocks for l in self.letters)


def word(*letters) -> PartitionWord:
    return PartitionWord(letters)


def unit_word(n: int) -> PartitionWord:
    """The word of n empty partitions (n inputs, n outputs)."""
    return PartitionWord.unit(n)


ONE = PartitionWord(())


class BoxStack:
    """Vertically stacked words, bottom first; adjacent gradings must match."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise GradingError("a stack needs at least two levels")
        for low, high in zip(parts, parts[1:]):
            if low.inputs != high.outputs:
                raise GradingError(
                    "stack mismatch: %d inputs below vs %d outputs above"
                    % (low.inputs, high.outputs)
                )
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash(parts))

    def __setattr__(self, name, value):
        raise AttributeError("BoxStack is immutable")

    @property
    def outputs(self):
        return self.parts[0].outputs

    @property
    def inputs(self):
        return self.parts[-1].inputs

    def __eq__(self, other):
        return isinstance(other, BoxStack) and self.parts == other.parts

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (1, len(self.parts), tuple(p.sort_key() for p in self.parts))

    def __repr__(self):
        return "BoxStack(%r)" % (basis_to_text(self),)


def stack(*parts) -> BoxStack:
    return BoxStack(parts)


def _exact(coeff):
    """An exact coefficient: an ``int`` when integral, else a ``Fraction``."""
    if type(coeff) is int:
        return coeff
    coeff = Fraction(coeff)
    return coeff.numerator if coeff.denominator == 1 else coeff


class FormalSum:
    """Finite rational linear combination of basis elements.

    Basis elements are words or stacks; zero coefficients are never stored.
    Coefficients are ``int`` when integral and ``Fraction`` otherwise; the
    two compare and hash alike, so equality does not depend on the type.
    Supports +, -, scalar multiplication and exact equality.

    ``terms`` is a dict from basis elements to coefficients or an iterable
    of (basis, coefficient) pairs, whose repeated bases are summed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if not isinstance(terms, dict):
            acc = {}
            for basis, coeff in terms:
                acc[basis] = acc.get(basis, 0) + _exact(coeff)
            terms = acc
        data = {}
        for basis, coeff in terms.items():
            coeff = _exact(coeff)
            if coeff:
                data[basis] = coeff
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSum is immutable")

    @classmethod
    def lift(cls, x):
        if isinstance(x, FormalSum):
            return x
        return cls({x: 1})

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, basis):
        return self.terms.get(basis, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        merged = dict(self.terms)
        for b, c in other.terms.items():
            merged[b] = merged.get(b, 0) + c
        return FormalSum(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FormalSum({b: -c for b, c in self.terms.items()})

    def __rmul__(self, scalar):
        scalar = _exact(scalar)
        return FormalSum({b: scalar * c for b, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __len__(self):
        return len(self.terms)

    def map_basis(self, f) -> "FormalSum":
        """Linear extension of a basis map returning sums or basis elements."""
        acc = {}
        for b, c in self.terms.items():
            for fb, fc in FormalSum.lift(f(b)).terms.items():
                acc[fb] = acc.get(fb, 0) + c * fc
        return FormalSum(acc)

    def __repr__(self):
        return "FormalSum(%r)" % (sum_to_text(self),)


ZERO = FormalSum()


def single(basis, coeff=1) -> FormalSum:
    return FormalSum({basis: coeff})


# ---------------------------------------------------------------------------
# Products


def _hconcat_basis(a, b):
    if isinstance(a, Word) and type(b) is type(a):
        return a * b
    if isinstance(a, BoxStack) and isinstance(b, BoxStack):
        if len(a.parts) != len(b.parts):
            raise GradingError("stacks of different heights")
        return BoxStack(tuple(x * y for x, y in zip(a.parts, b.parts)))
    raise GradingError("cannot concatenate %r with %r" % (a, b))


def hconcat(u, v) -> FormalSum:
    """Bilinear concatenation product; on stacks it acts level by level,
    which is the interchange-induced product."""
    u, v = FormalSum.lift(u), FormalSum.lift(v)
    out = {}
    for a, ca in u.terms.items():
        for b, cb in v.terms.items():
            basis = _hconcat_basis(a, b)
            out[basis] = out.get(basis, 0) + ca * cb
    return FormalSum(out)


def vcompose(x, y) -> FormalSum:
    """Vertical product of words (``Word.vcompose``), extended bilinearly."""
    x, y = FormalSum.lift(x), FormalSum.lift(y)
    out = {}
    for a, ca in x.terms.items():
        for b, cb in y.terms.items():
            basis = a.vcompose(b)
            out[basis] = out.get(basis, 0) + ca * cb
    return FormalSum(out)


def nabla(pairs) -> FormalSum:
    """Collapse a sum of two-level stacks with the vertical product."""
    out = {}
    for b, c in FormalSum.lift(pairs).terms.items():
        if not (isinstance(b, BoxStack) and len(b.parts) == 2):
            raise GradingError("nabla expects two-level stacks")
        basis = b.parts[0].vcompose(b.parts[1])
        out[basis] = out.get(basis, 0) + c
    return FormalSum(out)


# ---------------------------------------------------------------------------
# Coproducts


def cut_sum(w, keep=None, reduced=False) -> FormalSum:
    """Sum of lower % upper over the cuts of the words of ``w``.

    ``keep`` True or False keeps only the cuts whose first-position flag
    equals it: a half-coproduct, undefined on unit words.  ``reduced``
    subtracts the trivial terms among those kept: w % unit (the first block
    stays below) and unit % w (it moves above); the reduced full coproduct
    is zero on unit words.
    """
    out = {}
    for basis, c in FormalSum.lift(w).terms.items():
        if basis.is_unit():
            if keep is not None:
                raise UnitWordError("half-coproducts are undefined on unit words")
            if reduced:
                continue
        for lower, upper, flag in basis.cuts():
            if keep is None or flag == keep:
                key = BoxStack((lower, upper))
                out[key] = out.get(key, 0) + c
        if reduced and keep is not False:
            key = BoxStack((basis, basis.unit(basis.inputs)))
            out[key] = out.get(key, 0) - c
        if reduced and keep is not True:
            key = BoxStack((basis.unit(basis.outputs), basis))
            out[key] = out.get(key, 0) - c
    return FormalSum(out)


def coproduct(w) -> FormalSum:
    """Full coproduct: sum of lower % upper over all cuts, letter by letter.

    ``coproduct(ONE)`` is 1 % 1.
    """
    return cut_sum(w)


def reduced_coproduct(w) -> FormalSum:
    """Coproduct minus the two trivial terms; zero on unit words."""
    return cut_sum(w, reduced=True)


def delta_prec_plus(w) -> FormalSum:
    """Cut terms whose block containing the first position stays below."""
    return cut_sum(w, True)


def delta_succ_plus(w) -> FormalSum:
    """Cut terms whose block containing the first position moves above."""
    return cut_sum(w, False)


def delta_prec(w) -> FormalSum:
    """Reduced left half-coproduct: delta_prec_plus minus w % unit."""
    return cut_sum(w, True, reduced=True)


def delta_succ(w) -> FormalSum:
    """Reduced right half-coproduct: delta_succ_plus minus unit % w."""
    return cut_sum(w, False, reduced=True)


# ---------------------------------------------------------------------------
# Antipode, counit, unit


def antipode(w) -> FormalSum:
    """Letterwise: interval partitions pick up (-1)^blocks, any non-interval
    letter kills the whole word.  Multiplicative over concatenation."""

    def on_word(basis):
        sign = 1
        for l in basis.letters:
            if not l.is_interval():
                return ZERO
            sign *= (-1) ** l.n_blocks
        return single(basis, sign)

    return FormalSum.lift(w).map_basis(on_word)


def counit(w):
    """Degree n when w is the unit word of length n, else None (zero)."""
    return len(w.letters) if w.is_unit() else None


def eta_eps(w) -> FormalSum:
    """Projection onto the span of unit words."""
    return FormalSum(
        [(b, c) for b, c in FormalSum.lift(w).terms.items() if b.is_unit()]
    )


def map_stack(f_bottom, f_top, pairs) -> FormalSum:
    """Apply linear maps to the two levels of a sum of stacked pairs."""
    out = {}
    for b, c in FormalSum.lift(pairs).terms.items():
        low = FormalSum.lift(f_bottom(b.parts[0]))
        high = FormalSum.lift(f_top(b.parts[1]))
        for lb, lc in low.terms.items():
            for hb, hc in high.terms.items():
                key = _restack(lb, hb)
                out[key] = out.get(key, 0) + c * lc * hc
    return FormalSum(out)


def _restack(low, high):
    """Stack two results, flattening when either is itself a stack."""
    low_parts = low.parts if isinstance(low, BoxStack) else (low,)
    high_parts = high.parts if isinstance(high, BoxStack) else (high,)
    return BoxStack(low_parts + high_parts)


# ---------------------------------------------------------------------------
# Basis enumeration (shared by test suites)


def all_words(max_size: int, max_letters: int, min_letters: int = 0):
    """All basis words with at most ``max_letters`` letters and total size at
    most ``max_size``, empty letters included, in deterministic order."""
    pool = {}
    out = []
    for n_letters in range(min_letters, max_letters + 1):
        for sizes in itertools.product(range(max_size + 1), repeat=n_letters):
            if sum(sizes) > max_size:
                continue
            for letters in itertools.product(
                *(pool.setdefault(s, ncpart.enumerate_nc(s)) for s in sizes)
            ):
                out.append(PartitionWord(letters))
    out.sort(key=PartitionWord.sort_key)
    return out


# ---------------------------------------------------------------------------
# Text format


def word_from_text(text: str) -> PartitionWord:
    text = text.strip()
    if text == "1":
        return ONE
    if not re.fullmatch(r"(\[[^\[\]]*\])+", text):
        raise ValueError("cannot read word %r" % text)
    return PartitionWord(
        tuple(ncpart.from_text(m) for m in re.findall(r"\[([^\[\]]*)\]", text))
    )


def basis_to_text(b) -> str:
    if isinstance(b, BoxStack):
        return " @ ".join(p.text() for p in b.parts)
    return b.text()


def basis_from_text(text: str):
    parts = [t.strip() for t in text.split("@")]
    if len(parts) == 1:
        return word_from_text(parts[0])
    return BoxStack(tuple(word_from_text(p) for p in parts))


def sum_to_text(s: FormalSum) -> str:
    if s.is_zero():
        return "0"
    chunks = []
    for basis, coeff in s.items():
        body = basis_to_text(basis)
        mag = abs(coeff)
        text = body if mag == 1 else "%s*%s" % (mag, body)
        if not chunks:
            chunks.append(text if coeff > 0 else "- " + text)
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + text)
    return " ".join(chunks)


def sum_from_text(text: str) -> FormalSum:
    text = text.strip()
    if text == "0":
        return ZERO
    if text.startswith("- "):
        text = "-" + text[2:]
    tokens = re.split(r" ([+-]) ", text)
    chunks = [(1, tokens[0])]
    for op, tok in zip(tokens[1::2], tokens[2::2]):
        chunks.append((1 if op == "+" else -1, tok))
    terms = []
    for sgn, chunk in chunks:
        chunk = chunk.strip()
        if chunk.startswith("-"):
            sgn, chunk = -sgn, chunk[1:]
        if "*" in chunk:
            coeff_text, body = chunk.split("*", 1)
            coeff = Fraction(coeff_text)
        else:
            coeff, body = 1, chunk
        terms.append((basis_from_text(body), sgn * coeff))
    return FormalSum(terms)
