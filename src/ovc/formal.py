"""Exact symbolic layer: words of operad letters and their Hopf-type structure.

Basis elements are horizontal words (concatenations) of letters, plus
vertical stacks of such words (``BoxStack``, a tuple of interned words).
The letters are non-crossing partitions: any of them (``PartitionWord``)
or, in ``winsert``, the finest colorings that stand for words of variables
(``WWord``).  Letters insert through ``ncpart.gap_insert`` and are cut by
``ncpart.cuts``; the coproducts, half-coproducts, antipode, ``nabla``,
counit and ``eta_eps`` here are built from those alone and serve both
word types.  Linear
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

import functools
import itertools
import re
from fractions import Fraction
from types import NoneType

from . import ncpart
from .ncpart import EMPTY, InternTable, NCPartition, cuts, gap_insert, intern_object


class GradingError(ValueError):
    """Inputs/outputs of composed or stacked words do not match."""


class UnitWordError(ValueError):
    """Half-coproducts are undefined on words of empty letters."""


class Word:
    """Horizontal word of operad letters; the empty word is the algebra unit 1.

    Every letter is an ``ncpart.NCPartition`` and the empty letter is
    ``ncpart.EMPTY``.  The word-level structure is shared by every word
    type: cuts, unit words, the vertical product, whose letters insert
    through ``ncpart.gap_insert``, and the block count ``total_blocks``.
    A subclass supplies its ``SORT_TAG`` and two letter operations:
    ``letter_text`` and ``letter_partition`` (the colored non-crossing
    partition a letter stands for, which the morphism builders evaluate).

    Words are interned like their letters: there is one live word per word
    type and letter tuple, so words compare and hash by identity, and a
    word of one type never equals a word of another.  ``inputs`` is stored
    when the word is made.
    """

    __slots__ = ("letters", "inputs", "__weakref__")
    SORT_TAG = None

    def __new__(cls, letters=()):
        letters = tuple(letters)
        for l in letters:
            if not isinstance(l, NCPartition):
                raise TypeError(
                    "%s letters must be NCPartition instances, got %r" % (cls.__name__, l)
                )
        return cls._trusted(letters)

    @classmethod
    def _trusted(cls, letters: tuple):
        """Internal: the word of letters already known to be of the letter
        type, as derived from valid words; nothing is checked."""
        w = _WORDS.get((cls, letters), NoneType)()
        if w is None:
            w = intern_object(
                _WORDS, (cls, letters), cls,
                letters=letters, inputs=sum(l.arity for l in letters),
            )
        return w

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def unit(cls, n: int):
        """The word of n empty letters (n inputs, n outputs)."""
        return cls._trusted((EMPTY,) * n)

    @property
    def outputs(self):
        return len(self.letters)

    @property
    def total_size(self):
        return sum(l.size for l in self.letters)

    @property
    def total_blocks(self):
        return sum(l.n_blocks for l in self.letters)

    def profile(self):
        return tuple(l.arity for l in self.letters)

    def is_unit(self):
        """True for words of empty letters only (including the empty word)."""
        return all(l.size == 0 for l in self.letters)

    def cuts(self):
        """Cuts of a word: one cut per letter, concatenated.

        Returns a tuple of (lower word, upper word, block-of-first-position
        kept) triples.  The flag refers to position 1 of the first non-empty
        letter; it is None for unit words.  The tuple is cached per process
        for the 256 most recently used words and shared between calls.

        The order is a contract, since each letter's cuts are ordered by
        ``kept_mask`` and their product is taken in order: for a non-unit
        word ``w`` the first cut keeps nothing, ``(unit, w, False)``, the
        last keeps everything, ``(w, unit, True)``, and no cut between them
        has a unit word on either side.
        """
        return _word_cuts(self)

    def vcompose(self, top):
        """Vertical product: split the letters of ``top`` along the arities
        of this word's letters and insert group by group."""
        _check_seam(self, top)
        letters, pos = [], 0
        for l in self.letters:
            letters.append(gap_insert(l, top.letters[pos : pos + l.arity]))
            pos += l.arity
        return type(self)._trusted(tuple(letters))

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._trusted(self.letters + other.letters)

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


_WORDS = InternTable()


@functools.lru_cache(maxsize=256)
def _word_cuts(w: Word) -> tuple:
    """The product of the letters' ``ncpart.cuts`` of ``w``, whose
    ``kept_mask`` has bit 0 set when position 1 stays below; ``Word.cuts``
    documents the triples.  ``cuts`` is read from this module on each
    call, so a wrapped ``cuts`` is used.  Bounded, since each entry holds
    every cut of its word: the checks reuse a word's cuts soon after first
    building them, so 256 words miss 455 times (661 hits) on the 441
    words of the splitting and shuffle suites at order 3, while splitting
    at order 5 queries 11,160 words and a cache of all of them raises its
    peak memory from 67 to 85 MB, though its time falls from 2.5 to 2.2 s
    on a 2-core Xeon.  The default hopf suite queries 1,066 words and ends
    with 3,397 hits and 7,240 misses at this bound (``cache_info()`` after
    ``verify --suite hopf``)."""
    trusted = type(w)._trusted
    anchor = next((i for i, l in enumerate(w.letters) if l.size > 0), None)
    out = []
    for combo in itertools.product(*map(cuts, w.letters)):
        lower = trusted(tuple([c.lower for c in combo]))
        upper = trusted(tuple([u for c in combo for u in c.upper]))
        flag = None if anchor is None else bool(combo[anchor].kept_mask & 1)
        out.append((lower, upper, flag))
    return tuple(out)


class PartitionWord(Word):
    """Horizontal word of non-crossing partitions."""

    __slots__ = ()
    SORT_TAG = 0
    letter_text = staticmethod(ncpart.to_text)

    @staticmethod
    def letter_partition(letter):
        return letter


def word(*letters) -> PartitionWord:
    return PartitionWord(letters)


def unit_word(n: int) -> PartitionWord:
    """The word of n empty partitions (n inputs, n outputs)."""
    return PartitionWord.unit(n)


ONE = PartitionWord(())


class BoxStack(tuple):
    """Vertically stacked words, bottom first; adjacent gradings must match.

    A stack is the tuple of its words, so it hashes and compares like that
    tuple; since words are interned, this is tuple-of-identity work.  A
    stack never equals a word.
    """

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise GradingError("a stack needs at least two levels")
        for low, high in zip(parts, parts[1:]):
            _check_seam(low, high)
        return tuple.__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: tuple):
        """Internal: a stack whose adjacent gradings are known to match, as
        for the two words of a cut; nothing is checked."""
        return tuple.__new__(cls, parts)

    @property
    def outputs(self):
        return self[0].outputs

    @property
    def inputs(self):
        return self[-1].inputs

    def sort_key(self):
        return (1, len(self), tuple(p.sort_key() for p in self))

    def __repr__(self):
        return "BoxStack(%r)" % (basis_to_text(self),)


def _check_seam(low, high):
    """Raise ``GradingError`` unless the word ``high`` can sit on ``low``:
    one word type, one input below per output above.  Every seam of a
    stack, ``map_stack`` and ``Word.vcompose`` is checked here."""
    if type(low) is not type(high):
        raise GradingError(
            "cannot stack a %s on a %s" % (type(high).__name__, type(low).__name__)
        )
    if low.inputs != high.outputs:
        raise GradingError(
            "stack mismatch: %d inputs below vs %d outputs above" % (low.inputs, high.outputs)
        )


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
            if type(coeff) is not int:
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

    def __repr__(self):
        return "FormalSum(%r)" % (sum_to_text(self),)


def single(basis, coeff=1) -> FormalSum:
    return FormalSum({basis: coeff})


# ---------------------------------------------------------------------------
# Products


def _hconcat_basis(a, b):
    if isinstance(a, Word) and type(b) is type(a):
        return a * b
    if isinstance(a, BoxStack) and isinstance(b, BoxStack):
        if len(a) != len(b):
            raise GradingError("stacks of different heights")
        return BoxStack(tuple(_hconcat_basis(x, y) for x, y in zip(a, b)))
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
        if not (isinstance(b, BoxStack) and len(b) == 2):
            raise GradingError("nabla expects two-level stacks")
        basis = b[0].vcompose(b[1])
        out[basis] = out.get(basis, 0) + c
    return FormalSum(out)


# ---------------------------------------------------------------------------
# Coproducts


def cut_sum(w, keep=None, reduced=False) -> FormalSum:
    """Sum of lower % upper over the cuts of the words of ``w``.

    ``keep`` True or False keeps only the cuts whose first-position flag
    equals it: a half-coproduct, undefined on unit words.  ``reduced``
    leaves out the trivial terms unit % w (the first block moves above) and
    w % unit (it stays below), which are the first and the last of a
    non-unit word's cuts (``Word.cuts``); the reduced full coproduct is
    zero on unit words.
    """
    out = {}
    for basis, c in FormalSum.lift(w).terms.items():
        if basis.is_unit():
            if keep is not None:
                raise UnitWordError("half-coproducts are undefined on unit words")
            if reduced:
                continue
        for lower, upper, flag in basis.cuts()[1:-1] if reduced else basis.cuts():
            if keep is None or flag == keep:
                key = BoxStack._trusted((lower, upper))
                out[key] = out.get(key, 0) + c
    return FormalSum(out)


def coproduct(w) -> FormalSum:
    """Full coproduct: sum of lower % upper over all cuts, letter by letter.

    ``coproduct(ONE)`` is 1 % 1.
    """
    return cut_sum(w)


def reduced_coproduct(w) -> FormalSum:
    """Coproduct minus the two trivial terms; zero on unit words."""
    return cut_sum(w, reduced=True)


def delta_prec(w) -> FormalSum:
    """Reduced left half-coproduct: the cuts whose block of the first
    position stays below, ``cut_sum(w, True)``, without w % unit."""
    return cut_sum(w, True, reduced=True)


def delta_succ(w) -> FormalSum:
    """Reduced right half-coproduct: the cuts whose block of the first
    position moves above, ``cut_sum(w, False)``, without unit % w."""
    return cut_sum(w, False, reduced=True)


def half_coproducts(w) -> tuple:
    """``(delta_prec(w), delta_succ(w))`` from one walk of each word's
    nontrivial cuts, all but the first and the last: every cut goes to the
    half its first-position flag names.  For a caller that needs both
    halves of a large sum, one walk also means each word's cuts are built
    once, however many words come between."""
    prec, succ = {}, {}
    for basis, c in FormalSum.lift(w).terms.items():
        if basis.is_unit():
            raise UnitWordError("half-coproducts are undefined on unit words")
        for lower, upper, flag in basis.cuts()[1:-1]:
            out = prec if flag else succ
            key = BoxStack._trusted((lower, upper))
            out[key] = out.get(key, 0) + c
    return FormalSum(prec), FormalSum(succ)


# ---------------------------------------------------------------------------
# Antipode, counit, unit


def antipode(w) -> FormalSum:
    """Letterwise: interval partitions pick up (-1)^blocks, any non-interval
    letter kills the whole word.  Multiplicative over concatenation."""
    out = {}
    for basis, c in FormalSum.lift(w).terms.items():
        if all(l.is_interval() for l in basis.letters):
            out[basis] = (-1) ** basis.total_blocks * c
    return FormalSum(out)


def counit(w):
    """Degree n when w is the unit word of length n, else None (zero)."""
    return len(w.letters) if w.is_unit() else None


def eta_eps(w) -> FormalSum:
    """Projection onto the span of unit words."""
    return FormalSum(
        [(b, c) for b, c in FormalSum.lift(w).terms.items() if b.is_unit()]
    )


def map_stack(f_bottom, f_top, stacks) -> FormalSum:
    """Apply linear maps to the bottom two levels of a sum of stacks; a map
    given as None leaves its level as it is, with no sum built for it, and
    the levels above the two stay as they are."""
    out = {}
    for b, c in FormalSum.lift(stacks).terms.items():
        low = {b[0]: 1} if f_bottom is None else FormalSum.lift(f_bottom(b[0])).terms
        high = {b[1]: 1} if f_top is None else FormalSum.lift(f_top(b[1])).terms
        rest = b[2:]
        for lb, lc in low.items():
            for hb, hc in high.items():
                key = _restack(lb, hb, rest)
                out[key] = out.get(key, 0) + c * lc * hc
    return FormalSum(out)


def _restack(low, high, rest):
    """Stack two results under the levels ``rest``, flattening when either
    result is itself a stack.  A stack is valid when it is made, so only
    the new seams are checked."""
    low_parts = low if isinstance(low, BoxStack) else (low,)
    high_parts = high if isinstance(high, BoxStack) else (high,)
    _check_seam(low_parts[-1], high_parts[0])
    if rest:
        _check_seam(high_parts[-1], rest[0])
    return BoxStack._trusted(low_parts + high_parts + rest)


# ---------------------------------------------------------------------------
# Basis enumeration (shared by test suites)


def all_words(max_size: int, max_letters: int):
    """All basis words with at most ``max_letters`` letters and total size at
    most ``max_size``, empty letters included, in deterministic order."""
    return words_of(PartitionWord, ncpart.enumerate_nc, max_size, max_letters)


def words_of(word_type, letters_of_size, max_size: int, max_letters: int):
    """All words of ``word_type`` with at most ``max_letters`` letters and
    total size at most ``max_size``, in sort-key order; ``letters_of_size(s)``
    lists the letters of size s, empty ones included."""
    pool = functools.cache(letters_of_size)
    out = []
    for n_letters in range(max_letters + 1):
        for sizes in itertools.product(range(max_size + 1), repeat=n_letters):
            if sum(sizes) <= max_size:
                out.extend(map(word_type, itertools.product(*map(pool, sizes))))
    out.sort(key=word_type.sort_key)
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
        return " @ ".join(p.text() for p in b)
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

