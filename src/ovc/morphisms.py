"""The shuffle algebra of morphisms from partition words to words of maps.

A morphism assigns to every basis word a linear combination of words of
multilinear maps with the same arity profile.  Convolution composes two
morphisms through the coproduct and the vertical product on words of maps;
restricting the coproduct to its two halves yields the half-shuffles, whose
fixed points are the half-shuffle exponentials.

The augmented unit is a scalar multiple of eta . eps (identity words on
words of empty letters, zero elsewhere).  Unit conventions: f < unit = f,
unit < f = 0, and symmetrically for >; both arguments carrying a unit part
is rejected.

Everything here is generic over the source words: a morphism carries its
``formal.Word`` subclass and reads cuts, profiles and unit words off the
words themselves, so the words-insertion operad reuses the same machinery.

Two morphism values are compared as sums of words of maps by
``ovps.multimap_dev``, the one comparison of maps.  When (d^2)^inputs <=
WORD_BASIS_LIMIT, a sum's values on every tuple of elementary matrices are
its structure tensor: per word, the coefficient times the Kronecker product
of its maps' tensors, so no argument batch is built.  Beyond the limit its
``tensor()`` is None and both sums are evaluated on the probes of the one
seed maps are compared on, ``ovps._PROBE_SEED``.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from . import formal
from .cumulants import e_pi_map, partition_colors
from .ncpart import NCPartition, operadic_factorization
from .ovps import (
    DimensionMismatch,
    multimap_compose,
    multimap_dev,
    multimap_lincomb,
    multimap_partial,
    random_multimap,
)

WORD_BASIS_LIMIT = 256


class UnitAmbiguity(ValueError):
    """Half-shuffle of two morphisms that both carry a unit component."""


# ---------------------------------------------------------------------------
# Morphism values


class WordSum:
    """Linear combination of words of multilinear maps sharing one profile.
    ``WordSum(space, profile)`` is zero."""

    __slots__ = ("space", "profile", "terms")

    def __init__(self, space, profile, terms=()):
        self.space = space
        self.profile = tuple(profile)
        kept = []
        for coeff, maps in terms:
            coeff = complex(coeff)
            if coeff == 0:
                continue
            maps = tuple(maps)
            if tuple(m.arity for m in maps) != self.profile:
                raise DimensionMismatch(
                    "word of arities %r in a sum of profile %r"
                    % (tuple(m.arity for m in maps), self.profile)
                )
            kept.append((coeff, maps))
        self.terms = tuple(kept)

    @classmethod
    def word(cls, space, maps, coeff=1):
        maps = tuple(maps)
        return cls(space, tuple(m.arity for m in maps), [(coeff, maps)])

    @classmethod
    def sum(cls, space, profile, sums):
        """One sum of the terms of ``sums``, in order; each term is checked
        against ``profile``."""
        return cls(space, profile, [term for part in sums for term in part.terms])

    def scale(self, coeff):
        return WordSum(
            self.space, self.profile, [(complex(coeff) * c, m) for c, m in self.terms]
        )

    def vcompose(self, top: "WordSum") -> "WordSum":
        """Insert the top sum's words into this sum's words, bilinearly."""
        if sum(self.profile) != len(top.profile):
            raise DimensionMismatch(
                "vertical mismatch: %d inputs vs %d letters"
                % (sum(self.profile), len(top.profile))
            )
        out_terms = []
        for c1, bottom_maps in self.terms:
            for c2, top_maps in top.terms:
                maps, pos = [], 0
                for m in bottom_maps:
                    group = top_maps[pos : pos + m.arity]
                    pos += m.arity
                    maps.append(multimap_compose(m, group))
                out_terms.append((c1 * c2, tuple(maps)))
        # each bottom letter takes the inputs of the top letters it receives
        pos, profile = 0, []
        for r in self.profile:
            profile.append(sum(top.profile[pos : pos + r]))
            pos += r
        return WordSum(self.space, profile, out_terms)

    def collapse(self):
        """Single-letter sums fold to one multilinear map."""
        if len(self.profile) != 1:
            raise DimensionMismatch("cannot collapse a sum of %d-letter words" % len(self.profile))
        return multimap_lincomb(
            self.space, self.profile[0], [(c, maps[0]) for c, maps in self.terms]
        )

    def eval_batch(self, args):
        """Evaluate into B^{(x) letters} as stacked Kronecker products."""
        n_batch = args[0].shape[0] if args else 1
        d = self.space.d
        dim = d ** len(self.profile)
        total = np.zeros((n_batch, dim, dim), dtype=complex)
        for coeff, maps in self.terms:
            pos = 0
            acc = None
            for m in maps:
                val = m.eval_batch(args[pos : pos + m.arity])
                pos += m.arity
                if acc is None:
                    acc = val
                else:
                    a, b = acc.shape[1], val.shape[1]
                    acc = np.einsum("nij,nkl->nikjl", acc, val).reshape(
                        n_batch, a * b, a * b
                    )
            if acc is None:
                acc = np.ones((n_batch, 1, 1), dtype=complex)
            total += coeff * acc
        return total

    def tensor(self):
        """Values on every tuple of elementary matrices over the concatenated
        slots, shape (D**inputs, d**letters, d**letters) with D = d*d, rows
        in ``elementary_batch`` order: each term's coefficient times the
        Kronecker product of its maps' structure tensors, letter by letter.
        Built on each call and never kept.  None when D**inputs exceeds
        WORD_BASIS_LIMIT, so ``ovps.multimap_dev`` compares such sums on
        probes."""
        d = self.space.d
        n_mats = d * d
        n_rows = n_mats ** sum(self.profile)
        if n_rows > WORD_BASIS_LIMIT:
            return None
        dim = d ** len(self.profile)
        total = np.zeros((n_rows, dim, dim), dtype=complex)
        for coeff, maps in self.terms:
            acc = np.ones((1, 1, 1), dtype=complex)
            for m in maps:
                t = m.tensor()
                rows, side = len(acc) * len(t), acc.shape[1] * d
                acc = np.einsum("xij,ykl->xyikjl", acc, t).reshape(rows, side, side)
            total += coeff * acc
        return total


# ---------------------------------------------------------------------------
# Morphisms


class Morphism:
    """unit_coeff * (eta . eps) plus a reduced part defined on non-unit words.

    ``word_type`` is the ``formal.Word`` subclass of the source words.
    ``fn`` maps a non-unit basis word to a WordSum; values are memoized.
    """

    def __init__(self, space, word_type, unit_coeff, fn):
        self.space = space
        self.word_type = word_type
        self.unit_coeff = complex(unit_coeff)
        self._fn = fn
        self._memo = {}

    def value(self, w) -> WordSum:
        if w.is_unit():
            maps = (self.space.identity,) * len(w.letters)
            return WordSum.word(self.space, maps, self.unit_coeff)
        if w not in self._memo:
            self._memo[w] = self._fn(w)
        return self._memo[w]

    def __add__(self, other):
        self._check_compatible(other)
        return Morphism(
            self.space,
            self.word_type,
            self.unit_coeff + other.unit_coeff,
            lambda w: WordSum.sum(self.space, w.profile(), (self.value(w), other.value(w))),
        )

    def __rmul__(self, coeff):
        return Morphism(
            self.space,
            self.word_type,
            complex(coeff) * self.unit_coeff,
            lambda w: self.value(w).scale(coeff),
        )

    def _check_compatible(self, other):
        if self.space is not other.space or self.word_type is not other.word_type:
            raise DimensionMismatch("morphisms over different structures")


def eta_eps_morphism(space, word_type=formal.PartitionWord) -> Morphism:
    return Morphism(space, word_type, 1, lambda w: WordSum(space, w.profile()))


class InfinitesimalMorphism(Morphism):
    """Supported on words with one non-empty letter padded by identities.

    ``gen`` maps a single non-empty letter to a multilinear map of matching
    arity, or None for letters outside the support.
    """

    def __init__(self, space, gen, word_type=formal.PartitionWord):
        super().__init__(space, word_type, 0, self._value)
        self.gen = gen

    def _value(self, w) -> WordSum:
        letters = w.letters
        profile = w.profile()
        live = [i for i, x in enumerate(letters) if x.size != 0]
        if len(live) != 1:
            return WordSum(self.space, profile)
        g = self.gen(letters[live[0]])
        if g is None:
            return WordSum(self.space, profile)
        if g.arity != profile[live[0]]:
            raise DimensionMismatch("generator arity does not match the letter")
        maps = [self.space.identity] * len(letters)
        maps[live[0]] = g
        return WordSum.word(self.space, maps)


class HorizontalMorphism(Morphism):
    """Multiplicative over concatenation: the value on a word is the word of
    letter values; empty letters map to the identity."""

    def __init__(self, space, letter_fn, word_type=formal.PartitionWord):
        super().__init__(space, word_type, 1, self._value)
        self._letter_fn = letter_fn
        self._letter_memo = {}

    def letter_value(self, x):
        if x.size == 0:
            return self.space.identity
        if x not in self._letter_memo:
            self._letter_memo[x] = self._letter_fn(x)
        return self._letter_memo[x]

    def _value(self, w) -> WordSum:
        return WordSum.word(self.space, [self.letter_value(x) for x in w.letters])


# ---------------------------------------------------------------------------
# Convolution and half-shuffles


def _cut_product(a: Morphism, b: Morphism, keep, unit_coeff) -> Morphism:
    """a below and b above, composed vertically across the cuts of each
    word.  ``keep`` None takes every cut; True or False takes only the cuts
    whose first-position flag equals it, as in ``formal.cut_sum``, and such
    a half product of two factors that both carry a unit part is undefined
    (UnitAmbiguity).  Of a non-unit word's cuts only the first has a unit
    lower word and only the last a unit upper word (``Word.cuts``); the
    first adds nothing when ``a`` has no unit part, nor the last when ``b``
    has none.  Such a cut is skipped, so neither factor is evaluated
    across it, and a morphism defined through itself, as in
    ``X = k + half_succ(k, X)``, recurses on smaller words only."""
    a._check_compatible(b)
    a_unit, b_unit = a.unit_coeff != 0, b.unit_coeff != 0
    if keep is not None and a_unit and b_unit:
        raise UnitAmbiguity("both factors of a half product carry a unit")
    first, stop = (0 if a_unit else 1), (None if b_unit else -1)

    def fn(w):
        return WordSum.sum(a.space, w.profile(), (
            a.value(lower).vcompose(b.value(upper))
            for lower, upper, flag in w.cuts()[first:stop]
            if keep is None or flag == keep
        ))

    return Morphism(a.space, a.word_type, unit_coeff, fn)


def convolve(a: Morphism, b: Morphism) -> Morphism:
    """a * b = vertical composition of a and b across the full coproduct."""
    return _cut_product(a, b, None, a.unit_coeff * b.unit_coeff)


def half_prec(a: Morphism, b: Morphism) -> Morphism:
    """Convolution restricted to cuts keeping the first block below."""
    return _cut_product(a, b, True, 0)


def half_succ(a: Morphism, b: Morphism) -> Morphism:
    """Convolution restricted to cuts moving the first block above."""
    return _cut_product(a, b, False, 0)


def shuffle(a: Morphism, b: Morphism) -> Morphism:
    return half_prec(a, b) + half_succ(a, b)


# ---------------------------------------------------------------------------
# Exponentials


def _exponential(k: InfinitesimalMorphism, left: bool) -> HorizontalMorphism:
    """The horizontal solution K of K = eta.eps + k < K (``left``) or of
    K = eta.eps + K > k.  Its value on a letter x is the right-hand side on
    the one-letter word (x), collapsed to one map; the cuts of (x) reach K
    only on strictly smaller letters, so the recursion ends."""
    K = HorizontalMorphism(
        k.space,
        lambda x: rhs.value(k.word_type((x,))).collapse(),
        k.word_type,
    )
    rhs = half_prec(k, K) if left else half_succ(K, k)
    return K


def exp_prec(k: InfinitesimalMorphism) -> HorizontalMorphism:
    """Unique solution of K = eta.eps + k < K."""
    return _exponential(k, True)


def exp_succ(b: InfinitesimalMorphism) -> HorizontalMorphism:
    """Unique solution of B = eta.eps + B > b."""
    return _exponential(b, False)


def _power_series(m: Morphism, unit_coeff, coeff) -> Morphism:
    """unit_coeff * eta.eps plus the sum over p >= 1 of coeff(p) times the
    p-th convolution power of m.

    The sum on any word is finite: the p-th power vanishes once p exceeds
    the word's block count ``total_blocks``, which needs m to vanish on unit
    words.
    """
    powers = [m]

    def fn(w):
        while len(powers) < w.total_blocks:
            powers.append(convolve(powers[-1], m))
        return WordSum.sum(m.space, w.profile(), (
            powers[p - 1].value(w).scale(coeff(p)) for p in range(1, w.total_blocks + 1)
        ))

    return Morphism(m.space, m.word_type, unit_coeff, fn)


def exp_star(m: Morphism) -> Morphism:
    """eta.eps plus the sum of convolution powers of m over p!."""
    if m.unit_coeff != 0:
        raise ValueError("exp expects a morphism with no unit component")
    return _power_series(m, 1, lambda p: Fraction(1, math.factorial(p)))


def log_star(phi: Morphism) -> Morphism:
    """Inverse of exp_star: the alternating sum of convolution powers of
    (phi - eta.eps) with coefficients (-1)^(n+1)/n."""
    if phi.unit_coeff != 1:
        raise ValueError("log expects a morphism with unit coefficient 1")
    reduced = Morphism(phi.space, phi.word_type, 0, phi.value)
    return _power_series(reduced, 0, lambda n: Fraction((-1) ** (n + 1), n))


# ---------------------------------------------------------------------------
# Operadic extension


def operadic_extension(space, gen) -> HorizontalMorphism:
    """Extend generator values on one-block partitions to all partitions by
    evaluating the peel-first factorization.

    ``gen`` maps a color word to a multilinear map of arity len(word)+1.
    ``ovps.exchange_dev`` measures the slot-exchange precondition.
    """
    def leaf(size, colors):
        g = gen(colors)
        if g.arity != size + 1:
            raise DimensionMismatch("generator arity mismatch")
        return g

    def letter_fn(pi):
        # colored by ``partition_colors``, every leaf carries its colors
        colored = NCPartition._trusted(pi.blocks, pi.size, partition_colors(pi))
        return operadic_factorization(colored, leaf, multimap_partial)

    return HorizontalMorphism(space, letter_fn)


# ---------------------------------------------------------------------------
# Stock morphisms and seeded test data


def family_infinitesimal(family, word_type=formal.PartitionWord) -> InfinitesimalMorphism:
    """Generator values from a cumulant family on the letters whose
    ``letter_partition`` has one block: every non-empty letter word, and
    the one-block partitions."""

    def gen(x):
        pi = word_type.letter_partition(x)
        if pi.n_blocks != 1:
            return None
        return family.generator(partition_colors(pi))

    return InfinitesimalMorphism(family.space, gen, word_type)


def moment_morphism(family, word_type=formal.PartitionWord) -> HorizontalMorphism:
    """The distribution morphism: letter values through the recursive
    partition evaluator of the moment family, read on each letter's
    ``letter_partition``.  On a one-block partition that is the table's
    own entry, so a letter word has one moment leaf however many
    morphisms read it."""
    return HorizontalMorphism(
        family.space,
        lambda x: e_pi_map(word_type.letter_partition(x), family),
        word_type,
    )


def _stable_rng(seed, key_text):
    digest = hashlib.sha256(("%s|%s" % (seed, key_text)).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


SEEDED_MAX_SIZE = 5


def seeded_infinitesimal(space, seed, word_type=formal.PartitionWord,
                         single_block=False) -> InfinitesimalMorphism:
    """Deterministic pseudorandom generator values on letters up to size
    ``SEEDED_MAX_SIZE``; values depend only on (seed, letter), not query order.
    Each letter's map is built once and kept, so its structure tensor is
    too.  With ``single_block`` the support shrinks to one-block letters."""

    leaves = {}

    def gen(x):
        if x.arity - 1 > SEEDED_MAX_SIZE:
            return None
        if single_block and word_type.letter_partition(x).n_blocks != 1:
            return None
        if x not in leaves:
            rng = _stable_rng(seed, word_type.letter_text(x))
            leaves[x] = random_multimap(space, x.arity, rng)
        return leaves[x]

    return InfinitesimalMorphism(space, gen, word_type)


def morphism_dev(a: Morphism, b: Morphism, words) -> float:
    """Largest deviation of two morphisms' values across test words."""
    worst = 0.0
    for w in words:
        worst = max(worst, multimap_dev(a.value(w), b.value(w)))
    return worst


def precompose(alpha: Morphism, linear_fn, word_type=None) -> Morphism:
    """alpha pulled back along a linear map from basis words of ``word_type``
    to formal sums of alpha's words.  The antipode keeps alpha's word type,
    the default; the splitting map takes letter words (``winsert.WWord``)
    to partition words."""

    def fn(w):
        return WordSum.sum(alpha.space, w.profile(), (
            alpha.value(basis).scale(complex(coeff)) for basis, coeff in linear_fn(w).terms.items()
        ))

    return Morphism(alpha.space, word_type or alpha.word_type, alpha.unit_coeff, fn)
