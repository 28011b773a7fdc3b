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

Everything here is generic over the source coalgebra: an adapter object
reads the cuts off the words (``formal.Word.cuts``), so the words-insertion
coalgebra reuses the same machinery.

Two morphism values are compared as sums of words of maps.  When
(d^2)^inputs <= WORD_BASIS_LIMIT, a sum's values on every tuple of
elementary matrices are its structure tensor: per word, the coefficient
times the Kronecker product of its maps' tensors, so no argument batch is
built.  Beyond the limit both sums are evaluated on seeded probes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

from . import formal
from .ncpart import GenLeaf, PartialNode, operadic_factorization
from .ovps import (
    EXACT_BASIS_LIMIT,
    DimensionMismatch,
    deviation,
    identity_map,
    multimap_compose,
    multimap_eq,
    multimap_lincomb,
    multimap_partial,
    probe_batch,
    random_multimap,
)


class OrderOverflow(RuntimeError):
    """A morphism was queried beyond its supported grading."""


class CommutationError(ValueError):
    """Generator values do not satisfy the slot-exchange relation needed for
    a well-defined operadic extension."""


class UnitAmbiguity(ValueError):
    """Half-shuffle of two morphisms that both carry a unit component."""


# ---------------------------------------------------------------------------
# Coalgebra adapters


class WordCoalgebra:
    """Cut structure of one word type, read off the words themselves
    (``formal.Word``); subclasses name the word type and count blocks."""

    name = None
    word_type = None

    def word(self, letters):
        return self.word_type(letters)

    @staticmethod
    def is_unit(w):
        return w.is_unit()

    @staticmethod
    def letters(w):
        return w.letters

    @staticmethod
    def profile(w):
        return w.profile()

    @staticmethod
    def cut_triples(w):
        return w.cuts()

    @staticmethod
    def is_unit_letter(x):
        return x.size == 0

    @staticmethod
    def letter_arity(x):
        return x.arity

    def letter_text(self, x):
        return self.word_type.letter_text(x)


class PartitionCoalgebra(WordCoalgebra):
    """Cut structure of words of non-crossing partitions."""

    name = "partition-words"
    word_type = formal.PartitionWord

    @staticmethod
    def block_count(w):
        return w.total_blocks


PARTITION_COALGEBRA = PartitionCoalgebra()


# ---------------------------------------------------------------------------
# Morphism values


class WordSum:
    """Linear combination of words of multilinear maps sharing one profile."""

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
    def zero(cls, space, profile):
        return cls(space, profile, ())

    @classmethod
    def word(cls, space, maps, coeff=1):
        maps = tuple(maps)
        return cls(space, tuple(m.arity for m in maps), [(coeff, maps)])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.profile != other.profile:
            raise DimensionMismatch("profiles %r vs %r" % (self.profile, other.profile))
        return WordSum(self.space, self.profile, self.terms + other.terms)

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
        out_profile = None
        for c1, bottom_maps in self.terms:
            for c2, top_maps in top.terms:
                maps, pos = [], 0
                for m in bottom_maps:
                    group = top_maps[pos : pos + m.arity]
                    pos += m.arity
                    maps.append(multimap_compose(m, group))
                out_terms.append((c1 * c2, tuple(maps)))
                out_profile = tuple(m.arity for m in maps)
        if out_profile is None:
            # zero; compute the profile from the grading bookkeeping
            pos, prof = 0, []
            for r in self.profile:
                prof.append(sum(top.profile[pos : pos + r]))
                pos += r
            out_profile = tuple(prof)
        return WordSum(self.space, out_profile, out_terms)

    def hconcat(self, other: "WordSum") -> "WordSum":
        return WordSum(
            self.space,
            self.profile + other.profile,
            [
                (c1 * c2, m1 + m2)
                for c1, m1 in self.terms
                for c2, m2 in other.terms
            ],
        )

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
        EXACT_BASIS_LIMIT."""
        d = self.space.d
        n_mats = d * d
        n_rows = n_mats ** sum(self.profile)
        if n_rows > EXACT_BASIS_LIMIT:
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


WORD_BASIS_LIMIT = 256


def word_sum_dev(a: WordSum, b: WordSum, seed: int = 0) -> float:
    """Deviation of two morphism values.  When (d^2)^inputs <=
    WORD_BASIS_LIMIT the sums' structure tensors are compared, which covers
    every tuple of elementary arguments and builds no batch; beyond that
    both sums are evaluated on the seeded probe batch."""
    if a.profile != b.profile:
        raise DimensionMismatch("profiles %r vs %r" % (a.profile, b.profile))
    n_inputs = sum(a.profile)
    d = a.space.d
    if (d * d) ** n_inputs <= WORD_BASIS_LIMIT:
        return deviation(a.tensor(), b.tensor())
    args = probe_batch(d, n_inputs, seed=seed)
    return deviation(a.eval_batch(args), b.eval_batch(args))


# ---------------------------------------------------------------------------
# Morphisms


class Morphism:
    """unit_coeff * (eta . eps) plus a reduced part defined on non-unit words.

    ``fn`` maps a non-unit basis word to a WordSum; values are memoized.
    """

    def __init__(self, space, coalg, unit_coeff=0, fn=None, name="morphism", max_order=None):
        self.space = space
        self.coalg = coalg
        self.unit_coeff = complex(unit_coeff)
        self._fn = fn
        self.name = name
        self.max_order = max_order
        self._memo = {}

    def value(self, w) -> WordSum:
        if self.max_order is not None and sum(self.coalg.profile(w)) - len(
            self.coalg.profile(w)
        ) > self.max_order:
            raise OrderOverflow(
                "%s queried beyond max_order=%d" % (self.name, self.max_order)
            )
        if self.coalg.is_unit(w):
            maps = (identity_map(self.space),) * len(self.coalg.profile(w))
            return WordSum.word(self.space, maps, self.unit_coeff)
        if w not in self._memo:
            if self._fn is None:
                raise OrderOverflow("%s has no reduced part" % self.name)
            self._memo[w] = self._fn(w)
        return self._memo[w]

    def __add__(self, other):
        self._check_compatible(other)
        return Morphism(
            self.space,
            self.coalg,
            self.unit_coeff + other.unit_coeff,
            lambda w: self.value(w) + other.value(w),
            name="(%s + %s)" % (self.name, other.name),
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, coeff):
        return Morphism(
            self.space,
            self.coalg,
            complex(coeff) * self.unit_coeff,
            lambda w: self.value(w).scale(coeff),
            name="(%s * %s)" % (coeff, self.name),
        )

    def __neg__(self):
        return (-1) * self

    def _check_compatible(self, other):
        if self.space is not other.space or type(self.coalg) is not type(other.coalg):
            raise DimensionMismatch("morphisms over different structures")

    def __repr__(self):
        return "Morphism(%s)" % self.name


def eta_eps_morphism(space, coalg=PARTITION_COALGEBRA) -> Morphism:
    return Morphism(space, coalg, unit_coeff=1, fn=lambda w: WordSum.zero(
        space, coalg.profile(w)
    ), name="eta.eps")


class InfinitesimalMorphism(Morphism):
    """Supported on words with one non-empty letter padded by identities.

    ``gen`` maps a single non-empty letter to a multilinear map of matching
    arity, or None for letters outside the support.
    """

    def __init__(self, space, gen, coalg=PARTITION_COALGEBRA, name="infinitesimal", max_order=None):
        super().__init__(space, coalg, unit_coeff=0, fn=self._value, name=name,
                         max_order=max_order)
        self.gen = gen

    def _value(self, w) -> WordSum:
        coalg = self.coalg
        letters = coalg.letters(w)
        profile = coalg.profile(w)
        live = [i for i, x in enumerate(letters) if not coalg.is_unit_letter(x)]
        if len(live) != 1:
            return WordSum.zero(self.space, profile)
        g = self.gen(letters[live[0]])
        if g is None:
            return WordSum.zero(self.space, profile)
        if g.arity != profile[live[0]]:
            raise DimensionMismatch("generator arity does not match the letter")
        maps = [identity_map(self.space)] * len(letters)
        maps[live[0]] = g
        return WordSum.word(self.space, maps)

    def scaled(self, coeff) -> "InfinitesimalMorphism":
        gen = self.gen

        def scaled_gen(x):
            g = gen(x)
            return None if g is None else multimap_lincomb(
                self.space, g.arity, [(coeff, g)]
            )

        return InfinitesimalMorphism(
            self.space, scaled_gen, self.coalg,
            name="(%s * %s)" % (coeff, self.name), max_order=self.max_order,
        )


class HorizontalMorphism(Morphism):
    """Multiplicative over concatenation: the value on a word is the word of
    letter values; empty letters map to the identity."""

    def __init__(self, space, letter_fn, coalg=PARTITION_COALGEBRA, name="horizontal", max_order=None):
        super().__init__(space, coalg, unit_coeff=1, fn=self._value, name=name,
                         max_order=max_order)
        self._letter_fn = letter_fn
        self._letter_memo = {}

    def letter_value(self, x):
        if self.coalg.is_unit_letter(x):
            return identity_map(self.space)
        if x not in self._letter_memo:
            self._letter_memo[x] = self._letter_fn(x)
        return self._letter_memo[x]

    def _value(self, w) -> WordSum:
        return WordSum.word(
            self.space, [self.letter_value(x) for x in self.coalg.letters(w)]
        )


# ---------------------------------------------------------------------------
# Convolution and half-shuffles


def convolve(a: Morphism, b: Morphism) -> Morphism:
    """a * b = vertical composition of a and b across the full coproduct."""
    a._check_compatible(b)
    coalg = a.coalg

    def fn(w):
        total = WordSum.zero(a.space, coalg.profile(w))
        for lower, upper, _ in coalg.cut_triples(w):
            total = total + a.value(lower).vcompose(b.value(upper))
        return total

    return Morphism(
        a.space, coalg, a.unit_coeff * b.unit_coeff, fn,
        name="(%s * %s)" % (a.name, b.name),
    )


def _half(a: Morphism, b: Morphism, keep_flag: bool, symbol: str) -> Morphism:
    a._check_compatible(b)
    if a.unit_coeff != 0 and b.unit_coeff != 0:
        raise UnitAmbiguity("unit %s unit is not defined" % symbol)
    coalg = a.coalg

    def fn(w):
        total = WordSum.zero(a.space, coalg.profile(w))
        for lower, upper, flag in coalg.cut_triples(w):
            if flag == keep_flag:
                total = total + a.value(lower).vcompose(b.value(upper))
        return total

    return Morphism(
        a.space, coalg, 0, fn, name="(%s %s %s)" % (a.name, symbol, b.name)
    )


def half_prec(a: Morphism, b: Morphism) -> Morphism:
    """Convolution restricted to cuts keeping the first block below."""
    return _half(a, b, True, "<")


def half_succ(a: Morphism, b: Morphism) -> Morphism:
    """Convolution restricted to cuts moving the first block above."""
    return _half(a, b, False, ">")


def shuffle(a: Morphism, b: Morphism) -> Morphism:
    return half_prec(a, b) + half_succ(a, b)


# ---------------------------------------------------------------------------
# Exponentials


def _exponential(k: InfinitesimalMorphism, left: bool, name: str) -> HorizontalMorphism:
    """The horizontal solution K of K = eta.eps + k < K (``left``) or of
    K = eta.eps + K > k.  Its value on a letter x is the right-hand side on
    the one-letter word (x), collapsed to one map; the cuts of (x) reach K
    only on strictly smaller letters, so the recursion ends."""
    coalg = k.coalg
    K = HorizontalMorphism(
        k.space,
        lambda x: rhs.value(coalg.word((x,))).collapse(),
        coalg,
        name="%s(%s)" % (name, k.name),
        max_order=k.max_order,
    )
    rhs = half_prec(k, K) if left else half_succ(K, k)
    return K


def exp_prec(k: InfinitesimalMorphism) -> HorizontalMorphism:
    """Unique solution of K = eta.eps + k < K."""
    return _exponential(k, True, "exp<")


def exp_succ(b: InfinitesimalMorphism) -> HorizontalMorphism:
    """Unique solution of B = eta.eps + B > b."""
    return _exponential(b, False, "exp>")


def exp_star(m: Morphism) -> Morphism:
    """eta.eps plus the sum of convolution powers of m over p!.

    The sum on any word is finite: the p-th power vanishes once p exceeds
    the word's block count, which needs m to vanish on unit words.
    """
    if m.unit_coeff != 0:
        raise ValueError("exp expects a morphism with no unit component")
    powers = [m]

    def fn(w):
        bound = m.coalg.block_count(w)
        total = WordSum.zero(m.space, m.coalg.profile(w))
        for p in range(1, bound + 1):
            while len(powers) < p:
                powers.append(convolve(powers[-1], m))
            total = total + powers[p - 1].value(w).scale(Fraction(1, math.factorial(p)))
        return total

    return Morphism(m.space, m.coalg, 1, fn, name="exp*(%s)" % m.name,
                    max_order=m.max_order)


def log_star(phi: Morphism) -> Morphism:
    """Inverse of exp_star: the alternating sum of convolution powers of
    (phi - eta.eps) with coefficients (-1)^(n+1)/n."""
    if phi.unit_coeff != 1:
        raise ValueError("log expects a morphism with unit coefficient 1")
    reduced = Morphism(phi.space, phi.coalg, 0, phi.value, name="(%s)+" % phi.name)
    powers = [reduced]

    def fn(w):
        bound = phi.coalg.block_count(w)
        total = WordSum.zero(phi.space, phi.coalg.profile(w))
        for n in range(1, bound + 1):
            while len(powers) < n:
                powers.append(convolve(powers[-1], reduced))
            coeff = Fraction((-1) ** (n + 1), n)
            total = total + powers[n - 1].value(w).scale(coeff)
        return total

    return Morphism(phi.space, phi.coalg, 0, fn, name="log*(%s)" % phi.name,
                    max_order=phi.max_order)


# ---------------------------------------------------------------------------
# Operadic extension


def validate_generator_exchange(gen, var_indices, max_order, tol=1e-9):
    """Check gen(u) composed in its last slot with gen(v) equals gen(v)
    composed in its first slot with gen(u), for all color words up to the
    bound.  Raises CommutationError naming the first offending pair."""
    words = [
        w
        for n in range(1, max_order)
        for w in itertools.product(sorted(var_indices), repeat=n)
    ]
    for u in words:
        for v in words:
            if len(u) + len(v) > max_order:
                continue
            left = multimap_partial(gen(u), len(u) + 1, gen(v))
            right = multimap_partial(gen(v), 1, gen(u))
            if not multimap_eq(left, right, tol=tol):
                raise CommutationError(
                    "generator exchange fails for words %r and %r" % (u, v)
                )


def operadic_extension(space, gen, validate_vars=None, max_order=6, tol=1e-9) -> HorizontalMorphism:
    """Extend generator values on one-block partitions to all partitions by
    evaluating the peel-first factorization.

    ``gen`` maps a color word to a multilinear map of arity len(word)+1.
    When ``validate_vars`` is given, the slot-exchange precondition is
    checked for all color words up to ``max_order`` first.
    """
    if validate_vars is not None:
        validate_generator_exchange(gen, validate_vars, max_order, tol=tol)

    def walk(expr):
        if isinstance(expr, GenLeaf):
            colors = expr.colors if expr.colors is not None else (0,) * expr.block_size
            g = gen(colors)
            if g.arity != expr.block_size + 1:
                raise DimensionMismatch("generator arity mismatch")
            return g
        if not isinstance(expr, PartialNode):
            raise TypeError(
                "a factorization node must be a GenLeaf or a PartialNode, got %r" % (expr,)
            )
        return multimap_partial(walk(expr.outer), expr.slot, walk(expr.inner))

    def letter_fn(pi):
        return walk(operadic_factorization(pi))

    return HorizontalMorphism(space, letter_fn, name="operadic-extension")


# ---------------------------------------------------------------------------
# Stock morphisms and seeded test data


def _partition_colors(pi):
    return pi.colors if pi.colors is not None else (0,) * pi.size


def family_infinitesimal(family, coalg=PARTITION_COALGEBRA, name=None) -> InfinitesimalMorphism:
    """Generator values from a cumulant family on one-block letters only."""

    def gen(pi):
        if pi.n_blocks != 1:
            return None
        return family.generator(_partition_colors(pi))

    return InfinitesimalMorphism(
        family.space, gen, coalg, name=name or ("inf-%s" % family.kind)
    )


def moment_morphism(family) -> HorizontalMorphism:
    """The distribution morphism: letter values through the recursive
    partition evaluator of the moment family."""
    from .cumulants import e_pi_map

    return HorizontalMorphism(
        family.space,
        lambda pi: e_pi_map(pi, family),
        name="moments",
    )


def _stable_rng(seed, key_text):
    digest = hashlib.sha256(("%s|%s" % (seed, key_text)).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def seeded_infinitesimal(space, seed, max_size=5, coalg=PARTITION_COALGEBRA,
                         name=None, single_block=False) -> InfinitesimalMorphism:
    """Deterministic pseudorandom generator values on letters up to
    ``max_size``; values depend only on (seed, letter), not query order.
    Each letter's map is built once and kept, so its structure tensor is
    too.  With ``single_block`` the support shrinks to one-block letters."""

    leaves = {}

    def gen(x):
        if coalg.letter_arity(x) - 1 > max_size:
            return None
        if single_block and getattr(x, "n_blocks", 1) != 1:
            return None
        if x not in leaves:
            rng = _stable_rng(seed, coalg.letter_text(x))
            leaves[x] = random_multimap(space, coalg.letter_arity(x), rng, label="seeded")
        return leaves[x]

    return InfinitesimalMorphism(
        space, gen, coalg, name=name or ("seeded-%s" % seed)
    )


def morphism_dev(a: Morphism, b: Morphism, words, seed: int = 0) -> float:
    """Largest word-sum deviation of two morphisms across test words."""
    worst = 0.0
    for w in words:
        worst = max(worst, word_sum_dev(a.value(w), b.value(w), seed=seed))
    return worst


def precompose(alpha: Morphism, linear_fn, name="precomposed") -> Morphism:
    """alpha pulled back along a linear endomorphism of the source, given as
    a map from basis words to formal sums of words (e.g. the antipode)."""

    def fn(w):
        total = WordSum.zero(alpha.space, alpha.coalg.profile(w))
        image = linear_fn(w)
        for basis, coeff in image.terms.items():
            total = total + alpha.value(basis).scale(complex(coeff))
        return total

    return Morphism(
        alpha.space, alpha.coalg, alpha.unit_coeff, fn,
        name="%s(%s)" % (name, alpha.name),
    )
