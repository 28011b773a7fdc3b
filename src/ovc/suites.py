"""Named verification suites behind the command-line driver.

Each suite runs a fixed list of assertions and reports one row per
assertion: identifier, what it checks, whether the check is exact
(symbolic, rational arithmetic) or numeric (max relative deviation against
a tolerance), and the outcome.  Suites are deterministic for a fixed
configuration and seed; report ordering follows suite then assertion order,
independent of scheduling.

The exact suites (``EXACT_SUITES``) need only ``ncpart`` and ``formal``; the
numeric suites import numpy and the numeric layer (``ovps``, ``cumulants``,
``morphisms``) when they run, so a run of the exact suites never loads
them.  ``winsert`` is exact too, but only the numeric suites read letter
words, so it is imported with them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import TYPE_CHECKING, Optional

from . import formal, ncpart
from .formal import all_words, antipode, coproduct, delta_prec, delta_succ, eta_eps
from .ncpart import (
    CUMULANT_KINDS,
    NCPartition,
    count_monotone_labelings,
    cuts,
    enumerate_interval,
    enumerate_nc,
    full_partition,
    gap_insert,
    is_noncrossing,
    lattice,
    operadic_factorization,
    partial_insert,
    tree_factorial,
)

if TYPE_CHECKING:
    from .ovps import OVMatrixSpace

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429]

# The word whose free cumulant ``--inject-fault`` corrupts.
FAULT_WORD = (0, 0)

# The one-variable words on which generator tables are checked for the
# slot-exchange relation.
EXCHANGE_WORDS = [(0,) * n for n in range(1, 4)]


class VerifyContext:
    """Everything a suite needs; the CLI builds it from its configuration.

    ``space`` is None when only the exact suites run, which never read it.
    The numeric suites check words up to ``max_order``; the hopf suite
    checks words of up to 3 letters and total size min(max_order + 1, 5).
    ``scalar_space`` holds the same variables read with d = 1, so its
    expectation is the normalized trace over all d*k rows.  ``families``
    and ``scalar_families`` are the one set of cumulant tables of each
    space, which every suite shares; ``inject_fault`` corrupts the free
    entry of ``FAULT_WORD`` in ``families`` only.
    """

    def __init__(
        self,
        space: Optional[OVMatrixSpace],
        tol: float = 1e-9,
        seed: int = 7,
        max_order: int = 4,
        inject_fault: bool = False,
    ):
        self.space = space
        self.tol = tol
        self.seed = seed
        self.max_order = max_order
        self.inject_fault = inject_fault

    @functools.cached_property
    def scalar_space(self) -> OVMatrixSpace:
        from .ovps import OVMatrixSpace

        space = self.space
        return OVMatrixSpace(d=1, k=space.dk, variables=space.variables, seed=space.seed)

    @functools.cached_property
    def families(self) -> dict:
        from .cumulants import cumulant_families

        families = cumulant_families(self.space)
        if self.inject_fault:
            families["free"].corrupt(FAULT_WORD)
        return families

    @functools.cached_property
    def scalar_families(self) -> dict:
        from .cumulants import cumulant_families

        return cumulant_families(self.scalar_space)


def _row(ident, description, passed, dev=None, tol=None, exact=False):
    # a deviation that is not finite reads as null, which strict JSON allows
    return {
        "id": ident,
        "description": description,
        "exact": bool(exact),
        "dev": float(dev) if dev is not None and math.isfinite(dev) else None,
        "tol": None if tol is None else float(tol),
        "passed": bool(passed),
    }


def _exact(ident, description, ok):
    return _row(ident, description, ok, exact=True)


def _numeric(ident, description, dev, tol):
    return _row(ident, description, dev <= tol, dev=dev, tol=tol)


def _set_partitions(ground):
    if not ground:
        yield []
        return
    first, rest = ground[0], ground[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            copied = [list(b) for b in sub]
            copied[i].insert(0, first)
            yield copied


# ---------------------------------------------------------------------------
# operad


def suite_operad(ctx: VerifyContext):
    rows = []
    counts_ok, interval_ok = True, True
    for p in range(8):
        brute = sorted(
            (
                NCPartition(bs)
                for bs in _set_partitions(tuple(range(1, p + 1)))
                if is_noncrossing(bs)
            ),
            key=NCPartition.sort_key,
        )
        got = enumerate_nc(p)
        counts_ok &= got == brute and len(got) == CATALAN[p]
        if p >= 1:
            ints = enumerate_interval(p)
            interval_ok &= len(ints) == 2 ** (p - 1)
            interval_ok &= ints == [pi for pi in got if pi.is_interval()]
    rows.append(
        _exact(
            "operad.nc-counts",
            "non-crossing enumeration matches brute-force filtering of all set partitions, p <= 7",
            counts_ok,
        )
    )
    rows.append(
        _exact(
            "operad.interval-counts",
            "interval enumeration has 2^(p-1) elements and filters the non-crossing list, p <= 7",
            interval_ok,
        )
    )

    unit_ok = True
    for p in range(5):
        for pi in enumerate_nc(p):
            unit_ok &= gap_insert(pi, [ncpart.EMPTY] * pi.arity) == pi
            unit_ok &= gap_insert(ncpart.EMPTY, [pi]) == pi
    rows.append(_exact("operad.unit-law", "empty-partition insertions act as the unit", unit_ok))

    gen_ok = all(
        partial_insert(full_partition(m - 1), m, full_partition(n - 1))
        == partial_insert(full_partition(n - 1), 1, full_partition(m - 1))
        for m in range(2, 6)
        for n in range(2, 6)
    )
    rows.append(
        _exact(
            "operad.generator-relation",
            "one-block generators satisfy the last-slot/first-slot exchange, arities 2..5",
            gen_ok,
        )
    )

    rng = random.Random(ctx.seed)
    small = enumerate_nc(0) + enumerate_nc(1) + enumerate_nc(2)
    assoc_ok = True
    for p in range(5):
        for pi in enumerate_nc(p):
            for _ in range(6):
                alphas = [rng.choice(small) for _ in range(pi.arity)]
                mid = gap_insert(pi, alphas)
                betas = [rng.choice(small) for _ in range(mid.arity)]
                two_stage = gap_insert(mid, betas)
                pos, inner = 0, []
                for a in alphas:
                    inner.append(gap_insert(a, betas[pos : pos + a.arity]))
                    pos += a.arity
                assoc_ok &= two_stage == gap_insert(pi, inner)
    rows.append(
        _exact(
            "operad.associativity",
            "two-stage insertion equals the one-stage composite on seeded samples, size <= 4",
            assoc_ok,
        )
    )

    duality_ok = True
    for p in range(6):
        by_size = [enumerate_nc(s) for s in range(p + 1)]
        # Invert insertion once per size: every (lower, upper) pair of total
        # size p is inserted once and filed under its result, so the table
        # holds each partition's full preimage set.
        preimages = {}
        for q in range(p + 1):
            for lower in by_size[q]:
                rest = p - q
                for sizes in itertools.product(range(rest + 1), repeat=lower.arity):
                    if sum(sizes) != rest:
                        continue
                    for upper in itertools.product(*(by_size[s] for s in sizes)):
                        pair = (lower, tuple(upper))
                        preimages.setdefault(gap_insert(*pair), set()).add(pair)
        for pi in by_size[p]:
            found = {(c.lower, c.upper) for c in cuts(pi)}
            duality_ok &= found == preimages.get(pi, set())
    rows.append(
        _exact(
            "operad.cut-duality",
            "cut enumeration equals brute-force inversion of insertion, size <= 5",
            duality_ok,
        )
    )

    fact_ok = all(
        operadic_factorization(pi, full_partition, partial_insert) == pi
        for p in range(1, 7)
        for pi in enumerate_nc(p)
    )
    rows.append(
        _exact(
            "operad.factorization-round-trip",
            "peel-first factorization re-evaluates to the partition, size <= 6",
            fact_ok,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# hopf


def _memoised(f):
    """``f`` with the values of its 256 most recently used words kept for as
    long as the wrapper lives.  Bounded so that memory stays flat as the
    word set grows: unbounded, these memos take the peak of splitting at
    order 6 from 73 to 82 MB, though its time falls from 16 to 14 s (2-core Xeon)."""
    return functools.lru_cache(maxsize=256)(f)


def _unshuffle_axioms(words, coproduct, reduced, prec, succ):
    """Coassociativity of ``coproduct`` on ``words``, then the left-left,
    mixed and right-right unshuffle axioms of the half-coproducts ``prec``
    and ``succ`` (with the reduced coproduct ``reduced``) on the non-unit
    words: four booleans.  Each map is memoised for the length of the
    call, so a word's values are built once while it is among the map's
    recent words."""
    full = _memoised(coproduct)
    coassoc = all(
        formal.map_stack(full, None, full(w)) == formal.map_stack(None, full, full(w))
        for w in words
    )
    del full  # the axioms below do not use it; its values would raise peak memory
    reduced, prec, succ = map(_memoised, (reduced, prec, succ))
    live = [w for w in words if not w.is_unit()]
    left = all(
        formal.map_stack(prec, None, prec(w)) == formal.map_stack(None, reduced, prec(w))
        for w in live
    )
    mixed = all(
        formal.map_stack(succ, None, prec(w)) == formal.map_stack(None, prec, succ(w))
        for w in live
    )
    right = all(
        formal.map_stack(reduced, None, succ(w)) == formal.map_stack(None, succ, succ(w))
        for w in live
    )
    return coassoc, left, mixed, right


def suite_hopf(ctx: VerifyContext):
    size = min(ctx.max_order + 1, 5)
    words = all_words(size, 3)
    live = [w for w in words if not w.is_unit()]
    rows = []
    coassoc, ax1, ax2, ax3 = _unshuffle_axioms(
        words, coproduct, formal.reduced_coproduct, delta_prec, delta_succ
    )
    rows.append(
        _exact(
            "hopf.coassociativity",
            "coproduct is coassociative on all words of total size <= %d" % size,
            coassoc,
        )
    )

    split_ok = all(
        delta_prec(w) + delta_succ(w) == formal.reduced_coproduct(w) for w in live
    )
    rows.append(
        _exact(
            "hopf.half-sum",
            "the two half-coproducts sum to the reduced coproduct",
            split_ok,
        )
    )
    rows.append(_exact("hopf.unshuffle-left", "left-left unshuffle axiom", ax1))
    rows.append(_exact("hopf.unshuffle-mixed", "mixed unshuffle axiom", ax2))
    rows.append(_exact("hopf.unshuffle-right", "right-right unshuffle axiom", ax3))

    antipode_ok = all(
        formal.nabla(formal.map_stack(antipode, None, coproduct(w))) == eta_eps(formal.single(w))
        and formal.nabla(formal.map_stack(None, antipode, coproduct(w)))
        == eta_eps(formal.single(w))
        for w in words
    )
    rows.append(
        _exact(
            "hopf.antipode-identity",
            "collapsing the antipode against either side of the coproduct projects onto unit words",
            antipode_ok,
        )
    )

    def s2(x):
        return antipode(antipode(x))

    s2_ok = all(s2(s2(formal.single(w))) == s2(formal.single(w)) for w in words)
    proj_ok = all(
        (
            s2(formal.single(w)) == formal.single(w)
            if all(l.is_interval() for l in w.letters)
            else s2(formal.single(w)).is_zero()
        )
        for w in words
    )
    rows.append(
        _exact(
            "hopf.antipode-square",
            "the squared antipode is the projector onto interval-letter words",
            s2_ok and proj_ok,
        )
    )

    halves = all_words(max(size - 2, 2), 1)
    mult_ok = all(
        coproduct(formal.hconcat(formal.single(u), formal.single(v)))
        == formal.hconcat(coproduct(u), coproduct(v))
        for u in halves
        for v in halves
        if u.total_size + v.total_size <= size
    )
    rows.append(
        _exact(
            "hopf.coproduct-multiplicative",
            "the coproduct of a concatenation is the interchange product of coproducts",
            mult_ok,
        )
    )

    conil_ok = True
    reduced = _memoised(formal.reduced_coproduct)
    for w in words:
        state = formal.single(formal.stack(w, formal.unit_word(w.inputs)))
        for _ in range(max(1, w.total_blocks)):
            state = formal.map_stack(reduced, None, state)
        conil_ok &= state.is_zero()
    rows.append(
        _exact(
            "hopf.conilpotence",
            "iterating the reduced coproduct kills every word within its block count",
            conil_ok,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# shuffle


def suite_shuffle(ctx: VerifyContext):
    from .morphisms import (
        convolve,
        eta_eps_morphism,
        exp_prec,
        exp_succ,
        half_prec,
        half_succ,
        morphism_dev,
        seeded_infinitesimal,
        shuffle,
    )

    space = ctx.space
    words = all_words(ctx.max_order, 2)
    f = seeded_infinitesimal(space, seed=ctx.seed + 1)
    g = seeded_infinitesimal(space, seed=ctx.seed + 2)
    h = seeded_infinitesimal(space, seed=ctx.seed + 3)
    rows = []
    rows.append(
        _numeric(
            "shuffle.axiom-left",
            "(f < g) < h equals f < (g * h) on words of size <= %d" % ctx.max_order,
            morphism_dev(half_prec(half_prec(f, g), h), half_prec(f, shuffle(g, h)), words),
            ctx.tol,
        )
    )
    rows.append(
        _numeric(
            "shuffle.axiom-mixed",
            "(f > g) < h equals f > (g < h)",
            morphism_dev(half_prec(half_succ(f, g), h), half_succ(f, half_prec(g, h)), words),
            ctx.tol,
        )
    )
    rows.append(
        _numeric(
            "shuffle.axiom-right",
            "f > (g > h) equals (f * g) > h",
            morphism_dev(half_succ(f, half_succ(g, h)), half_succ(shuffle(f, g), h), words),
            ctx.tol,
        )
    )
    x = seeded_infinitesimal(space, seed=ctx.seed + 4)
    rows.append(
        _numeric(
            "shuffle.left-right-inverse",
            "the right exponential of -x convolved with the left exponential of x is the unit",
            morphism_dev(
                convolve(exp_succ((-1) * x), exp_prec(x)), eta_eps_morphism(space), words
            ),
            ctx.tol,
        )
    )
    K = exp_prec(x)
    rows.append(
        _numeric(
            "shuffle.left-fixed-point",
            "the left exponential solves K = unit + x < K",
            morphism_dev(K, eta_eps_morphism(space) + half_prec(x, K), words),
            ctx.tol,
        )
    )
    B = exp_succ(x)
    rows.append(
        _numeric(
            "shuffle.right-fixed-point",
            "the right exponential solves B = unit + B > x",
            morphism_dev(B, eta_eps_morphism(space) + half_succ(B, x), words),
            ctx.tol,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# oracle


def suite_oracle(ctx: VerifyContext):
    from .cumulants import e_pi_map
    from .morphisms import (
        convolve,
        eta_eps_morphism,
        exp_prec,
        family_infinitesimal,
        moment_morphism,
        morphism_dev,
        operadic_extension,
        precompose,
    )
    from .ovps import exchange_dev, moment_map, multimap_dev

    space = ctx.space
    moments = ctx.families["moment"]
    ext = operadic_extension(space, moments.generator)
    left = exp_prec(family_infinitesimal(moments))
    rows = []
    dev_rel = max(
        multimap_dev(moment_map(space, []), space.identity),
        exchange_dev(moments.generator, EXCHANGE_WORDS),
    )
    rows.append(
        _numeric(
            "oracle.moment-exchange",
            "order-zero moments are the identity and moment maps satisfy the slot exchange",
            dev_rel,
            1e-10,
        )
    )
    dev_ext, dev_exp = 0.0, 0.0
    for p in range(6):
        for pi in enumerate_nc(p):
            recursive = e_pi_map(pi, moments)
            w1 = formal.word(pi)
            dev_ext = max(dev_ext, multimap_dev(ext.letter_value(w1), recursive))
            dev_exp = max(dev_exp, multimap_dev(left.letter_value(w1), recursive))
    rows.append(
        _numeric(
            "oracle.extension-vs-recursive",
            "factorization route equals the recursive collapse on all partitions of size <= 5",
            dev_ext,
            1e-10,
        )
    )
    rows.append(
        _numeric(
            "oracle.exponential-vs-recursive",
            "left half-shuffle exponential of the moment generators equals the recursive collapse",
            dev_exp,
            1e-10,
        )
    )
    two_colored = [
        NCPartition(pi.blocks, colors=tuple(i % 2 for i in range(p)))
        for p in range(1, 5)
        for pi in enumerate_nc(p)
    ]
    dev_col = max(
        multimap_dev(ext.letter_value(formal.word(cpi)), e_pi_map(cpi, moments))
        for cpi in two_colored
    )
    rows.append(
        _numeric(
            "oracle.two-variable-extension",
            "the same equivalence with two-variable colorings, size <= 4",
            dev_col,
            1e-10,
        )
    )
    unit = eta_eps_morphism(space)
    mom_mor = moment_morphism(moments)
    inv = precompose(mom_mor, antipode)
    words = all_words(4, 2)
    rows.append(
        _numeric(
            "oracle.antipode-inverse",
            "the antipode pullback inverts the moment morphism under convolution",
            max(
                morphism_dev(convolve(mom_mor, inv), unit, words),
                morphism_dev(convolve(inv, mom_mor), unit, words),
            ),
            ctx.tol,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# moment-cumulant


def suite_moment_cumulant(ctx: VerifyContext):
    from .cumulants import verify_mc

    rows = []
    order = min(ctx.max_order + 1, 5)
    for label, families in (("scalar", ctx.scalar_families), ("matrix", ctx.families)):
        report = verify_mc(families, order)
        for kind in CUMULANT_KINDS:
            rows.append(
                _numeric(
                    "moment-cumulant.%s-%s" % (label, kind),
                    "%s cumulant sums rebuild the moments on the %s space, order <= %d"
                    % (kind, label, order),
                    report["max_dev"][kind],
                    ctx.tol,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# splitting


def suite_splitting(ctx: VerifyContext):
    from . import winsert
    from .morphisms import (
        eta_eps_morphism,
        family_infinitesimal,
        half_prec,
        half_succ,
        moment_morphism,
        morphism_dev,
    )

    space = ctx.space
    families = ctx.families
    vs = sorted(space.variables)
    # the moment morphism on one-letter words must solve E = unit + k < E
    # with k the free cumulant infinitesimal and E = unit + E > b with b
    # the boolean one
    k = family_infinitesimal(families["free"])
    b = family_infinitesimal(families["boolean"])
    e_mor = moment_morphism(families["moment"])
    unit = eta_eps_morphism(space)
    words = winsert.all_w_words(vs, ctx.max_order, 1)
    rows = [
        _numeric(
            "splitting.free-fixed-point",
            "moments solve E = unit + k < E on words of length <= %d" % ctx.max_order,
            morphism_dev(unit + half_prec(k, e_mor), e_mor, words),
            ctx.tol,
        ),
        _numeric(
            "splitting.boolean-fixed-point",
            "moments solve E = unit + E > b on the same words",
            morphism_dev(unit + half_succ(e_mor, b), e_mor, words),
            ctx.tol,
        ),
    ]

    inter_ok = True
    for w in winsert.all_w_words(vs, ctx.max_order + 1, 1):
        if w.is_unit():
            continue
        # both halves from one cut walk per side: walking a split of
        # hundreds of terms twice would build every term's cuts twice
        w_prec, w_succ = formal.half_coproducts(w)
        prec, succ = formal.half_coproducts(winsert.split(w))
        inter_ok &= formal.map_stack(winsert.split, winsert.split, w_prec) == prec
        inter_ok &= formal.map_stack(winsert.split, winsert.split, w_succ) == succ
    rows.append(
        _exact(
            "splitting.intertwining",
            "splitting intertwines both half-coproducts, lengths <= %d" % (ctx.max_order + 1),
            inter_ok,
        )
    )

    w_words = winsert.all_w_words(vs, ctx.max_order, 2)
    axioms = _unshuffle_axioms(
        w_words,
        winsert.w_coproduct,
        winsert.w_reduced_coproduct,
        winsert.w_delta_prec,
        winsert.w_delta_succ,
    )
    rows.append(
        _exact(
            "splitting.insertion-hopf",
            "words-insertion coproduct is coassociative and satisfies the unshuffle axioms",
            all(axioms),
        )
    )

    anti_ok = all(
        formal.nabla(formal.map_stack(winsert.w_antipode, None, winsert.w_coproduct(w)))
        == eta_eps(formal.single(w))
        for w in w_words
    )
    rows.append(
        _exact(
            "splitting.insertion-antipode",
            "the sign antipode collapses the insertion coproduct onto unit words",
            anti_ok,
        )
    )

    lhs, rhs = winsert.split_insert_defect(
        winsert.letter_word([vs[0]]),
        [winsert.letter_word([vs[-1]]), ncpart.EMPTY],
    )
    rows.append(
        _exact(
            "splitting.not-insertion-morphism",
            "splitting an inserted word strictly differs from inserting the split summands",
            lhs != rhs,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# monotone-scalar


def suite_monotone_scalar(ctx: VerifyContext):
    from . import winsert
    from .morphisms import (
        WordSum,
        exp_prec,
        exp_star,
        log_star,
        moment_morphism,
        seeded_infinitesimal,
    )
    from .ovps import exchange_dev, multimap_dev

    rows = []
    space = ctx.scalar_space
    counts_ok = all(
        count_monotone_labelings(pi) * tree_factorial(pi) == math.factorial(pi.n_blocks)
        for p in range(7)
        for pi in enumerate_nc(p)
    )
    rows.append(
        _exact(
            "monotone.labeling-count",
            "brute-force monotone labeling count matches blocks!/tree-factorial, size <= 6",
            counts_ok,
        )
    )

    m = seeded_infinitesimal(space, seed=ctx.seed + 5, single_block=True)
    star, left = exp_star(m), exp_prec(m)
    dev = 0.0
    for p in range(1, 6):
        for weight, pi in lattice("monotone", p):
            w = formal.word(pi)
            dev = max(dev, multimap_dev(star.value(w), left.value(w).scale(weight)))
    rows.append(
        _numeric(
            "monotone.star-vs-left",
            "full exponential equals the left exponential over the tree factorial, size <= 5",
            dev,
            ctx.tol,
        )
    )

    monotone = ctx.scalar_families["monotone"]
    # named diagnostic: the exchange hypothesis behind the tree-factorial
    # formula, in its first-slot/after-last-slot form.  The formula needs
    # this slot exchange, not d = 1: the seeded random generators of
    # monotone.star-vs-left have it only at d = 1, which is why that row
    # runs on the scalar space, while the cumulant tables have it on the
    # matrix space too
    rows.append(
        _numeric(
            "monotone.exchange-hypothesis",
            "scalar monotone generators satisfy the first-slot/after-last-slot exchange",
            exchange_dev(monotone.generator, EXCHANGE_WORDS),
            ctx.tol,
        )
    )

    log_m = log_star(moment_morphism(ctx.scalar_families["moment"]))
    dev_h = 0.0
    for n in range(1, 5):
        for word in itertools.product((0, 1), repeat=n):
            w = winsert.w_word(winsert.letter_word(word))
            target = WordSum.word(space, (monotone.generator(word),))
            dev_h = max(dev_h, multimap_dev(log_m.value(w), target))
    rows.append(
        _numeric(
            "monotone.log-cross-check",
            "on the scalar space the convolution logarithm of the word-level moments recovers the monotone generators",
            dev_h,
            ctx.tol,
        )
    )
    return rows


SUITES = {
    "hopf": suite_hopf,
    "moment-cumulant": suite_moment_cumulant,
    "monotone-scalar": suite_monotone_scalar,
    "operad": suite_operad,
    "oracle": suite_oracle,
    "shuffle": suite_shuffle,
    "splitting": suite_splitting,
}


# Suites whose words color letters with the variables 0 and 1.
TWO_VARIABLE_SUITES = frozenset(("monotone-scalar", "oracle"))

# Suites that read the free entry ``--inject-fault`` corrupts, each with
# the least order at which it does: splitting reads FAULT_WORD's two-letter
# word only from order 2 on.
FAULT_SUITES = {"moment-cumulant": 1, "splitting": 2}

# Suites of exact arithmetic only: they never read the context's space.
EXACT_SUITES = frozenset(("hopf", "operad"))


def run_suites(ctx: VerifyContext, names) -> dict:
    """Run the suites ``names`` (checked by ``RunConfig``) in sorted order."""
    suites_out = []
    all_pass = True
    for name in sorted(names):
        rows = SUITES[name](ctx)
        ok = all(r["passed"] for r in rows)
        all_pass &= ok
        suites_out.append({"suite": name, "passed": ok, "assertions": rows})
    return {"passed": all_pass, "suites": suites_out}
