"""Concrete operator-valued probability spaces over matrix algebras.

The model: A is the algebra of (d*k) x (d*k) complex matrices, B the d x d
matrices embedded as b -> b (x) I_k, and the conditional expectation takes
the normalized trace of each k x k block.  Multilinear maps B^n -> B are
held as evaluation DAGs whose leaves are the identity or generator maps and
whose internal nodes are operadic compositions or pointwise linear
combinations.  A map is a plain value with no display name, and each space
holds one identity map, ``OVMatrixSpace.identity``, the unit of
composition.

Two evaluations exist.  Where (d^2)^arity <= EXACT_BASIS_LIMIT a map has a
structure tensor, its values on every tuple of elementary matrices, built
bottom-up from its parts: leaves build theirs directly, linear combinations
sum their parts' tensors, compositions take one matrix product per
composed slot.  Above the limit ``tensor()`` is None, and ``basis_values``,
the one switch, reads the 20 probe tuples of one seed, ``_PROBE_SEED``, by
walking the DAG on stacked argument batches.  ``multimap_dev`` is the one
comparison, of two maps or of two sums of words of maps
(``morphisms.WordSum``, whose ``tensor()`` stops at a smaller limit).  The
walk stops at every linear combination that holds its tensor, which is then
contracted with the arguments instead, so a memoised sub-map below the
limit costs one contraction per use.  A contraction multiplies out the
coordinates of the leading slots and reads them against the tensor in one
BLAS product, then takes the other slots one ``einsum`` each, and no
contraction's output is larger than the tensor.  The command line runs BLAS
on one thread (``ovc.cli``); a library caller keeps its own setting.

All tolerances are relative with an absolute floor of 1e-12, and a value
that is not finite deviates infinitely.
"""

from __future__ import annotations

import math

import numpy as np

from .ncpart import _checked_colors

ABS_FLOOR = 1e-12
EXACT_BASIS_LIMIT = 4096
N_PROBES = 20
_PROBE_SEED = 0x0C0FFEE


class DimensionMismatch(ValueError):
    """Matrix or arity dimensions do not match the owning space."""


class SpaceCheckError(ArithmeticError):
    """The conditional expectation of a space is not unital or not
    B-bimodular within the absolute floor."""


def matrix_to_json(m) -> list:
    """Nested [re, im] pairs, row-major."""
    m = np.asarray(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def random_matrix(rng, n) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def random_hermitian(rng, n) -> np.ndarray:
    m = random_matrix(rng, n)
    return (m + m.conj().T) / 2


class OVMatrixSpace:
    """Operator-valued probability space (A, E, B) on block matrices.

    ``variables`` maps variable indices to elements of A; pass an int to get
    that many seeded pseudorandom Hermitian variables instead.  ``identity``
    is the one identity map on B of the space, the unit of its operad of
    multilinear maps.
    """

    def __init__(self, d: int, k: int, variables=2, seed: int = 7):
        if d < 1 or k < 1:
            raise DimensionMismatch("dimensions must be positive")
        self.d = d
        self.k = k
        self.dk = d * k
        self.seed = seed
        if isinstance(variables, int):
            rng = np.random.default_rng(seed)
            variables = {
                i: random_hermitian(rng, self.dk) for i in range(variables)
            }
        self.variables = {}
        for idx, mat in variables.items():
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.dk, self.dk):
                raise DimensionMismatch(
                    "variable %r has shape %r, expected (%d, %d)"
                    % (idx, mat.shape, self.dk, self.dk)
                )
            self.variables[int(idx)] = mat
        self.identity = MultiMap(self, 1, "id")
        self._self_check()

    def _self_check(self):
        if np.max(np.abs(self.cond_expect(np.eye(self.dk)) - np.eye(self.d))) > ABS_FLOOR:
            raise SpaceCheckError("E(1) is not the identity of B")
        rng = np.random.default_rng(self.seed + 1)
        for _ in range(3):
            a = random_matrix(rng, self.dk)
            b1, b2 = random_matrix(rng, self.d), random_matrix(rng, self.d)
            lhs = self.cond_expect(self.embed(b1) @ a @ self.embed(b2))
            rhs = b1 @ self.cond_expect(a) @ b2
            if np.max(np.abs(lhs - rhs)) > ABS_FLOOR * max(1.0, np.max(np.abs(rhs))):
                raise SpaceCheckError("E(b1 a b2) differs from b1 E(a) b2")

    def variable(self, idx: int) -> np.ndarray:
        if idx not in self.variables:
            raise KeyError("unknown variable index %r" % (idx,))
        return self.variables[idx]

    def embed(self, b) -> np.ndarray:
        """b -> b (x) I_k, vectorized over leading axes."""
        b = np.asarray(b, dtype=complex)
        if b.shape[-2:] != (self.d, self.d):
            raise DimensionMismatch("expected trailing shape (%d, %d)" % (self.d, self.d))
        out = np.einsum("...ij,ab->...iajb", b, np.eye(self.k))
        return out.reshape(b.shape[:-2] + (self.dk, self.dk))

    def cond_expect(self, a) -> np.ndarray:
        """Blockwise normalized trace: entry (i, j) is tr(block_ij) / k."""
        a = np.asarray(a, dtype=complex)
        if a.shape[-2:] != (self.dk, self.dk):
            raise DimensionMismatch(
                "expected trailing shape (%d, %d)" % (self.dk, self.dk)
            )
        blocks = a.reshape(a.shape[:-2] + (self.d, self.k, self.d, self.k))
        return np.einsum("...iaja->...ij", blocks) / self.k


class MultiMap:
    """Multilinear map B^{(x) arity} -> B over a matrix space.

    ``kind`` is one of 'id' (the identity on B, one per space:
    ``OVMatrixSpace.identity``), 'gen' (leaf evaluator),
    'compose' (operadic composition) or 'lincomb' (pointwise linear
    combination).  A leaf carries ``fn``, its values on a batch, and
    ``build``, which returns its structure tensor directly.  Instances are
    immutable; evaluation accepts stacked argument batches of shape
    (N, d, d) per slot.
    """

    __slots__ = ("space", "arity", "kind", "fn", "parts", "build", "_tensor")

    def __init__(self, space, arity, kind, fn=None, parts=(), build=None):
        if kind == "gen" and build is None:
            raise ValueError("a leaf needs build, which returns its structure tensor")
        self.space = space
        self.arity = arity
        self.kind = kind
        self.fn = fn
        self.parts = tuple(parts)
        self.build = build
        self._tensor = None

    def eval_batch(self, args) -> np.ndarray:
        """Values on a batch, one (N, d, d) array per slot.  A linear
        combination that holds its structure tensor contracts it with the
        arguments; every other node walks its parts."""
        if len(args) != self.arity:
            raise DimensionMismatch(
                "%s expects %d arguments, got %d" % (self, self.arity, len(args))
            )
        if self.kind == "id":
            return args[0]
        if self.kind == "gen":
            return self.fn(args)
        if self.kind == "compose":
            alpha, betas = self.parts[0], self.parts[1:]
            fed, pos = [], 0
            for beta in betas:
                fed.append(beta.eval_batch(args[pos : pos + beta.arity]))
                pos += beta.arity
            return alpha.eval_batch(fed)
        if self.kind == "lincomb":
            if self._tensor is not None:
                return _contract(self._tensor, args)
            n = args[0].shape[0] if args else 1
            total = np.zeros((n, self.space.d, self.space.d), dtype=complex)
            for coeff, m in self.parts:
                total += complex(coeff) * m.eval_batch(args)
            return total
        raise AssertionError(self.kind)

    @property
    def profile(self):
        """``(arity,)``: a map compares as a one-letter word (``multimap_dev``)."""
        return (self.arity,)

    def eval(self, *args) -> np.ndarray:
        batch = [np.asarray(a, dtype=complex)[None, :, :] for a in args]
        return self.eval_batch(batch)[0]

    def tensor(self):
        """The structure tensor: values on every tuple of elementary matrices,
        shape (D**arity, d, d) with D = d*d, tuples ordered as in
        ``elementary_batch``.  None when D**arity > EXACT_BASIS_LIMIT.

        Leaves and linear combinations keep their tensor once built, and a
        linear combination that holds one evaluates probe batches from it.
        Compositions rebuild theirs from their parts on each call, one
        matrix product per composed slot, so the many short-lived
        compositions of a lattice sum hold no memory.
        """
        d = self.space.d
        n_tuples = (d * d) ** self.arity
        if n_tuples > EXACT_BASIS_LIMIT:
            return None
        if self._tensor is not None:
            return self._tensor
        if self.kind == "compose":
            return _compose_tensor(self)
        if self.kind == "id":
            t = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        elif self.kind == "gen":
            t = self.build()
        else:
            t = np.zeros((n_tuples, d, d), dtype=complex)
            for coeff, m in self.parts:
                t += complex(coeff) * m.tensor()
        self._tensor = t
        return t

    def __repr__(self):
        return "MultiMap(%s, arity=%d)" % (self.kind, self.arity)


def _contract(t: np.ndarray, args) -> np.ndarray:
    """Values of the map with structure tensor ``t`` on a batch: a d x d
    argument's entries, read row-major, are its coordinates in the elementary
    basis.  The coordinates of the first k slots are multiplied out row by
    row, k the fewest slots with D**k >= the batch's rows (D = d*d), or all
    of them; that block is contracted with ``t`` in one matrix product, then
    each remaining slot in one ``einsum``.  Rows go D**k at a time, so no
    contraction's output outgrows ``t``."""
    d = t.shape[-1]
    n_mats = d * d
    if not args:
        return t.copy()
    n = args[0].shape[0]
    coords = [a.reshape(n, n_mats) for a in args]
    k, width = 1, n_mats
    while width < n and k < len(coords):
        k, width = k + 1, width * n_mats
    head = t.reshape(width, -1)
    out = np.empty((n, d, d), dtype=complex)
    for lo in range(0, n, width):
        rows = slice(lo, lo + width)
        block = coords[0][rows]
        for c in coords[1:k]:
            block = (block[:, :, None] * c[rows, None, :]).reshape(len(block), -1)
        acc = block @ head
        for c in coords[k:]:
            acc = np.einsum("ne,ner->nr", c[rows], acc.reshape(len(acc), n_mats, -1))
        out[rows] = acc.reshape(-1, d, d)
    return out


def _compose_tensor(node: MultiMap) -> np.ndarray:
    """Contract the outer map's tensor with each inner map's tensor, one
    batched matrix product per slot; identity slots are skipped.  Each
    product's output is C-contiguous, so the next slot's reshape is a view."""
    alpha, betas = node.parts[0], node.parts[1:]
    d = node.space.d
    n_mats = d * d
    out = alpha.tensor()
    done = 1
    for beta in betas:
        width = n_mats ** beta.arity
        if beta.kind != "id":
            inner = beta.tensor().reshape(width, n_mats)
            out = inner @ out.reshape(done, n_mats, -1)
        done *= width
    return out.reshape(done, d, d)


def moment_map(space, var_indices) -> MultiMap:
    """(b_0, ..., b_n) -> E(b_0 a_{v_1} b_1 ... a_{v_n} b_n).

    With no variables this is the identity on B.  On elementary matrices
    b_m = e_{i_m j_m} the value is e_{i_0 j_n} times
    tr(A_1[j_0, i_1] ... A_n[j_{n-1}, i_n]) / k, where A[p, q] is the
    (p, q) k x k block of a variable.
    """
    var_indices = _checked_colors(var_indices, len(var_indices)) or ()
    mats = [space.variable(v) for v in var_indices]
    d, k = space.d, space.k

    def fn(args):
        acc = space.embed(args[0])
        for mat, b in zip(mats, args[1:]):
            acc = acc @ mat @ space.embed(b)
        return space.cond_expect(acc)

    def build():
        chain = np.eye(k, dtype=complex)
        for mat in mats:
            blocks = mat.reshape(d, k, d, k).transpose(0, 2, 1, 3)
            chain = np.einsum("...ab,jibc->...jiac", chain, blocks)
        traces = np.einsum("...aa->...", chain).reshape(-1) / k
        eye = np.eye(d)
        return np.einsum("ar,m,bs->ambrs", eye, traces, eye).reshape(-1, d, d)

    return MultiMap(space, len(var_indices) + 1, "gen", fn=fn, build=build)


def sandwich_map(space, mats) -> MultiMap:
    """(b_1, ..., b_n) -> A_0 b_1 A_1 ... b_n A_n for fixed d x d matrices.

    On elementary matrices b_m = e_{i_m j_m} entry (r, s) of the value is
    A_0[r, i_1] A_1[j_1, i_2] ... A_n[j_n, s].
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    d = space.d

    def fn(args):
        if not args:
            return mats[0][None].copy()
        acc = mats[0] @ args[0] @ mats[1]
        for mat, b in zip(mats[2:], args[1:]):
            acc = acc @ b @ mat
        return acc

    def build():
        chain = mats[0]
        for mat in mats[1:]:
            chain = np.einsum("...i,jc->...ijc", chain, mat)
        return np.ascontiguousarray(chain.reshape(d, -1, d).transpose(1, 0, 2))

    return MultiMap(space, len(mats) - 1, "gen", fn=fn, build=build)


def random_multimap(space, arity, rng) -> MultiMap:
    return sandwich_map(space, [random_matrix(rng, space.d) for _ in range(arity + 1)])


def multimap_compose(alpha: MultiMap, betas) -> MultiMap:
    """Operadic composition: feed grouped arguments through the betas, then
    through alpha.  Composing with identities in every slot returns alpha."""
    betas = tuple(betas)
    if len(betas) != alpha.arity:
        raise DimensionMismatch(
            "expected %d inner maps, got %d" % (alpha.arity, len(betas))
        )
    if any(b.space is not alpha.space for b in betas):
        raise DimensionMismatch("maps live over different spaces")
    if all(b.kind == "id" for b in betas):
        return alpha
    if alpha.kind == "id":
        return betas[0]
    arity = sum(b.arity for b in betas)
    return MultiMap(alpha.space, arity, "compose", parts=(alpha,) + betas)


def multimap_partial(alpha: MultiMap, slot: int, beta: MultiMap) -> MultiMap:
    """Insert ``beta`` into input ``slot`` of ``alpha`` (1-based)."""
    if not 1 <= slot <= alpha.arity:
        raise DimensionMismatch("slot %d out of range 1..%d" % (slot, alpha.arity))
    betas = [alpha.space.identity] * alpha.arity
    betas[slot - 1] = beta
    return multimap_compose(alpha, betas)


def multimap_lincomb(space, arity, terms) -> MultiMap:
    """Pointwise linear combination; flattens nested combinations."""
    flat = []
    for coeff, m in terms:
        if m.arity != arity:
            raise DimensionMismatch("arity mismatch in linear combination")
        if m.space is not space:
            raise DimensionMismatch("maps live over different spaces")
        if complex(coeff) == 0:
            continue
        if m.kind == "lincomb":
            flat.extend((complex(coeff) * complex(c2), m2) for c2, m2 in m.parts)
        else:
            flat.append((complex(coeff), m))
    return MultiMap(space, arity, "lincomb", parts=tuple(flat))


# ---------------------------------------------------------------------------
# Probe batches and numeric equality


def elementary_batch(d: int, arity: int):
    """One batch per slot covering every tuple of elementary matrices."""
    n_mats = d * d
    total = n_mats ** arity
    elems = np.zeros((n_mats, d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            elems[a * d + b, a, b] = 1.0
    codes = np.arange(total)
    batches = []
    for slot in range(arity):
        idx = (codes // (n_mats ** (arity - 1 - slot))) % n_mats
        batches.append(elems[idx])
    return batches


_PROBE_DRAWS = {}  # (d, n_probes, seed) -> the longest draw so far
_MAX_PROBE_DRAWS = 64


def probe_batch(d: int, arity: int, n_probes: int = N_PROBES, seed: int = _PROBE_SEED):
    """``arity`` read-only (n_probes, d, d) arrays of seeded complex normal
    probes.  The slots are drawn in order from one generator, so a draw
    holds every shorter draw of its key as its first slots; each key's
    longest draw is kept and its first ``arity`` arrays returned."""
    key = (d, n_probes, seed)
    draw = _PROBE_DRAWS.get(key, ())
    if len(draw) < arity:
        rng = np.random.default_rng(seed)
        draw = []
        for _ in range(arity):
            a = rng.standard_normal((n_probes, d, d)) + 1j * rng.standard_normal((n_probes, d, d))
            a /= np.sqrt(2)
            a.flags.writeable = False
            draw.append(a)
        if key not in _PROBE_DRAWS and len(_PROBE_DRAWS) >= _MAX_PROBE_DRAWS:
            del _PROBE_DRAWS[next(iter(_PROBE_DRAWS))]
        _PROBE_DRAWS[key] = draw
    return list(draw[:arity])


def deviation(x, y) -> float:
    """Relative max deviation with an absolute floor of 1e-12.  A value
    that is not finite on either side makes it infinite, so that no
    maximum over deviations drops it and no comparison passes."""
    diff = float(np.max(np.abs(x - y))) if np.size(x) else 0.0
    # np.max propagates NaN, so each side's peak is finite only when all
    # of its values are
    peaks = [float(np.max(np.abs(v))) if np.size(v) else 0.0 for v in (x, y)]
    if not all(map(math.isfinite, peaks)):
        return math.inf
    if diff <= ABS_FLOOR:
        return 0.0
    return diff / max(peaks + [1.0])


def basis_values(values, seed: int = _PROBE_SEED):
    """``values``, maps or sums of words of maps of one type and profile,
    read on one basis, and the basis's name: their structure tensors and
    "elementary" where their type's ``tensor()`` has one, else their values
    on one probe batch of ``seed`` over their inputs and "probes"."""
    tensors = [f.tensor() for f in values]
    if tensors[0] is not None:
        return tensors, "elementary"
    args = probe_batch(values[0].space.d, sum(values[0].profile), seed=seed)
    return [f.eval_batch(args) for f in values], "probes"


def multimap_dev(f, g) -> float:
    """Max relative deviation of two values of one type and one profile:
    two maps, or two sums of words of maps (``morphisms.WordSum``), read
    by ``basis_values``: over every elementary tuple where the type's
    ``tensor()`` has one, otherwise on the probe batch of ``_PROBE_SEED``."""
    if type(f) is not type(g) or f.profile != g.profile:
        raise DimensionMismatch("%s %r vs %s %r" % (
            type(f).__name__, f.profile, type(g).__name__, g.profile))
    (x, y), _ = basis_values((f, g))
    return deviation(x, y)


def exchange_dev(gen, words) -> float:
    """Largest deviation from the slot-exchange relation over all pairs
    (u, v) of ``words``: gen(u) with gen(v) in its last slot against gen(v)
    with gen(u) in its first slot.  ``gen`` maps a variable word to a map
    of arity len(word) + 1."""
    maps = [gen(w) for w in words]
    return max(
        multimap_dev(multimap_partial(gu, gu.arity, gv), multimap_partial(gv, 1, gu))
        for gu in maps
        for gv in maps
    )

