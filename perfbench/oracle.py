"""Independent reference for operator-valued free cumulants.

The `cumulant-probes` workload asks `ovc` for a free cumulant evaluated on
seeded probe tuples.  The program builds it by subtracting nested partition
evaluations from the moment map.  This module computes the same values by a
different route, Speicher's first-block recursion

    E(b0 a b1 ... a bn) = sum over first blocks {1 = i1 < ... < is}
                          kappa_s(b0, M_1, ..., M_{s-1}, R)

where M_j is the moment of the stretch between i_j and i_{j+1} and R the
moment of the stretch after i_s.  Lower cumulants are held as structure
tensors (their values on elementary tuples), so every step is a dense
contraction and no partition enumeration is shared with the program.
"""

from __future__ import annotations

import itertools

import numpy as np


class FreeCumulantOracle:
    """Free cumulants of one variable ``a`` in the block-trace model of
    ``ovc``: A = (d*k) x (d*k) matrices, b -> b (x) I_k, E the normalized
    trace of each k x k block."""

    def __init__(self, a, d, k):
        self.a = np.asarray(a, dtype=complex)
        self.d, self.k = d, k
        self._eye_k = np.eye(k)
        self._tensors = {}

    def _embed(self, b):
        n = b.shape[0]
        out = np.einsum("nij,ab->niajb", b, self._eye_k)
        return out.reshape(n, self.d * self.k, self.d * self.k)

    def _expect(self, x):
        n = x.shape[0]
        blocks = x.reshape(n, self.d, self.k, self.d, self.k)
        return np.einsum("niaja->nij", blocks) / self.k

    def _inner_moment(self, xs, n):
        """E(a x_1 a ... x_{g-1} a) for g = len(xs) + 1, batched over n."""
        acc = np.broadcast_to(self.a, (n,) + self.a.shape)
        for x in xs:
            acc = acc @ self._embed(x) @ self.a
        return self._expect(acc)

    def _moment(self, xs, n):
        """E(x_0 a x_1 ... a x_g); the empty stretch is x_0 itself."""
        if len(xs) == 1:
            return xs[0]
        return xs[0] @ self._inner_moment(xs[1:-1], n) @ xs[-1]

    def _contract(self, tensor, ys, n):
        out = np.broadcast_to(tensor, (n,) + tensor.shape)
        for y in ys:
            out = np.einsum("ne...,ne->n...", out, y.reshape(n, -1))
        return out

    def _tensor(self, s):
        """Values of the inner cumulant K_s on all elementary tuples."""
        if s not in self._tensors:
            dd = self.d * self.d
            elems = np.zeros((dd, self.d, self.d), dtype=complex)
            for p, q in itertools.product(range(self.d), repeat=2):
                elems[p * self.d + q, p, q] = 1.0
            codes = np.array(list(itertools.product(range(dd), repeat=s - 1)), dtype=int)
            n = max(len(codes), 1)
            xs = [elems[codes[:, j]] for j in range(s - 1)]
            values = self._inner_cumulant(s, xs, n)
            self._tensors[s] = values.reshape((dd,) * (s - 1) + (self.d, self.d))
        return self._tensors[s]

    def _inner_cumulant(self, n_vars, xs, n):
        """K_n with kappa_n(b0, x_1, ..., x_{n-1}, bn) = b0 K_n(x) bn."""
        ones = np.broadcast_to(np.eye(self.d, dtype=complex), (n, self.d, self.d))
        full = list(xs) + [ones]
        total = self._inner_moment(xs, n)
        for inner in range(n_vars - 1):
            for rest in itertools.combinations(range(2, n_vars + 1), inner):
                pos = (1,) + rest
                ys = [
                    self._moment(full[pos[j] - 1 : pos[j + 1] - 1], n)
                    for j in range(len(pos) - 1)
                ]
                right = self._moment(full[pos[-1] - 1 :], n)
                total = total - self._contract(self._tensor(len(pos)), ys, n) @ right
        return total

    def free_cumulant(self, args):
        """kappa_n(b_0, ..., b_n) on a batch: ``args`` holds n + 1 arrays of
        shape (N, d, d)."""
        args = [np.asarray(b, dtype=complex) for b in args]
        n = args[0].shape[0]
        inner = self._inner_cumulant(len(args) - 1, args[1:-1], n)
        return args[0] @ inner @ args[-1]
