"""A fixed amount of work that uses no `ovc` code: the yardstick for how fast
the machine runs while a benchmark run measures.

Usage: python3 perfbench/calibrate.py

It starts Python and imports numpy, as every `ovc` process does.  Then it
adds exact fractions into a dict keyed by tuples, the kind of work `ncpart`
and `formal` do, and multiplies small batches of matrices, the kind of work
`ovps` does.  No change to `ovc` moves its time.
"""

from fractions import Fraction

import numpy as np

sums = {}
for i in range(40000):
    key = (i % 97, i % 89)
    sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 5 + 1)

batch = np.random.default_rng(0).standard_normal((32, 4, 4))
for _ in range(2000):
    batch = np.einsum("bij,bjk->bik", batch, batch)
    batch /= np.abs(batch).max()
