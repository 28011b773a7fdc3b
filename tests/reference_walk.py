"""Reference evaluation of a MultiMap that ignores every cached tensor.

``walk_eval`` walks the evaluation DAG the way ``MultiMap.eval_batch`` did
before linear combinations contracted their held structure tensors: the
identity returns its argument, a leaf calls its ``fn``, a composition feeds
grouped arguments through its inner maps and a linear combination sums its
parts.  Tests compare ``eval_batch`` against it.
"""

import numpy as np


def walk_eval(m, args):
    if len(args) != m.arity:
        raise ValueError("%r expects %d arguments, got %d" % (m, m.arity, len(args)))
    if m.kind == "id":
        return args[0]
    if m.kind == "gen":
        return m.fn(args)
    if m.kind == "compose":
        alpha, betas = m.parts[0], m.parts[1:]
        fed, pos = [], 0
        for beta in betas:
            fed.append(walk_eval(beta, args[pos : pos + beta.arity]))
            pos += beta.arity
        return walk_eval(alpha, fed)
    if m.kind == "lincomb":
        n = args[0].shape[0] if args else 1
        total = np.zeros((n, m.space.d, m.space.d), dtype=complex)
        for coeff, part in m.parts:
            total += complex(coeff) * walk_eval(part, args)
        return total
    raise ValueError("unknown node kind %r" % (m.kind,))
