"""Hypothesis strategies shared by the test modules.

``multimap_trees`` draws random multilinear maps of a given arity: nested
operadic compositions, partial insertions and linear combinations over
moment, sandwich and identity leaves.
"""

import numpy as np
from hypothesis import strategies as st

from ovc.ovps import (
    moment_map,
    multimap_compose,
    multimap_lincomb,
    multimap_partial,
    random_multimap,
)


@st.composite
def multimap_trees(draw, space, arity, depth=3):
    """Random nested compositions, partial insertions and linear
    combinations over moment, sandwich and identity leaves."""
    shape = draw(st.sampled_from(("leaf", "lincomb", "compose", "partial")))
    if depth == 0 or shape == "leaf":
        leaf = draw(st.sampled_from(("id", "moment", "sandwich")))
        if leaf == "id" and arity == 1:
            return space.identity
        if leaf == "moment":
            word = draw(st.lists(st.sampled_from(sorted(space.variables)),
                                 min_size=arity - 1, max_size=arity - 1))
            return moment_map(space, word)
        seed = draw(st.integers(min_value=0, max_value=2**16))
        return random_multimap(space, arity, np.random.default_rng(seed))
    sub = lambda n: multimap_trees(space, n, depth - 1)
    if shape == "lincomb":
        coeffs = draw(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                                  allow_infinity=False),
                               min_size=1, max_size=3))
        return multimap_lincomb(space, arity, [(c, draw(sub(arity))) for c in coeffs])
    if shape == "partial":
        outer = draw(st.integers(min_value=1, max_value=arity))
        slot = draw(st.integers(min_value=1, max_value=outer))
        return multimap_partial(draw(sub(outer)), slot, draw(sub(arity - outer + 1)))
    # split the arity into the inner maps' arities, each at least one
    cuts = []
    if arity > 1:
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=arity - 1))))
    widths = [b - a for a, b in zip([0] + cuts, cuts + [arity])]
    return multimap_compose(draw(sub(len(widths))), [draw(sub(w)) for w in widths])
