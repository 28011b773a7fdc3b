"""Reference evaluation of a partition that collapses the rightmost
interval block first.

``cumulants.e_pi_map`` always collapses the leftmost interval block.  The
result must not depend on that choice, so tests compare it with
``rightmost_collapse``, which makes the other extreme choice at every step.
"""

from ovc.cumulants import partition_colors
from ovc.ncpart import restrict
from ovc.ovps import multimap_partial


def interval_blocks(pi):
    """The blocks of ``pi`` that occupy a contiguous run of positions."""
    return [b for b in pi.blocks if b[-1] - b[0] + 1 == len(b)]


def rightmost_collapse(pi, family):
    if pi.size == 0:
        return family.space.identity
    block = interval_blocks(pi)[-1]
    k, l = block[0], block[-1]
    gen = family.generator(partition_colors(pi)[k - 1 : l])
    remaining = [x for x in range(1, pi.size + 1) if not k <= x <= l]
    return multimap_partial(rightmost_collapse(restrict(pi, remaining), family), k, gen)
