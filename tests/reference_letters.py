"""Reference insertion, cuts and splitting map of letter words.

``winsert`` keeps a letter word as its finest coloring and reads its
insertion and cuts off ``ncpart``.  ``interleave`` and ``subset_cuts`` are
the direct definitions on plain color tuples, which tests compare with
that route.  ``split_by_letters`` is the splitting map as a product of
per-letter sums, which tests compare with ``winsert.split``'s single pass.
"""

from ovc import formal
from ovc.formal import FormalSum
from ovc.ncpart import NCPartition, enumerate_nc


def interleave(host, args):
    """Argument i fills the gap before letter i of ``host``; the last
    argument follows its last letter."""
    out = []
    for letter, arg in zip(host, args):
        out.extend(arg)
        out.append(letter)
    out.extend(args[-1])
    return tuple(out)


def subset_cuts(colors):
    """Every subset of positions kept below, as (lower, uppers, mask)
    triples ordered by mask: bit i of the mask keeps position i + 1, the
    lower word reads the kept letters and gap g's upper word the letters
    between kept positions g and g + 1."""
    p = len(colors)
    out = []
    for mask in range(1 << p):
        kept = [i for i in range(p) if mask >> i & 1]
        bounds = [-1] + kept + [p]
        uppers = tuple(
            tuple(colors[bounds[g] + 1 : bounds[g + 1]]) for g in range(len(kept) + 1)
        )
        out.append((tuple(colors[i] for i in kept), uppers, mask))
    return out


def split_by_letters(w):
    """The splitting map letter by letter: each letter's sum of the
    non-crossing partitions of its positions, colored by the letter, and
    the word's value the ``formal.hconcat`` product of its letters' sums;
    a sum is split term by term."""
    out = FormalSum()
    for basis, c in FormalSum.lift(w).terms.items():
        term = formal.single(formal.ONE, c)
        for x in basis.letters:
            colorings = FormalSum(
                [(formal.word(NCPartition(pi.blocks, colors=x.colors)), 1)
                 for pi in enumerate_nc(x.size)]
            )
            term = formal.hconcat(term, colorings)
        out = out + term
    return out
