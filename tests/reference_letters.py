"""Reference insertion and cuts of letter words, on tuples of variable
indices.

``winsert`` keeps a letter word as its finest coloring and reads its
insertion and cuts off ``ncpart``.  These are the direct definitions on
plain color tuples, which tests compare with that route.
"""


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
