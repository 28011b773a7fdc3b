"""Non-crossing partition operads, unshuffle Hopf structure on partition
words, and numeric verification of operator-valued moment-cumulant
relations on block-matrix probability spaces."""

import importlib

from .ncpart import (
    EMPTY,
    NCPartition,
    cuts,
    enumerate_interval,
    enumerate_nc,
    full_partition,
    gap_insert,
    partial_insert,
)

__version__ = "0.1.0"

# These names are imported on first access (PEP 562).  The numeric layer
# needs numpy, which the exact layer does not; ``winsert`` is exact, but
# only the numeric suites read letter words; and ``cumulants`` and
# ``enumerate`` read no formal sum.  So a run of the exact suites neither
# loads numpy nor compiles ``winsert``, and the probe path compiles no
# ``formal``.
_LAZY = {
    name: module
    for module, names in (
        ("formal", ("FormalSum", "PartitionWord", "coproduct", "delta_prec", "delta_succ")),
        ("ovps", ("OVMatrixSpace", "MultiMap", "moment_map")),
        ("cumulants", ("cumulant_families", "verify_mc")),
        ("morphisms", ("convolve", "exp_prec", "exp_star", "exp_succ", "half_prec",
                       "half_succ", "log_star")),
        ("winsert", ("WWord", "letter_word", "split")),
    )
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


__all__ = [
    "EMPTY",
    "FormalSum",
    "MultiMap",
    "NCPartition",
    "OVMatrixSpace",
    "PartitionWord",
    "WWord",
    "convolve",
    "coproduct",
    "cumulant_families",
    "cuts",
    "delta_prec",
    "delta_succ",
    "enumerate_interval",
    "enumerate_nc",
    "exp_prec",
    "exp_star",
    "exp_succ",
    "full_partition",
    "gap_insert",
    "half_prec",
    "half_succ",
    "letter_word",
    "log_star",
    "moment_map",
    "partial_insert",
    "split",
    "verify_mc",
]
