"""Non-crossing partition operads, unshuffle Hopf structure on partition
words, and numeric verification of operator-valued moment-cumulant
relations on block-matrix probability spaces."""

import importlib

__version__ = "0.1.0"

# Each public name and its module, imported on first access (PEP 562), so
# ``import ovc`` loads no submodule: the numeric layer needs numpy, which
# the exact layer does not, only the numeric suites read letter words, and
# the probe path and ``enumerate`` read no formal sum.
_EXPORTS = {
    name: module
    for module, names in (
        ("ncpart", ("EMPTY", "NCPartition", "cuts", "enumerate_interval", "enumerate_nc",
                    "full_partition", "gap_insert", "partial_insert")),
        ("formal", ("FormalSum", "PartitionWord", "coproduct", "delta_prec", "delta_succ")),
        ("ovps", ("OVMatrixSpace", "MultiMap", "moment_map")),
        ("cumulants", ("cumulant_families", "verify_mc")),
        ("morphisms", ("convolve", "exp_prec", "exp_star", "exp_succ", "half_prec",
                       "half_succ", "log_star")),
        ("winsert", ("WWord", "letter_word", "split")),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)
