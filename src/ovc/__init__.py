"""Non-crossing partition operads, unshuffle Hopf structure on partition
words, and numeric verification of operator-valued moment-cumulant
relations on block-matrix probability spaces."""

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
from .formal import FormalSum, PartitionWord, coproduct, delta_prec, delta_succ
from .ovps import OVMatrixSpace, MultiMap, moment_map, multimap_eq
from .cumulants import cumulant_families, e_pi, verify_mc
from .morphisms import convolve, exp_prec, exp_star, exp_succ, half_prec, half_succ, log_star
from .winsert import LetterWord, WWord, split, word_insert

__version__ = "0.1.0"

__all__ = [
    "EMPTY",
    "FormalSum",
    "LetterWord",
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
    "e_pi",
    "enumerate_interval",
    "enumerate_nc",
    "exp_prec",
    "exp_star",
    "exp_succ",
    "full_partition",
    "gap_insert",
    "half_prec",
    "half_succ",
    "log_star",
    "moment_map",
    "multimap_eq",
    "partial_insert",
    "split",
    "verify_mc",
    "word_insert",
]
