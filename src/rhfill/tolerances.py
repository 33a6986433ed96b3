"""Central numeric tolerances.

The floating-point thresholds behind the line, automaton and convergence
verdicts live in one fixed record, ``DEFAULT_TOLS``, which those modules
read directly; there is no per-call override.  None decides whether a
matrix is invertible or what kind it is: ``flags`` decides both exactly.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # containment margin of a set-system edge within which the exact arc
    # test is inconclusive
    transversality: float = 1e-9
    # dedup resolution for limit-set clouds (sine metric on lines)
    dedup: float = 1e-6
    # sigma_1/sigma_2 must exceed this for a well-defined attracting line
    gap_threshold: float = 1.0 + 1e-6
    # sliding window length for divergence verdicts on a sequence tail
    tail_window: int = 5
    # declared filling kernels must map this close to the identity
    kernel: float = 1e-10


DEFAULT_TOLS = Tolerances()
