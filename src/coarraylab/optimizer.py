"""Exhaustive sensor-allocation search for the three-subarray geometry.

For a total sensor budget N, the search sweeps the subarray-1 size N1,
fills N2/N3 with the closed-form tail allocation, and scores each split
with the hole-free consecutive-lag count.  The DOF surface in N1 is
cubic-like with multiple local extrema, hence the exhaustive sweep.
Every count is an integer read through ``operator.index`` (a non-integer
raises ``TypeError``), and every rule is integer arithmetic.

The tail allocation is the published rule, not the argmax over (N2, N3):
over N = 4..60 the search misses the exact argmax of ``FognaParams.dof``
over all splits at 30 of the 57 values of N (pinned in the tests), e.g.
(4, 2, 1) with DOF 157 where (4, 1, 2) reaches 171 at N = 7.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .geometry import FognaParams

__all__ = [
    "OptimizerResult",
    "tail_allocation",
    "optimize",
    "dof_quadratic",
    "dof_bound_ratio",
]


@dataclass(frozen=True)
class OptimizerResult:
    best_params: FognaParams
    trace: Tuple[FognaParams, ...]

    @property
    def dof_star(self) -> int:
        return self.best_params.dof


def tail_allocation(n: int, n1: int) -> Tuple[int, int]:
    """Allocate the remaining r = n - n1 sensors to subarrays 2 and 3.

    The printed rule N2 = ceil((2r-1)/4), N3 = floor((2r+1)/4) is
    N2 = ceil(r/2), N3 = floor(r/2) for every integer r.  N3 lands within
    one of the real maximizer of the per-N1 DOF quadratic; see
    dof_quadratic for the exact objective.
    """
    rest = operator.index(n) - operator.index(n1)
    n3 = rest // 2
    return rest - n3, n3


def optimize(n: int) -> OptimizerResult:
    """Search N1 = 2..N-2 for the split maximizing the consecutive-lag count.

    Returns the argmax split (``max`` keeps the first, so ties go to the
    smallest N1, keeping the dense subarray minimal) together with the
    full trace: the ``FognaParams`` of every split searched, each scored
    by its ``dof``.  N - N1 >= 2 leaves N2, N3 >= 1 for every N1 searched.
    """
    if n < 4:
        raise ValueError(f"need at least 4 sensors (N1>=2, N2>=1, N3>=1), got {n}")
    # a list first: a tuple grown from a generator left the design_survey
    # benchmark's process about 2 MB larger after 30 s (heap layout, not data)
    trace = [FognaParams.from_split(n1, *tail_allocation(n, n1)) for n1 in range(2, n - 1)]
    return OptimizerResult(max(trace, key=operator.attrgetter("dof")), tuple(trace))


def dof_quadratic(n: int, n1: int, n3: int) -> int:
    """DOF as the quadratic in N3 at fixed N1 (with N2 = n - n1 - n3 implied).

    f(N3) = 2[-2*N3^2*(2E1+1) + (4E1 + 2(n-n1)(2E1+1) - (2E1+1))*N3
            + 2E1 + (n-n1)(2E1+1)] + 1
    """
    e1 = FognaParams.from_split(n1, 1, 1).e1
    a = 2 * e1 + 1
    rest = operator.index(n) - operator.index(n1)
    n3 = operator.index(n3)
    return 2 * (-2 * n3 * n3 * a + (4 * e1 + 2 * rest * a - a) * n3 + 2 * e1 + rest * a) + 1


def dof_bound_ratio(n: int) -> Fraction:
    """Ratio of the optimized DOF to the N^4/2 upper bound (N multiple of 4).

    The bound holds for every feasible design; the ratio is returned
    exactly as a Fraction in (0, 1].
    """
    if n % 4 != 0 or n < 8:
        raise ValueError(f"bound is stated for N >= 8 with N % 4 == 0, got {n}")
    return Fraction(optimize(n).dof_star, n**4 // 2)
