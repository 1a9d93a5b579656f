"""Banded Toeplitz mutual-coupling model and coupling-leakage metric."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import SensorArray

__all__ = ["CouplingModel", "coupling_matrix", "coupling_leakage", "REFERENCE_LEAKAGE"]

# Published reference leakage rows (N -> tabulated split and leakage),
# kept verbatim.  Rows 9, 10, 11, 21 and 23 reproduce, to 1e-4, from the
# optimizer's split at each N, which for several rows differs from the
# split printed beside them; both splits are kept so tables can report
# the discrepancy.  The 19-sensor row prints the optimizer's split
# (9, 5, 5), whose leakage is 0.2210, and no 19-sensor split or CNA block
# gives 0.2018: that value is not reproduced.
REFERENCE_LEAKAGE = {
    9: ((4, 2, 3), 0.2347),
    10: ((4, 3, 3), 0.2236),
    11: ((5, 3, 3), 0.2137),
    19: ((9, 5, 5), 0.2018),
    21: ((9, 6, 6), 0.2139),
    23: ((12, 5, 6), 0.2077),
}


@dataclass(frozen=True)
class CouplingModel:
    """B-banded symmetric Toeplitz coupling coefficients over sensor separations.

    c_0 = 1, c_1 = ``c1``, and c_l = c1 * exp(-1j*(l-1)*pi/8) / l for
    2 <= l <= band; separations beyond the band do not couple.  The
    magnitudes |c_l| = |c1|/l decay strictly, as the model requires.
    """

    c1: complex = 0.3 * cmath.exp(1j * math.pi / 3)
    band: int = 100

    def __post_init__(self):
        if abs(self.c1) >= 1.0:
            raise ValueError(f"|c1| must be < 1, got {abs(self.c1):.3f}")
        if self.band < 0:
            raise ValueError(f"band must be non-negative, got {self.band}")

    def coefficient(self, separation: int) -> complex:
        if separation < 0:
            raise ValueError("separation is a non-negative integer")
        if separation == 0:
            return 1.0
        if separation > self.band:
            return 0.0
        if separation == 1:
            return self.c1
        return self.c1 * cmath.exp(-1j * (separation - 1) * math.pi / 8) / separation

    def coefficients(self, upto: int) -> np.ndarray:
        """Vector [c_0, c_1, ..., c_upto] with the band cutoff applied.

        Only c_0..c_min(upto, band) are evaluated; separations past the
        band are zero-filled, not evaluated, in the dtype of the evaluated
        head (float64 when no complex coefficient is in it).
        """
        head = np.array([self.coefficient(l) for l in range(min(upto, self.band) + 1)])
        return np.concatenate([head, np.zeros(max(upto - self.band, 0), dtype=head.dtype)])


def coupling_matrix(source, model: CouplingModel = CouplingModel()) -> np.ndarray:
    """N x N coupling matrix: entry (i, j) is c_{|p_i - p_j|}."""
    positions = source.positions if isinstance(source, SensorArray) else tuple(source)
    p = np.asarray(positions, dtype=np.int64)
    sep = np.abs(p[:, None] - p[None, :])
    coeffs = model.coefficients(int(sep.max()))
    return coeffs[sep]


def coupling_leakage(c: np.ndarray) -> float:
    """Off-diagonal to total Frobenius energy ratio, in [0, 1)."""
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"coupling matrix must be square, got shape {c.shape}")
    total = np.linalg.norm(c)
    if total == 0.0:
        raise ValueError("leakage undefined for the zero matrix")
    off = c - np.diag(np.diag(c))
    return float(np.linalg.norm(off) / total)
