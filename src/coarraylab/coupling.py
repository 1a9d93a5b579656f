"""Banded Toeplitz mutual-coupling model and coupling-leakage metric.

The model is the B-banded symmetric Toeplitz one of Liu and Vaidyanathan
("Super Nested Arrays, Part I", IEEE TSP 64(15), 2016): c_0 = 1,
c_1 = ``C1`` = 0.3*exp(1j*pi/3), and c_l = C1 * exp(-1j*(l-1)*pi/8) / l
for 2 <= l <= ``BAND`` = 100; separations beyond the band do not couple.
The magnitudes |c_l| = |C1|/l decay strictly.  ``REFERENCE_LEAKAGE``
reproduces only at these values, so they are constants, not parameters:
c_0..c_BAND are built once, at import, into one read-only complex128
table, and every coupling matrix is a band-limited lookup in it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .geometry import position_array

__all__ = ["C1", "BAND", "coupling_matrix", "coupling_leakage", "REFERENCE_LEAKAGE"]

C1 = 0.3 * cmath.exp(1j * math.pi / 3)
BAND = 100

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


_COEFFICIENTS = np.array([1.0, C1] + [C1 * cmath.exp(-1j * (l - 1) * math.pi / 8) / l
                                      for l in range(2, BAND + 1)])
_COEFFICIENTS.flags.writeable = False


def coupling_matrix(source) -> np.ndarray:
    """N x N complex128 coupling matrix: entry (i, j) is c_{|p_i - p_j|}, 0 past the band."""
    p = position_array(source)
    sep = np.abs(p[:, None] - p[None, :])
    band = len(_COEFFICIENTS) - 1
    return np.where(sep <= band, _COEFFICIENTS[np.minimum(sep, band)], 0)


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
