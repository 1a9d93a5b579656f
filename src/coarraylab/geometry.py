"""Sensor geometry constructors for sparse linear arrays.

All positions are exact integers in units of the base spacing ``d``,
which the steering model fixes at half a wavelength.  Keeping positions
integral makes every downstream co-array computation exact.

The central family here is the three-subarray geometry built from a
concatenated nested array (CNA) plus two wide-spaced ULAs, referred to
throughout as FOGNA.  Closed-form degrees-of-freedom (DOF) evaluators
for competing fourth-order array families are provided alongside, plus
the published reference DOF rows they are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

__all__ = [
    "SensorArray",
    "FognaParams",
    "round_nearest",
    "build_ula",
    "build_cna",
    "build_nested",
    "build_fogna",
    "competitor_dof",
    "published_dof",
    "FAMILIES",
    "REFERENCE_DOF_ROWS",
]


def round_nearest(x: float) -> int:
    """Round to the nearest integer; exact halves round down.

    The CNA aperture is invariant under the tie direction (the aperture
    quadratic is symmetric about the tie point), but the physical layout
    is not: rounding halves down selects the flatter of the two CNA
    layouts, which is the one the reference coupling-leakage rows were
    generated with.
    """
    return math.ceil(x - 0.5)


@dataclass(frozen=True)
class SensorArray:
    """Integer sensor positions (units of d = lambda/2) plus design metadata.

    Parameters
    ----------
    positions : tuple of int
        Strictly increasing, non-negative, first element 0.
    split : tuple (N1, N2, N3), optional
        Subarray sensor counts when the array is a FOGNA.
    """

    positions: Tuple[int, ...]
    split: Optional[Tuple[int, int, int]] = None

    def __post_init__(self):
        pos = tuple(int(p) for p in self.positions)
        if len(pos) == 0:
            raise ValueError("array needs at least one sensor")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")
        if pos[0] != 0:
            raise ValueError("positions must start at 0")
        object.__setattr__(self, "positions", pos)

    @property
    def n_sensors(self) -> int:
        return len(self.positions)

    @property
    def aperture(self) -> int:
        return self.positions[-1]


@dataclass(frozen=True)
class FognaParams:
    """Derived design parameters of a FOGNA split (N1, N2, N3).

    M1/M2 are the CNA block sizes, E1/E2 the apertures of subarray 1 and
    of subarray 1+2's virtual extension.  ``from_split`` derives them and
    checks the split; direct construction skips every one of those
    checks, and ``build_fogna`` uses ``e1``/``e2`` as given, even when
    they disagree with the CNA block (M1, M2).  That is how a spacing
    other than the derived one is built on purpose (E1 = 17 for the
    19-sensor split); prefer the factory otherwise.
    """

    n1: int
    n2: int
    n3: int
    m1: int
    m2: int
    e1: int
    e2: int

    @classmethod
    def from_split(cls, n1: int, n2: int, n3: int) -> "FognaParams":
        if n1 < 2:
            raise ValueError(f"subarray 1 needs at least 2 sensors, got N1={n1}")
        if n2 < 1 or n3 < 1:
            raise ValueError(f"subarrays 2 and 3 need at least 1 sensor, got ({n2}, {n3})")
        m1 = round_nearest((n1 - 1) / 4)
        m2 = n1 - 2 * m1
        if m1 < 0 or m2 < 1:
            raise ValueError(f"N1={n1} yields malformed CNA blocks (M1={m1}, M2={m2})")
        e1 = -2 * m1 * m1 + (n1 - 1) * m1 + n1 - 1
        e2 = 2 * e1 + n2 * (2 * e1 + 1)
        return cls(n1, n2, n3, m1, m2, e1, e2)

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    @property
    def dof(self) -> int:
        """Consecutive-lag count guaranteed by the hole-free construction."""
        return 2 * (2 * self.n3 + 1) * (2 * self.e1 + self.n2 * (2 * self.e1 + 1)) + 1


def build_ula(n: int) -> SensorArray:
    """Uniform linear array with n sensors at 0..n-1."""
    if n < 1:
        raise ValueError(f"sensor count must be positive, got {n}")
    return SensorArray(tuple(range(n)))


def _cna_positions(m1: int, m2: int) -> Tuple[int, ...]:
    # Blocks: 1^{m1}, (m1+1)^{m2-1}, 1^{m1} spacings.  m1 = 0 degenerates
    # to a plain ULA of m2 sensors (outer blocks empty).
    left = range(0, m1)
    mid_last = m1 + (m1 + 1) * (m2 - 1)
    middle = range(m1, mid_last + 1, m1 + 1)
    right = range(mid_last + 1, 2 * m1 + (m1 + 1) * (m2 - 1) + 1)
    return tuple(sorted(set(left) | set(middle) | set(right)))


def build_cna(m1: int, m2: int) -> SensorArray:
    """Concatenated nested array with spacing pattern 1^M1, (M1+1)^(M2-1), 1^M1.

    Contains 2*M1 + M2 sensors with aperture 2*M1 + (M1+1)*(M2-1); its
    sum co-array covers that aperture's range without holes.
    """
    if m1 < 1 or m2 < 1:
        raise ValueError(f"CNA block sizes must be positive, got ({m1}, {m2})")
    return SensorArray(_cna_positions(m1, m2))


def build_nested(n1: int, n2: int) -> SensorArray:
    """Two-level nested array: {0..n1-1} plus {k*(n1+1)-1 : k=1..n2}."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"level sizes must be positive, got ({n1}, {n2})")
    dense = set(range(n1))
    sparse = {k * (n1 + 1) - 1 for k in range(1, n2 + 1)}
    return SensorArray(tuple(sorted(dense | sparse)))


def build_fogna(params) -> SensorArray:
    """Build the three-subarray FOGNA geometry from a split or FognaParams.

    Subarray 1 is a CNA (M1, M2) at the origin; subarray 2 is a ULA of
    N2 sensors starting at 4*E1+1 with step 2*E1+1; subarray 3 is a ULA
    of N3 sensors at multiples of 2*E2.

    Parameters
    ----------
    params : FognaParams or (n1, n2, n3) sequence
    """
    if not isinstance(params, FognaParams):
        params = FognaParams.from_split(*params)
    s1 = set(_cna_positions(params.m1, params.m2))
    step2 = 2 * params.e1 + 1
    s2 = set(range(4 * params.e1 + 1, params.e2 + 1, step2))
    s3 = set(range(2 * params.e2, 2 * params.n3 * params.e2 + 1, 2 * params.e2))
    if s1 & s2 or s1 & s3 or s2 & s3:
        raise AssertionError("FOGNA subarrays must be pairwise disjoint")
    positions = tuple(sorted(s1 | s2 | s3))
    if len(positions) != params.n:
        raise AssertionError("FOGNA sensor count mismatch")
    return SensorArray(positions, split=(params.n1, params.n2, params.n3))


FAMILIES = ("FL_NA", "SE_FL_NA", "FO_FRACTAL_NA", "SD_FODC_NA", "FOGNA")

_ARITY = {"FL_NA": 4, "SE_FL_NA": 4, "FO_FRACTAL_NA": 2, "SD_FODC_NA": 4, "FOGNA": 3}

# Published comparison rows: N -> family -> (split, DOF).  Kept verbatim
# for table reproduction; see competitor_dof for which of these the
# closed forms actually reproduce.
REFERENCE_DOF_ROWS = {
    9: {
        "FL_NA": ((3, 3, 3, 3), 217),
        "SE_FL_NA": ((3, 3, 3, 2), 253),
        "FO_FRACTAL_NA": ((5, 5), 307),
        "SD_FODC_NA": ((4, 5), 317),
        "FOGNA": ((5, 2, 2), 381),
    },
    11: {
        "FL_NA": ((4, 4, 3, 3), 385),
        "SE_FL_NA": ((4, 3, 3, 3), 481),
        "FO_FRACTAL_NA": ((6, 6), 553),
        "SD_FODC_NA": ((6, 5), 597),
        "FOGNA": ((5, 3, 3), 715),
    },
    19: {
        "FL_NA": ((6, 6, 5, 5), 2161),
        "SE_FL_NA": ((6, 5, 5, 5), 3121),
        "FO_FRACTAL_NA": ((10, 10), 3541),
        "SD_FODC_NA": ((10, 9), 3775),
        "FOGNA": ((9, 5, 5), 4599),
    },
}


def published_dof(family: str, n_sensors: int) -> Tuple[Tuple[int, ...], int]:
    """Return the published (split, DOF) row for a family and sensor count.

    Rows are returned verbatim, misprints included.  The 19-sensor FOGNA
    row prints DOF 4599, which is the FOGNA expression evaluated with a
    subarray-1 aperture E1 = 17.  No 9-sensor CNA reaches that aperture
    (the largest is 16, at (M1, M2) = (2, 5)), and the closed form of the
    printed split (9, 5, 5) is 4335.
    """
    family = family.upper().replace("-", "_")
    try:
        return REFERENCE_DOF_ROWS[n_sensors][family]
    except KeyError:
        raise KeyError(f"no published row for {family} with {n_sensors} sensors") from None


def competitor_dof(family: str, split: Sequence[int], c_t0: int = 1) -> int:
    """Evaluate the published closed-form DOF expression for an array family.

    ``split`` arity per family: FL_NA and SE_FL_NA take the four nesting
    levels, FO_FRACTAL_NA the two seed levels, SD_FODC_NA its four
    construction parameters, FOGNA the (N1, N2, N3) subarray counts.

    Caveats, all inherited from the printed expressions: the SE_FL_NA
    form does not reproduce its own published rows (e.g. it yields 109
    where 253 is tabulated); the FO_FRACTAL_NA form carries the free
    constant ``c_t0`` and only yields an integer for some seeds.  FL_NA
    and FOGNA forms reproduce their rows (FOGNA: up to the known
    19-sensor misprint, see published_dof).
    """
    family = family.upper().replace("-", "_")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    split = tuple(int(x) for x in split)
    if len(split) != _ARITY[family]:
        raise ValueError(f"{family} takes {_ARITY[family]} split parameters, got {len(split)}")

    if family == "FL_NA":
        n1, n2, n3, n4 = split
        return 2 * (n1 * n2 * n3 * n4 + n1 * n2 * n3) + 1
    if family == "SE_FL_NA":
        n1, n2, n3, n4 = split
        return n3 * n4 * (2 * n1 * n2 - 1) + (n4 - 1) * (n1 * n2 - 1) - 1
    if family == "FO_FRACTAL_NA":
        n_seed = split[0]
        n_total = 2 * n_seed - 1
        n_g = Fraction(n_total + 1, 2)
        m_r = Fraction(2, 3) * n_g * n_g - Fraction(2, 3) * n_g + c_t0
        dof = 2 * m_r * m_r - 1
        if dof.denominator != 1:
            raise ValueError(
                f"FO_FRACTAL_NA form is non-integral for seed {n_seed} (got {dof}); "
                "it only closes when the half-count is 0 or 1 mod 3"
            )
        return int(dof)
    if family == "SD_FODC_NA":
        d_m, d_n, mu1, mu2 = split
        val = Fraction((4 * d_m + 2) * d_n) + Fraction((2 * d_m + 1) * (mu2 + 1), 2) + Fraction(mu1 - 1, 2)
        if val.denominator != 1:
            raise ValueError(f"SD_FODC_NA form is non-integral for split {split} (got {val})")
        return int(val)
    # FOGNA
    params = FognaParams.from_split(*split)
    n, n1, n3, e1 = params.n, params.n1, params.n3, params.e1
    return 2 * ((-2 * n3 * n3 - n3) * (2 * e1 + 1) + (2 * e1 + (n - n1) * (2 * e1 + 1)) * (2 * n3 + 1)) + 1
