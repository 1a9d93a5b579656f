"""Exact integer multiset algebra for sum, difference and fourth-order co-arrays.

A co-array is represented as a multiset over integer lags: the map lag ->
multiplicity, where multiplicity counts ordered sensor-index tuples.  The
fourth-order co-arrays use the three conjugation cases with virtual
positions

    case 1:  p1 + p2 + p3 - p4
    case 2:  p1 - p2 + p3 - p4
    case 3: -p1 - p2 - p3 + p4

over all N^4 ordered quadruples, and the extended co-array is their
multiset-sum (3*N^4 entries in total).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set, Tuple

import numpy as np

from .geometry import SensorArray

__all__ = [
    "LagMultiset",
    "SegmentReport",
    "CASE_SIGNS",
    "cross_sum",
    "sum_coarray",
    "diff_coarray",
    "foca",
    "foeca",
    "case_virtual_positions",
    "analyze_segment",
]

CASE_SIGNS = {1: (1, 1, 1, -1), 2: (1, -1, 1, -1), 3: (-1, -1, -1, 1)}


def _positions(source) -> Tuple[int, ...]:
    if isinstance(source, SensorArray):
        return source.positions
    return tuple(int(p) for p in source)


@dataclass(frozen=True)
class LagMultiset:
    """Multiset of integer lags: lag -> multiplicity over ordered tuples."""

    entries: Mapping[int, int]
    case_tag: str

    def __contains__(self, lag: int) -> bool:
        return lag in self.entries

    def multiplicity(self, lag: int) -> int:
        return self.entries.get(lag, 0)

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    @property
    def underlying_set(self) -> Set[int]:
        return set(self.entries)

    def to_json(self) -> str:
        payload = {
            "case": self.case_tag,
            "total": self.total,
            "entries": {str(lag): mult for lag, mult in sorted(self.entries.items())},
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class SegmentReport:
    """Hole structure of a lag multiset around zero.

    ``central_consecutive`` is the maximal zero-centered hole-free range
    [-lc, +lc]; ``holes`` lists every missing lag over the full span.
    """

    full_min: int
    full_max: int
    lc: int
    holes: Tuple[int, ...]

    @property
    def central_consecutive(self) -> Tuple[int, int]:
        return (-self.lc, self.lc)

    @property
    def dof(self) -> int:
        return 2 * self.lc + 1

    def to_json(self) -> str:
        payload = {
            "full_min": self.full_min,
            "full_max": self.full_max,
            "central_consecutive": list(self.central_consecutive),
            "dof": self.dof,
            "holes": list(self.holes),
        }
        return json.dumps(payload, sort_keys=True)


def cross_sum(a: Iterable[int], b: Iterable[int]) -> Set[int]:
    """Set of all pairwise sums {x + y : x in a, y in b}."""
    bs = list(b)
    return {x + y for x in a for y in bs}


def _pair_multiset(source, sign: int, tag: str) -> LagMultiset:
    p = np.asarray(_positions(source), dtype=np.int64)
    lags = (p[:, None] + sign * p[None, :]).ravel()
    values, counts = np.unique(lags, return_counts=True)
    return LagMultiset(dict(zip(values.tolist(), counts.tolist())), tag)


def sum_coarray(source) -> LagMultiset:
    """Second-order sum co-array: multiset of p_i + p_j over ordered pairs."""
    return _pair_multiset(source, +1, "SCA")


def diff_coarray(source) -> LagMultiset:
    """Second-order difference co-array: multiset of p_i - p_j over ordered pairs."""
    return _pair_multiset(source, -1, "DCA")


def case_virtual_positions(source, case: int) -> np.ndarray:
    """Virtual positions of every ordered quadruple for one conjugation case.

    Returns a flat int64 array of length N^4 in C order over (l1, l2,
    l3, l4); entry k is the virtual sensor position generated by the
    quadruple with raveled index k.  The same ordering is used by the
    cumulant tensors, so this array doubles as the lag lookup for
    redundancy averaging.
    """
    if case not in CASE_SIGNS:
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    p = np.asarray(_positions(source), dtype=np.int64)
    s = CASE_SIGNS[case]
    return (
        s[0] * p[:, None, None, None]
        + s[1] * p[None, :, None, None]
        + s[2] * p[None, None, :, None]
        + s[3] * p[None, None, None, :]
    ).ravel()


def foca(source, case: int) -> LagMultiset:
    """Fourth-order co-array for one conjugation case (multiset over N^4 quadruples)."""
    lags = case_virtual_positions(source, case)
    values, counts = np.unique(lags, return_counts=True)
    return LagMultiset(dict(zip(values.tolist(), counts.tolist())), f"FOCA{case}")


def foeca(source) -> LagMultiset:
    """Fourth-order extended co-array: multiset-sum of the three cases.

    Multiplicity of each lag is the sum across cases; the total entry
    count is 3*N^4 for an N-sensor array.
    """
    entries: Dict[int, int] = {}
    for case in (1, 2, 3):
        for lag, mult in foca(source, case).entries.items():
            entries[lag] = entries.get(lag, 0) + mult
    return LagMultiset(entries, "FOECA")


def analyze_segment(lags) -> SegmentReport:
    """Measure the maximal zero-centered hole-free segment and all holes.

    ``lags`` may be a LagMultiset or any iterable of integer lags.
    Raises if lag 0 is absent (a co-array always contains it; its
    absence signals a malformed input).
    """
    present = set(lags.entries) if isinstance(lags, LagMultiset) else set(int(x) for x in lags)
    if 0 not in present:
        raise ValueError("lag 0 is missing; segment analysis needs a zero-centered multiset")
    lo, hi = min(present), max(present)
    lc = 0
    while (lc + 1) in present and -(lc + 1) in present:
        lc += 1
    holes = tuple(x for x in range(lo, hi + 1) if x not in present)
    return SegmentReport(lo, hi, lc, holes)
