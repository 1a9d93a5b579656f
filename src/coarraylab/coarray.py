"""Exact integer multiset algebra for sum, difference and fourth-order co-arrays.

A co-array is a ``collections.Counter`` of integer lags: lag ->
multiplicity, where multiplicity counts ordered sensor-index tuples, with
the lags in ascending order.  One counter, ``_count_lags``, counts every
co-array.
The fourth-order co-arrays use the three conjugation cases with virtual
positions

    case 1:  p1 + p2 + p3 - p4
    case 2:  p1 - p2 + p3 - p4
    case 3: -p1 - p2 - p3 + p4

over all N^4 ordered quadruples, and the extended co-array is their
multiset-sum (3*N^4 entries in total).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Set, Tuple

import numpy as np

from .geometry import SensorArray

__all__ = [
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


def _positions(source) -> np.ndarray:
    if isinstance(source, SensorArray):
        source = source.positions
    return np.array([int(p) for p in source], dtype=np.int64)


def _case_signs(case: int) -> Tuple[int, int, int, int]:
    if case not in CASE_SIGNS:
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    return CASE_SIGNS[case]


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


def _signed_sums(p: np.ndarray, signs: Sequence[int]) -> np.ndarray:
    """sum_i signs[i] * p[l_i] for every ordered index tuple, flat in C order."""
    sums = np.zeros((), dtype=np.int64)
    for s in signs:
        sums = np.add.outer(sums, s * p)
    return sums.ravel()


def _count_lags(source, sign_rows: Sequence[Sequence[int]]) -> Counter:
    """Multiset-sum over ``sign_rows`` of the signed sums of ``source``'s positions.

    Counts are kept over [-span, span], span = tuple length * max|p|.  Per
    sign row, one ``np.bincount`` counts the sums of all but the last
    index (N^(k-1) of them), and that histogram is added once per sensor,
    shifted by its signed position.  No N^k lag array is ever formed, so
    the work stays in cache and allocations stay small.
    """
    p = _positions(source)
    span = len(sign_rows[0]) * int(np.abs(p).max(initial=0))
    counts = np.zeros(2 * span + 1, dtype=np.int64)
    for *head, last in sign_rows:
        sums = _signed_sums(p, head)
        low = int(sums.min(initial=0))
        head_counts = np.bincount(sums - low)
        for start in (span + low + last * p).tolist():
            counts[start:start + len(head_counts)] += head_counts
    present = np.flatnonzero(counts)
    return Counter(dict(zip((present - span).tolist(), counts[present].tolist())))


def sum_coarray(source) -> Counter:
    """Second-order sum co-array: multiset of p_i + p_j over ordered pairs."""
    return _count_lags(source, [(1, 1)])


def diff_coarray(source) -> Counter:
    """Second-order difference co-array: multiset of p_i - p_j over ordered pairs."""
    return _count_lags(source, [(1, -1)])


def case_virtual_positions(source, case: int) -> np.ndarray:
    """Virtual positions of every ordered quadruple for one conjugation case.

    Returns a flat int64 array of length N^4 in C order over (l1, l2,
    l3, l4); entry k is the virtual sensor position generated by the
    quadruple with raveled index k.  The same ordering is used by the
    cumulant tensors, so this array doubles as the lag lookup for
    redundancy averaging.
    """
    return _signed_sums(_positions(source), _case_signs(case))


def foca(source, case: int) -> Counter:
    """Fourth-order co-array for one conjugation case (multiset over N^4 quadruples)."""
    return _count_lags(source, [_case_signs(case)])


def foeca(source) -> Counter:
    """Fourth-order extended co-array: multiset-sum of the three cases.

    Multiplicity of each lag is the sum across cases; the total entry
    count is 3*N^4 for an N-sensor array.
    """
    return _count_lags(source, list(CASE_SIGNS.values()))


def analyze_segment(lags) -> SegmentReport:
    """Measure the maximal zero-centered hole-free segment and all holes.

    ``lags`` is a co-array (a ``Counter`` of lags, which iterates over its
    distinct lags) or any iterable of integer lags, read as int64.  Raises
    if lag 0 is absent (a co-array always contains it; its absence signals
    a malformed input).  The present lags are marked in one boolean mask
    over [lo, hi], so time and memory are O(hi - lo), with no Python step
    per lag.
    """
    present = np.fromiter(lags, dtype=np.int64)
    if not np.any(present == 0):
        raise ValueError("lag 0 is missing; segment analysis needs a zero-centered multiset")
    lo, hi = int(present.min()), int(present.max())
    mask = np.zeros(hi - lo + 1, dtype=bool)
    mask[present - lo] = True
    holes = np.flatnonzero(~mask) + lo
    # 0 is present, so the holes split at it: the nearest on each side bound lc.
    split = int(np.searchsorted(holes, 0))
    right = int(holes[split]) if split < len(holes) else hi + 1
    left = -int(holes[split - 1]) if split > 0 else -lo + 1
    return SegmentReport(lo, hi, min(left, right) - 1, tuple(holes.tolist()))
