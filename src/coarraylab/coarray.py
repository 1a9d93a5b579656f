"""Exact integer multiset algebra for sum, difference and fourth-order co-arrays.

A co-array is a ``LagCounts``: a read-only mapping of integer lag ->
multiplicity, where multiplicity counts ordered sensor-index tuples,
backed by one dense int64 array over [min lag, max lag] and iterated in
ascending lag order.  One counter, ``_count_lags``, counts every
co-array, and it is the only code that counts lags: ``analyze_segment``
reads a ``LagCounts``, and the estimator's redundancy averaging divides
by the counts of ``foeca``.  Python ints are built only when the lags
are read out.
The fourth-order co-arrays use the three conjugation cases with virtual
positions

    case 1:  p1 + p2 + p3 - p4
    case 2:  p1 - p2 + p3 - p4
    case 3: -p1 - p2 - p3 + p4

over all N^4 ordered quadruples, and the extended co-array is their
multiset-sum (3*N^4 entries in total).  Case 3 is case 1 negated and
case 2 is symmetric about lag 0, so ``foeca`` counts g = 2*case1 + case2
in one pass of the counter and folds it: foeca(l) = (g(l) + g(-l)) / 2.
The counter reads the attained lag range from the two extreme positions,
so no pass over the sums looks for it, and accumulates in int32 while
the largest possible entry, every tuple at one lag, is below 2^31
(3*N^4 for ``foeca``, so up to 163 sensors), and in int64 past that.
Its accumulator is returned as it is: ``foeca`` folds it straight into
its int64 result, and ``LagCounts`` widens the other builders' once.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .geometry import position_array

__all__ = [
    "LagCounts",
    "SegmentReport",
    "CASE_SIGNS",
    "sum_coarray",
    "diff_coarray",
    "foca",
    "foeca",
    "case_virtual_positions",
    "analyze_segment",
]

CASE_SIGNS = {1: (1, 1, 1, -1), 2: (1, -1, 1, -1), 3: (-1, -1, -1, 1)}


def _case_signs(case: int) -> Tuple[int, int, int, int]:
    if case not in CASE_SIGNS:
        raise ValueError(f"case must be 1, 2 or 3, got {case}")
    return CASE_SIGNS[case]


class LagCounts(Mapping):
    """A co-array: lag -> multiplicity, held as one dense read-only array.

    ``counts[i]`` is the multiplicity of lag ``lo + i``.  The array is
    trimmed to [min lag, max lag] (empty for an empty co-array) and
    widened to int64; a zero inside it is a hole, absent from the mapping.
    """

    __slots__ = ("lo", "counts")

    def __init__(self, lo: int, counts: np.ndarray):
        lo = int(lo)
        # counts over an attained range already end in nonzero counts
        if not (len(counts) and counts[0] and counts[-1]):
            present = np.flatnonzero(counts)
            if len(present) == 0:
                lo, counts = 0, counts[:0]
            else:
                lo, counts = lo + int(present[0]), counts[present[0]:present[-1] + 1]
        counts = counts.astype(np.int64, copy=False)
        counts.flags.writeable = False
        self.lo, self.counts = lo, counts

    def __getitem__(self, lag) -> int:
        try:
            i = operator.index(lag) - self.lo
        except TypeError:
            raise KeyError(lag) from None
        if 0 <= i < len(self.counts) and self.counts[i]:
            return int(self.counts[i])
        raise KeyError(lag)

    def __iter__(self) -> Iterator[int]:
        return iter((np.flatnonzero(self.counts) + self.lo).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.counts))

    def items(self) -> List[Tuple[int, int]]:
        """Ascending (lag, multiplicity) pairs of Python ints."""
        present = np.flatnonzero(self.counts)
        return list(zip((present + self.lo).tolist(), self.counts[present].tolist()))

    def total(self) -> int:
        """Number of ordered index tuples, i.e. the sum of all multiplicities."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class SegmentReport:
    """Hole structure of a lag multiset around zero.

    ``central_consecutive`` is the maximal zero-centered hole-free range
    [-lc, +lc]; ``holes`` is a read-only ascending int64 array of every
    missing lag over the full span [full_min, full_max].  Reports compare
    by value.
    """

    full_min: int
    full_max: int
    lc: int
    holes: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentReport):
            return NotImplemented
        return ((self.full_min, self.full_max, self.lc) == (other.full_min, other.full_max, other.lc)
                and np.array_equal(self.holes, other.holes))

    @property
    def central_consecutive(self) -> Tuple[int, int]:
        return (-self.lc, self.lc)

    @property
    def dof(self) -> int:
        return 2 * self.lc + 1

    def as_dict(self) -> dict:
        """The report as a dict of Python ints and lists, ready for ``json.dumps``."""
        return {
            "full_min": self.full_min,
            "full_max": self.full_max,
            "central_consecutive": list(self.central_consecutive),
            "dof": self.dof,
            "holes": self.holes.tolist(),
        }


def _outer_sums(vectors) -> np.ndarray:
    """v_1[l_1] + v_2[l_2] + ... for every ordered index tuple, flat in C order."""
    sums = np.zeros((), dtype=np.int64)
    for v in vectors:
        sums = np.add.outer(sums, v)
    return sums.ravel()


def _count_lags(source, rows: Mapping[Tuple[int, ...], int]) -> Tuple[int, np.ndarray]:
    """Weighted multiset of the signed sums ``sum_i signs[i] * p[l_i]`` of ``source``'s positions.

    ``rows`` maps sign rows that share their last sign to integer weights
    >= 1.  Returns (lo, counts): ``counts[i]`` is the weighted
    multiplicity of lag ``lo + i`` over the attained range
    [min_rows sum_i min(s_i * p), max_rows sum_i max(s_i * p)], so both
    end counts are nonzero.  The ranges are read from the two extreme
    positions: index i of a row adds s_i * p - min(s_i * p_min, s_i * p_max),
    so the row's head sums (all but the last index, N^(k-1) of them)
    are >= 0, and one ``np.bincount`` counts them over the row's range
    [sum min, sum max] with no pass over the sums to find or shift it.
    The weighted histograms are written into one head over the rows'
    common range, which is added once per sensor, shifted by its signed
    position.  No N^k lag array is ever formed, so the work stays in
    cache and allocations stay small.  The head and the counts
    accumulate, and are returned, in int32 when the largest possible
    entry, sum(weight * N^k) (every tuple at one lag), is below 2^31,
    and in int64 otherwise.
    """
    p = position_array(source)
    (last,) = {signs[-1] for signs in rows}
    if len(p) == 0:
        return 0, np.zeros(0, dtype=np.int64)
    p_min, p_max = int(p.min()), int(p.max())
    lows = [sum(min(s * p_min, s * p_max) for s in signs[:-1]) for signs in rows]
    highs = [sum(max(s * p_min, s * p_max) for s in signs[:-1]) for signs in rows]
    low = min(lows)
    size = max(highs) - low + 1
    largest = sum(weight * len(p) ** len(signs) for signs, weight in rows.items())
    dtype = np.int32 if largest < 2 ** 31 else np.int64
    head = np.zeros(size, dtype=dtype)
    for i, (signs, weight) in enumerate(rows.items()):
        sums = _outer_sums(s * p - min(s * p_min, s * p_max) for s in signs[:-1])
        counted = np.bincount(sums)
        row = head[lows[i] - low:lows[i] - low + len(counted)]
        if i == 0:
            np.multiply(counted, weight, out=row, casting="unsafe")
        else:
            counted *= weight
            np.add(row, counted, out=row, casting="unsafe")
        # freed before the next row's are made: the smaller the call's
        # peak, the more of it the allocator keeps for the next call
        del sums, counted
    shifts = (last * p).tolist()
    first = min(shifts)
    counts = np.zeros(size + max(shifts) - first, dtype=dtype)
    for shift in shifts:
        counts[shift - first:shift - first + size] += head
    return low + first, counts


def sum_coarray(source) -> LagCounts:
    """Second-order sum co-array: multiset of p_i + p_j over ordered pairs."""
    return LagCounts(*_count_lags(source, {(1, 1): 1}))


def diff_coarray(source) -> LagCounts:
    """Second-order difference co-array: multiset of p_i - p_j over ordered pairs."""
    return LagCounts(*_count_lags(source, {(1, -1): 1}))


def case_virtual_positions(source, case: int) -> np.ndarray:
    """Virtual positions of every ordered quadruple for one conjugation case.

    Returns a flat int64 array of length N^4 in C order over (l1, l2,
    l3, l4); entry k is the virtual sensor position generated by the
    quadruple with raveled index k.  The same ordering is used by the
    cumulant tensors, so this array doubles as the lag lookup for
    redundancy averaging.
    """
    p = position_array(source)
    return _outer_sums(s * p for s in _case_signs(case))


def foca(source, case: int) -> LagCounts:
    """Fourth-order co-array for one conjugation case (multiset over N^4 quadruples)."""
    return LagCounts(*_count_lags(source, {_case_signs(case): 1}))


def foeca(source) -> LagCounts:
    """Fourth-order extended co-array: multiset-sum of the three cases.

    Multiplicity of each lag is the sum across cases; the total entry
    count is 3*N^4 for an N-sensor array.  Case 3 is case 1 negated and
    case 2 is symmetric about lag 0, so with g = 2*case1 + case2 the
    multiplicity of lag l is (g(l) + g(-l)) / 2, exact in integers.  Both
    cases end in -p4, so ``_count_lags`` counts g in one pass, in int32
    while 3*N^4 < 2^31 (up to 163 sensors).  g spans [lo, hi] with
    lo <= 0 <= hi, and its mirror g(-l) spans [-hi, -lo]: one of the
    two starts at -span and the other ends at +span.  The fold writes
    each int64 entry once, copying where only one of them reaches and
    adding them, in int64 (the sum can reach 6*N^4), where both do;
    every sum is even and non-negative, so a right shift halves it.
    """
    lo, g = _count_lags(source, {CASE_SIGNS[1]: 2, CASE_SIGNS[2]: 1})
    n = len(g)
    if n == 0:
        return LagCounts(0, g)
    span = max(-lo, lo + n - 1)
    left = g if lo == -span else g[::-1]  # the one of g(l), g(-l) that starts at -span
    right = left[::-1]
    edge = 2 * span + 1 - n  # entries reached by one of them only, at each end
    counts = np.empty(2 * span + 1, dtype=np.int64)
    counts[:edge] = left[:edge]
    np.add(left[edge:], right[:n - edge], out=counts[edge:n], dtype=np.int64)
    counts[n:] = right[n - edge:]
    counts >>= 1
    return LagCounts(-span, counts)


def analyze_segment(lags: LagCounts) -> SegmentReport:
    """Measure the maximal zero-centered hole-free segment and all holes.

    Raises if lag 0 is absent (a co-array always contains it; its
    absence signals a malformed input).  The holes are the zeros of the
    dense counts over [lo, hi], so time and memory are O(hi - lo), with
    no Python step per lag.
    """
    if 0 not in lags:
        raise ValueError("lag 0 is missing; segment analysis needs a zero-centered multiset")
    lo, hi = lags.lo, lags.lo + len(lags.counts) - 1
    holes = np.flatnonzero(lags.counts == 0)
    holes += lo
    holes.flags.writeable = False
    # 0 is present, so the holes split at it: the nearest on each side bound lc.
    split = int(np.searchsorted(holes, 0))
    right = int(holes[split]) if split < len(holes) else hi + 1
    left = -int(holes[split - 1]) if split > 0 else -lo + 1
    return SegmentReport(lo, hi, min(left, right) - 1, holes)
