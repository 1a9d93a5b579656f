"""Fourth-order cumulant estimation and co-array MUSIC.

The pipeline: sample the conjugation-case cumulant tensors from
snapshots, average all entries sharing a virtual lag (across quadruples
and cases, with equal weights; the BPSK source model makes the three
case cumulants identical so cross-case pooling is unbiased), then run
spatial-smoothing MUSIC on the resulting single-snapshot virtual-ULA
measurement.  MUSIC scans the D-dimensional signal subspace rather than
the noise subspace, so its grid scan costs O(D*L*G) for D sources, a
co-array half-length L and G grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coarray import analyze_segment, case_virtual_positions, foeca
from .geometry import SensorArray

__all__ = [
    "CumulantBank",
    "FoecaMeasurement",
    "DoaEstimate",
    "SteeringGrid",
    "sample_cumulants",
    "assemble_foeca",
    "subarray_length",
    "smoothed_covariance",
    "ss_music",
    "match_nearest",
    "rmse",
]


@dataclass
class CumulantBank:
    """Sample fourth-order cumulant tensors of cases 1 and 2 (N^4 each).

    Case 3 is the elementwise conjugate of case 1 (its conjugation
    pattern conjugates every case-1 argument), which holds exactly at
    the sample level, so ``case(3)`` derives it instead of storing it.
    """

    case1: np.ndarray
    case2: np.ndarray

    @property
    def n_sensors(self) -> int:
        return self.case1.shape[0]

    def case(self, j: int) -> np.ndarray:
        if j == 3:
            return self.case1.conj()
        return {1: self.case1, 2: self.case2}[j]


def sample_cumulants(snapshots) -> CumulantBank:
    """Estimate the case-1 and case-2 cumulant tensors from an N x K snapshot block.

    Each entry is the empirical fourth moment minus the three
    pairwise-product second-moment terms, with the conjugations placed
    so the derived steering phase of entry (l1,l2,l3,l4) matches the
    case's virtual position:

        case 1: cum(x1, x2, x3, x4*)   ->  p1 + p2 + p3 - p4
        case 2: cum(x1, x2*, x3, x4*)  ->  p1 - p2 + p3 - p4
        case 3: cum(x1*, x2*, x3*, x4) -> -p1 - p2 - p3 + p4

    Only cases 1 and 2 are stored; ``CumulantBank.case(3)`` derives
    case 3 as the conjugate of case 1.  Moments use the biased 1/K
    normalization.
    """
    x = np.asarray(snapshots)
    if x.ndim != 2:
        raise ValueError("snapshots must form an N x K matrix")
    n, k = x.shape
    if k < 2:
        raise ValueError(f"need at least 2 snapshots, got {k}")
    xc = x.conj()
    ra = (x @ x.T) / k          # E[x_a x_b]
    rb = (x @ xc.T) / k         # E[x_a conj(x_b)]
    u = (x[:, None, :] * x[None, :, :]).reshape(n * n, k)    # x_a x_b per snapshot
    v = (x[:, None, :] * xc[None, :, :]).reshape(n * n, k)   # x_a conj(x_b)
    m1 = (u @ v.T / k).reshape(n, n, n, n)                   # E[x1 x2 x3 x4*]
    m2 = (v @ v.T / k).reshape(n, n, n, n)                   # E[x1 x2* x3 x4*]
    c1 = (
        m1
        - ra[:, :, None, None] * rb[None, None, :, :]
        - ra[:, None, :, None] * rb[None, :, None, :]
        - rb[:, None, None, :] * ra[None, :, :, None]
    )
    c2 = (
        m2
        - rb[:, :, None, None] * rb[None, None, :, :]
        - ra[:, None, :, None] * ra.conj()[None, :, None, :]
        - rb[:, None, None, :] * rb.T[None, :, :, None]
    )
    return CumulantBank(c1, c2)


@dataclass
class FoecaMeasurement:
    """Redundancy-averaged cumulant value per lag of the central segment.

    ``values[i]`` is the averaged measurement at lag ``lags[i]``, with
    ``counts[i]`` contributing (case, quadruple) entries.  Conjugate
    symmetry value(-m) = conj(value(m)) is enforced by symmetrization.
    """

    lags: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    @property
    def lc(self) -> int:
        return int(self.lags[-1])


def assemble_foeca(bank: CumulantBank, array: SensorArray, lc: Optional[int] = None) -> FoecaMeasurement:
    """Average all cumulant entries sharing a virtual lag over [-Lc, Lc].

    Lc defaults to the measured hole-free half-length of the array's
    extended co-array.  A zero-contributor lag inside that segment would
    contradict the segment analysis and raises.
    """
    if bank.n_sensors != array.n_sensors:
        raise ValueError("cumulant bank and array sensor counts differ")
    if lc is None:
        lc = analyze_segment(foeca(array)).lc
    width = 2 * lc + 1
    sums = np.zeros(width, dtype=complex)
    counts = np.zeros(width, dtype=np.int64)
    for case in (1, 2, 3):
        lags = case_virtual_positions(array, case)
        vals = bank.case(case).ravel()
        sel = np.abs(lags) <= lc
        idx = (lags[sel] + lc).astype(np.intp)
        np.add.at(sums, idx, vals[sel])
        np.add.at(counts, idx, 1)
    if np.any(counts == 0):
        missing = np.flatnonzero(counts == 0) - lc
        raise AssertionError(
            f"lags {missing.tolist()} have no contributors inside the claimed "
            "consecutive segment; co-array bookkeeping is inconsistent"
        )
    values = sums / counts
    values = 0.5 * (values + values[::-1].conj())
    return FoecaMeasurement(np.arange(-lc, lc + 1), values, counts)


@dataclass
class DoaEstimate:
    """Estimated angles plus the pseudo-spectrum they were picked from."""

    angles_deg: np.ndarray
    grid_deg: np.ndarray
    spectrum: np.ndarray
    rank_ok: bool = True


def _pick_peaks(grid: np.ndarray, spec: np.ndarray, n_sources: int, min_sep_cells: int) -> List[float]:
    inner = np.flatnonzero((spec[1:-1] > spec[:-2]) & (spec[1:-1] >= spec[2:])) + 1
    order = inner[np.argsort(spec[inner])[::-1]]
    chosen: List[int] = []
    for i in order:
        if all(abs(i - j) >= min_sep_cells for j in chosen):
            chosen.append(i)
        if len(chosen) == n_sources:
            break
    refined = []
    for i in chosen:
        # three-point parabolic refinement on the log spectrum (a grid
        # with fewer than three cells has no peak, so grid[1] exists here)
        l0, l1, l2 = np.log(spec[i - 1]), np.log(spec[i]), np.log(spec[i + 1])
        denom = l0 - 2 * l1 + l2
        offset = 0.5 * (l0 - l2) / denom if denom != 0 else 0.0
        refined.append(float(grid[i] + np.clip(offset, -1.0, 1.0) * (grid[1] - grid[0])))
    return refined


@dataclass(frozen=True, eq=False)
class SteeringGrid:
    """Scan grid and virtual-ULA steering matrix for one (length, step) pair.

    ``steering[m, g]`` is exp(j*pi*m*sin(grid_deg[g])) for m < ``sub``.
    Both arrays are read-only, so one grid can be shared by every
    estimate with the same subarray length and grid step.
    """

    step_deg: float
    grid_deg: np.ndarray
    steering: np.ndarray

    @property
    def sub(self) -> int:
        return self.steering.shape[0]

    @classmethod
    def build(cls, sub: int, grid_step_deg: float) -> "SteeringGrid":
        if sub < 1:
            raise ValueError(f"subarray length must be positive, got {sub}")
        if not (math.isfinite(grid_step_deg) and grid_step_deg > 0):
            raise ValueError(f"grid step must be finite and positive, got {grid_step_deg}")
        grid = np.arange(-90.0 + grid_step_deg, 90.0, grid_step_deg)
        steering = np.exp(1j * np.pi * np.arange(sub)[:, None] * np.sin(np.deg2rad(grid))[None, :])
        grid.flags.writeable = False
        steering.flags.writeable = False
        return cls(float(grid_step_deg), grid, steering)


def subarray_length(lc: int, n_sources: int, subarray_len: Optional[int] = None) -> int:
    """The smoothing subarray length: ``subarray_len``, default Lc+1, checked.

    The source count may not exceed the capacity Lc; the length must
    exceed the source count and fit in the 2Lc+1 virtual ULA.
    """
    if n_sources > lc:
        raise ValueError(f"{n_sources} sources exceed the capacity Lc = {lc}")
    sub = lc + 1 if subarray_len is None else int(subarray_len)
    if not (n_sources < sub <= 2 * lc + 1):
        raise ValueError(f"subarray length must lie in ({n_sources}, {2 * lc + 1}], got {sub}")
    return sub


def smoothed_covariance(values: np.ndarray, sub: int) -> np.ndarray:
    """Mean outer product of the length-``sub`` windows of ``values``.

    The windows are the rows of a Hankel view, so the mean is one Gram
    product: no (windows x sub x sub) temporary is formed.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, sub)
    return windows.T @ windows.conj() / windows.shape[0]


def ss_music(
    meas: FoecaMeasurement,
    n_sources: int,
    grid_step_deg: float = 0.05,
    subarray_len: Optional[int] = None,
    min_peak_sep_deg: float = 0.5,
    *,
    steering: Optional[SteeringGrid] = None,
) -> DoaEstimate:
    """Spatial-smoothing MUSIC over the virtual-ULA measurement.

    The length-(2Lc+1) measurement is cut into overlapping subvectors of
    length ``subarray_len`` (default Lc+1, the maximum, which fixes the
    resolvable-source capacity at Lc); the mean of their outer products
    is the smoothed covariance.  That mean is one Gram product of the
    window (Hankel) matrix, so memory stays O(L^2 + L*G) for G grid
    points.

    The MUSIC pseudo-spectrum is 1 / |En^H a|^2 over the noise subspace
    En.  With unit-modulus steering |a|^2 = sub, so the scan computes
    sub - |Es^H a|^2 over the D = ``n_sources`` dimensional signal
    subspace Es instead: O(D*L*G) work and a D x G temporary, where the
    noise subspace would cost O(L^2*G).  The subtraction is floored at
    its rounding error, sub*eps, where exact cumulants cancel it.
    Returns the ``n_sources`` largest well-separated spectrum peaks,
    parabolic-refined off the grid; fewer when the spectrum has fewer
    peaks at least ``min_peak_sep_deg`` apart.

    ``steering`` is a prebuilt grid for this subarray length and grid
    step, for callers that estimate many times with one setting; by
    default one is built per call.
    """
    lc = meas.lc
    if n_sources < 1:
        raise ValueError("need at least one source")
    if not (math.isfinite(min_peak_sep_deg) and min_peak_sep_deg >= 0):
        raise ValueError(f"min_peak_sep_deg must be finite and >= 0, got {min_peak_sep_deg}")
    sub = subarray_length(lc, n_sources, subarray_len)
    if steering is None:
        steering = SteeringGrid.build(sub, grid_step_deg)
    elif steering.sub != sub or steering.step_deg != grid_step_deg:
        raise ValueError(
            f"prebuilt steering grid is for length {steering.sub} and step "
            f"{steering.step_deg}, not {sub} and {grid_step_deg}"
        )
    eigvals, eigvecs = np.linalg.eigh(smoothed_covariance(meas.values, sub))
    rank = int(np.sum(eigvals > max(1e-12 * eigvals[-1], 0.0)))
    signal = eigvecs[:, sub - n_sources:]
    denom = sub - np.sum(np.abs(signal.conj().T @ steering.steering) ** 2, axis=0)
    spec = 1.0 / np.maximum(denom, sub * np.finfo(float).eps)
    min_sep_cells = max(1, int(round(min_peak_sep_deg / grid_step_deg)))
    peaks = _pick_peaks(steering.grid_deg, spec, n_sources, min_sep_cells)
    return DoaEstimate(np.sort(np.asarray(peaks)), steering.grid_deg, spec,
                       rank_ok=rank >= n_sources)


def match_nearest(estimates: Sequence[float], truths: Sequence[float]) -> np.ndarray:
    """Greedy nearest-angle assignment; returns signed errors per truth angle."""
    pool = list(estimates)
    errors = []
    for t in truths:
        if not pool:
            raise ValueError("fewer estimates than truth angles")
        j = int(np.argmin([abs(t - e) for e in pool]))
        errors.append(t - pool.pop(j))
    return np.asarray(errors)


def rmse(trials: Sequence[Tuple[Sequence[float], Sequence[float]]]) -> float:
    """Root-mean-square DOA error over trials, estimates matched to truths.

    sqrt( (1/(T*D)) * sum_t sum_i (theta_hat - theta)^2 ) with greedy
    nearest-angle matching inside each trial.
    """
    if not trials:
        raise ValueError("need at least one trial")
    sq = []
    for estimates, truths in trials:
        if len(estimates) != len(truths):
            raise ValueError("each trial needs matched estimate/truth lengths")
        sq.extend(match_nearest(estimates, truths) ** 2)
    return math.sqrt(float(np.mean(sq)))
