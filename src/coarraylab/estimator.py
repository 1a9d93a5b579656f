"""Fourth-order cumulant estimation and co-array MUSIC.

The pipeline: sample the conjugation-case cumulant tensors from
snapshots, average all entries sharing a virtual lag (across quadruples
and cases, with equal weights; the BPSK source model makes the three
case cumulants identical so cross-case pooling is unbiased), then run
spatial-smoothing MUSIC on the resulting single-snapshot virtual-ULA
measurement.  The averaging divides each lag's sum by its multiplicity
in ``coarray.foeca``, so lags are counted only there.  MUSIC scans the
grid that ``steering_grid`` builds, over the D-dimensional signal
subspace rather than the noise subspace, so its scan costs O(D*L*G) for
D sources, a co-array half-length L and G grid points.

Each estimate does only the linear algebra it uses.  The moment GEMMs
of the cumulants run in single precision and are summed in double, and
MUSIC computes only the D largest eigenpairs of the smoothed covariance
by subspace iteration, falling back to a full ``eigh`` where that does
not converge or the covariance has rank below D.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .coarray import analyze_segment, case_virtual_positions, foeca
from .geometry import SensorArray
from .signalsim import manifold

__all__ = [
    "CumulantBank",
    "DoaEstimate",
    "sample_cumulants",
    "assemble_foeca",
    "subarray_length",
    "smoothed_covariance",
    "steering_grid",
    "ss_music",
    "match_nearest",
]


@dataclass
class CumulantBank:
    """Sample fourth-order cumulant tensors of cases 1 and 2 (N^4 each).

    Case 3 is the elementwise conjugate of case 1 (its conjugation
    pattern conjugates every case-1 argument), which holds exactly at
    the sample level, so ``case(3)`` derives it instead of storing it.
    Under the simulator's +/-1 BPSK sources each source adds -2 times
    its steering phase to every entry, in all three cases.
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


# Snapshot columns per block of the moment accumulation: the N^2 x B
# product arrays of one block are the largest temporaries at any K.
_BLOCK = 2048


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
    normalization.  They are summed over blocks of B = 2048 snapshot
    columns, each block adding its N^2 x N^2 moment products, and divided
    by K once at the end, so memory stays O(N^4 + N^2*B) for any K.

    Each block's fourth-order products and its two N^2 x N^2 GEMMs run in
    single precision (complex64 for complex snapshots, float32 for real
    ones), and the blocks are summed in double precision.  Their rounding,
    a few 1e-6 of the largest entry, lies far below the sampling error of
    about K^(-1/2) (1e-2 at K = 14000).  The second moments and the
    pairing terms stay in double precision.
    """
    x = np.asarray(snapshots)
    if x.ndim != 2:
        raise ValueError("snapshots must form an N x K matrix")
    n, k = x.shape
    if k < 2:
        raise ValueError(f"need at least 2 snapshots, got {k}")
    dtype = np.result_type(x.dtype, np.float64)
    single = np.complex64 if dtype.kind == "c" else np.float32
    ra = np.zeros((n, n), dtype)              # sum of x_a x_b
    rb = np.zeros((n, n), dtype)              # sum of x_a conj(x_b)
    m1 = np.zeros((n * n, n * n), dtype)      # sum of x1 x2 x3 x4*
    m2 = np.zeros((n * n, n * n), dtype)      # sum of x1 x2* x3 x4*
    for start in range(0, k, _BLOCK):
        xb = x[:, start:start + _BLOCK]
        ra += xb @ xb.T
        rb += xb @ xb.conj().T
        xs = xb.astype(single)
        u = (xs[:, None, :] * xs[None, :, :]).reshape(n * n, -1)          # x_a x_b per snapshot
        v = (xs[:, None, :] * xs.conj()[None, :, :]).reshape(n * n, -1)   # x_a conj(x_b)
        m1 += u @ v.T
        m2 += v @ v.T
    ra /= k
    rb /= k
    m1 = (m1 / k).reshape(n, n, n, n)
    m2 = (m2 / k).reshape(n, n, n, n)
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


def assemble_foeca(bank: CumulantBank, array: SensorArray, lc: Optional[int] = None) -> np.ndarray:
    """Average all cumulant entries sharing a virtual lag over [-Lc, Lc].

    Returns the complex vector of length 2Lc+1 whose entry i is lag i - Lc,
    symmetrized so that value(-m) = conj(value(m)).  The divisor of each
    lag is its multiplicity in ``foeca(array)``.  Lc defaults to the
    measured hole-free half-length of that co-array; a given Lc must lie
    in [0, measured], since a lag outside the segment may have no contributor.
    """
    if bank.n_sensors != array.n_sensors:
        raise ValueError("cumulant bank and array sensor counts differ")
    multiset = foeca(array)
    measured = analyze_segment(multiset).lc
    if lc is None:
        lc = measured
    if not 0 <= lc <= measured:
        raise ValueError(f"lc must lie in [0, {measured}], the array's hole-free "
                         f"co-array half-length, got {lc}")
    sums = np.zeros(2 * lc + 1, dtype=complex)
    for case in (1, 2, 3):
        lags = case_virtual_positions(array, case)
        vals = bank.case(case).ravel()
        sel = np.abs(lags) <= lc
        np.add.at(sums, (lags[sel] + lc).astype(np.intp), vals[sel])
    values = sums / multiset.counts[-multiset.lo - lc:-multiset.lo + lc + 1]
    return 0.5 * (values + values[::-1].conj())


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


@functools.lru_cache(maxsize=1)
def steering_grid(sub: int, grid_step_deg: float) -> Tuple[np.ndarray, np.ndarray]:
    """Scan grid and virtual-ULA steering matrix for one (length, step) pair.

    Returns ``(grid_deg, steering)``: ``grid_deg`` steps through the open
    range (-90, 90) degrees, and ``steering`` is ``signalsim.manifold``
    of the ``sub``-element ULA at positions 0..sub-1 over it.  A step that
    is not finite and positive raises ``ValueError``, and so does one too
    small for ``np.arange`` to size (1e-300); a grid too large to
    allocate raises ``MemoryError``.  Both arrays are read-only, and the
    last pair is cached per process, since a sweep estimates with one
    setting.  The cache keeps that one grid alive: about 315 MB for the
    19-sensor design (length 2187) at a 0.02 degree step.
    """
    if sub < 1:
        raise ValueError(f"subarray length must be positive, got {sub}")
    if not (math.isfinite(grid_step_deg) and grid_step_deg > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid_step_deg}")
    grid = np.arange(-90.0 + grid_step_deg, 90.0, grid_step_deg)
    # arange can overshoot its stop by rounding (90.00000000000684 at a 0.015 step)
    grid = grid[grid < 90.0]
    steering = manifold(SensorArray(tuple(range(sub))), grid)
    grid.flags.writeable = False
    steering.flags.writeable = False
    return grid, steering


def subarray_length(lc: int, n_sources: int) -> int:
    """The smoothing length Lc+1, whose capacity Lc the source count may not exceed.

    No other length resolves Lc sources (Pal & Vaidyanathan, IEEE TSP 58(8), 2010).
    """
    if n_sources > lc:
        raise ValueError(f"{n_sources} sources exceed the capacity Lc = {lc}")
    return lc + 1


def smoothed_covariance(values: np.ndarray, sub: int) -> np.ndarray:
    """Mean outer product of the length-``sub`` windows of ``values``.

    The windows are the rows of a Hankel view, so the mean is one Gram
    product: no (windows x sub x sub) temporary is formed.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, sub)
    return windows.T @ windows.conj() / windows.shape[0]


# Top-D subspace iteration: extra block columns beyond D, the residual
# tolerance and the rank threshold (both relative to the largest
# eigenvalue), and the seed of the random start block.
_OVERSAMPLE = 8
_RESIDUAL_TOL = 1e-13
_RANK_TOL = 1e-12
_START_SEED = 0


def _signal_subspace(r: np.ndarray, n_sources: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n_sources`` largest eigenpairs of the Hermitian PSD matrix ``r``.

    Returns ``(eigvals, eigvecs)`` in ascending order, as ``np.linalg.eigh``
    orders them.  Block subspace iteration with Rayleigh-Ritz (Saad,
    *Numerical Methods for Large Eigenvalue Problems*, 2011, ch. 5): a
    block of D + 8 columns from a fixed-seed random start takes one
    product Z = R Q per iteration.  The Ritz pairs come from the
    projected matrix Q^H Z, and R X = Z V gives their residuals without
    a second product.  The iteration stops once every one of the D
    residuals is at most 1e-13 times the largest Ritz value.

    ``np.linalg.eigh`` of the whole matrix answers instead when the block
    is at least half the matrix, when the D-th Ritz value is at most
    1e-12 times the largest (the matrix has rank below D, where the
    signal subspace is not unique), and at the iteration cap of
    sub/block iterations, which cost about as much as the full
    decomposition.  A scene whose D-th eigenvalue lies too close to the
    next one to converge by then (40 sources at N = 9, 12 at N = 7) so
    pays about twice the plain ``eigh``.
    """
    sub = r.shape[0]
    block = n_sources + _OVERSAMPLE
    if 2 * block < sub:
        rng = np.random.default_rng(_START_SEED)
        q = np.linalg.qr(rng.standard_normal((sub, block))
                         + 1j * rng.standard_normal((sub, block)))[0]
        # sub/block iterations cost about one full eigh
        for _ in range(sub // block):
            z = r @ q
            theta, v = np.linalg.eigh(q.conj().T @ z)
            top = theta[-1]
            if not theta[-n_sources] > max(_RANK_TOL * top, 0.0):
                break
            x = q @ v[:, -n_sources:]
            rx = z @ v[:, -n_sources:]
            residual = np.linalg.norm(rx - x * theta[-n_sources:], axis=0)
            if np.all(residual <= _RESIDUAL_TOL * top):
                return theta[-n_sources:], x
            q = np.linalg.qr(z)[0]
    eigvals, eigvecs = np.linalg.eigh(r)
    return eigvals[sub - n_sources:], eigvecs[:, sub - n_sources:]


def ss_music(
    values: np.ndarray,
    n_sources: int,
    grid_step_deg: float = 0.05,
    min_peak_sep_deg: float = 0.5,
) -> DoaEstimate:
    """Spatial-smoothing MUSIC over ``assemble_foeca``'s vector of lags -Lc..Lc.

    Lc is the vector's length // 2, and input that is not a 1-D vector of
    odd length raises ``ValueError``.  It is cut into its Lc+1 overlapping
    subvectors of length Lc+1 (``subarray_length``), which fixes the
    resolvable-source capacity at Lc; the mean of their outer products
    is the smoothed covariance.  That mean is one Gram product of the
    window (Hankel) matrix, so memory stays O(L^2 + L*G) for G grid
    points.  A measurement that is not finite (the single-precision
    moments overflow below about -175 dB SNR) gets no eigensolve: its
    estimate has no angles, a NaN spectrum and ``rank_ok`` false.

    The MUSIC pseudo-spectrum is 1 / |En^H a|^2 over the noise subspace
    En.  With unit-modulus steering |a|^2 = sub, so the scan computes
    sub - |Es^H a|^2 over the D = ``n_sources`` dimensional signal
    subspace Es instead: O(D*L*G) work and a D x G temporary, where the
    noise subspace would cost O(L^2*G).  The subtraction is floored at
    its rounding error, sub*eps, where exact cumulants cancel it.

    Es comes from ``_signal_subspace``: block subspace iteration for the
    D largest eigenpairs, O(L^2*D) per iteration instead of the O(L^3) of
    a full ``eigh`` (4 to 6 iterations on the C10 scenes; at the
    19-sensor design, L = 2186, 0.09 s instead of 8.6 s).  Where it does
    not converge within its cap, or the covariance has rank below D,
    Es is the full ``eigh``'s.  ``rank_ok`` says whether the D-th
    largest eigenvalue exceeds 1e-12 times the largest.

    Returns the ``n_sources`` largest well-separated spectrum peaks,
    parabolic-refined off the grid; fewer when the spectrum has fewer
    peaks at least ``min_peak_sep_deg`` apart.  A separation wider than
    the grid allows one peak, however large it is.

    The scan grid and steering matrix come from the per-process cache of
    ``steering_grid``, so a sweep at one setting builds them once.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    if not (math.isfinite(min_peak_sep_deg) and min_peak_sep_deg >= 0):
        raise ValueError(f"min_peak_sep_deg must be finite and >= 0, got {min_peak_sep_deg}")
    values = np.asarray(values)
    if values.ndim != 1 or values.size % 2 == 0:
        raise ValueError(f"values must be a 1-D vector of odd length, got shape {values.shape}")
    sub = subarray_length(values.size // 2, n_sources)
    grid_deg, steering = steering_grid(sub, grid_step_deg)
    if not np.all(np.isfinite(values)):
        return DoaEstimate(np.empty(0), grid_deg, np.full(grid_deg.size, np.nan), rank_ok=False)
    eigvals, signal = _signal_subspace(smoothed_covariance(values, sub), n_sources)
    denom = sub - np.sum(np.abs(signal.conj().T @ steering) ** 2, axis=0)
    spec = 1.0 / np.maximum(denom, sub * np.finfo(float).eps)
    min_sep_cells = max(1, round(min(min_peak_sep_deg / grid_step_deg, grid_deg.size)))
    peaks = _pick_peaks(grid_deg, spec, n_sources, min_sep_cells)
    return DoaEstimate(np.sort(np.asarray(peaks)), grid_deg, spec,
                       rank_ok=bool(eigvals[0] > max(_RANK_TOL * eigvals[-1], 0.0)))


def match_nearest(estimates: Sequence[float], truths: Sequence[float]) -> np.ndarray:
    """Signed errors truth - estimate, in the order of ``truths``.

    The sorted estimates are paired with the sorted truths.  With equal
    counts on a line this pairing minimises every sum of |error|^p,
    p >= 1, and one missed source shifts only the pairs between it and
    the spurious peak, where nearest-first matching in truth order can
    cascade.  Counts that differ raise ``ValueError``.
    """
    estimates, truths = np.asarray(estimates, dtype=float), np.asarray(truths, dtype=float)
    if len(estimates) != len(truths):
        raise ValueError(f"{len(estimates)} estimates for {len(truths)} truth angles")
    order = np.argsort(truths, kind="stable")
    errors = np.empty_like(truths)
    errors[order] = truths[order] - np.sort(estimates)
    return errors
