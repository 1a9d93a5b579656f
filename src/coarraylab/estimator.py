"""Fourth-order cumulant estimation and co-array MUSIC.

The pipeline: sample the conjugation-case cumulant tensors from
snapshots, average all entries sharing a virtual lag (across quadruples
and cases, with equal weights; the BPSK source model makes the three
case cumulants identical so cross-case pooling is unbiased), then run
spatial-smoothing MUSIC on the resulting single-snapshot virtual-ULA
measurement.  The averaging divides each lag's sum by its multiplicity
in ``coarray.foeca``, so lags are counted only there.  MUSIC scans the
D-dimensional signal subspace as one trigonometric polynomial of degree
L, root-MUSIC's, over the grid that ``steering_grid`` builds: its
coefficients cost O(D*L*log L) and its evaluation O(L*G) for D sources,
a co-array half-length L and G grid points, and the grid keeps only
about sqrt(L) steering rows.

Each estimate does only the linear algebra it uses.  The cumulants sum
each distinct fourth moment once, and every second moment, in one
single-precision GEMM per block of snapshots whose sums are kept in
double, and MUSIC computes only the D largest eigenpairs of the smoothed
covariance T^2/(L+1), T the Hermitian Toeplitz matrix of the lags 0..L,
by subspace iteration with T that never forms the covariance, or by a
full ``eigh`` of T where that would not converge within its cap or the
covariance has rank below D.
"""

from __future__ import annotations

import functools
import math
import operator
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


# Snapshot columns per block of the moment accumulation: the (2N^2+N) x B
# product arrays of one block are the largest temporaries at any K.
_BLOCK = 2048


def _binary_exponent(x: np.ndarray) -> int:
    """The e with 2^e just above x's largest |Re| or |Im|, at least -1021 so that 2^-e is finite."""
    _, e = math.frexp(max(max(np.max(part), -np.min(part)) for part in (x.real, x.imag)))
    return max(e, -1021)


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

    A fourth moment does not change when its unconjugated arguments are
    permuted, or its conjugated ones, so each distinct moment is summed
    once, and the second moments ride along.  Per block of B = 2048
    snapshot columns, u holds x_a x_b for the P = N(N+1)/2 pairs a <= b
    over a row of ones, and W stacks x_c conj(x_d) (N^2 rows) over the
    conjugates of those P products.  One (P+1) x (N^2 + P) GEMM u W^T
    adds the block's moments: its first P rows hold the fourth moments,
    and its ones row the sums of x_c conj(x_d) and conj(x_c x_d).  The
    N x N table ``pair`` numbers the pairs in u's row order, and both
    N^4 tensors are gathered through it: case-1 entry (a,b,c,d) is row
    pair[a,b], column c*N + d, and case-2 entry (a,b,c,d) is row
    pair[a,c], column N^2 + pair[b,d].  The sums are divided by K once
    at the end, so memory stays O(N^4 + N^2*B).

    The snapshots are read as complex128 (real ones give complex tensors
    too), and the products and the GEMM run in complex64, with the
    blocks summed in double precision.  That rounding, 1e-6 to 1.3e-5 of
    the largest entry (at most 113 float32 eps in the tests, in a -20 dB
    scene where the second moments cancel the fourth most), lies far
    below the sampling error of about K^(-1/2).  To keep double
    precision's range, the snapshots are scaled by 2^-e before the cast,
    with 2^e just above their largest real or imaginary part, and the
    sums by 2^(4e) (fourth moments) or 2^(2e) (second moments) after it;
    in the normal range a power of two commutes with rounding, so no bit
    of the result changes.
    """
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim != 2:
        raise ValueError("snapshots must form an N x K matrix")
    n, k = x.shape
    if k < 2:
        raise ValueError(f"need at least 2 snapshots, got {k}")
    e = _binary_exponent(x)
    scale = math.ldexp(1.0, -e)
    p = n * (n + 1) // 2
    width = min(k, _BLOCK)
    xs = np.empty((n, width), np.complex64)   # the scaled block, x_a 2^-e
    xc = np.empty((n, width), np.complex64)   # its conjugate
    u = np.ones((p + 1, width), np.complex64)  # x_a x_b, a <= b, over a row of ones
    w = np.empty((n * n + p, width), np.complex64)  # x_c conj(x_d), then conj(x_c x_d)
    v = w[:n * n].reshape(n, n, width)
    m = np.zeros((p + 1, n * n + p), complex)  # distinct fourth moments, then second
    for start in range(0, k, _BLOCK):
        xb = x[:, start:start + _BLOCK]
        cols = xb.shape[1]
        bs, bc, bu, bw = xs[:, :cols], xc[:, :cols], u[:, :cols], w[:, :cols]
        np.multiply(xb, scale, out=bs, casting="same_kind")
        np.conjugate(bs, out=bc)
        row = 0
        for a in range(n):
            np.multiply(bs[a], bs[a:], out=bu[row:row + n - a])
            row += n - a
        np.multiply(bs[:, None, :], bc[None, :, :], out=v[:, :, :cols])
        np.conjugate(bu[:p], out=bw[n * n:])
        m += bu @ bw.T
    del xs, xc, u, w, v, bs, bc, bu, bw  # the block buffers, freed before the N^4 gathers
    real = m.view(m.real.dtype)
    np.ldexp(real[:p], 4 * e, out=real[:p])
    np.ldexp(real[p], 2 * e, out=real[p])
    m /= k
    rows, cols = np.triu_indices(n)
    pair = np.empty((n, n), np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(p)
    rb = m[p, :n * n].reshape(n, n)           # mean of x_a conj(x_b)
    ra = m[p, n * n:][pair].conj()            # mean of x_a x_b
    c1 = (
        m[pair, :n * n].reshape(n, n, n, n)
        - ra[:, :, None, None] * rb[None, None, :, :]
        - ra[:, None, :, None] * rb[None, :, None, :]
        - rb[:, None, None, :] * ra[None, :, :, None]
    )
    c2 = (
        m[pair[:, None, :, None], n * n + pair[None, :, None, :]]
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
    The sums span the whole co-array, which holds every case's lags, and
    [-Lc, Lc] is sliced out once; case 3, case 1 negated, is scattered at
    case 1's lags into the reversed sums, its mirrored lags.
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
    span = -multiset.lo
    sums = np.zeros(2 * span + 1, dtype=complex)
    index = case_virtual_positions(array, 1) + span
    np.add.at(sums, index, bank.case1.ravel())
    np.add.at(sums, case_virtual_positions(array, 2) + span, bank.case2.ravel())
    np.add.at(sums[::-1], index, bank.case(3).ravel())
    kept = slice(span - lc, span + lc + 1)
    values = sums[kept] / multiset.counts[kept]
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
    """Scan grid and the virtual-ULA steering rows one length's scan uses.

    Returns ``(grid_deg, steering)``: ``grid_deg`` steps through the open
    range (-90, 90) degrees, and ``steering`` is ``signalsim.manifold``
    of the ULA at positions 0..b over it, b = ceil(sqrt(sub)): the powers
    z^0..z^b of z = exp(j*pi*sin(theta)) that ``ss_music`` evaluates its
    degree sub-1 polynomial with.  A step that is not finite and
    positive raises ``ValueError``, and so does one too small for
    ``np.arange`` to size (1e-300); a grid too large to allocate raises
    ``MemoryError``.  Both arrays are read-only, and the last pair is
    cached per process, since a sweep estimates with one setting.  The
    cache keeps that one grid alive: about 6.9 MB for the 19-sensor
    design (length 2187, b = 47) at a 0.02 degree step.
    """
    if sub < 1:
        raise ValueError(f"subarray length must be positive, got {sub}")
    if not (math.isfinite(grid_step_deg) and grid_step_deg > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid_step_deg}")
    grid = np.arange(-90.0 + grid_step_deg, 90.0, grid_step_deg)
    # arange can overshoot its stop by rounding (90.00000000000684 at a 0.015 step)
    grid = grid[grid < 90.0]
    baby_steps = math.isqrt(sub - 1) + 1     # ceil(sqrt(sub))
    steering = manifold(SensorArray(tuple(range(baby_steps + 1))), grid)
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


# Top-D subspace iteration: extra block columns beyond D, and the residual
# tolerance and the rank threshold (both relative to the largest eigenvalue).
_OVERSAMPLE = 8
_RESIDUAL_TOL = 1e-13
_RANK_TOL = 1e-12


def _signal_subspace(values: np.ndarray, n_sources: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``n_sources`` largest eigenpairs of R = T^2, T the Hermitian Toeplitz matrix of ``values``.

    ``values`` is a conjugate-symmetric vector of lags -L..L, as
    ``ss_music`` has checked it, and T[i, j] is its lag i - j for i, j in
    0..L, so T^2 is the smoothed covariance times L+1 (Pal & Vaidyanathan,
    IEEE TSP 58(8), 2010).  Returns ``(eigvals, eigvecs)`` in ascending
    order, as ``np.linalg.eigh`` orders them.  T is built once, as one
    contiguous copy of the vector scaled by 2^-e, with 2^e just above its
    largest real or imaginary part, so no stage overflows or underflows
    while the vector is finite; in the normal range a power of two
    commutes with rounding, so the eigenvectors do not depend on the
    vector's scale.  The eigenvalues returned are those of T^2 2^-2e.

    Block subspace iteration with Rayleigh-Ritz (Saad, *Numerical
    Methods for Large Eigenvalue Problems*, 2011, ch. 5): a block of
    D + 8 columns takes one product Z = T (T Q) per iteration, two GEMMs
    that never form R.  It starts from the orthonormal basis of the first
    D + 8 columns of W = T J, the Hankel window matrix: any D or more
    consecutive columns of the Hankel matrix of D exponentials span their
    signal subspace (the matrix-pencil fact: Hua & Sarkar, IEEE TASSP
    38(5), 1990), so the start holds the signal up to the noise.  The Ritz
    pairs come from the projected matrix Q^H Z, and R X = Z V gives their
    residuals without a second product.  The iteration stops once every
    one of the D residuals is at most 1e-13 times the largest Ritz value.

    ``np.linalg.eigh`` of the scaled T answers instead, keeping the D
    eigenpairs of largest |lambda| and returning lambda^2, when the block
    is at least half the matrix, when the D-th Ritz value is at most
    1e-12 times the largest (R has rank below D, where the signal
    subspace is not unique), and when the iteration would not converge
    within its cap of sub/block iterations, which cost a third (N = 13,
    15) to a half (N = 9) of the full decomposition.  From the third
    iteration on, the largest residual's shrink factor over the last
    iteration predicts the iterations still needed; once they pass the
    cap, ``eigh`` runs at once.  The second iteration's factor reads too
    slow on many-source scenes that converge (60 sources at N = 19).  A
    scene whose D-th eigenvalue lies too close to the next one (40
    sources at N = 9, 12 at N = 7) so pays three iterations on top of
    the plain ``eigh``, not the whole cap.
    """
    sub = values.size // 2 + 1
    block = n_sources + _OVERSAMPLE
    scaled = values[::-1] * math.ldexp(1.0, -_binary_exponent(values))
    t = np.lib.stride_tricks.sliding_window_view(scaled, sub)[::-1].copy()
    if 2 * block < sub:
        q = np.linalg.qr(t[:, ::-1][:, :block])[0]   # W's first D + 8 columns
        # sub/block iterations cost a third to a half of the full eigh
        cap = sub // block
        for done in range(1, cap + 1):
            z = t @ (t @ q)
            theta, v = np.linalg.eigh(q.conj().T @ z)
            top = theta[-1]
            if not theta[-n_sources] > max(_RANK_TOL * top, 0.0):
                break
            x = q @ v[:, -n_sources:]
            rx = z @ v[:, -n_sources:]
            worst = np.max(np.linalg.norm(rx - x * theta[-n_sources:], axis=0))
            if worst <= _RESIDUAL_TOL * top:
                return theta[-n_sources:], x
            if done > 2:
                shrink = worst / last
                if not 0 < shrink < 1:
                    break                   # the residual did not shrink
                if done + math.log(_RESIDUAL_TOL * top / worst) / math.log(shrink) > cap:
                    break                   # the iterations still needed pass the cap
            last = worst
            q = np.linalg.qr(z)[0]
    eigvals, eigvecs = np.linalg.eigh(t)
    kept = np.argsort(np.abs(eigvals), kind="stable")[sub - n_sources:]
    return eigvals[kept] ** 2, eigvecs[:, kept]


def _signal_polynomial(signal: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Re of sum_{m=1}^{sub-1} c_m z^m over the grid, c_m the signal eigenvectors' summed autocorrelation.

    For steering a = (z^0..z^{sub-1}), |Es^H a|^2 = D + 2 Re of that sum
    (root-MUSIC's polynomial: Barabell, ICASSP 1983; Rao & Hari, IEEE
    TASSP 37(12), 1989), with c_m = sum_k sum_q e_k[q] conj(e_k[q+m]).
    The c_m come from one FFT autocorrelation of the sub x D ``signal``,
    zero-padded to the power of two n >= 2 sub - 1 so that no lag wraps.
    The sum is evaluated baby-step/giant-step over ``powers``, the rows
    z^0..z^b of ``steering_grid``: writing m = i*b + j, one
    (ceil(sub/b) x b) @ (b x G) GEMM gives each row's sum_j c_{ib+j} z^j,
    and ceil(sub/b) - 1 Horner steps in w = z^b add the rows up.
    """
    sub = signal.shape[0]
    b = powers.shape[0] - 1
    n = 1 << (2 * sub - 2).bit_length()
    spectra = np.fft.fft(signal, n, axis=0)
    power = np.sum(spectra.real ** 2 + spectra.imag ** 2, axis=1)
    rows = -(-sub // b)
    table = np.zeros(rows * b, complex)
    table[1:sub] = np.fft.rfft(power)[1:sub] / n
    partial = table.reshape(rows, b) @ powers[:b]
    acc = partial[-1]
    for row in partial[-2::-1]:
        acc *= powers[b]
        acc += row
    return acc.real


def ss_music(
    values: np.ndarray,
    n_sources: int,
    grid_step_deg: float = 0.05,
    min_peak_sep_deg: float = 0.5,
) -> DoaEstimate:
    """Spatial-smoothing MUSIC over ``assemble_foeca``'s vector of lags -Lc..Lc.

    Lc is the vector's length // 2, and input that is not a 1-D vector of
    odd length raises ``ValueError``; ``n_sources`` is read through
    ``operator.index``, so a non-integer raises ``TypeError``.  The vector
    is cut into its Lc+1 overlapping subvectors of length Lc+1
    (``subarray_length``), which fixes the resolvable-source capacity at
    Lc; the mean of their outer products is the smoothed covariance
    T^2/(Lc+1), T the Hermitian Toeplitz matrix of lags 0..Lc, which the
    eigensolver builds from the vector and applies as T (T Q), so memory stays
    O(L^2 + sqrt(L)*G) for G grid points.  That identity needs
    value(-m) = conj(value(m)) exactly, as ``assemble_foeca`` returns the
    vector, so a finite vector without that symmetry raises
    ``ValueError``.  A measurement that is not finite (the
    double-precision moments overflow below about -1523 dB SNR) gets no
    eigensolve: its estimate has no angles, a NaN spectrum and
    ``rank_ok`` false.

    The MUSIC pseudo-spectrum is 1 / |En^H a|^2 over the noise subspace
    En.  With unit-modulus steering |a|^2 = sub, so the scan computes
    sub - |Es^H a|^2 over the D = ``n_sources`` dimensional signal
    subspace Es instead, and takes it as one Hermitian polynomial in
    z = exp(j*pi*sin(theta)): (sub - D) - 2 Re sum_{m>=1} c_m z^m
    (``_signal_polynomial``).  Its coefficients cost O(D*L*log L) and its
    baby-step/giant-step evaluation O(L*G) work with a sqrt(L) x G
    temporary, where the noise subspace would cost O(L^2*G).  The
    subtraction is floored at its rounding error, sub*eps, where exact
    cumulants cancel it.

    Es comes from ``_signal_subspace``: block subspace iteration for the
    D largest eigenpairs, two O(L^2*D) products with T per iteration
    instead of the O(L^3) covariance and ``eigh`` (5 to 7 iterations on
    the C10 scenes; 0.3 s at the 19-sensor design, L = 2186).  Where it
    would not converge within its cap, or the covariance has rank below
    D, Es holds the eigenvectors of the D largest |eigenvalues| of the
    full ``eigh`` of T.  ``rank_ok`` says whether the D-th largest
    eigenvalue of T^2 exceeds 1e-12 times the largest.

    Returns the ``n_sources`` largest well-separated spectrum peaks,
    parabolic-refined off the grid; fewer when the spectrum has fewer
    peaks at least ``min_peak_sep_deg`` apart.  A separation wider than
    the grid allows one peak, however large it is.

    The scan grid and its steering rows z^0..z^b come from the
    per-process cache of ``steering_grid``, so a sweep at one setting
    builds them once.
    """
    n_sources = operator.index(n_sources)
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
    if not np.array_equal(values, values[::-1].conj()):
        raise ValueError("values must be conjugate-symmetric, value(-m) = conj(value(m)), "
                         "as assemble_foeca returns them")
    eigvals, signal = _signal_subspace(values, n_sources)
    denom = (sub - n_sources) - 2 * _signal_polynomial(signal, steering)
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
