"""Cumulant estimation, lag assembly and co-array MUSIC.

The vectorized cumulant estimator is checked against a literal
loop-and-pairings oracle, and the full pipeline against both analytic
(closed-form) cumulants and a plain physical-ULA MUSIC reference.
"""

import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from coarraylab import estimator
from coarraylab.coarray import analyze_segment, case_virtual_positions, foeca
from coarraylab.estimator import (
    CumulantBank,
    assemble_foeca,
    match_nearest,
    sample_cumulants,
    ss_music,
    steering_grid,
)
from coarraylab.geometry import SensorArray, build_fogna
from coarraylab.optimizer import optimize
from coarraylab.signalsim import SourceScene, manifold, simulate

# the sign of each index's position in the virtual lag of each case
CASE_SIGNS = {
    1: (1, 1, 1, -1),
    2: (1, -1, 1, -1),
    3: (-1, -1, -1, 1),
}

CONJ_SLOTS = {
    1: (False, False, False, True),
    2: (False, True, False, True),
    3: (True, True, True, False),
}


def naive_cumulants(x, case):
    """Literal four-index loop over the moment/pairing expansion."""
    slots = CONJ_SLOTS[case]
    n = x.shape[0]
    out = np.zeros((n, n, n, n), dtype=complex)
    for quad in product(range(n), repeat=4):
        args = [x[i].conj() if c else x[i] for i, c in zip(quad, slots)]
        pair = lambda i, j: np.mean(args[i] * args[j])
        out[quad] = (
            np.mean(args[0] * args[1] * args[2] * args[3])
            - pair(0, 1) * pair(2, 3)
            - pair(0, 2) * pair(1, 3)
            - pair(0, 3) * pair(1, 2)
        )
    return out


def analytic_bank(array, angles_deg):
    """Closed-form noiseless cumulant tensors for BPSK sources (cases 1, 2)."""
    cases = []
    for case in (1, 2):
        v = case_virtual_positions(array, case).reshape((array.n_sensors,) * 4)
        tensor = np.zeros(v.shape, dtype=complex)
        for theta in angles_deg:
            tensor += -2 * np.exp(1j * np.pi * v * math.sin(math.radians(theta)))
        cases.append(tensor)
    return CumulantBank(cases[0], cases[1])


def lags_of(meas):
    """The lags -Lc..Lc of an ``assemble_foeca`` vector of length 2Lc+1."""
    lc = meas.size // 2
    return np.arange(-lc, lc + 1)


def outer_product_covariance(values, sub):
    """Literal spatial smoothing: the mean of the windows' outer products.

    It forms a (windows x sub x sub) temporary, so it is kept only as the
    reference for the Gram-product covariance.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, sub)
    return (windows[:, :, None] * windows.conj()[:, None, :]).mean(axis=0)


def gram_covariance(values, sub):
    """The smoothed covariance as one Gram product of the window (Hankel) matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(values, sub)
    return windows.T @ windows.conj() / windows.shape[0]


def window_matrix(values):
    """The Hankel view whose rows are the Lc+1 windows of length Lc+1 that ``ss_music`` smooths."""
    return np.lib.stride_tricks.sliding_window_view(values, values.size // 2 + 1)


def scaled_windows(windows):
    """W 2^-e, with 2^e just above W's largest |Re| or |Im| and e >= -1021."""
    _, e = math.frexp(max(np.max(np.abs(windows.real)), np.max(np.abs(windows.imag))))
    return windows * math.ldexp(1.0, -max(e, -1021))


def scaled_gram(windows):
    """W^T conj(W) of ``scaled_windows(W)``.

    ``_signal_subspace`` returns eigenpairs of this matrix, and its
    ``eigh`` fallback decomposes it as formed here, bit for bit.
    """
    scaled = scaled_windows(windows)
    return scaled.T @ scaled.conj()


def iterated_signal_subspace(windows, n_sources):
    """The ``n_sources`` dominant eigenvectors of ``scaled_gram(windows)``, without forming it.

    Plain orthogonal iteration (Golub & Van Loan, *Matrix Computations*,
    4th ed., 2013, sec. 8.2.4), apart from ``_signal_subspace``'s: a
    block of 2D columns from its own seeded complex Gaussian start takes
    30 fixed steps Q <- qr(W^T conj(W conj(Q))) with no stopping test,
    and Rayleigh-Ritz on the last block keeps the D largest Ritz vectors.
    """
    scaled = scaled_windows(windows)
    rng = np.random.default_rng(19)
    shape = (scaled.shape[1], 2 * n_sources)
    q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    for _ in range(30):
        q = np.linalg.qr(scaled.T @ np.conj(scaled @ q.conj()))[0]
    _, v = np.linalg.eigh(q.conj().T @ (scaled.T @ np.conj(scaled @ q.conj())))
    return q @ v[:, -n_sources:]


def projector_distance(a, b):
    """||a a^H - b b^H||_2 of orthonormal bases of equal dimension, without the sub x sub projectors.

    It is ||b - a a^H b||_2, the sine of their largest principal angle.
    """
    return np.linalg.norm(b - a @ (a.conj().T @ b), 2)


# ``steering_grid`` without its cache: every call builds a new pair
build_grid = steering_grid.__wrapped__


def full_steering(values, grid_deg):
    """The whole sub x G virtual-ULA ``manifold`` of an ``assemble_foeca`` vector's scan."""
    return manifold(SensorArray(tuple(range(values.size // 2 + 1))), grid_deg)


def noise_subspace_spectrum(values, n_sources, grid_deg, covariance=gram_covariance):
    """MUSIC spectrum 1 / |En^H a|^2 scanned over the (sub - D)-dim noise subspace.

    ``ss_music`` evaluates sub - |Es^H a|^2 over the D-dimensional signal
    subspace as a polynomial instead, which gives the same spectrum up to
    rounding; this is its reference, over the full steering matrix, with
    En from ``np.linalg.eigh`` of ``covariance(values, sub)``.
    """
    steering = full_steering(values, grid_deg)
    sub = steering.shape[0]
    _, eigvecs = np.linalg.eigh(covariance(values, sub))
    noise = eigvecs[:, : sub - n_sources]
    return 1.0 / np.sum(np.abs(noise.conj().T @ steering) ** 2, axis=0)


def explicit_grid_spectrum(values, n_sources, grid_deg, signal=None):
    """The signal-subspace spectrum of ``ss_music``, scanned as a D x sub x G product.

    The reference for the polynomial scan: the same floor, with the signal
    subspace ``signal`` or, by default, from ``np.linalg.eigh`` of the
    scaled Gram product that ``_signal_subspace`` decomposes, and each
    steering vector of the full ``manifold`` projected on it explicitly.
    """
    steering = full_steering(values, grid_deg)
    sub = steering.shape[0]
    if signal is None:
        signal = np.linalg.eigh(scaled_gram(window_matrix(values)))[1][:, sub - n_sources:]
    denom = sub - np.sum(np.abs(signal.conj().T @ steering) ** 2, axis=0)
    return 1.0 / np.maximum(denom, sub * np.finfo(float).eps)


def assert_same_peaks(est, ref, n_sources, grid_step):
    """``est`` has the 1e-6-rounded angles that ``_pick_peaks`` finds in the spectrum ``ref``."""
    min_sep_cells = max(1, round(0.5 / grid_step))
    ref_angles = np.sort(estimator._pick_peaks(est.grid_deg, ref, n_sources, min_sep_cells))
    assert np.array_equal(np.round(est.angles_deg, 6), np.round(ref_angles, 6))


def assert_matches_oracle(est, ref, n_sources, grid_step):
    """The spectrum within rtol 1e-8 of ``ref``, and the same 1e-6-rounded peaks."""
    assert np.allclose(est.spectrum, ref, rtol=1e-8, atol=0)
    assert_same_peaks(est, ref, n_sources, grid_step)


def fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed):
    arr = build_fogna(optimize(n_sensors).best_params)
    snap = simulate(arr, SourceScene(truths, seed=seed), snr_db, n_snapshots)
    return assemble_foeca(sample_cumulants(snap), arr)


TWELVE_SOURCES = tuple(np.linspace(-60.0, 60.0, 12))

# (n_sensors, truths, snr_db, n_snapshots, grid_step)
NOISY_SCENES = [
    (9, TWELVE_SOURCES, 5.0, 14_000, 0.02),
    (7, (-30.0, 30.0), 10.0, 10_000, 0.05),
    (7, (-0.8, 0.8), 0.0, 10_000, 0.05),
    (7, (-40.0, -5.0, 20.0, 55.0), 0.0, 6_000, 0.05),
]


def assert_within_single_precision(bank, x):
    """Each case within 256 float32 eps of its largest entry of the naive oracle."""
    bound = 256 * np.finfo(np.float32).eps
    for case in (1, 2, 3):
        ref = naive_cumulants(x, case)
        err = np.max(np.abs(bank.case(case) - ref)) / np.max(np.abs(ref))
        assert err <= bound, f"case {case}: {err:.2e} of the largest entry"


def gaussian_integers(rng, shape):
    """Entries in {-2..2} + j{-2..2}: every single-precision product and block sum is exact."""
    return (rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)).astype(complex)


class TestSampleCumulants:
    def test_matches_naive_oracle(self):
        # the moments are single-precision GEMMs: a cancelling entry of
        # case 2 errs by 1.4e-6 here, so the bound is relative to the largest
        rng = np.random.default_rng(123)
        x = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
        assert_within_single_precision(sample_cumulants(x), x)

    def test_bpsk_kurtosis_is_exact(self):
        # a noiseless BPSK stream gives the -2 cumulant exactly
        # at any K: every fourth power and second moment is deterministic
        rng = np.random.default_rng(5)
        s = rng.choice([-1.0, 1.0], size=(1, 16))
        bank = sample_cumulants(s)
        for case in (1, 2, 3):
            assert bank.case(case)[0, 0, 0, 0] == pytest.approx(-2.0)

    def test_gaussian_entries_vanish(self):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal((3, 100_000)) + 1j * rng.standard_normal((3, 100_000))) / np.sqrt(2)
        bank = sample_cumulants(x)
        for case in (1, 2, 3):
            assert np.max(np.abs(bank.case(case))) < 0.05

    def test_case3_is_conjugate_of_case1(self):
        arr = SensorArray((0, 1, 2))
        snap = simulate(arr, SourceScene((25.0,), seed=4), 5.0, 2000)
        bank = sample_cumulants(snap)
        assert np.array_equal(bank.case(3), bank.case1.conj())

    def test_single_source_case2_model(self):
        arr = SensorArray((0, 1))
        snap = simulate(arr, SourceScene((30.0,), seed=6), math.inf, 64)
        bank = sample_cumulants(snap)
        v = case_virtual_positions(arr, 2).reshape(2, 2, 2, 2)
        model = -2 * np.exp(1j * np.pi * v * 0.5)
        assert np.allclose(bank.case2, model, atol=1e-12)

    @pytest.mark.parametrize("k", [60, estimator._BLOCK, 2 * estimator._BLOCK + 37],
                             ids=["below-one-block", "one-block", "ragged-last-block"])
    def test_blocked_accumulation_matches_naive_oracle(self, k):
        # Gaussian-integer snapshots make the single-precision moments
        # exact, so this checks the block and moment bookkeeping alone
        rng = np.random.default_rng(k)
        x = gaussian_integers(rng, (3, k))
        bank = sample_cumulants(x)
        for case in (1, 2, 3):
            assert np.allclose(bank.case(case), naive_cumulants(x, case), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, kind", [(1, "complex"), (2, "complex"), (3, "real")],
                             ids=["N1", "N2", "real-input"])
    def test_small_and_real_inputs_match_naive_oracle(self, n, kind):
        # the distinct-moment index maps at their smallest sizes, and real
        # snapshots through the complex64 GEMM, on exact integer data
        rng = np.random.default_rng(n)
        k = estimator._BLOCK + 37
        x = gaussian_integers(rng, (n, k))
        if kind == "real":
            x = x.real.copy()
        bank = sample_cumulants(x)
        assert bank.case1.dtype == bank.case2.dtype == np.complex128
        for case in (1, 2, 3):
            assert np.allclose(bank.case(case), naive_cumulants(x, case), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [estimator._BLOCK, 2 * estimator._BLOCK + 37],
                             ids=["one-block", "ragged-last-block"])
    def test_single_precision_moments_stay_within_bound(self, k):
        # the block GEMM runs in complex64: on Gaussian data it errs by 58
        # and 99 float32 eps of the largest entry (6.9e-6 and 1.2e-5), far
        # below the K^(-1/2) sampling error
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        assert_within_single_precision(sample_cumulants(x), x)

    def test_noise_dominated_moments_stay_within_bound(self):
        # at -20 dB the single-precision second moments cancel the fourth
        # moments most: this scene errs by 113 float32 eps of the largest entry
        arr = build_fogna(optimize(4).best_params)
        x = simulate(arr, SourceScene((-20.0, 30.0), seed=6), -20.0, 2 * estimator._BLOCK + 37)
        assert_within_single_precision(sample_cumulants(x), x)

    def test_strided_input_matches_its_contiguous_copy(self):
        # a complex column slice is not C-contiguous; an imaginary spike
        # of 2^40 overflows single precision unless the scaling finds it
        rng = np.random.default_rng(4)
        wide = rng.standard_normal((3, 3000)) + 1j * rng.standard_normal((3, 3000))
        wide[1, 7] += 2.0 ** 40 * 1j
        strided, copy = wide[:, :2500], np.ascontiguousarray(wide[:, :2500])
        assert not strided.flags.c_contiguous
        bank, want = sample_cumulants(strided), sample_cumulants(copy)
        assert np.all(np.isfinite(bank.case1)) and np.all(np.isfinite(bank.case2))
        assert np.array_equal(bank.case1, want.case1)
        assert np.array_equal(bank.case2, want.case2)

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("power", [-100, 100, 200])
    def test_power_of_two_scaling_is_exact(self, power, kind):
        # single precision holds the moments of x 2^100 (1e120) or x 2^-100
        # (1e-120) only because the snapshots are scaled into its range first
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, estimator._BLOCK + 37))
        if kind == "complex":
            x = x + 1j * rng.standard_normal(x.shape)
        bank = sample_cumulants(x)
        scaled = sample_cumulants(x * 2.0 ** power)
        factor = 2.0 ** (4 * power)
        assert np.all(np.isfinite(scaled.case1)) and np.all(np.isfinite(scaled.case2))
        assert np.array_equal(scaled.case1, factor * bank.case1)
        assert np.array_equal(scaled.case2, factor * bank.case2)

    def test_memory_does_not_grow_with_snapshots(self):
        # the moments are summed block by block, so K = 112000 may not
        # need much more than K = 14000 beyond the input itself
        rng = np.random.default_rng(2)
        peaks = []
        for k in (14_000, 112_000):
            x = rng.standard_normal((9, k)) + 1j * rng.standard_normal((9, k))
            tracemalloc.start()
            try:
                sample_cumulants(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], f"peaks {peaks[0] / 1e6:.1f} and {peaks[1] / 1e6:.1f} MB"

    def test_keeps_no_state_between_calls(self):
        # nothing N^4-sized may outlive the call: at N = 13 one cached
        # int64 index table over both tensors would hold 457 KB
        rng = np.random.default_rng(13)
        x = rng.standard_normal((13, 64)) + 1j * rng.standard_normal((13, 64))
        tracemalloc.start()
        try:
            bank = sample_cumulants(x)
            del bank
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64_000, f"{retained / 1e3:.1f} KB retained"

    def test_block_buffers_are_freed_before_the_gathers(self):
        # N = 19, K = 2000: 15.1 MB traced with the block products freed
        # before the N^4 gathers, 20.7 MB with them held to the return
        rng = np.random.default_rng(19)
        x = rng.standard_normal((19, 2000)) + 1j * rng.standard_normal((19, 2000))
        tracemalloc.start()
        try:
            sample_cumulants(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 18e6, f"sample_cumulants peaked at {peak / 1e6:.1f} MB"

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            sample_cumulants(np.ones((2, 1), dtype=complex))

    @pytest.mark.parametrize("shape", [(64,), (2, 3, 64)], ids=["1-D", "3-D"])
    def test_rejects_input_that_is_not_a_matrix(self, shape):
        with pytest.raises(ValueError, match="snapshots must form an N x K matrix"):
            sample_cumulants(np.ones(shape, dtype=complex))


class TestAssemble:
    def test_vector_is_the_mean_of_each_lags_entries(self):
        # literal oracle: the mean of every (case, quadruple) entry whose
        # virtual lag lies in [-Lc, Lc], then v <- (v + conj(v[::-1])) / 2
        arr = build_fogna((4, 2, 1))
        bank = sample_cumulants(simulate(arr, SourceScene((10.0,), seed=9), 10.0, 500))
        lc = analyze_segment(foeca(arr)).lc
        entries = {lag: [] for lag in range(-lc, lc + 1)}
        for case, signs in CASE_SIGNS.items():
            tensor = bank.case(case)
            for quad in product(range(arr.n_sensors), repeat=4):
                lag = sum(s * arr.positions[i] for s, i in zip(signs, quad))
                if -lc <= lag <= lc:
                    entries[lag].append(tensor[quad])
        oracle = np.array([np.mean(entries[lag]) for lag in range(-lc, lc + 1)])
        oracle = (oracle + oracle[::-1].conj()) / 2
        meas = assemble_foeca(bank, arr)
        assert meas.shape == (2 * lc + 1,)
        assert np.max(np.abs(meas - oracle)) <= 1e-12

    def test_single_broadside_source_constant(self):
        arr = SensorArray((0, 1, 3))
        snap = simulate(arr, SourceScene((0.0,), seed=10), math.inf, 32)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        assert np.allclose(meas, -2.0, atol=1e-12)

    def test_two_sensor_phase_model(self):
        arr = SensorArray((0, 1))
        snap = simulate(arr, SourceScene((30.0,), seed=11), math.inf, 64)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        model = -2 * np.exp(1j * np.pi * lags_of(meas) * 0.5)
        assert np.allclose(meas, model, atol=1e-12)

    def test_analytic_bank_reproduces_phases(self):
        arr = SensorArray((0, 1, 2))
        theta = 23.0
        meas = assemble_foeca(analytic_bank(arr, [theta]), arr)
        model = -2 * np.exp(1j * np.pi * lags_of(meas) * math.sin(math.radians(theta)))
        assert np.max(np.abs(meas - model)) < 1e-10

    # sha256 of the vector for a seeded Gaussian bank on the optimized
    # design, at the measured Lc and at half of it, taken when each case's
    # lags were masked to [-Lc, Lc] and scattered one case at a time
    @pytest.mark.parametrize("n, half, digest", [
        (7, False, "2ae6506834aae6ba5d424bbed4dc9e2883e5d601b6431a3c5053c0b7b9fff89c"),
        (7, True, "798dd0489e65629c525c74a7461c93fd8a98ebaba76c2355de017d02703c7edf"),
        (9, False, "ea2495a13199981654066196e8b7dacab7a0b9ecec6dd8832aea4ab04760ebf7"),
        (9, True, "3583c8580999e78fc67912517240748fa53c2ce17796fb3ae991b076a09fdda2"),
        (19, False, "523d75bad4fc3bc9069fa93ad254a4fb4eeff2664dd55da871237d916a868cae"),
        (19, True, "54dfd76f01b8cb494ff321347ccacd199cf65cc7be20697f055533c21c179c1a"),
    ])
    def test_vector_is_pinned(self, n, half, digest):
        arr = build_fogna(optimize(n).best_params)
        z = np.random.default_rng(n).standard_normal((2, 2) + (n,) * 4)
        c = z[:, 0] + 1j * z[:, 1]
        measured = analyze_segment(foeca(arr)).lc
        meas = assemble_foeca(CumulantBank(c[0], c[1]), arr, measured // 2 if half else None)
        assert hashlib.sha256(meas.tobytes()).hexdigest() == digest

    def test_given_lc_is_the_central_part_of_the_default(self):
        # per-lag sums do not depend on Lc, so a smaller segment is a bitwise slice
        arr = build_fogna((4, 2, 1))
        bank = sample_cumulants(simulate(arr, SourceScene((10.0,), seed=9), 10.0, 500))
        full = assemble_foeca(bank, arr)
        measured = full.size // 2
        for lc in (0, 5, measured):
            part = assemble_foeca(bank, arr, lc=lc)
            assert part.tobytes() == full[measured - lc:measured + lc + 1].tobytes()

    @pytest.mark.parametrize("lc_of", [lambda m: m + 1, lambda m: -1, lambda m: 10**6],
                             ids=["measured+1", "-1", "beyond-span"])
    def test_rejects_lc_outside_the_measured_segment(self, lc_of):
        # the 7-sensor design measures Lc = 88; its co-array spans [-156, 156]
        arr = build_fogna((4, 2, 1))
        measured = analyze_segment(foeca(arr)).lc
        with pytest.raises(ValueError, match=rf"lc must lie in \[0, {measured}\]"):
            assemble_foeca(analytic_bank(arr, [10.0]), arr, lc=lc_of(measured))

    def test_conjugate_symmetry_enforced(self):
        arr = build_fogna((4, 2, 1))
        snap = simulate(arr, SourceScene((-15.0, 40.0), seed=12), 0.0, 2000)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        assert np.allclose(meas, meas[::-1].conj())


class TestSsMusic:
    def test_single_source_on_grid(self):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [10.0]), arr)
        est = ss_music(meas, 1, grid_step_deg=0.05)
        assert est.angles_deg[0] == pytest.approx(10.0, abs=1e-6)
        assert est.rank_ok

    def test_orientation_not_mirrored(self):
        arr = SensorArray((0, 1, 2))
        meas = assemble_foeca(analytic_bank(arr, [20.0]), arr)
        est = ss_music(meas, 1)
        assert est.angles_deg[0] == pytest.approx(20.0, abs=1e-3)

    def test_rank_flag_degenerate(self):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [10.0]), arr)
        est = ss_music(meas, 2)
        assert not est.rank_ok

    def test_capacity_check(self):
        arr = SensorArray((0, 1))
        meas = assemble_foeca(analytic_bank(arr, [0.0]), arr)
        with pytest.raises(ValueError):
            ss_music(meas, meas.size // 2 + 1)

    @pytest.mark.parametrize("shape", [(2, 25), (24,)], ids=["2-D", "even-length"])
    def test_rejects_input_that_is_not_an_odd_length_vector(self, shape):
        with pytest.raises(ValueError, match="1-D vector of odd length"):
            ss_music(np.ones(shape, dtype=complex), 1)

    def test_two_close_sources_match_physical_ula(self):
        # dual route: the 7-sensor design's virtual subarray has Lc+1 = 89
        # elements, so classical MUSIC on a real 89-sensor ULA with the
        # same sources is an independent reference
        truths = (-30.0, 30.0)
        arr = build_fogna(optimize(7).best_params)
        snap = simulate(arr, SourceScene(truths, seed=21), 10.0, 10_000)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        assert meas.size // 2 + 1 == 89
        est = ss_music(meas, 2)
        assert np.allclose(est.angles_deg, truths, atol=0.5)

        ula = SensorArray(tuple(range(89)))
        x = simulate(ula, SourceScene(truths, seed=21), 10.0, 10_000)
        r = x @ x.conj().T / x.shape[1]
        eigvals, eigvecs = np.linalg.eigh(r)
        noise = eigvecs[:, :-2]
        grid = np.arange(-89.95, 90.0, 0.05)
        steering = np.exp(1j * np.pi * np.arange(89)[:, None] * np.sin(np.deg2rad(grid)))
        spec = 1.0 / np.sum(np.abs(noise.conj().T @ steering) ** 2, axis=0)
        peaks = np.argsort(spec)[::-1]
        ref = sorted(grid[peaks[:2]])
        assert np.allclose(est.angles_deg, ref, atol=0.2)

    @pytest.mark.parametrize("sep", [math.nan, math.inf, -math.inf, -0.1])
    def test_rejects_bad_min_peak_sep(self, sep):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [10.0]), arr)
        with pytest.raises(ValueError, match="min_peak_sep_deg"):
            ss_music(meas, 1, min_peak_sep_deg=sep)

    def test_separation_wider_than_the_grid_keeps_one_peak(self):
        # 1e308 / 0.05 is inf in cells; it acts as 180 deg, which the grid cannot hold
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [-12.0, 10.0]), arr)
        est = ss_music(meas, 2, min_peak_sep_deg=1e308)
        assert len(est.angles_deg) == 1
        assert np.array_equal(est.angles_deg, ss_music(meas, 2, min_peak_sep_deg=180.0).angles_deg)

    @pytest.mark.parametrize("power", [-200, -70, 70, 200])
    def test_estimate_does_not_depend_on_a_power_of_two_scale(self, power):
        # snapshots x 2^-70 give a smoothed covariance near 1e-169, and
        # x 2^70 one near 1e168; x 2^-200 and x 2^200 give measurements near
        # 1e-241 and 1e241, whose covariance would underflow or overflow:
        # the estimate is the same bit for bit
        arr = build_fogna(optimize(7).best_params)
        snap = simulate(arr, SourceScene((-40.0, -5.0, 20.0, 55.0), seed=3), 5.0, 6_000)
        want = ss_music(assemble_foeca(sample_cumulants(snap), arr), 4)
        got = ss_music(assemble_foeca(sample_cumulants(snap * 2.0 ** power), arr), 4)
        assert np.array_equal(got.spectrum, want.spectrum)
        assert np.array_equal(got.angles_deg, want.angles_deg)
        assert got.rank_ok and want.angles_deg.size == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_measurement_is_a_miss_before_any_eigensolve(self, monkeypatch, bad):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [-12.0, 10.0]), arr)
        meas[3] = bad

        def no_eigensolve(*args):
            raise AssertionError("eigensolve of a non-finite covariance")
        monkeypatch.setattr(estimator, "_signal_subspace", no_eigensolve)
        est = ss_music(meas, 2)
        assert est.angles_deg.size == 0 and not est.rank_ok
        assert est.spectrum.shape == est.grid_deg.shape and np.all(np.isnan(est.spectrum))


# C09's close-gap scene: 40 sources at N = 9
CLOSE_GAP_SCENE = (9, tuple(np.linspace(-60.0, 60.0, 40)), 0.0, 10_000, 0.02)
# one scene of the 19-sensor design, L = 2186: the noise-subspace oracle's
# full eigh and (sub - D) x sub x G product would take tens of seconds there
NINETEEN_SENSOR_SCENE = (19, TWELVE_SOURCES, 5.0, 14_000, 0.05)


class TestSignalSubspaceScan:
    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             [*NOISY_SCENES, CLOSE_GAP_SCENE])
    def test_spectrum_matches_noise_subspace_oracle(self, n_sensors, truths, snr_db,
                                                    n_snapshots, grid_step):
        # the subtraction sub - |Es^H a|^2 loses about sub*eps absolutely,
        # and the smallest noisy denominator is far above that
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        ref = noise_subspace_spectrum(meas, len(truths), est.grid_deg)
        assert_matches_oracle(est, ref, len(truths), grid_step)

    @pytest.mark.parametrize("positions, angles, n_sources", [
        ((0, 1, 2, 5, 8), (10.0,), 1),
        ((0, 1, 2), (20.0,), 1),
        ((0, 1, 2, 5, 8), (-12.0, 10.0), 2),
        ((0, 1, 2, 5, 8), (10.0,), 2),
    ])
    def test_exact_cumulant_spectrum_is_finite_and_positive(self, positions, angles, n_sources):
        # with exact cumulants the denominator cancels to rounding at the
        # true angles; the floor sub*eps bounds the spectrum there
        arr = SensorArray(positions)
        meas = assemble_foeca(analytic_bank(arr, angles), arr)
        est = ss_music(meas, n_sources)
        sub = meas.size // 2 + 1
        assert np.all(np.isfinite(est.spectrum)) and np.all(est.spectrum > 0)
        assert est.spectrum.max() <= 1.0 / (sub * np.finfo(float).eps)
        nearest = np.min(np.abs(est.angles_deg[:, None] - np.asarray(angles)), axis=0)
        assert np.all(nearest < 1e-6)


def eigh_sizes(monkeypatch):
    """Record the order of every ``np.linalg.eigh`` call from now on."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def windows_with_spectrum(eigvals, seed):
    """W = (U sqrt(eigvals))^T for a random unitary U, so that W^T conj(W) = U diag(eigvals) U^H."""
    rng = np.random.default_rng(seed)
    n = len(eigvals)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (u * np.sqrt(eigvals)).T


class TestTopEigenpairs:
    """``_signal_subspace`` on a window matrix W: subspace iteration, and ``eigh`` where it falls back."""

    @pytest.mark.parametrize("snr_db", [-7.0, -1.0, 5.0, 8.0])
    @pytest.mark.parametrize("n_sensors, truths", [
        (7, (-40.0, -5.0, 20.0, 55.0)),
        (9, TWELVE_SOURCES),
        (11, TWELVE_SOURCES),
        # 24 spread sources, which the start from W's own columns keeps
        # on the iteration path
        (11, tuple(np.linspace(-60.0, 60.0, 24))),
    ], ids=["N7", "N9", "N11", "N11-D24"])
    def test_projector_matches_eigh(self, monkeypatch, n_sensors, truths, snr_db):
        meas = fogna_measurement(n_sensors, truths, snr_db, 14_000, seed=500)
        w = window_matrix(meas)
        d = len(truths)
        want_vals, want_vecs = np.linalg.eigh(scaled_gram(w))
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(w, d)
        assert w.shape[1] not in sizes, "the scene fell back to the full eigh"
        signal = want_vecs[:, -d:]
        err = np.linalg.norm(vecs @ vecs.conj().T - signal @ signal.conj().T)
        assert err <= 1e-12
        assert np.allclose(vals, want_vals[-d:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("case, iterations", [
        ("rank-deficient", 1), ("predicted-past-cap", 3), ("block-half-the-matrix", 0)])
    def test_fallback_is_eigh_bit_for_bit(self, monkeypatch, case, iterations):
        if case == "rank-deficient":
            # exact cumulants of one source asked for two: rank 1 < D
            arr = SensorArray((0, 1, 2, 5, 8))
            w, d = window_matrix(assemble_foeca(analytic_bank(arr, [10.0]), arr)), 2
        elif case == "predicted-past-cap":
            # eigenvalues decay by 3% a step: the D-th converges at
            # (0.97^9)^k, which the third iteration shows to be too slow
            # for the cap of 100 // 12 = 8 iterations
            w, d = windows_with_spectrum(0.97 ** np.arange(100.0), seed=3), 4
        else:
            # a block of D + 8 = 25 columns is half of the 50 x 50 matrix
            w, d = windows_with_spectrum(0.5 ** np.arange(50.0), seed=4), 17
        want_vals, want_vecs = np.linalg.eigh(scaled_gram(w))
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(w, d)
        # one projected (D + 8)-square eigh per iteration, then the full one
        assert sizes == [d + 8] * iterations + [w.shape[1]]
        assert np.array_equal(vals, want_vals[-d:])
        assert np.array_equal(vecs, want_vecs[:, -d:])

    @pytest.mark.parametrize("n_sensors, n_sources, snr_db, n_snapshots, seed", [
        *[(7, 12, 5.0, 14_000, seed) for seed in range(4)],
        (9, 40, 0.0, 10_000, 2),
    ], ids=["N7-D12-seed0", "N7-D12-seed1", "N7-D12-seed2", "N7-D12-seed3", "C09"])
    def test_close_gap_scene_falls_back_after_three_iterations(self, monkeypatch, n_sensors,
                                                               n_sources, snr_db, n_snapshots, seed):
        # the D-th eigenvalue lies too close to the first one outside the
        # block to converge within the cap (4 iterations at both sizes)
        truths = tuple(np.linspace(-60.0, 60.0, n_sources))
        w = window_matrix(fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed))
        want_vals, want_vecs = np.linalg.eigh(scaled_gram(w))
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(w, n_sources)
        assert sizes == [n_sources + 8] * 3 + [w.shape[1]]
        assert np.array_equal(vals, want_vals[-n_sources:])
        assert np.array_equal(vecs, want_vecs[:, -n_sources:])

    def test_nineteen_sensor_many_source_scene_iterates(self, monkeypatch):
        # 60 sources over +-60 degrees at the 19-sensor design (sub = 2187,
        # a block of 68, a cap of 32): the iteration converges in 19 steps,
        # but the second one's shrink factor predicts more than the cap
        truths = tuple(np.linspace(-60.0, 60.0, 60))
        meas = fogna_measurement(19, truths, 5.0, 14_000, seed=0)
        sizes = eigh_sizes(monkeypatch)
        est = ss_music(meas, 60, grid_step_deg=0.05)
        assert 2187 not in sizes, "the scene fell back to the full eigh"
        # measured: 60 angles, the farthest 0.017 degrees off
        assert np.max(np.abs(match_nearest(est.angles_deg, truths))) <= 0.03

    @pytest.mark.parametrize("power", [-900, -560, 560, 900])
    def test_power_of_two_scaling_is_exact(self, monkeypatch, power):
        # W 2^-900 (near 1e-270) has a Gram product far below double
        # precision's range and W 2^900 one far above it; W is scaled first,
        # so the eigenpairs and the iterations are those of W itself
        w = window_matrix(fogna_measurement(9, TWELVE_SOURCES, 5.0, 14_000, (500, 0)))
        sizes = eigh_sizes(monkeypatch)
        want_vals, want_vecs = estimator._signal_subspace(w, 12)
        iterations = list(sizes)
        sizes.clear()
        vals, vecs = estimator._signal_subspace(w * 2.0 ** power, 12)
        assert sizes == iterations == [20] * len(iterations)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(vecs, want_vecs)

    def test_subnormal_covariance_matches_eigh(self, monkeypatch):
        # W x 1e-315 is subnormal; its unscaled Gram product would be 0
        w = window_matrix(fogna_measurement(9, TWELVE_SOURCES, 5.0, 14_000, (500, 0))) * 1e-315
        want_vals, want_vecs = np.linalg.eigh(scaled_gram(w))
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(w, 12)
        assert w.shape[1] not in sizes, "the scene fell back to the full eigh"
        signal = want_vecs[:, -12:]
        assert np.linalg.norm(vecs @ vecs.conj().T - signal @ signal.conj().T) <= 1e-12
        assert np.allclose(vals, want_vals[-12:], rtol=1e-13, atol=0)

    def test_c10_scenes_stay_on_the_iteration_path(self, monkeypatch):
        # the C10 sweep's N = 9, 12-source trials: seeds (500, trial), K = 14000
        sizes, fallbacks = eigh_sizes(monkeypatch), []
        for trial in range(3):
            for snr_db in (-7.0, -1.0, 5.0, 8.0):
                w = window_matrix(fogna_measurement(9, TWELVE_SOURCES, snr_db, 14_000, (500, trial)))
                sizes.clear()
                estimator._signal_subspace(w, 12)
                if w.shape[1] in sizes:
                    fallbacks.append((trial, snr_db))
        assert fallbacks == []


class TestRmse:
    """The nearest-angle matching behind every trial's RMSE."""

    def test_matching_is_nearest(self):
        errors = match_nearest([9.0, 1.1], [1.0, 10.0])
        assert errors == pytest.approx([-0.1, 1.0])

    @pytest.mark.parametrize("truths, estimates, want", [
        ([0.0, 1.0], [-5.0, 0.6], [5.0, 0.4]),
        ([5.0, 0.0, 1.0], [0.6, 5.1, -5.0], [-0.1, 5.0, 0.4]),
    ], ids=["sorted-truths", "unsorted-truths"])
    def test_a_miss_does_not_cascade(self, truths, estimates, want):
        # the sorted estimates pair with the sorted truths; nearest-first
        # in truth order would take 0.6 for truth 0 and leave -5 to
        # truth 1, errors -0.6 and 6.0
        assert match_nearest(estimates, truths) == pytest.approx(want)

    def test_rejects_unequal_counts(self):
        with pytest.raises(ValueError, match="1 estimates for 2 truth angles"):
            match_nearest([0.5], [0.0, 1.0])


class TestSmoothedCovariance:
    @pytest.mark.parametrize("sub", [None, 79])
    def test_matches_outer_product_oracle(self, sub):
        # the Gram product that the spectrum oracles decompose
        meas = fogna_measurement(7, (-30.0, 30.0), 10.0, 10_000, seed=21)
        sub = meas.size // 2 + 1 if sub is None else sub
        r = gram_covariance(meas, sub)
        assert r.shape == (sub, sub)
        assert np.allclose(r, outer_product_covariance(meas, sub), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             NOISY_SCENES)
    def test_angles_match_oracle_path(self, n_sensors, truths, snr_db, n_snapshots, grid_step):
        # the literal outer-product mean, its full eigh and the noise-subspace scan
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        ref = noise_subspace_spectrum(meas, len(truths), est.grid_deg, outer_product_covariance)
        assert_same_peaks(est, ref, len(truths), grid_step)
        assert est.angles_deg.size == len(truths) and est.rank_ok

    def test_nineteen_sensor_design_in_bounded_memory(self):
        # L = 2186: the outer-product mean would need a 2187^3 complex
        # temporary (167 GB), and the Gram covariance beside its scaled copy
        # took 160 MB; the scaled window matrix (77 MB) and the polynomial
        # scan keep ss_music near 80 MB
        meas = fogna_measurement(19, TWELVE_SOURCES, 5.0, 14_000, seed=19)
        assert meas.size // 2 == 2186
        tracemalloc.start()
        try:
            est = ss_music(meas, 12, grid_step_deg=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.rank_ok
        assert np.max(np.abs(est.angles_deg - np.asarray(TWELVE_SOURCES))) < 0.1
        assert peak < 120e6, f"ss_music peaked at {peak / 1e6:.0f} MB"


def baby_steps(sub):
    """ceil(sqrt(sub)): the steering rows z^0..z^b of a length-``sub`` scan number b + 1."""
    return math.ceil(math.sqrt(sub))


class TestSteeringGrid:
    def test_arrays_are_read_only(self):
        grid_deg, steering = steering_grid(10, 0.5)
        assert steering.shape == (baby_steps(10) + 1, grid_deg.size) == (5, 359)
        for arr in (grid_deg, steering):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("sub, step", [(205, 0.02), (89, 0.05)])
    def test_build_matches_out_of_place_oracle_and_peaks_at_its_size(self, sub, step):
        tracemalloc.start()
        try:
            grid_deg, steering = build_grid(sub, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        oracle = np.exp(1j * np.pi * np.arange(baby_steps(sub) + 1)[:, None]
                        * np.sin(np.deg2rad(grid_deg))[None, :])
        assert steering.tobytes() == oracle.tobytes()
        # the phases are exponentiated in place: no second grid-sized array
        size = steering.nbytes + grid_deg.nbytes
        assert peak <= 1.2 * size, f"{peak} B for {size} B"

    def test_nineteen_sensor_grid_is_small(self):
        # 48 rows of 8999 points, where the whole 2187 x 8999 manifold takes 315 MB
        tracemalloc.start()
        try:
            _, steering = build_grid(2187, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steering.shape == (48, 8999)
        assert peak < 8e6, f"steering_grid(2187, 0.02) peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("step", [0.015, 0.075, 1.2, 0.02, 0.05])
    def test_grid_lies_inside_the_open_range(self, step):
        # arange overshoots 90 at the first three steps; the scan must not reach endfire
        grid_deg, _ = steering_grid(3, step)
        assert grid_deg.size == round(180 / step) - 1
        assert -90.0 < grid_deg[0] and grid_deg[-1] < 90.0
        meas = TestSteeringGridCache.measurement()
        assert ss_music(meas, 2, grid_step_deg=step).grid_deg[-1] < 90.0

    @pytest.mark.parametrize("sub, step", [(205, 0.02), (89, 0.05), (372, 0.02), (1, 1.0),
                                           (7, 60.0)])
    def test_steering_is_the_virtual_ula_manifold(self, sub, step):
        # rows 0..b of the virtual ULA's manifold, bit for bit
        grid_deg, steering = steering_grid(sub, step)
        ula = manifold(SensorArray(tuple(range(baby_steps(sub) + 1))), grid_deg)
        assert steering.tobytes() == ula.tobytes()

    @pytest.mark.parametrize("sub, step", [(0, 0.05), (5, 0.0), (5, -0.1), (5, math.nan),
                                           (5, math.inf)])
    def test_build_rejects_bad_arguments(self, sub, step):
        with pytest.raises(ValueError, match="subarray length|grid step"):
            steering_grid(sub, step)


class TestSteeringGridCache:
    @staticmethod
    def measurement():
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [-12.0, 10.0]), arr)
        assert meas.size // 2 + 1 == 25
        return meas

    def test_same_setting_reuses_the_grid(self):
        meas = self.measurement()
        first = ss_music(meas, 2, grid_step_deg=0.05)
        second = ss_music(meas, 2, grid_step_deg=0.05)
        assert second.grid_deg is first.grid_deg
        assert np.array_equal(first.angles_deg, second.angles_deg)
        assert np.array_equal(first.spectrum, second.spectrum)

    @pytest.mark.parametrize("positions, step", [((0, 1, 2, 6), 0.05), ((0, 1, 2, 5, 8), 0.1)],
                             ids=["other-length", "other-step"])
    def test_other_setting_gets_its_own_grid(self, positions, step):
        # the 4-sensor array's Lc = 14 gives the length 15 instead of 25
        meas = self.measurement()
        default = ss_music(meas, 2, grid_step_deg=0.05)
        arr = SensorArray(positions)
        other_meas = assemble_foeca(analytic_bank(arr, [-12.0, 10.0]), arr)
        other = ss_music(other_meas, 2, grid_step_deg=step)
        assert other.grid_deg is not default.grid_deg
        assert np.array_equal(other.grid_deg, build_grid(other_meas.size // 2 + 1, step)[0])
        # exact cumulants cancel the denominator to rounding at the true
        # angles, so there the two scans agree within a few sub*eps
        # absolutely, not relatively
        ref = explicit_grid_spectrum(other_meas, 2, other.grid_deg)
        sub = other_meas.size // 2 + 1
        assert np.allclose(1 / other.spectrum, 1 / ref, rtol=0, atol=4 * sub * np.finfo(float).eps)
        assert_same_peaks(other, ref, 2, step)
        again = ss_music(meas, 2, grid_step_deg=0.05)
        assert np.array_equal(again.grid_deg, default.grid_deg)
        assert np.array_equal(again.spectrum, default.spectrum)

    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             [*NOISY_SCENES, CLOSE_GAP_SCENE, NINETEEN_SENSOR_SCENE])
    def test_spectrum_matches_explicitly_built_grid(self, n_sensors, truths, snr_db,
                                                   n_snapshots, grid_step):
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        assert np.array_equal(est.grid_deg, build_grid(meas.size // 2 + 1, grid_step)[0])
        signal = None
        if n_sensors == 19:
            # a full eigh of the 2187-square Gram matrix would take most of Tier-1's time
            windows = window_matrix(meas)
            signal = iterated_signal_subspace(windows, len(truths))
            assert projector_distance(signal, estimator._signal_subspace(windows, len(truths))[1]) <= 1e-12
        assert_matches_oracle(est, explicit_grid_spectrum(meas, len(truths), est.grid_deg, signal),
                              len(truths), grid_step)
