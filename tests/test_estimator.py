"""Cumulant estimation, lag assembly and co-array MUSIC.

The vectorized cumulant estimator is checked against a literal
loop-and-pairings oracle, and the full pipeline against both analytic
(closed-form) cumulants and a plain physical-ULA MUSIC reference.
"""

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
    smoothed_covariance,
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


# ``steering_grid`` without its cache: every call builds a new pair
build_grid = steering_grid.__wrapped__


def noise_subspace_spectrum(values, n_sources, grid):
    """MUSIC spectrum 1 / |En^H a|^2 scanned over the (sub - D)-dim noise subspace.

    ``grid`` is a ``(grid_deg, steering)`` pair.  ``ss_music`` scans the
    D-dimensional signal subspace instead, which gives the same spectrum
    up to rounding; this is its reference.
    """
    _, steering = grid
    sub = steering.shape[0]
    _, eigvecs = np.linalg.eigh(smoothed_covariance(values, sub))
    noise = eigvecs[:, : sub - n_sources]
    return 1.0 / np.sum(np.abs(noise.conj().T @ steering) ** 2, axis=0)


def explicit_grid_spectrum(values, n_sources, grid):
    """The signal-subspace spectrum of ``ss_music``, scanned over ``grid``.

    The reference for the grid that ``ss_music`` takes from its cache:
    the same arithmetic, top-D eigensolver included, over an explicitly
    built ``(grid_deg, steering)`` pair.
    """
    _, steering = grid
    sub = steering.shape[0]
    _, signal = estimator._signal_subspace(smoothed_covariance(values, sub), n_sources)
    denom = sub - np.sum(np.abs(signal.conj().T @ steering) ** 2, axis=0)
    return 1.0 / np.maximum(denom, sub * np.finfo(float).eps)


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


class TestSampleCumulants:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
        bank = sample_cumulants(x)
        for case in (1, 2, 3):
            assert np.allclose(bank.case(case), naive_cumulants(x, case), atol=1e-12)

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

    @pytest.mark.parametrize("k", [estimator._BLOCK, 2 * estimator._BLOCK + 37],
                             ids=["one-block", "ragged-last-block"])
    def test_blocked_accumulation_matches_naive_oracle(self, k):
        # test_matches_naive_oracle is the case K < block.  Gaussian-integer
        # entries in {-2..2} + j{-2..2} make every single-precision product
        # and block sum exact, so this checks the block bookkeeping alone
        rng = np.random.default_rng(k)
        x = (rng.integers(-2, 3, (3, k)) + 1j * rng.integers(-2, 3, (3, k))).astype(complex)
        bank = sample_cumulants(x)
        for case in (1, 2, 3):
            assert np.allclose(bank.case(case), naive_cumulants(x, case), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [estimator._BLOCK, 2 * estimator._BLOCK + 37],
                             ids=["one-block", "ragged-last-block"])
    def test_single_precision_moments_stay_within_bound(self, k):
        # the block GEMMs run in complex64: on Gaussian data they err by
        # 27 and 61 float32 eps of the largest entry (3.2e-6 and 7.2e-6),
        # far below the K^(-1/2) sampling error
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        bank = sample_cumulants(x)
        bound = 256 * np.finfo(np.float32).eps
        for case in (1, 2, 3):
            ref = naive_cumulants(x, case)
            err = np.max(np.abs(bank.case(case) - ref)) / np.max(np.abs(ref))
            assert err <= bound, f"case {case}: {err:.2e} of the largest entry"

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


class TestSignalSubspaceScan:
    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             NOISY_SCENES)
    def test_spectrum_matches_noise_subspace_oracle(self, n_sensors, truths, snr_db,
                                                    n_snapshots, grid_step):
        # the subtraction sub - |Es^H a|^2 loses about sub*eps absolutely,
        # and the smallest noisy denominator is far above that
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        grid = build_grid(meas.size // 2 + 1, grid_step)
        ref = noise_subspace_spectrum(meas, len(truths), grid)
        assert np.allclose(est.spectrum, ref, rtol=1e-8, atol=0)
        min_sep_cells = max(1, round(0.5 / grid_step))
        ref_angles = np.sort(estimator._pick_peaks(grid[0], ref, len(truths), min_sep_cells))
        assert np.array_equal(np.round(est.angles_deg, 6), np.round(ref_angles, 6))

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


def hermitian_with_spectrum(eigvals, seed):
    """U diag(eigvals) U^H for a random unitary U."""
    rng = np.random.default_rng(seed)
    n = len(eigvals)
    u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return (u * np.asarray(eigvals)) @ u.conj().T


class TestTopEigenpairs:
    """``_signal_subspace``: subspace iteration, and ``eigh`` where it falls back."""

    @pytest.mark.parametrize("snr_db", [-7.0, -1.0, 5.0, 8.0])
    @pytest.mark.parametrize("n_sensors, truths", [
        (7, (-40.0, -5.0, 20.0, 55.0)),
        (9, TWELVE_SOURCES),
        (11, TWELVE_SOURCES),
    ], ids=["N7", "N9", "N11"])
    def test_projector_matches_eigh(self, monkeypatch, n_sensors, truths, snr_db):
        meas = fogna_measurement(n_sensors, truths, snr_db, 14_000, seed=500)
        r = smoothed_covariance(meas, meas.size // 2 + 1)
        d = len(truths)
        want_vals, want_vecs = np.linalg.eigh(r)
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(r, d)
        assert r.shape[0] not in sizes, "the scene fell back to the full eigh"
        signal = want_vecs[:, -d:]
        err = np.linalg.norm(vecs @ vecs.conj().T - signal @ signal.conj().T)
        assert err <= 1e-12
        assert np.allclose(vals, want_vals[-d:], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("case, iterations", [
        ("rank-deficient", 1), ("iteration-cap", 8), ("block-half-the-matrix", 0)])
    def test_fallback_is_eigh_bit_for_bit(self, monkeypatch, case, iterations):
        if case == "rank-deficient":
            # exact cumulants of one source asked for two: rank 1 < D
            arr = SensorArray((0, 1, 2, 5, 8))
            meas = assemble_foeca(analytic_bank(arr, [10.0]), arr)
            r, d = smoothed_covariance(meas, meas.size // 2 + 1), 2
        elif case == "iteration-cap":
            # eigenvalues decay by 3% a step: the D-th converges at
            # (0.97^9)^k, too slowly for the cap of 100 // 12 = 8 iterations
            r, d = hermitian_with_spectrum(0.97 ** np.arange(100.0), seed=3), 4
        else:
            # a block of D + 8 = 25 columns is half of the 50 x 50 matrix
            r, d = hermitian_with_spectrum(0.5 ** np.arange(50.0), seed=4), 17
        want_vals, want_vecs = np.linalg.eigh(r)
        sizes = eigh_sizes(monkeypatch)
        vals, vecs = estimator._signal_subspace(r, d)
        # one projected (D + 8)-square eigh per iteration, then the full one
        assert sizes == [d + 8] * iterations + [r.shape[0]]
        assert np.array_equal(vals, want_vals[-d:])
        assert np.array_equal(vecs, want_vecs[:, -d:])


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
        meas = fogna_measurement(7, (-30.0, 30.0), 10.0, 10_000, seed=21)
        sub = meas.size // 2 + 1 if sub is None else sub
        r = smoothed_covariance(meas, sub)
        assert r.shape == (sub, sub)
        assert np.allclose(r, outer_product_covariance(meas, sub), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             NOISY_SCENES)
    def test_angles_match_oracle_path(self, monkeypatch, n_sensors, truths, snr_db,
                                      n_snapshots, grid_step):
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        monkeypatch.setattr(estimator, "smoothed_covariance", outer_product_covariance)
        ref = ss_music(meas, len(truths), grid_step_deg=grid_step)
        assert np.array_equal(np.round(est.angles_deg, 6), np.round(ref.angles_deg, 6))
        assert est.rank_ok and ref.rank_ok

    def test_nineteen_sensor_design_in_bounded_memory(self):
        # L = 2186: the outer-product mean would need a 2187^3 complex
        # temporary (167 GB); the Gram product keeps ss_music near 0.5 GB
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
        assert peak < 1e9, f"ss_music peaked at {peak / 1e6:.0f} MB"


class TestSteeringGrid:
    def test_arrays_are_read_only(self):
        grid_deg, steering = steering_grid(10, 0.5)
        assert steering.shape == (10, grid_deg.size)
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
        oracle = np.exp(1j * np.pi * np.arange(sub)[:, None]
                        * np.sin(np.deg2rad(grid_deg))[None, :])
        assert steering.tobytes() == oracle.tobytes()
        # the phases are exponentiated in place: no second grid-sized array
        assert peak <= 1.2 * steering.nbytes, f"{peak} B for {steering.nbytes} B"

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
        grid_deg, steering = steering_grid(sub, step)
        ula = manifold(SensorArray(tuple(range(sub))), grid_deg)
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
        oracle = build_grid(other_meas.size // 2 + 1, step)
        assert np.array_equal(other.grid_deg, oracle[0])
        assert np.array_equal(other.spectrum, explicit_grid_spectrum(other_meas, 2, oracle))
        again = ss_music(meas, 2, grid_step_deg=0.05)
        assert np.array_equal(again.grid_deg, default.grid_deg)
        assert np.array_equal(again.spectrum, default.spectrum)

    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step",
                             NOISY_SCENES)
    def test_spectrum_matches_explicitly_built_grid(self, n_sensors, truths, snr_db,
                                                   n_snapshots, grid_step):
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step)
        oracle = build_grid(meas.size // 2 + 1, grid_step)
        assert np.array_equal(est.grid_deg, oracle[0])
        assert np.array_equal(est.spectrum, explicit_grid_spectrum(meas, len(truths), oracle))
