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
    SteeringGrid,
    assemble_foeca,
    match_nearest,
    rmse,
    sample_cumulants,
    smoothed_covariance,
    ss_music,
)
from coarraylab.geometry import SensorArray, build_fogna, build_ula
from coarraylab.optimizer import optimize
from coarraylab.signalsim import SourceScene, manifold, simulate

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


def analytic_bank(array, angles_deg, power=1.0):
    """Closed-form noiseless cumulant tensors for BPSK sources (cases 1, 2)."""
    cases = []
    for case in (1, 2):
        v = case_virtual_positions(array, case).reshape((array.n_sensors,) * 4)
        tensor = np.zeros(v.shape, dtype=complex)
        for theta in angles_deg:
            tensor += -2 * power**2 * np.exp(1j * np.pi * v * math.sin(math.radians(theta)))
        cases.append(tensor)
    return CumulantBank(cases[0], cases[1])


def outer_product_covariance(values, sub):
    """Literal spatial smoothing: the mean of the windows' outer products.

    It forms a (windows x sub x sub) temporary, so it is kept only as the
    reference for the Gram-product covariance.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, sub)
    return (windows[:, :, None] * windows.conj()[:, None, :]).mean(axis=0)


def noise_subspace_spectrum(values, n_sources, grid):
    """MUSIC spectrum 1 / |En^H a|^2 scanned over the (sub - D)-dim noise subspace.

    ``ss_music`` scans the D-dimensional signal subspace instead, which
    gives the same spectrum up to rounding; this is its reference.
    """
    _, eigvecs = np.linalg.eigh(smoothed_covariance(values, grid.sub))
    noise = eigvecs[:, : grid.sub - n_sources]
    return 1.0 / np.sum(np.abs(noise.conj().T @ grid.steering) ** 2, axis=0)


def fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed):
    arr = build_fogna(optimize(n_sensors).best_params)
    snap = simulate(arr, SourceScene(truths, seed=seed), snr_db, n_snapshots)
    return assemble_foeca(sample_cumulants(snap), arr)


TWELVE_SOURCES = tuple(np.linspace(-60.0, 60.0, 12))

# (n_sensors, truths, snr_db, n_snapshots, grid_step, subarray length)
NOISY_SCENES = [
    (9, TWELVE_SOURCES, 5.0, 14_000, 0.02, None),
    (7, (-30.0, 30.0), 10.0, 10_000, 0.05, 79),
    (7, (-0.8, 0.8), 0.0, 10_000, 0.05, None),
    (7, (-40.0, -5.0, 20.0, 55.0), 0.0, 6_000, 0.05, 60),
]


class TestSampleCumulants:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal((3, 60)) + 1j * rng.standard_normal((3, 60))
        bank = sample_cumulants(x)
        for case in (1, 2, 3):
            assert np.allclose(bank.case(case), naive_cumulants(x, case), atol=1e-12)

    def test_bpsk_kurtosis_is_exact(self):
        # a noiseless BPSK stream gives the -2*power^2 cumulant exactly
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
        arr = build_ula(3)
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

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            sample_cumulants(np.ones((2, 1), dtype=complex))

    @pytest.mark.parametrize("shape", [(64,), (2, 3, 64)], ids=["1-D", "3-D"])
    def test_rejects_input_that_is_not_a_matrix(self, shape):
        with pytest.raises(ValueError, match="snapshots must form an N x K matrix"):
            sample_cumulants(np.ones(shape, dtype=complex))


class TestAssemble:
    def test_counts_match_coarray_multiplicity(self):
        arr = build_fogna((4, 2, 1))
        snap = simulate(arr, SourceScene((10.0,), seed=9), 10.0, 500)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        multiset = foeca(arr)
        assert meas.lc == analyze_segment(multiset).lc
        for lag in range(-meas.lc, meas.lc + 1):
            assert meas.counts[lag + meas.lc] == multiset[lag]

    def test_single_broadside_source_constant(self):
        arr = SensorArray((0, 1, 3))
        snap = simulate(arr, SourceScene((0.0,), seed=10), math.inf, 32)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        assert np.allclose(meas.values, -2.0, atol=1e-12)

    def test_two_sensor_phase_model(self):
        arr = SensorArray((0, 1))
        snap = simulate(arr, SourceScene((30.0,), seed=11), math.inf, 64)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        model = -2 * np.exp(1j * np.pi * meas.lags * 0.5)
        assert np.allclose(meas.values, model, atol=1e-12)

    def test_analytic_bank_reproduces_phases(self):
        arr = SensorArray((0, 1, 2))
        theta = 23.0
        meas = assemble_foeca(analytic_bank(arr, [theta]), arr)
        model = -2 * np.exp(1j * np.pi * meas.lags * math.sin(math.radians(theta)))
        assert np.max(np.abs(meas.values - model)) < 1e-10

    def test_conjugate_symmetry_enforced(self):
        arr = build_fogna((4, 2, 1))
        snap = simulate(arr, SourceScene((-15.0, 40.0), seed=12), 0.0, 2000)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        assert np.allclose(meas.values, meas.values[::-1].conj())


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
            ss_music(meas, meas.lc + 1)

    def test_two_close_sources_match_physical_ula(self):
        # dual route: the 7-sensor design's virtual subarray has 79
        # elements, so classical MUSIC on a real 79-sensor ULA with the
        # same sources is an independent reference
        truths = (-30.0, 30.0)
        arr = build_fogna(optimize(7).best_params)
        snap = simulate(arr, SourceScene(truths, seed=21), 10.0, 10_000)
        meas = assemble_foeca(sample_cumulants(snap), arr)
        est = ss_music(meas, 2, subarray_len=79)
        assert np.allclose(est.angles_deg, truths, atol=0.5)

        ula = build_ula(79)
        x = simulate(ula, SourceScene(truths, seed=21), 10.0, 10_000)
        r = x @ x.conj().T / x.shape[1]
        eigvals, eigvecs = np.linalg.eigh(r)
        noise = eigvecs[:, :-2]
        grid = np.arange(-89.95, 90.0, 0.05)
        steering = np.exp(1j * np.pi * np.arange(79)[:, None] * np.sin(np.deg2rad(grid)))
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


class TestSignalSubspaceScan:
    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step, sub",
                             NOISY_SCENES)
    def test_spectrum_matches_noise_subspace_oracle(self, n_sensors, truths, snr_db,
                                                    n_snapshots, grid_step, sub):
        # the subtraction sub - |Es^H a|^2 loses about sub*eps absolutely,
        # and the smallest noisy denominator is far above that
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step, subarray_len=sub)
        grid = SteeringGrid.build(meas.lc + 1 if sub is None else sub, grid_step)
        ref = noise_subspace_spectrum(meas.values, len(truths), grid)
        assert np.allclose(est.spectrum, ref, rtol=1e-8, atol=0)
        min_sep_cells = max(1, round(0.5 / grid_step))
        ref_angles = np.sort(estimator._pick_peaks(grid.grid_deg, ref, len(truths), min_sep_cells))
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
        sub = meas.lc + 1
        assert np.all(np.isfinite(est.spectrum)) and np.all(est.spectrum > 0)
        assert est.spectrum.max() <= 1.0 / (sub * np.finfo(float).eps)
        nearest = np.min(np.abs(est.angles_deg[:, None] - np.asarray(angles)), axis=0)
        assert np.all(nearest < 1e-6)


class TestRmse:
    def test_exact_estimates(self):
        assert rmse([([1.0, 2.0], [1.0, 2.0])]) == 0.0

    def test_single_degree_error(self):
        assert rmse([([1.0], [0.0])]) == pytest.approx(1.0)

    def test_two_trials(self):
        assert rmse([([0.0], [0.0]), ([2.0], [0.0])]) == pytest.approx(math.sqrt(2.0))

    def test_matching_is_nearest(self):
        errors = match_nearest([9.0, 1.1], [1.0, 10.0])
        assert errors == pytest.approx([-0.1, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rmse([])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([([1.0], [1.0, 2.0])])


class TestSmoothedCovariance:
    @pytest.mark.parametrize("sub", [None, 79])
    def test_matches_outer_product_oracle(self, sub):
        meas = fogna_measurement(7, (-30.0, 30.0), 10.0, 10_000, seed=21)
        sub = meas.lc + 1 if sub is None else sub
        r = smoothed_covariance(meas.values, sub)
        assert r.shape == (sub, sub)
        assert np.allclose(r, outer_product_covariance(meas.values, sub), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_sensors, truths, snr_db, n_snapshots, grid_step, sub",
                             NOISY_SCENES)
    def test_angles_match_oracle_path(self, monkeypatch, n_sensors, truths, snr_db,
                                      n_snapshots, grid_step, sub):
        meas = fogna_measurement(n_sensors, truths, snr_db, n_snapshots, seed=1000)
        est = ss_music(meas, len(truths), grid_step_deg=grid_step, subarray_len=sub)
        monkeypatch.setattr(estimator, "smoothed_covariance", outer_product_covariance)
        ref = ss_music(meas, len(truths), grid_step_deg=grid_step, subarray_len=sub)
        assert np.array_equal(np.round(est.angles_deg, 6), np.round(ref.angles_deg, 6))
        assert est.rank_ok and ref.rank_ok

    def test_nineteen_sensor_design_in_bounded_memory(self):
        # L = 2186: the outer-product mean would need a 2187^3 complex
        # temporary (167 GB); the Gram product keeps ss_music near 0.5 GB
        meas = fogna_measurement(19, TWELVE_SOURCES, 5.0, 14_000, seed=19)
        assert meas.lc == 2186
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
        grid = SteeringGrid.build(10, 0.5)
        assert grid.sub == 10
        assert grid.steering.shape == (10, grid.grid_deg.size)
        for arr in (grid.grid_deg, grid.steering):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_prebuilt_grid_gives_identical_estimate(self):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [-12.0, 10.0]), arr)
        grid = SteeringGrid.build(meas.lc + 1, 0.05)
        built = ss_music(meas, 2, grid_step_deg=0.05)
        shared = ss_music(meas, 2, grid_step_deg=0.05, steering=grid)
        assert np.array_equal(built.angles_deg, shared.angles_deg)
        assert np.array_equal(built.spectrum, shared.spectrum)
        assert shared.grid_deg is grid.grid_deg

    @pytest.mark.parametrize("sub, step", [(26, 0.05), (25, 0.02)])
    def test_mismatched_grid_is_rejected(self, sub, step):
        arr = SensorArray((0, 1, 2, 5, 8))
        meas = assemble_foeca(analytic_bank(arr, [10.0]), arr)
        assert meas.lc + 1 == 25
        with pytest.raises(ValueError, match="prebuilt steering grid"):
            ss_music(meas, 1, grid_step_deg=0.05, steering=SteeringGrid.build(sub, step))

    @pytest.mark.parametrize("sub, step", [(0, 0.05), (5, 0.0), (5, -0.1), (5, math.nan),
                                           (5, math.inf)])
    def test_build_rejects_bad_arguments(self, sub, step):
        with pytest.raises(ValueError, match="subarray length|grid step"):
            SteeringGrid.build(sub, step)
