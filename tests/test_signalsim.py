"""Snapshot simulator: steering, the BPSK source model, noise calibration, sweep points."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarraylab.geometry import SensorArray, build_fogna
from coarraylab.optimizer import optimize
from coarraylab.signalsim import (
    SourceScene,
    complex_gaussian_sampler,
    manifold,
    simulate,
    simulate_sweep,
)


def per_angle_manifold(array, thetas_deg):
    """Oracle: the steering model one angle at a time, stacked into columns."""
    p = np.asarray(array.positions)
    return np.stack([np.exp(1j * np.pi * p * math.sin(math.radians(t))) for t in thetas_deg],
                    axis=1)


class TestSteering:
    def test_broadside_all_ones(self):
        arr = SensorArray((0, 1, 5, 9))
        assert np.allclose(manifold(arr, [0.0]), 1.0)

    def test_thirty_degrees(self):
        v = manifold(SensorArray((0, 1)), [30.0])[:, 0]
        assert v[0] == pytest.approx(1.0)
        assert v[1] == pytest.approx(1j)

    def test_rejects_endfire(self):
        # any angle of the vector at or past endfire, or not a number
        for thetas in ([90.0], [10.0, -90.0], [0.0, 90.00000000000684], [math.nan]):
            with pytest.raises(ValueError, match=r"\(-90, 90\)"):
                manifold(SensorArray((0, 1)), thetas)

    @settings(max_examples=30, deadline=None)
    @given(theta=st.floats(-89.9, 89.9), pos=st.integers(0, 300))
    def test_unit_modulus(self, theta, pos):
        arr = SensorArray((0, pos + 1))
        assert np.allclose(np.abs(manifold(arr, [theta])), 1.0)

    @pytest.mark.parametrize("n", [7, 9, 19])
    def test_matches_per_angle_oracle_bitwise(self, n):
        arr = build_fogna(optimize(n).best_params)
        rng = np.random.default_rng(n)
        for thetas in (np.linspace(-60.0, 60.0, 12), (-0.8, 0.8), (-89.999, 0.0, 89.999),
                       rng.uniform(-89.9, 89.9, 40)):
            a = manifold(arr, thetas)
            assert a.shape == (n, len(thetas))
            assert a.tobytes() == per_angle_manifold(arr, thetas).tobytes()


class TestScene:
    def test_rejects_duplicate_angles(self):
        with pytest.raises(ValueError):
            SourceScene((10.0, 10.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SourceScene((95.0,))

    @pytest.mark.parametrize("seed", [-1, (3, -1), 1.5, "7"],
                             ids=["negative", "negative-entry", "float", "str"])
    def test_rejects_seed_the_generator_refuses(self, seed):
        # a seed is checked when the scene is built, not at its first draw
        with pytest.raises(ValueError, match=re.escape(f"seed {seed!r} is not an RNG seed")):
            SourceScene((0.0,), seed=seed)

    def test_bpsk_values(self):
        scene = SourceScene((0.0,), seed=3)
        s = scene.draw_sources(np.random.default_rng(3), 1000)
        assert set(np.unique(s)) == {-1.0, 1.0}

    def test_bpsk_second_moment(self):
        scene = SourceScene((0.0,), seed=9)
        s = scene.draw_sources(np.random.default_rng(9), 10_000)
        # var of s^2 is zero for BPSK, so the unit power is exact
        assert np.mean(s**2) == 1.0


class TestSimulate:
    def test_noiseless_single_source_broadside(self):
        arr = SensorArray((0, 1, 2))
        x = simulate(arr, SourceScene((0.0,), seed=1), math.inf, 64)
        assert x.shape == (3, 64)
        assert np.allclose(np.abs(x), 1.0)
        # all sensors see an identical +/-1 stream
        assert np.allclose(x, x[0])
        assert set(np.unique(x.real)) == {-1.0, 1.0}

    def test_snr_zero_db_noise_variance(self):
        arr = SensorArray((0, 1, 2, 3))
        scene = SourceScene((20.0,), seed=11)
        noise = simulate(arr, scene, 0.0, 50_000) - simulate(arr, scene, math.inf, 50_000)
        var = np.mean(np.abs(noise) ** 2)
        assert var == pytest.approx(1.0, rel=0.05)

    def test_deterministic_given_seed(self):
        arr = SensorArray((0, 1, 2))
        scene = SourceScene((5.0, -40.0), seed=77)
        a = simulate(arr, scene, 10.0, 128)
        b = simulate(arr, scene, 10.0, 128)
        assert np.array_equal(a, b)

    def test_coupling_applied_to_steering(self):
        arr = SensorArray((0, 1))
        scene = SourceScene((30.0,), seed=2)
        c = np.array([[1.0, 0.2], [0.2, 1.0]])
        (_, coupled), = simulate_sweep(arr, scene, [math.inf], [16], coupling=c)
        plain = simulate(arr, scene, math.inf, 16)
        a = manifold(arr, scene.angles_deg)
        s = plain[0:1, :] / a[0, 0]  # recover the source stream
        assert np.allclose(coupled, c @ a @ s)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate(SensorArray((0, 1)), SourceScene((0.0,), seed=1), 0.0, 0)


class TestSimulateSweep:
    ARR = SensorArray((0, 1, 3, 7))
    SCENE = SourceScene((-20.0, 35.0), seed=(21, 3))

    def points(self, snr_list, k_list, coupling=None):
        return list(simulate_sweep(self.ARR, self.SCENE, snr_list, k_list, coupling))

    @pytest.mark.parametrize("coupled", [False, True])
    def test_simulate_is_the_first_point(self, coupled):
        # the first point is the one-point sweep, coupled or not; uncoupled, it is simulate's block
        c = np.array([[1.0, 0.1, 0, 0], [0.1, 1.0, 0.1, 0], [0, 0.1, 1.0, 0.1], [0, 0, 0.1, 1.0]])
        c = c if coupled else None
        snr_db, first = self.points([4.0, -2.0], [900, 300], c)[0]
        (_, single), = self.points([4.0], [900], c)
        assert snr_db == 4.0
        assert first.shape == (4, 900)
        assert np.array_equal(first, single)
        if not coupled:
            assert np.array_equal(first, simulate(self.ARR, self.SCENE, 4.0, 900))

    def test_points_in_snr_then_k_order(self):
        pts = self.points([math.inf, 0.0], [50, 200, 100])
        assert [(snr_db, x.shape[1]) for snr_db, x in pts] == [
            (math.inf, 50), (math.inf, 200), (math.inf, 100),
            (0.0, 50), (0.0, 200), (0.0, 100),
        ]

    def test_noise_scales_per_snr(self):
        clean, low, high = (x for _, x in self.points([math.inf, 0.0, 10.0], [500]))
        assert np.array_equal(clean, simulate(self.ARR, self.SCENE, math.inf, 500))
        # one unit-noise draw, scaled to variance 10^(-snr/10)
        np.testing.assert_allclose((high - clean) * math.sqrt(10.0), low - clean,
                                   rtol=1e-12, atol=1e-12)
        assert np.mean(np.abs(low - clean) ** 2) == pytest.approx(1.0, rel=0.1)

    def test_points_are_prefixes_of_one_draw(self):
        # the stream every sweep depends on: BPSK sources, then unit
        # noise, both at the largest K, from default_rng(scene.seed);
        # a smaller K takes the first K columns of each
        rng = np.random.default_rng([21, 3])
        s = rng.choice([-1.0, 1.0], size=(2, 400))
        unit = complex_gaussian_sampler(rng, (4, 400))
        a = manifold(self.ARR, self.SCENE.angles_deg)
        sigma = math.sqrt(10.0 ** (-6.0 / 10.0))
        for (_, x), k in zip(self.points([6.0], [400, 250]), (400, 250)):
            assert np.array_equal(x, a @ s[:, :k] + sigma * unit[:, :k])

    def test_points_are_the_literal_model(self):
        # x = A S + sigma * (g1 + j g2) / sqrt(2) bit for bit, noiseless
        # points included, with the noise drawn by hand
        rng = np.random.default_rng([21, 3])
        s = rng.choice([-1.0, 1.0], size=(2, 300))
        noise = (rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))) / math.sqrt(2)
        a = manifold(self.ARR, self.SCENE.angles_deg)
        for (snr_db, x), (want_snr, k) in zip(self.points([math.inf, -7.0, 8.0], [300, 120]),
                                              [(snr, k) for snr in (math.inf, -7.0, 8.0)
                                               for k in (300, 120)]):
            assert snr_db == want_snr
            want = a @ s[:, :k]
            if not math.isinf(snr_db):
                want = want + math.sqrt(10.0 ** (-snr_db / 10.0)) * noise[:, :k]
            assert np.array_equal(x.view(float), want.view(float))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            self.points([0.0], [100, 0])

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -3100.0])
    def test_rejects_snr_whose_noise_variance_is_not_finite(self, snr_db):
        # at -3100 dB the variance 10^310 overflows a double
        with pytest.raises(ValueError, match="with a finite noise variance"):
            self.points([5.0, snr_db], [100])


class TestPersistence:
    @pytest.mark.parametrize("shape, seed", [((7, 40_000), 1), ((9, 14_000), (500, 3)),
                                             ((3, 5), 2)], ids=["N7", "N9", "tiny"])
    def test_gaussian_sampler_is_the_literal_draw(self, shape, seed):
        # built in place, bit for bit (g1 + j g2) / sqrt(2), and the
        # generator is left where the literal draw leaves it
        rng, literal = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = complex_gaussian_sampler(rng, shape)
        want = (literal.standard_normal(shape) + 1j * literal.standard_normal(shape)) / math.sqrt(2)
        assert draws.shape == shape and draws.dtype == np.complex128
        assert np.array_equal(draws.view(float), want.view(float))
        assert rng.standard_normal() == literal.standard_normal()

    def test_gaussian_sampler_unit_power(self):
        rng = np.random.default_rng(0)
        draws = complex_gaussian_sampler(rng, (1, 100_000))
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)
