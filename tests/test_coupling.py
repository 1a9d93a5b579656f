"""Mutual-coupling matrix construction and leakage metric."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarraylab import coupling
from coarraylab.coupling import BAND, C1, coupling_leakage, coupling_matrix
from coarraylab.geometry import build_fogna
from coarraylab.optimizer import optimize


def coefficient(separation):
    """Oracle: c_l of the model, one separation at a time."""
    if separation == 0:
        return 1.0
    if separation > BAND:
        return 0.0
    if separation == 1:
        return C1
    return C1 * cmath.exp(-1j * (separation - 1) * math.pi / 8) / separation


def loop_matrix(positions):
    """Oracle: one ``coefficient`` call per separation up to the aperture, band or not."""
    p = np.asarray(positions, dtype=np.int64)
    sep = np.abs(p[:, None] - p[None, :])
    return np.array([coefficient(l) for l in range(int(sep.max()) + 1)], dtype=complex)[sep]


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestModel:
    def test_constants(self):
        # the model of Liu & Vaidyanathan's super nested arrays, Part I
        assert C1 == 0.3 * cmath.exp(1j * math.pi / 3)
        assert BAND == 100

    def test_coefficients(self):
        row = coupling_matrix(range(102))[0]
        assert row[0] == 1.0
        assert row[1] == pytest.approx(C1)
        assert row[5] == pytest.approx(C1 * cmath.exp(-1j * 4 * math.pi / 8) / 5)
        assert row[101] == 0.0

    def test_magnitudes_strictly_decreasing(self):
        mags = np.abs(coupling_matrix(range(BAND + 1))[0])
        assert np.all(np.diff(mags) < 0)


class TestMatrix:
    def test_single_sensor(self):
        assert np.array_equal(coupling_matrix((0,)), np.eye(1))

    def test_band_cutoff(self):
        c = coupling_matrix((0, 150))
        assert np.array_equal(c, np.eye(2))

    def test_adjacent_pair(self):
        c = coupling_matrix((0, 1))
        assert c[0, 1] == pytest.approx(C1)
        assert c[1, 0] == pytest.approx(C1)
        assert c[0, 0] == c[1, 1] == 1.0

    def test_rejects_non_integer_positions(self):
        # positions are read through operator.index, so 1.5 is rejected, not truncated to 1
        with pytest.raises(TypeError):
            coupling_matrix((0, 1.5))

    def test_separation_indexing(self):
        c = coupling_matrix((0, 2, 7))
        assert c[0, 1] == pytest.approx(coefficient(2))
        assert c[0, 2] == pytest.approx(coefficient(7))
        assert c[1, 2] == pytest.approx(coefficient(5))


class TestMatrixMatchesLoop:
    """The table lookup and its zero fill against the per-separation loop, bitwise."""

    def test_positions_across_the_band_edge(self):
        assert_same_bytes(coupling_matrix((0, 1, 2, 99, 100, 101, 150, 3000)),
                          loop_matrix((0, 1, 2, 99, 100, 101, 150, 3000)))

    @pytest.mark.parametrize("upto", [0, 1, 40, 99, 100, 101, 3000])
    def test_bitwise(self, upto):
        # every separation 0..min(upto, 2*BAND + 1), and upto itself
        positions = sorted({*range(min(upto, 2 * BAND + 1) + 1), upto})
        got = coupling_matrix(positions)
        assert_same_bytes(got, loop_matrix(positions))
        assert got[0, -1] == coefficient(upto)

    def test_matrix_at_wide_aperture(self):
        assert_same_bytes(coupling_matrix((0, 150, 3000)), loop_matrix((0, 150, 3000)))

    @pytest.mark.parametrize("n", range(4, 41))
    def test_designs(self, n):
        arr = build_fogna(optimize(n).best_params)
        assert_same_bytes(coupling_matrix(arr), loop_matrix(arr.positions))

    @pytest.mark.parametrize("source", [(0,), (0, BAND + 1), build_fogna((5, 2, 2))],
                             ids=["one-sensor", "pair-past-the-band", "design"])
    def test_result_is_complex(self, source):
        assert coupling_matrix(source).dtype == np.complex128

    def test_lookup_is_sized_by_the_table(self, monkeypatch):
        # the import-time table bounds the lookup, so a BAND patched past
        # it cannot index beyond its end
        positions = (0, 1, 150, 400)
        want = coupling_matrix(positions)
        monkeypatch.setattr(coupling, "BAND", 300)
        assert_same_bytes(coupling_matrix(positions), want)


class TestLeakage:
    def test_identity_is_zero(self):
        assert coupling_leakage(np.eye(5)) == 0.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            coupling_leakage(np.zeros((3, 3)))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            coupling_leakage(np.ones((2, 3)))

    def test_offband_replacement_decreases_leakage(self):
        # moving a sensor out of the band removes coupled energy
        tight = coupling_leakage(coupling_matrix((0, 1, 2)))
        loose = coupling_leakage(coupling_matrix((0, 1, 200)))
        assert loose < tight

    @settings(max_examples=30, deadline=None)
    @given(
        tail=st.lists(st.integers(1, 120), min_size=1, max_size=6, unique=True),
        shift=st.integers(0, 500),
    )
    def test_translation_invariance(self, tail, shift):
        base = sorted({0, *tail})
        shifted = [p + shift for p in base]
        l0 = coupling_leakage(coupling_matrix(base))
        l1 = coupling_leakage(coupling_matrix(shifted))
        assert l0 == pytest.approx(l1, abs=1e-12)


class TestReferenceGeometries:
    """Frozen leakage values for the designed geometries.

    Every published leakage row but the 19-sensor one reproduces from the
    optimizer's split at its sensor count; the splits printed beside
    several of those rows belong to different geometries, whose leakage
    is frozen here too so the mismatch stays visible.  The 19-sensor row
    prints the optimizer's split, whose leakage (0.221026) is not the
    published 0.2018.
    """

    @pytest.mark.parametrize("split,value", [
        ((5, 2, 2), 0.234725),    # optimizer split for N=9
        ((5, 3, 2), 0.223605),    # optimizer split for N=10
        ((5, 3, 3), 0.213685),    # optimizer split for N=11 (matches its row)
        ((10, 6, 5), 0.213855),   # optimizer split for N=21
        ((11, 6, 6), 0.207731),   # optimizer split for N=23
        ((9, 5, 5), 0.221026),    # optimizer split for N=19
        ((4, 2, 3), 0.221412),    # split printed in the 9-sensor row
        ((4, 3, 3), 0.211231),    # split printed in the 10-sensor row
        ((9, 6, 6), 0.210752),    # split printed in the 21-sensor row
        ((12, 5, 6), 0.241965),   # split printed in the 23-sensor row
    ])
    def test_frozen_leakage(self, split, value):
        arr = build_fogna(split)
        assert coupling_leakage(coupling_matrix(arr)) == pytest.approx(value, abs=5e-7)

    @pytest.mark.parametrize("n,published", [
        (9, 0.2347), (10, 0.2236), (11, 0.2137), (21, 0.2139), (23, 0.2077),
    ])
    def test_optimizer_split_reproduces_published(self, n, published):
        arr = build_fogna(optimize(n).best_params)
        assert coupling_leakage(coupling_matrix(arr)) == pytest.approx(published, abs=1e-4)
