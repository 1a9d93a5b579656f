"""Geometry constructors and closed-form DOF evaluators."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarraylab.geometry import (
    REFERENCE_DOF_ROWS,
    FognaParams,
    SensorArray,
    build_cna,
    build_fogna,
    build_nested,
    competitor_dof,
    position_array,
)
from coarraylab.optimizer import optimize


def spacing_pattern(positions):
    return [b - a for a, b in zip(positions, positions[1:])]


class TestSensorArray:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SensorArray((0, 3, 1))

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            SensorArray((1, 2, 3))

    def test_rejects_no_sensors(self):
        with pytest.raises(ValueError, match="at least one sensor"):
            SensorArray(())

    def test_aperture(self):
        assert SensorArray((0, 1, 5)).aperture == 5

    @pytest.mark.parametrize("positions", [(0, 1.5, 3), (0, 2.0), (0, "3")])
    def test_rejects_non_integers(self, positions):
        # read through operator.index, so 1.5 is rejected, not truncated to 1
        with pytest.raises(TypeError):
            SensorArray(positions)

    def test_positions_are_python_ints(self):
        array = SensorArray(np.array([0, 2, 5], dtype=np.int32))
        assert array.positions == (0, 2, 5)
        assert all(type(p) is int for p in array.positions)

    def test_position_array(self):
        p = position_array(SensorArray((0, 1, 5)))
        assert p.dtype == np.int64 and p.tolist() == [0, 1, 5]
        assert position_array(iter([4, -2, 4])).tolist() == [4, -2, 4]
        with pytest.raises(TypeError):
            position_array((0, 1.5))


class TestCna:
    def test_worked_example(self):
        assert build_cna(1, 3).positions == (0, 1, 3, 5, 6)

    def test_degenerate_middle(self):
        # M2 = 1 leaves a single middle sensor; spacing is all ones
        assert build_cna(1, 1).positions == (0, 1, 2)

    def test_hand_expanded(self):
        arr = build_cna(2, 3)
        assert arr.positions == (0, 1, 2, 5, 8, 9, 10)
        assert spacing_pattern(arr.positions) == [1, 1, 3, 3, 1, 1]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_cna(0, 3)
        with pytest.raises(ValueError):
            build_cna(2, 0)

    @pytest.mark.parametrize("m1", range(1, 9))
    @pytest.mark.parametrize("m2", range(1, 9))
    def test_count_and_aperture(self, m1, m2):
        arr = build_cna(m1, m2)
        assert arr.n_sensors == 2 * m1 + m2
        assert arr.aperture == 2 * m1 + (m1 + 1) * (m2 - 1)

    @pytest.mark.parametrize("m1,m2", [(1, 2), (2, 4), (3, 3), (1, 6)])
    def test_spacing_pattern(self, m1, m2):
        pattern = spacing_pattern(build_cna(m1, m2).positions)
        assert pattern == [1] * m1 + [m1 + 1] * (m2 - 1) + [1] * m1


class TestFognaParams:
    def test_worked_split(self):
        p = FognaParams.from_split(5, 3, 3)
        assert (p.m1, p.m2, p.e1, p.e2) == (1, 3, 6, 51)
        assert p.dof == 715

    def test_aperture_formula_matches_cna(self):
        for n1 in range(4, 16):
            p = FognaParams.from_split(n1, 1, 1)
            assert p.e1 == build_cna(p.m1, p.m2).aperture

    def test_degenerate_small_n1(self):
        # N1 = 2 and 3 collapse the CNA to a bare ULA (M1 = 0)
        assert FognaParams.from_split(2, 1, 1).e1 == 1
        assert FognaParams.from_split(3, 1, 1).e1 == 2

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            FognaParams.from_split(1, 1, 1)
        with pytest.raises(ValueError):
            FognaParams.from_split(5, 0, 2)

    @pytest.mark.parametrize("split", [(5.5, 2, 2), (5, 2.0, 2), (5, 2, "2")])
    def test_rejects_non_integer_counts(self, split):
        with pytest.raises(TypeError):
            FognaParams.from_split(*split)

    def test_counts_are_python_ints(self):
        p = FognaParams.from_split(np.int64(5), np.int32(3), np.int16(3))
        assert all(type(v) is int for v in (p.n1, p.n2, p.n3, p.m1, p.m2, p.e1, p.e2))
        assert p == FognaParams.from_split(5, 3, 3)

    def test_m1_is_quarter_rounded_half_down(self):
        # M1 is (N1 - 1)/4 rounded to the nearest integer, exact halves
        # down (N1 = 3, 11, ...); the oracle rounds the exact fraction
        def half_down(x):
            floor = x.numerator // x.denominator
            return floor + (x - floor > Fraction(1, 2))

        assert half_down(Fraction(2, 4)) == 0 and half_down(Fraction(10, 4)) == 2
        for n1 in range(2, 10_001):
            p = FognaParams.from_split(n1, 1, 1)
            assert p.m1 == half_down(Fraction(n1 - 1, 4)), n1
            assert p.m2 == n1 - 2 * p.m1 >= 1


class TestFogna:
    def test_worked_example_11(self):
        # the worked example is the optimizer's design; a split and its params build one array
        params = optimize(11).best_params
        assert (params.n1, params.n2, params.n3) == (5, 3, 3)
        arr = build_fogna((5, 3, 3))
        assert arr.positions == (0, 1, 3, 5, 6, 25, 38, 51, 102, 204, 306)
        assert build_fogna(params) == arr

    def test_nine_sensor_design(self):
        assert build_fogna((5, 2, 2)).positions == (0, 1, 3, 5, 6, 25, 38, 76, 152)

    def test_seven_sensor_design(self):
        # expanding the construction by hand: CNA(1,2) then {17,26} then {52}
        assert build_fogna((4, 2, 1)).positions == (0, 1, 3, 4, 17, 26, 52)

    @pytest.mark.parametrize("split", [(4, 2, 1), (5, 2, 2), (5, 3, 3), (9, 5, 5), (6, 4, 3)])
    def test_structure(self, split):
        p = FognaParams.from_split(*split)
        arr = build_fogna(p)
        assert arr.n_sensors == p.n
        assert arr.aperture == 2 * p.n3 * p.e2
        s2 = set(range(4 * p.e1 + 1, p.e2 + 1, 2 * p.e1 + 1))
        s3 = {2 * k * p.e2 for k in range(1, p.n3 + 1)}
        assert s2 <= set(arr.positions) and s3 <= set(arr.positions)
        assert len(s2) == p.n2 and len(s3) == p.n3


class TestOtherBuilders:
    def test_nested_examples(self):
        assert build_nested(3, 3).positions == (0, 1, 2, 3, 7, 11)
        assert build_nested(1, 1).positions == (0, 1)
        assert build_nested(2, 2).positions == (0, 1, 2, 5)

    def test_nested_matches_its_definition(self):
        for n1, n2 in product(range(1, 12), repeat=2):
            sparse = {k * (n1 + 1) - 1 for k in range(1, n2 + 1)}
            assert build_nested(n1, n2).positions == tuple(sorted(set(range(n1)) | sparse))

    def test_nested_difference_cover(self):
        # the two-level construction is used as a hole-free DCA baseline
        p = np.array(build_nested(3, 3).positions)
        diffs = set((p[:, None] - p[None, :]).ravel().tolist())
        assert diffs >= set(range(-11, 12))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_nested(0, 2)


class TestCompetitorDof:
    @pytest.mark.parametrize("split,expected", [
        ((3, 3, 3, 3), 217),
        ((4, 4, 3, 3), 385),
        ((6, 6, 5, 5), 2161),
    ])
    def test_fl_na_rows(self, split, expected):
        assert competitor_dof("FL_NA", split) == expected

    def test_se_fl_na_formula_vs_published(self):
        # the printed closed form does not reproduce its own table rows;
        # the evaluator stays literal and the rows stay available separately
        assert competitor_dof("SE_FL_NA", (3, 3, 3, 2)) == 109
        assert REFERENCE_DOF_ROWS[9]["SE_FL_NA"] == ((3, 3, 3, 2), 253)
        assert competitor_dof("SE_FL_NA", (3, 3, 3, 2)) != 253

    def test_fogna_rows(self):
        assert competitor_dof("FOGNA", (5, 2, 2)) == 381
        assert competitor_dof("FOGNA", (5, 3, 3)) == 715

    def test_fogna_matches_construction_formula(self):
        for n1 in range(2, 15):
            for n2 in range(1, 6):
                for n3 in range(1, 6):
                    p = FognaParams.from_split(n1, n2, n3)
                    assert competitor_dof("FOGNA", (n1, n2, n3)) == p.dof

    def test_sd_fodc_literal(self):
        # (4*dm+2)*dn + (2*dm+1)*(mu2+1)/2 + (mu1-1)/2
        assert competitor_dof("SD_FODC_NA", (2, 3, 3, 1)) == 36

    def test_fo_fractal_requires_integrality(self):
        with pytest.raises(ValueError):
            competitor_dof("FO_FRACTAL_NA", (5, 5))
        # seed 4 -> half-count 4 ≡ 1 (mod 3): integral
        assert competitor_dof("FO_FRACTAL_NA", (4, 4)) == 2 * 9 ** 2 - 1

    @pytest.mark.parametrize("family,split", [
        ("FOGNA", (5.7, 2, 2)),
        ("FL_NA", ("3", 3, 3, 3)),
        ("SD_FODC_NA", (2, 3, 3, 1.0)),
        ("FO_FRACTAL_NA", (4.0, 4)),
    ])
    def test_rejects_non_integers(self, family, split):
        # read through operator.index, so 5.7 is rejected, not truncated to 5
        with pytest.raises(TypeError):
            competitor_dof(family, split)

    def test_fo_fractal_matches_fraction_form(self):
        # the printed form evaluated in exact fractions, c_t0 = 1
        for n_seed in range(0, 200):
            n_g = Fraction(2 * n_seed - 1 + 1, 2)
            m_r = Fraction(2, 3) * n_g * n_g - Fraction(2, 3) * n_g + 1
            dof = 2 * m_r * m_r - 1
            if dof.denominator == 1:
                assert competitor_dof("FO_FRACTAL_NA", (n_seed, n_seed)) == dof
            else:
                with pytest.raises(ValueError, match=f"got {dof}\\)"):
                    competitor_dof("FO_FRACTAL_NA", (n_seed, n_seed))

    def test_sd_fodc_matches_fraction_form(self):
        for split in product(range(-1, 7), repeat=4):
            d_m, d_n, mu1, mu2 = split
            val = (4 * d_m + 2) * d_n + Fraction((2 * d_m + 1) * (mu2 + 1), 2) + Fraction(mu1 - 1, 2)
            if val.denominator == 1:
                assert competitor_dof("SD_FODC_NA", split) == val
            else:
                with pytest.raises(ValueError, match=f"got {val}\\)"):
                    competitor_dof("SD_FODC_NA", split)

    def test_arity_checks(self):
        with pytest.raises(ValueError):
            competitor_dof("FL_NA", (3, 3, 3))
        with pytest.raises(ValueError):
            competitor_dof("FOGNA", (5, 2))
        with pytest.raises(ValueError):
            competitor_dof("NO_SUCH", (1, 2))


@settings(max_examples=50, deadline=None)
@given(n1=st.integers(2, 20), n2=st.integers(1, 8), n3=st.integers(1, 8))
def test_fogna_positions_distinct_and_sized(n1, n2, n3):
    p = FognaParams.from_split(n1, n2, n3)
    arr = build_fogna(p)
    assert arr.n_sensors == n1 + n2 + n3
    assert arr.positions[0] == 0
    assert arr.aperture == 2 * n3 * p.e2
