"""Co-array multiset algebra, checked against a brute-force oracle."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarraylab.coarray import (
    CASE_SIGNS,
    analyze_segment,
    case_virtual_positions,
    cross_sum,
    diff_coarray,
    foca,
    foeca,
    sum_coarray,
)
from coarraylab.geometry import build_cna, build_fogna


def oracle_case_multiset(positions, case):
    """Enumerate every ordered quadruple with plain Python loops."""
    signs = CASE_SIGNS[case]
    out = {}
    for quad in product(positions, repeat=4):
        lag = sum(s * p for s, p in zip(signs, quad))
        out[lag] = out.get(lag, 0) + 1
    return out


def oracle_generators(positions, case):
    """Map each lag to the sensor-index quadruples that generate it."""
    signs = CASE_SIGNS[case]
    gens = {}
    for quad in product(range(len(positions)), repeat=4):
        lag = sum(s * positions[i] for s, i in zip(signs, quad))
        gens.setdefault(lag, []).append(quad)
    return gens


def oracle_foeca(positions):
    total = {}
    for case in (1, 2, 3):
        for lag, mult in oracle_case_multiset(positions, case).items():
            total[lag] = total.get(lag, 0) + mult
    return total


small_arrays = st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True).map(
    lambda tail: tuple(sorted({0, *tail}))
)


class TestCrossSum:
    def test_basic(self):
        assert cross_sum({0, 1}, {0, 10}) == {0, 1, 10, 11}

    def test_identity(self):
        assert cross_sum({0}, {3, 5, 9}) == {3, 5, 9}

    def test_cna_sum_cover(self):
        s1 = build_cna(1, 3).positions
        assert cross_sum(s1, s1) == set(range(13))


class TestSecondOrder:
    def test_sum_coarray_cna(self):
        m = sum_coarray((0, 1, 3, 5, 6))
        assert m.underlying_set == set(range(13))
        assert m.total == 25

    def test_diff_coarray_holefree(self):
        m = diff_coarray((0, 1, 4, 6))
        assert m.underlying_set == set(range(-6, 7))

    def test_diff_singleton(self):
        m = diff_coarray((0,))
        assert dict(m.entries) == {0: 1}

    def test_sum_multiplicities(self):
        m = sum_coarray((0, 1))
        assert dict(m.entries) == {0: 1, 1: 2, 2: 1}


class TestFoca:
    def test_case1_two_sensors(self):
        m = foca((0, 1), 1)
        assert m.underlying_set == {-1, 0, 1, 2, 3}
        assert m.total == 16

    def test_case2_symmetric(self):
        for positions in [(0, 1, 4), (0, 2, 3, 7)]:
            m = foca(positions, 2)
            assert dict(m.entries) == {-l: c for l, c in m.entries.items()}

    def test_case3_negates_case1(self):
        positions = (0, 1, 5, 8)
        m1, m3 = foca(positions, 1), foca(positions, 3)
        assert dict(m3.entries) == {-l: c for l, c in m1.entries.items()}

    def test_matches_oracle(self):
        positions = (0, 2, 3, 7)
        for case in (1, 2, 3):
            assert dict(foca(positions, case).entries) == oracle_case_multiset(positions, case)

    def test_generators(self):
        gens = oracle_generators((0, 1), 1)
        assert sum(len(v) for v in gens.values()) == 16
        # lag 3 = 1+1+1-0 has exactly one generating quadruple
        assert gens[3] == [(1, 1, 1, 0)]
        assert {lag: len(q) for lag, q in gens.items()} == dict(foca((0, 1), 1).entries)

    def test_bad_case(self):
        with pytest.raises(ValueError):
            foca((0, 1), 4)


class TestFoeca:
    def test_four_sensor_example_truth(self):
        # {0,1,5,8}: every lag in [-21, 21] is hit (e.g. 18 = 8+5+5-0,
        # 20 = 8+8+5-1) and only +/-22 is missing before the +/-24 ends
        m = foeca((0, 1, 5, 8))
        positive = sorted(l for l in m.underlying_set if l >= 0)
        assert positive == sorted(set(range(22)) | {23, 24})
        assert dict(m.entries) == oracle_foeca((0, 1, 5, 8))

    def test_singleton(self):
        assert dict(foeca((0,)).entries) == {0: 3}

    def test_total_is_three_n4(self):
        for positions in [(0, 1), (0, 1, 4), (0, 1, 5, 8)]:
            assert foeca(positions).total == 3 * len(positions) ** 4

    def test_union_of_cases(self):
        positions = (0, 1, 5, 8)
        union = set()
        for case in (1, 2, 3):
            union |= foca(positions, case).underlying_set
        assert foeca(positions).underlying_set == union

    def test_case_positions_align_with_multiset(self):
        positions = (0, 1, 4)
        for case in (1, 2, 3):
            flat = case_virtual_positions(positions, case)
            assert len(flat) == len(positions) ** 4
            counts = {}
            for lag in flat.tolist():
                counts[lag] = counts.get(lag, 0) + 1
            assert counts == dict(foca(positions, case).entries)


class TestAnalyzeSegment:
    def test_trivial(self):
        rep = analyze_segment([-1, 0, 1])
        assert rep.dof == 3 and rep.holes == ()

    def test_requires_zero(self):
        with pytest.raises(ValueError):
            analyze_segment([1, 2, 3])

    def test_four_sensor_example_segment(self):
        rep = analyze_segment(foeca((0, 1, 5, 8)))
        assert rep.central_consecutive == (-21, 21)
        assert rep.holes == (-22, 22)
        assert (rep.full_min, rep.full_max) == (-24, 24)

    def test_nine_sensor_design(self):
        # the hole-free construction guarantees [-190, 190]; enumeration
        # shows the actual run extends to +/-204
        rep = analyze_segment(foeca(build_fogna((5, 2, 2))))
        assert rep.lc == 204
        assert rep.dof == 409
        assert not any(-190 <= h <= 190 for h in rep.holes)

    def test_dof_odd(self):
        for positions in [(0, 1), (0, 1, 4, 6), (0, 1, 5, 8)]:
            assert analyze_segment(foeca(positions)).dof % 2 == 1

    def test_json_shapes(self):
        m = foeca((0, 1))
        rep = analyze_segment(m)
        loaded = json.loads(m.to_json())
        assert loaded["total"] == 3 * 16
        assert loaded["entries"]["0"] == m.multiplicity(0)
        seg = json.loads(rep.to_json())
        assert seg["central_consecutive"] == [-rep.lc, rep.lc]
        assert seg["dof"] == rep.dof


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_foeca_matches_oracle(positions):
    assert dict(foeca(positions).entries) == oracle_foeca(positions)


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_foeca_symmetric_with_multiplicity(positions):
    m = foeca(positions)
    assert dict(m.entries) == {-l: c for l, c in m.entries.items()}


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_segment_is_maximal(positions):
    m = foeca(positions)
    rep = analyze_segment(m)
    lagset = m.underlying_set
    assert all(l in lagset for l in range(-rep.lc, rep.lc + 1))
    assert (rep.lc + 1 not in lagset) or (-(rep.lc + 1) not in lagset)
