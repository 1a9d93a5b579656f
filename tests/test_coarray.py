"""Co-array multiset algebra, checked against a brute-force oracle."""

import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarraylab.coarray import (
    CASE_SIGNS,
    LagCounts,
    SegmentReport,
    _count_lags,
    analyze_segment,
    case_virtual_positions,
    diff_coarray,
    foca,
    foeca,
    sum_coarray,
)
from coarraylab.geometry import build_cna, build_fogna
from coarraylab.optimizer import optimize


def cross_sum(a, b):
    """Set of all pairwise sums {x + y : x in a, y in b}."""
    return {x + y for x in a for y in b}


def oracle_multiset(positions, signs):
    """Enumerate every ordered tuple with plain Python loops."""
    out = {}
    for tup in product(positions, repeat=len(signs)):
        lag = sum(s * p for s, p in zip(signs, tup))
        out[lag] = out.get(lag, 0) + 1
    return out


def oracle_case_multiset(positions, case):
    return oracle_multiset(positions, CASE_SIGNS[case])


def oracle_generators(positions, case):
    """Map each lag to the sensor-index quadruples that generate it."""
    signs = CASE_SIGNS[case]
    gens = {}
    for quad in product(range(len(positions)), repeat=4):
        lag = sum(s * positions[i] for s, i in zip(signs, quad))
        gens.setdefault(lag, []).append(quad)
    return gens


def oracle_segment(lags):
    """Segment analysis with a Python set and one step per lag in the span."""
    present = set(map(int, lags))
    if 0 not in present:
        raise ValueError("lag 0 is missing")
    lo, hi = min(present), max(present)
    lc = 0
    while (lc + 1) in present and -(lc + 1) in present:
        lc += 1
    holes = [x for x in range(lo, hi + 1) if x not in present]
    return SegmentReport(lo, hi, lc, np.array(holes, dtype=np.int64))


def lag_counts(lags):
    """A ``LagCounts`` of an arbitrary lag list, repeats allowed, by one ``np.bincount``."""
    present = np.fromiter(lags, dtype=np.int64)
    lo = int(present.min()) if len(present) else 0
    return LagCounts(lo, np.bincount(present - lo))


def oracle_foeca(positions):
    total = {}
    for case in (1, 2, 3):
        for lag, mult in oracle_case_multiset(positions, case).items():
            total[lag] = total.get(lag, 0) + mult
    return total


# builder -> the sign rows whose multiset-sum it is
BUILDERS = {
    "sca": (sum_coarray, [(1, 1)]),
    "dca": (diff_coarray, [(1, -1)]),
    "foca1": (lambda p: foca(p, 1), [CASE_SIGNS[1]]),
    "foca2": (lambda p: foca(p, 2), [CASE_SIGNS[2]]),
    "foca3": (lambda p: foca(p, 3), [CASE_SIGNS[3]]),
    "foeca": (foeca, list(CASE_SIGNS.values())),
}

small_arrays = st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True).map(
    lambda tail: tuple(sorted({0, *tail}))
)


@st.composite
def zero_lag_lists(draw):
    """Lag lists that contain 0, in any order, with repeated lags.

    Half of them add a hole-free run from 0 that reaches past every
    scattered lag on one side, so lo or hi ends that run while the other
    side has holes.
    """
    lags = [0, *draw(st.lists(st.integers(-40, 40), max_size=30))]
    if draw(st.booleans()):
        side = draw(st.sampled_from((1, -1)))
        lags += [side * k for k in range(draw(st.integers(41, 60)) + 1)]
    lags += lags[:draw(st.integers(0, len(lags)))]
    return draw(st.permutations(lags))


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
        assert set(m) == set(range(13))
        assert m.total() == 25

    def test_diff_coarray_holefree(self):
        m = diff_coarray((0, 1, 4, 6))
        assert set(m) == set(range(-6, 7))

    def test_diff_singleton(self):
        m = diff_coarray((0,))
        assert dict(m) == {0: 1}

    def test_sum_multiplicities(self):
        m = sum_coarray((0, 1))
        assert dict(m) == {0: 1, 1: 2, 2: 1}


class TestFoca:
    def test_case1_two_sensors(self):
        m = foca((0, 1), 1)
        assert set(m) == {-1, 0, 1, 2, 3}
        assert m.total() == 16

    def test_case2_symmetric(self):
        for positions in [(0, 1, 4), (0, 2, 3, 7)]:
            m = foca(positions, 2)
            assert dict(m) == {-l: c for l, c in m.items()}

    def test_case3_negates_case1(self):
        positions = (0, 1, 5, 8)
        m1, m3 = foca(positions, 1), foca(positions, 3)
        assert dict(m3) == {-l: c for l, c in m1.items()}

    def test_matches_oracle(self):
        positions = (0, 2, 3, 7)
        for case in (1, 2, 3):
            assert dict(foca(positions, case)) == oracle_case_multiset(positions, case)

    def test_generators(self):
        gens = oracle_generators((0, 1), 1)
        assert sum(len(v) for v in gens.values()) == 16
        # lag 3 = 1+1+1-0 has exactly one generating quadruple
        assert gens[3] == [(1, 1, 1, 0)]
        assert {lag: len(q) for lag, q in gens.items()} == dict(foca((0, 1), 1))

    def test_bad_case(self):
        with pytest.raises(ValueError):
            foca((0, 1), 4)


class TestFoeca:
    def test_four_sensor_example_truth(self):
        # {0,1,5,8}: every lag in [-21, 21] is hit (e.g. 18 = 8+5+5-0,
        # 20 = 8+8+5-1) and only +/-22 is missing before the +/-24 ends
        m = foeca((0, 1, 5, 8))
        positive = sorted(l for l in m if l >= 0)
        assert positive == sorted(set(range(22)) | {23, 24})
        assert dict(m) == oracle_foeca((0, 1, 5, 8))

    def test_singleton(self):
        assert dict(foeca((0,))) == {0: 3}

    def test_empty_array_is_empty_and_has_no_segment(self):
        assert foeca(()) == Counter()
        with pytest.raises(ValueError):
            analyze_segment(foeca(()))

    def test_total_is_three_n4(self):
        for positions in [(0, 1), (0, 1, 4), (0, 1, 5, 8)]:
            assert foeca(positions).total() == 3 * len(positions) ** 4

    def test_fold_in_int64_past_int32_range(self):
        # 140 sensors: 3*N^4 still fits int32, but the fold's g(l) + g(-l)
        # can reach 6*N^4 >= 2^31, so the fold must not run in int32
        n = 140
        assert 3 * n ** 4 < 2 ** 31 <= 6 * n ** 4
        positions = tuple(range(n))
        m = foeca(positions)
        expected = Counter()
        for case in (1, 2, 3):
            expected.update(dict(foca(positions, case)))
        assert dict(m) == dict(expected)
        assert m.total() == 3 * n ** 4
        assert m.counts.dtype == np.int64

    def test_counts_pinned_for_the_designs(self):
        # sha256 of the int64 counts of every optimized design, N = 4..40,
        # as computed by the two-pass counter that the one-pass fold replaced
        digest = hashlib.sha256()
        for n in range(4, 41):
            counts = foeca(build_fogna(optimize(n).best_params)).counts
            digest.update(counts.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "14032794a775ffc74453bade493565cafe18195951889ab1cdbad2772a864947")

    def test_union_of_cases(self):
        positions = (0, 1, 5, 8)
        union = set()
        for case in (1, 2, 3):
            union |= set(foca(positions, case))
        assert set(foeca(positions)) == union

    def test_case_positions_align_with_multiset(self):
        positions = (0, 1, 4)
        for case in (1, 2, 3):
            flat = case_virtual_positions(positions, case)
            assert len(flat) == len(positions) ** 4
            counts = {}
            for lag in flat.tolist():
                counts[lag] = counts.get(lag, 0) + 1
            assert counts == dict(foca(positions, case))

    def test_case_positions_in_c_order(self):
        positions = (4, 0, -1)
        for case, signs in CASE_SIGNS.items():
            flat = case_virtual_positions(positions, case)
            assert flat.dtype == np.int64
            assert flat.tolist() == [sum(s * p for s, p in zip(signs, quad))
                                     for quad in product(positions, repeat=4)]


class TestLagCounts:
    def test_dense_counts_are_trimmed_and_read_only(self):
        m = foeca((0, 1, 5, 8))
        assert m.lo == -24 and len(m.counts) == 49
        assert m.counts.dtype == np.int64 and m.counts[0] > 0 and m.counts[-1] > 0
        assert m.counts[22 - m.lo] == 0
        with pytest.raises(ValueError):
            m.counts[0] = 7
        # counts given with zero ends are trimmed to the lags they hold
        m = LagCounts(-2, np.array([0, 1, 2, 1, 0, 0]))
        assert m.lo == -1 and m.counts.tolist() == [1, 2, 1]
        assert m.items() == [(-1, 1), (0, 2), (1, 1)]

    @pytest.mark.parametrize("lag", [22, -22, 25, -25, 10**6, "0"])
    def test_absent_lag_raises_key_error(self, lag):
        m = foeca((0, 1, 5, 8))
        with pytest.raises(KeyError):
            m[lag]
        assert lag not in m

    def test_lookup_and_readout_are_python_ints(self):
        m = sum_coarray((0, 1))
        assert m[1] == 2 and type(m[1]) is int
        assert m.items() == [(0, 1), (1, 2), (2, 1)]
        assert all(type(x) is int for pair in m.items() for x in pair)
        assert type(m.total()) is int and type(next(iter(m))) is int

    def test_counts_are_widened_to_int64(self):
        m = LagCounts(0, np.array([1, 2, 1], np.int32))
        assert m.counts.dtype == np.int64 and not m.counts.flags.writeable
        assert m.items() == [(0, 1), (1, 2), (2, 1)]

    def test_empty_co_array(self):
        m = foeca(())
        assert len(m) == 0 and list(m) == [] and m.items() == []
        assert m.total() == 0 and len(m.counts) == 0

    def test_foeca_peak_memory_at_forty_sensors(self):
        # building a Counter of every distinct lag peaked at 11.5 MB, and
        # the min/max scans over the head sums with a zero-filled fold at
        # 3.86 MB; the position-derived ranges and the one-pass fold 2.06 MB
        array = build_fogna(optimize(40).best_params)
        tracemalloc.start()
        try:
            foeca(array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6, f"foeca peaked at {peak / 1e6:.1f} MB"


class TestCounter:
    @pytest.mark.parametrize("build, positions", [
        (sum_coarray, (0, 1.5)),
        (foeca, ("0", "3")),
        (lambda p: foca(p, 1), (0, 2.0)),
        (lambda p: case_virtual_positions(p, 2), (0, 1.5)),
    ], ids=["sca-float", "foeca-str", "foca-float", "case-float"])
    def test_non_integer_positions_raise(self, build, positions):
        # positions are read through operator.index, so 1.5 is rejected, not truncated to 1
        with pytest.raises(TypeError):
            build(positions)

    @pytest.mark.parametrize("build", [sum_coarray, diff_coarray], ids=["sca", "dca"])
    def test_int64_accumulator_past_int32_range(self, build):
        # N^2 co-located sensors put every pair at lag 0: 46341^2 >= 2^31,
        # so the counts accumulate in int64 and do not wrap
        n = 46341
        assert n ** 2 >= 2 ** 31
        m = build((0,) * n)
        assert m.items() == [(0, n ** 2)]
        assert m.counts.dtype == np.int64


class TestAnalyzeSegment:
    def test_trivial(self):
        rep = analyze_segment(lag_counts([-1, 0, 1]))
        assert rep.dof == 3 and rep.holes.tolist() == []

    def test_requires_zero(self):
        with pytest.raises(ValueError, match="lag 0 is missing"):
            analyze_segment(lag_counts([1, 2, 3]))

    def test_empty_input_requires_zero(self):
        with pytest.raises(ValueError, match="lag 0 is missing"):
            analyze_segment(lag_counts([]))

    def test_zero_alone(self):
        assert analyze_segment(lag_counts([0])) == SegmentReport(0, 0, 0, ())

    def test_four_sensor_example_segment(self):
        rep = analyze_segment(foeca((0, 1, 5, 8)))
        assert rep.central_consecutive == (-21, 21)
        assert rep.holes.tolist() == [-22, 22]
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
        rep = analyze_segment(foeca((0, 1)))
        seg = json.loads(json.dumps(rep.as_dict()))
        assert seg["central_consecutive"] == [-rep.lc, rep.lc]
        assert seg["dof"] == rep.dof


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_foeca_matches_oracle(positions):
    assert dict(foeca(positions)) == oracle_foeca(positions)


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_foeca_symmetric_with_multiplicity(positions):
    m = foeca(positions)
    assert dict(m) == {-l: c for l, c in m.items()}


@settings(max_examples=40, deadline=None)
@given(positions=small_arrays)
def test_segment_is_maximal(positions):
    m = foeca(positions)
    rep = analyze_segment(m)
    lagset = set(m)
    assert all(l in lagset for l in range(-rep.lc, rep.lc + 1))
    assert (rep.lc + 1 not in lagset) or (-(rep.lc + 1) not in lagset)


raw_arrays = st.lists(st.integers(-25, 25), min_size=1, max_size=5, unique=True)


@settings(max_examples=40, deadline=None)
@given(positions=raw_arrays)
def test_case3_is_case1_with_every_lag_negated(positions):
    assert dict(foca(positions, 3)) == {-l: c for l, c in foca(positions, 1).items()}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(BUILDERS)),
       positions=st.lists(st.integers(-12, 12), max_size=5))
def test_builders_match_oracle(name, positions):
    # unsorted, negative and repeated positions, and the empty array
    build, sign_rows = BUILDERS[name]
    expected = Counter()
    for signs in sign_rows:
        expected.update(oracle_multiset(positions, signs))
    m = build(positions)
    assert dict(m) == dict(expected)
    assert m.total() == sum(expected.values())
    assert m.counts.dtype == np.int64 and not m.counts.flags.writeable
    if positions:
        assert m.lo == min(expected) and m.counts[0] and m.counts[-1]
    else:
        assert len(m.counts) == 0


# every weighted sign-row set the co-array builders hand the counter
COUNTER_ROWS = [{(1, 1): 1}, {(1, -1): 1}, *({signs: 1} for signs in CASE_SIGNS.values()),
                {CASE_SIGNS[1]: 2, CASE_SIGNS[2]: 1}]


@settings(max_examples=150, deadline=None)
@given(rows=st.sampled_from(COUNTER_ROWS),
       positions=st.one_of(st.lists(st.integers(-12, 12), min_size=1, max_size=5),
                           st.integers(1, 5).map(lambda n: (0,) * n)))
@example(rows=COUNTER_ROWS[-1], positions=(0, 0, 0))
@example(rows=COUNTER_ROWS[1], positions=(-7, 3, -7, 3))
def test_counter_range_is_read_from_the_extreme_positions(rows, positions):
    # negative, repeated and all-zero positions: the counts span exactly
    # [min_rows sum min(s * p), max_rows sum max(s * p)], both ends attained
    lo, counts = _count_lags(positions, rows)
    low = min(sum(min(s * p for p in positions) for s in signs) for signs in rows)
    high = max(sum(max(s * p for p in positions) for s in signs) for signs in rows)
    assert lo == low and len(counts) == high - low + 1
    assert counts[0] and counts[-1]
    expected = Counter()
    for signs, weight in rows.items():
        for lag, mult in oracle_multiset(positions, signs).items():
            expected[lag] += weight * mult
    present = np.flatnonzero(counts)
    assert dict(zip((present + lo).tolist(), counts[present].tolist())) == dict(expected)


def assert_matches_oracle_segment(report, lags):
    expected = oracle_segment(lags)
    assert (report.full_min, report.full_max, report.lc) == (
        expected.full_min, expected.full_max, expected.lc)
    assert np.array_equal(report.holes, expected.holes)
    assert report.holes.dtype == np.int64 and not report.holes.flags.writeable
    # json.dumps fails on numpy integers, so this also checks every field is an int
    assert json.dumps(report.as_dict()) == json.dumps(expected.as_dict())


@settings(max_examples=60, deadline=None)
@given(positions=raw_arrays)
def test_segment_of_foeca_matches_oracle(positions):
    m = foeca(positions)
    assert_matches_oracle_segment(analyze_segment(m), m)


@settings(max_examples=200, deadline=None)
@given(lags=zero_lag_lists())
def test_segment_of_lag_list_matches_oracle(lags):
    assert_matches_oracle_segment(analyze_segment(lag_counts(lags)), lags)


@settings(max_examples=40, deadline=None)
@given(positions=st.lists(st.integers(-30, 30), min_size=1, max_size=6))
def test_second_order_matches_oracle(positions):
    assert dict(sum_coarray(positions)) == oracle_multiset(positions, (1, 1))
    assert dict(diff_coarray(positions)) == oracle_multiset(positions, (1, -1))


@pytest.mark.parametrize("positions", [(5, -3, 0), (7, 2, -9, 0, 4), (3, 7, 12), (-4, -1, -4)])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_match_oracle_on_raw_tuples(name, positions):
    # unsorted, negative, repeated and all-positive positions exercise the
    # counter's offsets for the histogram and its shifted copies
    build, sign_rows = BUILDERS[name]
    expected = Counter()
    for signs in sign_rows:
        expected.update(oracle_multiset(positions, signs))
    m = build(positions)
    assert isinstance(m, LagCounts)
    assert dict(m) == dict(expected)
    assert list(m) == sorted(m)
