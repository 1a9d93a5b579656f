"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Five criteria come with a published reference value that the repository's
own definitions contradict.  The definitions are the three conjugation
cases in ``coarraylab.coarray`` and the closed-form DOF of
``FognaParams``, which the hole-free construction guarantees as a floor.
The reference constants stay verbatim in the package, so ``dof-table``
and ``coupling-table`` still print them.  Each of these five tests
asserts the computed value, proves the published one wrong inside the
test, and prints both on its ACCEPTANCE line:

====  ===========================  ==========================  =====================================
C##   published                    computed                    assertion that pins the discrepancy
====  ===========================  ==========================  =====================================
C01   N=19 FOGNA DOF 4599          4335 at (9, 5, 5)           4599 is the closed form at E1 = 17;
                                                               no 9-sensor CNA has an aperture
                                                               above 16; over every 19-sensor split
                                                               and CNA block the form peaks at 4335
C02   N=11 segment (-357, 357)     measured (-371, 371)        (-357, 357) is the guaranteed,
                                                               hole-free segment (715 = 2*357 + 1);
                                                               358 = 306+51+1-0 is a case-1 lag
C03   measured DOF == closed form  measured > form, N=7..13    form segment hole-free, measured >=
                                                               form, form == the printed expression
C04   {0,1,5,8} holes 18, 20, 22   only 22 is a hole           18 = 8+5+5-0, 20 = 8+8+5-1; a literal
                                                               loop over the 3*4^4 signed
                                                               quadruples never reaches 22
C06   N=19 leakage 0.2018          0.2210 at (9, 5, 5)         no 19-sensor split or CNA block comes
                                                               within 1e-3 of 0.2018 (closest
                                                               0.2004); the E1 = 17 layout also
                                                               gives 0.2210
====  ===========================  ==========================  =====================================
"""

import math
import time
from itertools import combinations, product

import numpy as np
import pytest

import coarraylab as cl
from coarraylab.cli import main as cli_main
from coarraylab.coarray import analyze_segment, foeca
from coarraylab.coupling import REFERENCE_LEAKAGE, coupling_leakage, coupling_matrix
from coarraylab.estimator import match_nearest, sample_cumulants
from coarraylab.geometry import (REFERENCE_DOF_ROWS, FognaParams, SensorArray, build_cna,
                                build_fogna, competitor_dof)
from coarraylab.optimizer import dof_bound_ratio, optimize

# Signs of the three fourth-order cases (p1+p2+p3-p4, p1-p2+p3-p4,
# -p1-p2-p3+p4), written out so the literal enumerations below do not
# go through the co-array code they check.
LITERAL_CASE_SIGNS = ((1, 1, 1, -1), (1, -1, 1, -1), (-1, -1, -1, 1))


def report(cid: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def literal_case_lags(positions, signs) -> set:
    """Every virtual position of one case, by a plain loop over quadruples."""
    return {sum(s * p for s, p in zip(signs, quad)) for quad in product(positions, repeat=4)}


def fogna_closed_form(n2: int, n3: int, e1: int) -> int:
    """The FOGNA DOF expression 2(2N3+1)(2E1+N2(2E1+1))+1."""
    return 2 * (2 * n3 + 1) * (2 * e1 + n2 * (2 * e1 + 1)) + 1


def fogna_family(n: int):
    """Every FOGNA design with n sensors: each split and each CNA block M1.

    The subarray-1 aperture is the CNA's 2*M1 + (M1+1)*(M2-1); M1 = 0 is
    the plain ULA of N1 sensors.
    """
    for n1 in range(2, n - 1):
        for n2 in range(1, n - n1):
            n3 = n - n1 - n2
            for m1 in range((n1 - 1) // 2 + 1):
                m2 = n1 - 2 * m1
                e1 = 2 * m1 + (m1 + 1) * (m2 - 1)
                yield FognaParams(n1, n2, n3, m1, m2, e1, 2 * e1 + n2 * (2 * e1 + 1))


def test_criterion_01_design_table_rows(capsys, tmp_path):
    """Design command reproduces the FOGNA DOF rows, under 1 s.

    The 9- and 11-sensor rows match their references.  The 19-sensor
    reference 4599 is the closed form at a subarray-1 aperture E1 = 17,
    which no 9-sensor CNA reaches; the row is the closed form at the
    CNA(2, 5) aperture 16, which is 4335.
    """
    published = {n: REFERENCE_DOF_ROWS[n]["FOGNA"] for n in (9, 11, 19)}
    expected = {
        9: published[9],
        11: published[11],
        19: (published[19][0], fogna_closed_form(5, 5, build_cna(2, 5).aperture)),
    }
    t0 = time.monotonic()
    got = {}
    for n in expected:
        assert cli_main(["design", str(n), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        split = tuple(int(x) for x in out.split("(N1,N2,N3)=(")[1].split(")")[0].split(","))
        dof = int(out.split("DOF=")[1].splitlines()[0])
        got[n] = (split, dof)
    elapsed = time.monotonic() - t0
    # the misprint: 4599 is the same expression one aperture step higher,
    # but no 9-sensor CNA (M1 = 1..4) or ULA (M1 = 0) has an aperture
    # above 16, and no 19-sensor split and CNA block gets past 4335
    nine_sensor_apertures = [SensorArray(tuple(range(9))).aperture] + [
        build_cna(m1, 9 - 2 * m1).aperture for m1 in range(1, 5)]
    family_max = max(fogna_closed_form(p.n2, p.n3, p.e1) for p in fogna_family(19))
    ok = (got == expected and elapsed < 1.0 and expected[19][1] == 4335
          and fogna_closed_form(5, 5, 17) == published[19][1]
          and max(nine_sensor_apertures) == 16 and family_max == 4335)
    with capsys.disabled():
        report("C01", ok, f"rows {got}; N=19 published DOF {published[19][1]} "
                          f"(closed form at E1=17), computed {got[19][1]} (E1=16); "
                          f"9-sensor CNA apertures {nine_sensor_apertures}; "
                          f"family maximum {family_max}; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert got == expected
    assert expected[19][1] == 4335
    assert fogna_closed_form(5, 5, 17) == published[19][1] == 4599
    assert max(nine_sensor_apertures) == 16
    assert family_max == 4335


def test_criterion_02_worked_example_11(capsys):
    """11-sensor worked design: exact positions, guaranteed and measured segments.

    The reference segment (-357, 357) is the construction's guarantee,
    since 715 = 2*357 + 1 is the design's closed-form DOF.  The same
    array has the case-1 lag 358 = 306+51+1-0, and its measured segment
    is (-371, 371).
    """
    result = optimize(11)
    arr = build_fogna(result.best_params)
    assert arr.positions == (0, 1, 3, 5, 6, 25, 38, 51, 102, 204, 306)
    published = (-357, 357)
    lc_star = (result.dof_star - 1) // 2
    rep = analyze_segment(foeca(arr))
    guaranteed_hole_free = not any(-lc_star <= h <= lc_star for h in rep.holes)
    lags = set().union(*(literal_case_lags(arr.positions, s) for s in LITERAL_CASE_SIGNS))
    lc_literal = 0
    while lc_literal + 1 in lags and -lc_literal - 1 in lags:
        lc_literal += 1
    witness = (306, 51, 1, 0)
    witness_lag = sum(s * p for s, p in zip(LITERAL_CASE_SIGNS[0], witness))
    ok = ((-lc_star, lc_star) == published and guaranteed_hole_free and rep.lc >= lc_star
          and rep.central_consecutive == (-371, 371) and lc_literal == 371
          and set(witness) <= set(arr.positions) and witness_lag == 358)
    with capsys.disabled():
        report("C02", ok, f"positions exact; published segment {published}, guaranteed "
                          f"floor (-{lc_star}, {lc_star}) hole-free: {guaranteed_hole_free}; "
                          f"computed segment {rep.central_consecutive} (358 = 306+51+1-0)")
    assert (-lc_star, lc_star) == published
    assert guaranteed_hole_free
    assert rep.lc >= lc_star
    assert rep.central_consecutive == (-371, 371)
    assert lc_literal == 371
    assert set(witness) <= set(arr.positions)
    assert witness_lag == 358


def test_criterion_03_consecutive_count_matches_formula(capsys):
    """The closed-form consecutive-lag count is met, hole-free, for N in 7..13.

    The closed form is the hole-free floor of the construction and
    matches the printed FOGNA expression.  The measured count exceeds it
    at every N, so equality with the measured count is not the criterion.
    """
    t0 = time.monotonic()
    counts = {}
    holes_ok = True
    printed_ok = True
    for n in range(7, 14):
        result = optimize(n)
        p = result.best_params
        rep = analyze_segment(foeca(build_fogna(p)))
        lc_formula = (result.dof_star - 1) // 2
        holes_ok &= not any(-lc_formula <= h <= lc_formula for h in rep.holes)
        printed_ok &= result.dof_star == competitor_dof("FOGNA", (p.n1, p.n2, p.n3))
        counts[n] = (result.dof_star, rep.dof)
    elapsed = time.monotonic() - t0
    excess = {n: measured - formula for n, (formula, measured) in counts.items()}
    ok = holes_ok and printed_ok and all(e > 0 for e in excess.values()) and elapsed < 120.0
    with capsys.disabled():
        report("C03", ok, f"(formula, measured) {counts}; published claim measured == "
                          f"formula, computed excess {excess}; hole-free inside formula "
                          f"segment: {holes_ok}; formula == printed expression: "
                          f"{printed_ok}; {elapsed:.1f}s")
    assert elapsed < 120.0
    assert holes_ok
    assert printed_ok
    # measured >= formula is the criterion; measured > formula at every N
    # is the witness that the published equality does not hold
    assert all(e > 0 for e in excess.values()), excess


def test_criterion_04_four_sensor_hole_example(capsys):
    """Holes of the {0,1,5,8} extended co-array: only +/-22 before the ends.

    The reference positive side {0..17, 19, 21, 23, 24} misses 18 and 20,
    which are case-1 lags (18 = 8+5+5-0, 20 = 8+8+5-1).  No subset of the
    three cases gives the reference side.
    """
    positions = (0, 1, 5, 8)
    positive = sorted(l for l in foeca(positions) if l >= 0)
    expected = sorted(set(range(22)) | {23, 24})
    reference = sorted(set(range(18)) | {19, 21, 23, 24})
    witnesses = {18: (8, 5, 5, 0), 20: (8, 8, 5, 1)}
    witness_lags = {lag: sum(s * p for s, p in zip(LITERAL_CASE_SIGNS[0], quad))
                    for lag, quad in witnesses.items()}
    per_case = [literal_case_lags(positions, s) for s in LITERAL_CASE_SIGNS]
    literal = set().union(*per_case)
    literal_positive = sorted(l for l in literal if l >= 0)
    subset_sides = [sorted(l for l in set().union(*(per_case[c] for c in cases)) if l >= 0)
                    for r in (1, 2, 3) for cases in combinations(range(3), r)]
    ok = (positive == expected == literal_positive and 22 not in literal
          and all(lag == got for lag, got in witness_lags.items())
          and reference not in subset_sides)
    with capsys.disabled():
        report("C04", ok, f"published positive side {reference}, computed {positive}; "
                          f"18 = 8+5+5-0 and 20 = 8+8+5-1 are case-1 lags; 22 is reached by "
                          f"none of the {3 * len(positions) ** 4} signed quadruples")
    assert positive == expected
    for lag, quad in witnesses.items():
        assert set(quad) <= set(positions)
        assert witness_lags[lag] == lag
    assert 22 not in literal
    assert literal_positive == expected
    assert reference not in subset_sides


def test_criterion_05_competitor_closed_forms(capsys):
    """FL rows reproduce; the SE form's mismatch is reported, not asserted."""
    fl = {split: competitor_dof("FL_NA", split)
          for split in [(3, 3, 3, 3), (4, 4, 3, 3), (6, 6, 5, 5)]}
    ok = list(fl.values()) == [217, 385, 2161]
    se_formula = competitor_dof("SE_FL_NA", (3, 3, 3, 2))
    with capsys.disabled():
        report("C05", ok, f"FL rows {list(fl.values())}; SE form at (3,3,3,2) "
                          f"evaluates to {se_formula} vs published 253 (reported only)")
    assert fl[(3, 3, 3, 3)] == 217
    assert fl[(4, 4, 3, 3)] == 385
    assert fl[(6, 6, 5, 5)] == 2161
    assert se_formula == 109  # frozen literal evaluation, mismatch documented


def test_criterion_06_coupling_leakage_rows(capsys):
    """Leakage of the designed geometries matches the reference rows to 1e-3.

    Rows 10, 11, 21 and 23 reproduce from the optimizer's geometry.  The
    19-sensor row prints the optimizer's split (9, 5, 5), whose leakage
    is 0.2210; no 19-sensor split and CNA block gives the published
    0.2018, and neither does (9, 5, 5) spaced with the misprinted E1 = 17
    of criterion 01.
    """
    t0 = time.monotonic()
    computed = {}
    for n in (10, 11, 19, 21, 23):
        arr = build_fogna(optimize(n).best_params)
        computed[n] = coupling_leakage(coupling_matrix(arr))
    elapsed = time.monotonic() - t0
    published = {n: REFERENCE_LEAKAGE[n][1] for n in computed}
    bad = {n: (round(computed[n], 4), published[n]) for n in (10, 11, 21, 23)
           if abs(computed[n] - published[n]) > 1e-3}
    # outside the time budget: every geometry of the family against 0.2018
    family = [(coupling_leakage(coupling_matrix(build_fogna(p))), p)
              for p in fogna_family(19)]
    closest_leak, closest = min(family, key=lambda t: abs(t[0] - published[19]))
    e1 = 17
    misprint = FognaParams(9, 5, 5, 2, 5, e1, 2 * e1 + 5 * (2 * e1 + 1))
    misprint_leak = coupling_leakage(coupling_matrix(build_fogna(misprint)))
    best = optimize(19).best_params
    printed_is_optimizer = REFERENCE_LEAKAGE[19][0] == (best.n1, best.n2, best.n3)
    ok = (not bad and elapsed < 1.0 and printed_is_optimizer
          and round(computed[19], 4) == 0.2210 and round(misprint_leak, 4) == 0.2210
          and abs(closest_leak - published[19]) > 1e-3)
    rows = {n: (f"{computed[n]:.4f}", published[n]) for n in computed}
    with capsys.disabled():
        report("C06", ok, f"(computed, published) {rows}; "
                          f"N=19 closest in family {closest_leak:.4f} at split "
                          f"{(closest.n1, closest.n2, closest.n3)} M1={closest.m1}, "
                          f"E1=17 layout {misprint_leak:.4f}; {elapsed:.2f}s")
    assert elapsed < 1.0
    assert not bad, f"rows off beyond 1e-3: {bad}"
    assert printed_is_optimizer
    assert round(computed[19], 4) == 0.2210
    assert abs(closest_leak - published[19]) > 1e-3
    assert round(misprint_leak, 4) == 0.2210


def test_criterion_07_cumulant_consistency(capsys):
    """Unit-power BPSK gives -2 in all three cases; Gaussian gives 0."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    k = 100_000
    bpsk = rng.choice([-1.0, 1.0], size=(1, k)).astype(complex)
    bank = sample_cumulants(bpsk)
    bpsk_vals = [complex(bank.case(j)[0, 0, 0, 0]) for j in (1, 2, 3)]
    gauss = (rng.standard_normal((1, k)) + 1j * rng.standard_normal((1, k))) / math.sqrt(2)
    gbank = sample_cumulants(gauss)
    gauss_vals = [complex(gbank.case(j)[0, 0, 0, 0]) for j in (1, 2, 3)]
    elapsed = time.monotonic() - t0
    ok = (all(abs(v + 2.0) < 0.1 for v in bpsk_vals)
          and all(abs(v) < 0.05 for v in gauss_vals) and elapsed < 30.0)
    with capsys.disabled():
        report("C07", ok, f"bpsk {[round(v.real, 4) for v in bpsk_vals]}, "
                          f"gaussian magnitudes {[round(abs(v), 4) for v in gauss_vals]}; "
                          f"{elapsed:.1f}s")
    assert elapsed < 30.0
    for v in bpsk_vals:
        assert abs(v + 2.0) < 0.1
    for v in gauss_vals:
        assert abs(v) < 0.05


def test_criterion_08_resolution_trials(capsys):
    """7-sensor design separates -0.8/+0.8 deg at SNR 0 dB in >= 90% of 20 trials."""
    t0 = time.monotonic()
    truths = (-0.8, 0.8)
    arr = build_fogna(optimize(7).best_params)
    hits = 0
    for trial in range(20):
        scene = cl.SourceScene(truths, seed=1000 + trial)
        snap = cl.simulate(arr, scene, 0.0, 10_000)
        meas = cl.assemble_foeca(sample_cumulants(snap), arr)
        est = cl.ss_music(meas, 2)
        errors = np.abs(match_nearest(est.angles_deg, truths))
        hits += len(est.angles_deg) == 2 and bool(np.all(errors < 0.4))
    elapsed = time.monotonic() - t0
    ok = hits >= 18 and elapsed < 300.0
    with capsys.disabled():
        report("C08", ok, f"{hits}/20 trials within 0.4 deg; {elapsed:.1f}s")
    assert elapsed < 300.0
    assert hits >= 18


def test_criterion_09_forty_source_capacity(capsys):
    """9-sensor design resolves 40 spread sources within 1 deg (seeded run)."""
    t0 = time.monotonic()
    truths = tuple(np.linspace(-60.0, 60.0, 40))
    arr = build_fogna(optimize(9).best_params)
    scene = cl.SourceScene(truths, seed=2)
    snap = cl.simulate(arr, scene, 0.0, 10_000)
    meas = cl.assemble_foeca(sample_cumulants(snap), arr)
    est = cl.ss_music(meas, 40, min_peak_sep_deg=1.0)
    errors = np.abs(match_nearest(est.angles_deg, truths))
    elapsed = time.monotonic() - t0
    ok = len(est.angles_deg) == 40 and bool(np.all(errors <= 1.0)) and elapsed < 600.0
    with capsys.disabled():
        report("C09", ok, f"40 sources, max error {errors.max():.3f} deg (seed 2); {elapsed:.1f}s")
    assert elapsed < 600.0
    assert len(est.angles_deg) == 40
    assert np.all(errors <= 1.0), f"max error {errors.max():.3f} deg"


@pytest.mark.parametrize("sweep,flags,column", [
    ("snr", ["--snr-list=-7,-1,5,8", "--snapshots-list", "14000"], "snr_db"),
    ("snapshots", ["--snr-list", "5", "--snapshots-list", "10000,13000,16000"], "n_snapshots"),
])
def test_criterion_10_rmse_trends(capsys, tmp_path, sweep, flags, column):
    """Median RMSE over 50 trials is non-increasing in SNR and in snapshots."""
    import csv
    import os

    t0 = time.monotonic()
    out_dir = str(tmp_path / sweep)
    jobs = str(min(4, os.cpu_count() or 1))
    # grid 0.02 deg keeps the high-SNR points off the peak-interpolation
    # accuracy floor, where the ordering would be decided by noise
    code = cli_main(["rmse", "--n-sensors", "9", "--n-sources", "12",
                     "--trials", "50", "--seed", "500", "--jobs", jobs,
                     "--grid-step", "0.02", "--out-dir", out_dir] + flags)
    capsys.readouterr()
    assert code == 0
    with open(tmp_path / sweep / "rmse_results.csv") as fh:
        rows = list(csv.DictReader(fh))
    medians = [(float(r[column]), float(r["median_rmse_deg"])) for r in rows]
    medians.sort(key=lambda t: t[0])
    values = [v for _, v in medians]
    elapsed = time.monotonic() - t0
    ok = all(b <= a for a, b in zip(values, values[1:])) and elapsed < 3600.0
    with capsys.disabled():
        report("C10", ok, f"{sweep} sweep medians {medians}; {elapsed:.0f}s")
    assert elapsed < 3600.0
    assert all(b <= a for a, b in zip(values, values[1:])), medians


def test_criterion_11_dof_upper_bound(capsys):
    """Optimized DOF stays at or below N^4/2 for N in {8, 12, 16, 20}."""
    ratios = {n: dof_bound_ratio(n) for n in (8, 12, 16, 20)}
    ok = all(0 < r <= 1 for r in ratios.values())
    with capsys.disabled():
        report("C11", ok, "ratios " + str({n: f"{float(r):.4f}" for n, r in ratios.items()}))
    for n, r in ratios.items():
        assert 0 < r <= 1, f"N={n}: dof* exceeds the bound ({r})"
