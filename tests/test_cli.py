"""Command-line interface: outputs, determinism, config handling, exit codes."""

import concurrent.futures
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from coarraylab import cli
from coarraylab import coarray as ca
from coarraylab import coupling as cp
from coarraylab import estimator as est
from coarraylab import geometry as geo
from coarraylab import signalsim as sim
from coarraylab.cli import main
from coarraylab.optimizer import optimize


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command, shared", [
    ([], []),
    (["design"], ["--out-dir"]),
    (["coarray"], []),
    (["dof-table"], ["--out-dir"]),
    (["coupling-table"], ["--out-dir"]),
    (["resolve"], ["--out-dir", "--n-sensors", "--seed", "--trials", "--coupling"]),
    (["rmse"], ["--out-dir", "--n-sensors", "--seed", "--trials", "--coupling"]),
], ids=["top", "design", "coarray", "dof-table", "coupling-table", "resolve", "rmse"])
def test_help_renders(capsys, command, shared):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: coarraylab", *command]))
    assert all(flag in out for flag in shared)
    assert "--config" not in out


class TestDesign:
    def test_worked_example(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design", "11", "--out-dir", str(tmp_path))
        assert code == 0
        assert "(5,3,3)" in out
        assert "DOF=715" in out
        assert "[0, 1, 3, 5, 6, 25, 38, 51, 102, 204, 306]" in out
        with open(tmp_path / "design_trace_N11.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["N1"] == "2"
        assert max(int(r["DOF"]) for r in rows) == 715

    def test_large_design(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design", "19", "--out-dir", str(tmp_path))
        assert code == 0
        assert "(9,5,5)" in out

    def test_below_minimum_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "design", "3", "--out-dir", str(tmp_path))
        assert code != 0
        assert "error" in err.lower()

    def test_trace_is_byte_identical(self, capsys, tmp_path):
        run(capsys, "design", "9", "--out-dir", str(tmp_path / "a"))
        run(capsys, "design", "9", "--out-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "design_trace_N9.csv").read_bytes() == \
               (tmp_path / "b" / "design_trace_N9.csv").read_bytes()


class TestCoarray:
    def test_positions_foeca(self, capsys):
        code, out, _ = run(capsys, "coarray", "--positions", "0,1,5,8")
        assert code == 0
        report = json.loads(out[: out.rindex("}") + 1])
        seg = report["foeca"]["segment"]
        assert seg["central_consecutive"] == [-21, 21]
        assert seg["holes"] == [-22, 22]

    def test_fogna_segment(self, capsys):
        code, out, _ = run(capsys, "coarray", "--fogna", "9", "--which", "foeca")
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["positions"] == [0, 1, 3, 5, 6, 25, 38, 76, 152]
        assert report["foeca"]["segment"]["dof"] == 409

    def test_singleton_dca(self, capsys):
        code, out, _ = run(capsys, "coarray", "--positions", "0", "--which", "dca", "--entries")
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["dca"]["entries"] == {"0": 1}

    @staticmethod
    def usage_error(capsys, *flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["coarray", *flags])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_requires_one_geometry(self, capsys):
        # the geometry flags form one required mutually exclusive group
        err = self.usage_error(capsys, "--positions", "0,1", "--fogna", "9")
        assert ("coarraylab coarray: error: "
                "argument --fogna: not allowed with argument --positions") in err

    def test_rejects_no_geometry(self, capsys):
        err = self.usage_error(capsys, "--which", "dca")
        assert ("coarraylab coarray: error: one of the arguments "
                "--positions --fogna --split --cna --nested is required") in err

    def test_malformed_positions(self, capsys):
        code, _, err = run(capsys, "coarray", "--positions", "3,1")
        assert code == 2


class TestTables:
    def test_dof_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "dof-table", "9", "11", "19", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "dof_table.csv") as fh:
            rows = {(r["n_sensors"], r["family"]): r for r in csv.DictReader(fh)}
        assert rows[("9", "FOGNA")]["dof_formula"] == "381"
        assert rows[("11", "FOGNA")]["dof_formula"] == "715"
        assert rows[("19", "FOGNA")]["dof_formula"] == "4335"
        assert rows[("19", "FOGNA")]["dof_published"] == "4599"
        assert rows[("19", "FL_NA")]["dof_formula"] == "2161"
        assert rows[("9", "SE_FL_NA")]["dof_formula"] == "109"
        assert rows[("9", "SE_FL_NA")]["dof_published"] == "253"

    def test_coupling_table(self, capsys, tmp_path):
        code, out, _ = run(capsys, "coupling-table", "11", "19", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "coupling_table.csv") as fh:
            rows = {r["n_sensors"]: r for r in csv.DictReader(fh)}
        assert rows["11"]["split_optimizer"] == "(5,3,3)"
        assert rows["11"]["leakage_optimizer"] == "0.213685"
        assert rows["11"]["split_tabulated"] == ""  # printed split equals the optimizer's
        assert rows["19"]["leakage_optimizer"] == "0.221026"
        assert rows["19"]["leakage_published"] == "0.2018"

    def test_tables_deterministic(self, capsys, tmp_path):
        run(capsys, "coupling-table", "9", "10", "--out-dir", str(tmp_path / "a"))
        run(capsys, "coupling-table", "9", "10", "--out-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "coupling_table.csv").read_bytes() == \
               (tmp_path / "b" / "coupling_table.csv").read_bytes()


# sha256 of each output as the per-lag loop of analyze_segment and the
# per-separation loop of the coupling coefficients wrote it, and (design and
# dof-table) as the float and Fraction count rules wrote it; the vectorised
# and integer versions must reproduce these bytes.
@pytest.mark.parametrize("argv, output, digest", [
    (["coarray", "--fogna", "19", "--which", "sca", "dca", "foca1", "foca2", "foca3",
      "foeca", "--entries"], None,
     "b6b5e0c2bcff9b1d92203339d277744955f252c2d68927b476ac2565cc029ef5"),
    (["coupling-table", "9", "10", "11", "19", "21", "23"], "coupling_table.csv",
     "83978ab3585bc09399c608fb1f779c0c302983e192dbd851321ae7488813570a"),
    # the 40-sensor design's aperture, 28360, lies far past the band
    (["coupling-table", "40"], "coupling_table.csv",
     "3042f58cd382acefc0d61f104daca9d18ec0b912f54edaa22719479d5043a103"),
    (["dof-table", "9", "11", "19"], "dof_table.csv",
     "b9b04080ccdcfc6a904f12d7f1730cb16724247ae775e3fd8248e2bbe03bc5c9"),
    # the large-aperture fold: the 40-sensor design spans lags -85080..85080
    (["coarray", "--fogna", "40", "--which", "foeca"], "coarray.json",
     "e91e4b460cc77b3ba680d64cbb21983c777e4e9cc980af7b3f6576f29faf601d"),
    # N1 = 2 leads the trace: M1 = 0, a bare-ULA CNA
    (["design", "4"], "design_trace_N4.csv",
     "6cae8dc652ba4dd04146464d3878d3d7fdb130c863c58d48e3645c17ed07725b"),
    (["design", "40"], "design_trace_N40.csv",
     "7b8934db3d24547d70d565789174b83aed9d222c7d6e8fc5509f79a842efdb7c"),
    (["dof-table", *map(str, range(4, 41))], "dof_table.csv",
     "d447443e17334119f87efcfa1ac2f5d368be51b1d725a6ca070de95cada57240"),
], ids=["coarray-stdout", "coupling-table", "coupling-table-40", "dof-table", "coarray-40-out",
        "design-4", "design-40", "dof-table-4-40"])
def test_output_digest_is_pinned(capsys, tmp_path, argv, output, digest):
    if output is not None:
        # coarray writes one file, the table commands a directory
        out = ["--out", str(tmp_path / output)] if argv[0] == "coarray" else ["--out-dir", str(tmp_path)]
        argv = [*argv, *out]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = out.encode() if output is None else (tmp_path / output).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


class TestExperiments:
    def test_resolve_smoke(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "resolve", "--n-sensors", "7", "--angles=-10,10",
            "--snr", "10", "--snapshots", "2000", "--trials", "2",
            "--seed", "42", "--tol-deg", "1.0", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "seed: 42" in out
        with open(tmp_path / "resolve_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 2
        assert records[0]["seed"] == 42
        assert len(records[0]["estimates"]) == 2
        with open(tmp_path / "resolve_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["trial"] for r in rows] == ["0", "1"]

    def test_resolve_requires_seed(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["resolve", "--n-sensors", "7", "--angles=-10,10"])

    def test_rmse_smoke_and_determinism(self, capsys, tmp_path):
        args = ["rmse", "--n-sensors", "7", "--n-sources", "2", "--angles=-20,20",
                "--snr-list", "5", "--snapshots-list", "1500,2500", "--trials", "2",
                "--seed", "7"]
        code, out, _ = run(capsys, *args, "--out-dir", str(tmp_path / "a"))
        assert code == 0
        run(capsys, *args, "--out-dir", str(tmp_path / "b"))
        assert (tmp_path / "a" / "rmse_results.csv").read_bytes() == \
               (tmp_path / "b" / "rmse_results.csv").read_bytes()
        assert (tmp_path / "a" / "rmse_trials.jsonl").read_bytes() == \
               (tmp_path / "b" / "rmse_trials.jsonl").read_bytes()
        with open(tmp_path / "a" / "rmse_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["n_trials"] == "2" for r in rows)

    @pytest.mark.parametrize("trials", [1, 2, 3, 4])
    def test_rmse_summary_medians_are_numpys(self, capsys, tmp_path, trials):
        # the middle value, or the mean of the middle two at an even count
        code, _, _ = run(capsys, "rmse", "--n-sensors", "7", "--n-sources", "2",
                         "--snr-list=-5,5", "--snapshots-list", "1500", "--grid-step", "1.2",
                         "--trials", str(trials), "--seed", "3", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        with open(tmp_path / "rmse_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            vals = [r["rmse"] for r in records
                    if r["snr_db"] == float(row["snr_db"]) and r["rmse"] is not None]
            assert len(vals) == int(row["n_trials"]) == trials
            assert row["median_rmse_deg"] == f"{float(np.median(vals)):.6f}"

    def test_rmse_parallel_matches_serial(self, capsys, tmp_path):
        args = ["rmse", "--n-sensors", "7", "--n-sources", "2", "--angles=-25,30",
                "--snr-list", "8", "--snapshots-list", "1200", "--trials", "3",
                "--seed", "11"]
        run(capsys, *args, "--jobs", "1", "--out-dir", str(tmp_path / "serial"))
        run(capsys, *args, "--jobs", "3", "--out-dir", str(tmp_path / "par"))
        assert (tmp_path / "serial" / "rmse_trials.jsonl").read_bytes() == \
               (tmp_path / "par" / "rmse_trials.jsonl").read_bytes()

    def test_pool_starts_no_more_workers_than_trials(self, capsys, tmp_path, monkeypatch):
        # record the worker count, start method and worker BLAS settings
        # asked for, and map serially, so no process starts
        asked = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                asked.append((max_workers, mp_context.get_start_method(),
                              os.environ.get("OPENBLAS_NUM_THREADS"),
                              os.environ.get("OMP_NUM_THREADS")))

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        # the CLI imports the pool class only when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        args = ["rmse", "--n-sensors", "7", "--n-sources", "2", "--snr-list", "5",
                "--snapshots-list", "1500", "--grid-step", "1.2", "--seed", "7"]
        outputs = {}
        for cpus, trials, jobs in ((3, "2", "64"), (3, "3", "2"), (3, "1", "64"), (3, "2", "1"),
                                   (3, "5", "64"), (1, "5", "64")):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            out_dir = tmp_path / f"c{cpus}t{trials}j{jobs}"
            code, _, _ = run(capsys, *args, "--trials", trials, "--jobs", jobs,
                             "--out-dir", str(out_dir))
            assert code == 0
            outputs[cpus, trials, jobs] = (out_dir / "rmse_trials.jsonl").read_bytes()
        # no more workers than trials, nor than usable CPUs
        assert asked == [(2, "spawn", "1", "1")] * 2 + [(3, "spawn", "1", "1")]
        assert outputs[3, "2", "64"] == outputs[3, "2", "1"]
        assert outputs[3, "5", "64"] == outputs[1, "5", "64"]

    def test_serial_run_does_not_import_the_pool(self, tmp_path):
        # a fresh interpreter, since this one has imported the pool already
        code = ("import sys\n"
                "from coarraylab.cli import main\n"
                "rc = main(['rmse', '--n-sensors', '7', '--n-sources', '2', '--snr-list', '5',\n"
                "           '--snapshots-list', '1500', '--grid-step', '1.2', '--trials', '2',\n"
                f"           '--jobs', '1', '--seed', '7', '--out-dir', {str(tmp_path)!r}])\n"
                "print(rc, 'concurrent.futures.process' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._usable_cpus() == 3
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_jobs_leave_the_environment_unchanged(self, capsys, tmp_path, monkeypatch):
        # the workers' BLAS settings are set only while the pool runs:
        # a variable that was set gets its value back, one that was not is removed
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        code, _, _ = run(capsys, "rmse", "--n-sensors", "7", "--n-sources", "2", "--snr-list",
                         "5", "--snapshots-list", "1500", "--grid-step", "1.2", "--trials", "2",
                         "--jobs", "2", "--seed", "7", "--out-dir", str(tmp_path))
        assert code == 0
        assert dict(os.environ) == before

    def test_rmse_records_match_the_library_path(self, capsys, tmp_path):
        truths, snrs, ks, seed = [-30.0, 5.0, 40.0], [0.0, 10.0], [1500, 3000], 23
        code, _, _ = run(capsys, "rmse", "--n-sensors", "7", "--angles=-30,5,40",
                         "--snr-list=0,10", "--snapshots-list", "1500,3000", "--trials", "2",
                         "--seed", str(seed), "--coupling", "--out-dir", str(tmp_path))
        assert code == 0
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        array = geo.build_fogna(optimize(7).best_params)
        lc = ca.analyze_segment(ca.foeca(array)).lc
        expected = []
        for trial in range(2):
            scene = sim.SourceScene(truths, seed=(seed, trial))
            for snr_db, x in sim.simulate_sweep(array, scene, snrs, ks, cp.coupling_matrix(array)):
                meas = est.assemble_foeca(est.sample_cumulants(x), array, lc=lc)
                angles = est.ss_music(meas, len(truths)).angles_deg
                errors = est.match_nearest(angles, truths)
                expected.append({
                    "snr_db": snr_db, "n_snapshots": x.shape[1], "trial": trial,
                    "seed": seed, "truths": truths,
                    "estimates": [round(float(v), 6) for v in angles],
                    "errors": [round(float(v), 6) for v in errors],
                    "rmse": round(math.sqrt(float(np.mean(errors ** 2))), 6),
                })
        assert [(r["snr_db"], r["n_snapshots"]) for r in expected] == [
            (snr, k) for snr in snrs for k in ks] * 2
        assert records == expected


class TestRecordedMisses:
    def test_too_few_peaks_is_a_miss_not_an_abort(self, capsys, tmp_path):
        # peaks 40 deg apart leave room for at most five of the six sources
        code, _, err = run(capsys, "rmse", "--n-sensors", "7", "--n-sources", "6",
                           "--min-peak-sep", "40", "--snr-list=0,10", "--snapshots-list",
                           "2000", "--trials", "2", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert "misses: 4 of 4 estimates" in err
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 4
        for rec in records:
            assert 0 < len(rec["estimates"]) < 6
            assert rec["errors"] is None and rec["rmse"] is None
        with open(tmp_path / "rmse_results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n_trials"], r["median_rmse_deg"], r["mean_rmse_deg"]) for r in rows] == \
            [("0", "nan", "nan")] * 2

    def test_aggregates_count_scored_trials_only(self, capsys, tmp_path, monkeypatch):
        music, calls = est.ss_music, []

        def drop_a_peak_on_the_second_call(*args, **kwargs):
            estimate = music(*args, **kwargs)
            calls.append(estimate)
            if len(calls) == 2:
                estimate.angles_deg = estimate.angles_deg[:-1]
            return estimate

        monkeypatch.setattr(est, "ss_music", drop_a_peak_on_the_second_call)
        code, _, err = run(capsys, "rmse", "--n-sensors", "7", "--angles=-20,20",
                           "--snr-list", "5", "--snapshots-list", "1500", "--trials", "3",
                           "--seed", "7", "--out-dir", str(tmp_path))
        assert code == 0
        assert "misses: 1 of 3 estimates" in err
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert [rec["rmse"] is None for rec in records] == [False, True, False]
        assert len(records[1]["estimates"]) == 1
        scored = [records[0]["rmse"], records[2]["rmse"]]
        with open(tmp_path / "rmse_results.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["n_trials"] == "2"
        assert row["median_rmse_deg"] == f"{sum(scored) / 2:.6f}"
        assert row["mean_rmse_deg"] == f"{sum(scored) / 2:.6f}"

    def test_non_finite_cumulants_are_misses_not_an_abort(self, capsys, tmp_path):
        # at -2000 dB the double-precision moments overflow: no eigensolve, a
        # miss per estimate, reported by the misses line and not by warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "rmse", "--n-sensors", "7", "--n-sources", "2", "--seed",
                                 "1", "--trials", "2", "--snr-list=-2000", "--snapshots-list",
                                 "3000", "--out-dir", str(tmp_path))
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 0
        assert "misses: 2 of 2 estimates" in err
        assert "-2000.0,3000,0,nan,nan" in out
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert [(rec["estimates"], rec["rmse"]) for rec in records] == [([], None)] * 2

    def test_moments_far_below_single_precision_range_are_scored(self, capsys, tmp_path):
        # at -200 dB the fourth moments (about 1e80) lie outside single
        # precision but inside double: both estimates are scored
        code, out, err = run(capsys, "rmse", "--n-sensors", "7", "--n-sources", "2", "--seed",
                             "1", "--trials", "2", "--snr-list=-200", "--snapshots-list", "3000",
                             "--out-dir", str(tmp_path))
        assert code == 0
        assert "misses: 0 of 2 estimates" in err
        assert "-200.0,3000,2," in out
        with open(tmp_path / "rmse_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert all(len(rec["estimates"]) == 2 and rec["rmse"] is not None for rec in records)

    def test_measurement_beyond_the_covariance_range_is_scored(self, capsys, tmp_path):
        # at -800 dB the co-array values (about 1e160) are finite, but their
        # smoothed covariance would overflow: every estimate is scored, and
        # the -7 dB point of the same sweep is the one it has on its own
        base = ["rmse", "--n-sensors", "9", "--n-sources", "12", "--seed", "500", "--trials",
                "1", "--snapshots-list", "14000"]
        code, _, err = run(capsys, *base, "--snr-list=-7,-800", "--out-dir", str(tmp_path / "mixed"))
        assert code == 0
        assert "misses: 0 of 2 estimates" in err
        assert run(capsys, *base, "--snr-list=-7", "--out-dir", str(tmp_path / "alone"))[0] == 0
        records = {}
        for name in ("mixed", "alone"):
            with open(tmp_path / name / "rmse_trials.jsonl") as fh:
                records[name] = [json.loads(line) for line in fh]
        assert [rec for rec in records["mixed"] if rec["snr_db"] == -7.0] == records["alone"]
        assert all(rec["rmse"] is not None for rec in records["mixed"])

    @pytest.mark.parametrize("grid_step", ["60", "200"])
    def test_resolve_counts_a_miss_as_unresolved(self, capsys, tmp_path, grid_step):
        # a grid of two cells (60 deg) or none (200 deg) holds no peak
        code, out, err = run(capsys, "resolve", "--n-sensors", "7", "--angles=-10,10",
                             "--snapshots", "1500", "--grid-step", grid_step, "--trials", "1",
                             "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert "misses: 1 of 1 estimates" in err
        assert "0/1 trials within" in out
        with open(tmp_path / "resolve_summary.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["estimates_deg"], row["rmse_deg"], row["within_tol"]) == ("", "nan", "0")


class TestSweepValidation:
    RMSE = ["rmse", "--n-sensors", "7", "--n-sources", "2", "--angles=-20,20",
            "--snr-list", "5", "--snapshots-list", "1500", "--trials", "1", "--seed", "7"]
    RESOLVE = ["resolve", "--n-sensors", "7", "--angles=-10,10", "--snr", "10",
               "--snapshots", "1500", "--trials", "1", "--seed", "7"]

    @pytest.mark.parametrize("base", [RMSE, RESOLVE], ids=["rmse", "resolve"])
    @pytest.mark.parametrize("flags, message", [
        (["--trials", "0"], "--trials"),
        (["--jobs", "0"], "--jobs"),
        (["--angles=10,10"], "distinct"),
        (["--angles=-20,95"], "(-90, 90)"),
        (["--angles=nan,20"], "(-90, 90)"),
        (["--min-peak-sep=nan"], "--min-peak-sep"),
        (["--min-peak-sep=-1"], "--min-peak-sep"),
        (["--min-peak-sep=inf"], "--min-peak-sep"),
        (["--grid-step=0"], "--grid-step"),
        (["--grid-step=nan"], "--grid-step"),
        (["--grid-step=-1"], "--grid-step"),
        (["--grid-step=inf"], "--grid-step"),
        # rmse takes --snapshots as the unambiguous prefix of --snapshots-list
        (["--snapshots=1"], "snapshot counts must be at least 2"),
        (["--seed=-1"], "--seed"),
        # numpy refuses to lay out this grid; the message names the flag
        (["--grid-step=1e-300"], "--grid-step 1e-300: Maximum allowed size exceeded"),
    ])
    def test_rejected_before_any_trial(self, capsys, tmp_path, base, flags, message):
        code, out, err = run(capsys, *base, *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_grid_too_large_to_allocate_rejected_before_any_trial(self, capsys, tmp_path,
                                                                  monkeypatch):
        # a real step of 1e-12 asks numpy for 1.28 PiB; stand in for that refusal
        def refuse(sub, step):
            raise MemoryError("Unable to allocate 1.28 PiB for an array")
        monkeypatch.setattr(cli.est, "steering_grid", refuse)
        code, out, err = run(capsys, *self.RMSE, "--grid-step=1e-12", "--out-dir", str(tmp_path))
        assert code == 2
        assert err == "error: --grid-step 1e-12: Unable to allocate 1.28 PiB for an array\n"
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--snr-list=", "--snapshots-list="])
    def test_empty_rmse_list_rejected_before_any_trial(self, capsys, tmp_path, flag):
        code, out, err = run(capsys, *self.RMSE, flag, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: the sweep needs at least one SNR and one snapshot count")
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [
        ["rmse", "--snr-list=5,nan"], ["rmse", "--snr-list=-inf"], ["resolve", "--snr=nan"],
        # the noise variance 10^310 overflows a double
        ["rmse", "--snr-list=-3100"], ["resolve", "--snr=-3100"],
    ])
    def test_snr_must_be_a_number(self, capsys, tmp_path, flags):
        base = self.RMSE if flags[0] == "rmse" else self.RESOLVE
        code, out, err = run(capsys, *base, *flags[1:], "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: SNR")
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("base, flags, message", [
        (RMSE, ["--snr-list=5,5"], "--snr-list repeats a sweep point"),
        (RMSE, ["--snr-list=0,-0"], "--snr-list repeats a sweep point"),
        (RMSE, ["--snapshots-list", "1500,2000,1500"], "--snapshots-list repeats a sweep point"),
        (RESOLVE, ["--tol-deg=nan"], "--tol-deg"),
        (RESOLVE, ["--tol-deg=inf"], "--tol-deg"),
        (RESOLVE, ["--tol-deg=-0.1"], "--tol-deg"),
        # --n-sources is read only when --angles is absent
        (RMSE[:5] + RMSE[6:], ["--n-sources", "-1"], "--n-sources must give at least one source"),
    ], ids=["snr-twice", "snr-signed-zero", "snapshots-twice", "tol-nan", "tol-inf", "tol-negative",
            "n-sources-negative"])
    def test_rejected_by_one_command(self, capsys, tmp_path, base, flags, message):
        code, out, err = run(capsys, *base, *flags, "--out-dir", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_any_finite_min_peak_sep_runs(self, capsys, tmp_path):
        # a separation past the grid keeps one peak, here of the one source
        code, out, err = run(capsys, "resolve", "--n-sensors", "4", "--angles=0", "--seed", "1",
                             "--trials", "1", "--min-peak-sep", "1e308", "--out-dir", str(tmp_path))
        assert code == 0
        assert "misses: 0 of 1 estimates" in err
        assert "1/1 trials within 0.4 deg" in out

    def test_subarray_len_is_not_an_option(self, capsys, tmp_path):
        # the smoothing length is always Lc+1
        with pytest.raises(SystemExit) as exit_info:
            main([*self.RMSE, "--subarray-len", "80", "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert "error: unrecognized arguments: --subarray-len 80" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_rmse_needs_a_source(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.RMSE[:5], "--n-sources", "0", "--snr-list", "5",
                           "--trials", "1", "--seed", "7", "--out-dir", str(tmp_path))
        assert code == 2
        assert "at least one source" in err


@pytest.mark.parametrize("argv, message", [
    ([*TestSweepValidation.RMSE, "--angles=-20,x"],
     "argument --angles: expected comma-separated angles in degrees, got '-20,x'"),
    ([*TestSweepValidation.RESOLVE, "--angles=-10,x"],
     "argument --angles: expected comma-separated angles in degrees, got '-10,x'"),
    ([*TestSweepValidation.RMSE, "--snapshots-list", "1500.5"],
     "argument --snapshots-list: expected comma-separated integer snapshot counts, got '1500.5'"),
    ([*TestSweepValidation.RMSE, "--snr-list=5,x"],
     "argument --snr-list: expected comma-separated SNRs in dB, got '5,x'"),
    (["coarray", "--split", "1,2"], "argument --split: expected three integers N1,N2,N3, got '1,2'"),
    (["coarray", "--nested", "1,2,3"],
     "argument --nested: expected two integers N1,N2, got '1,2,3'"),
    (["coarray", "--positions", "0,1.5"],
     "argument --positions: expected comma-separated integers, got '0,1.5'"),
    (["coarray", "--cna", "1,x"], "argument --cna: expected two integers M1,M2, got '1,x'"),
], ids=["rmse-angles", "resolve-angles", "snapshots-list", "snr-list", "split", "nested",
        "positions", "cna"])
def test_malformed_list_names_its_flag(capsys, tmp_path, argv, message):
    out_flag = "--out" if argv[0] == "coarray" else "--out-dir"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, out_flag, str(tmp_path / "out")])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert f"coarraylab {argv[0]}: error: {message}" in err
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, target, reason", [
    (["coarray", "--fogna", "9", "--out", "{tmp}/file/x/y.json"], "{tmp}/file/x",
     "Not a directory"),
    (["design", "9", "--out-dir", "{tmp}/file/x"], "{tmp}/file/x", "Not a directory"),
    ([*TestSweepValidation.RMSE, "--out-dir", "{tmp}/file/x"], "{tmp}/file/x", "Not a directory"),
], ids=["coarray-out", "design-out-dir", "rmse-out-dir"])
def test_unwritable_output_path_is_rejected(capsys, tmp_path, argv, target, reason):
    (tmp_path / "file").write_text("")
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2
    assert err == f"error: {target.replace('{tmp}', str(tmp_path))}: {reason}\n"
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_coarray_out_creates_missing_directory(capsys, tmp_path):
    target = tmp_path / "new" / "deeper" / "coarray.json"
    code, out, err = run(capsys, "coarray", "--fogna", "9", "--which", "foeca",
                         "--out", str(target))
    assert code == 0 and err == ""
    assert target.read_text() == out


class TestConfig:
    def test_config_supplies_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# resolution experiment\n"
            "n-sensors = 7\n"
            "angles = -10,10\n"
            "snr = 10\n"
            "snapshots = 1500\n"
            "trials = 3\n"
            "seed = 5\n"
        )
        code, out, _ = run(
            capsys, "resolve", "--config", str(cfg),
            "--trials", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        with open(tmp_path / "resolve_trials.jsonl") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 1  # flag overrode the config's 3
        assert records[0]["seed"] == 5

    RESOLVE_CFG = ("n-sensors = 7\nangles = -10,10\nsnr = 10\nsnapshots = 1500\n"
                   "trials = 2\nseed = 5\n")

    def test_config_equals_form_matches_separate_form(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.RESOLVE_CFG)
        runs = []
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            out_dir = tmp_path / f"run{len(runs)}"
            code, _, _ = run(capsys, "resolve", *form, "--out-dir", str(out_dir))
            assert code == 0
            runs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert sorted(runs[0]) == ["resolve_summary.csv", "resolve_trials.jsonl"]
        assert runs[0]["resolve_trials.jsonl"].count(b"\n") == 2  # the config's trials = 2
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("form", ["--conf", "twice"])
    def test_other_config_spellings_are_usage_errors(self, capsys, tmp_path, form):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.RESOLVE_CFG)
        out_dir = tmp_path / "out"
        extra = ["--conf", str(cfg)] if form == "--conf" else ["--config", str(cfg)] * 2
        # the explicit flags alone make a valid run, so an ignored spelling would write files
        with pytest.raises(SystemExit) as exit_info:
            main([*TestSweepValidation.RESOLVE, *extra, "--out-dir", str(out_dir)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out_dir.exists()

    def test_missing_config_file_is_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "design", "9", "--config", str(tmp_path / "missing.cfg"),
                             "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: --config ") and "missing.cfg" in err
        assert out == "" and not (tmp_path / "out").exists()

    def test_config_line_error_is_precise(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n-sensors = 7\nnot a pair\n")
        code, _, err = run(capsys, "resolve", "--config", str(cfg))
        assert code == 2
        assert "bad.cfg:2" in err

    def test_out_dir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COARRAYLAB_OUT", str(tmp_path / "envout"))
        code, _, _ = run(capsys, "design", "9")
        assert code == 0
        assert (tmp_path / "envout" / "design_trace_N9.csv").exists()
