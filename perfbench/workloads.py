"""The benchmark's three workloads and the checks on their outputs.

- ``sweep_n9``: the CLI ``rmse`` sweep at the C10 SNR setting, one
  subprocess per invocation, so process start-up and the CLI's inline
  simulation are part of what is timed.
- ``resolve_n7``: the library path, serially, one scene seed per estimate:
  simulate -> sample_cumulants -> assemble_foeca -> ss_music -> match_nearest.
- ``design_survey``: for every N in 4..40, optimize -> build_fogna ->
  foeca -> analyze_segment -> coupling_matrix -> coupling_leakage.

Every workload runs as a closed loop: the next operation starts when the
previous one has finished.  An operation is one estimate (one trial at one
sweep point) on the DOA workloads and one sensor count on design_survey.
Errors are caught per operation and counted, so one failure never ends
the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from coarraylab import coarray as ca
from coarraylab import coupling as cp
from coarraylab import estimator as est
from coarraylab import geometry as geo
from coarraylab import signalsim as sim
from coarraylab.optimizer import optimize

from tracing import Tracer, memory_tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120.0

# sweep_n9: N=9, 12 sources over +-60 deg, the C10 SNR points, K=14000,
# grid 0.02 deg.  Two trials per invocation keeps about ten invocations in
# a run, so the median is taken over enough samples.
SWEEP_ARGS = ["--n-sensors", "9", "--n-sources", "12", "--snr-list=-7,-1,5,8",
              "--snapshots-list", "14000", "--grid-step", "0.02"]
SWEEP_N, SWEEP_SNRS, SWEEP_K, SWEEP_GRID = 9, (-7.0, -1.0, 5.0, 8.0), 14000, 0.02
SWEEP_TRUTHS = tuple(float(t) for t in np.linspace(-60.0, 60.0, 12))
SWEEP_TRIALS = 2
# Every sweep run starts with one invocation at this CLI seed (the C10
# seed), whose output files must match the digests pinned below.
REF_SEED = 500
PINNED_SWEEP = {
    "rmse_results.csv": "f4cd735c6ec1f1797e4a09213a415bb41341f3fa25a70057b5d609a2a571dd69",
    "rmse_trials.jsonl": "7c3a32d8c76b2c926b7b3a01174622abf7538a3fd9969d5f9b907a2bac252f9b",
}

RESOLVE_N, RESOLVE_TRUTHS, RESOLVE_SNR, RESOLVE_K, RESOLVE_GRID = 7, (-0.8, 0.8), 0.0, 40000, 0.05
RESOLVE_MIN_ESTIMATES = 100   # p90 then has ten samples beyond it
RESOLVE_TOL_DEG = 0.4         # C08: a trial resolves when both errors are below this
RESOLVE_MIN_HIT_FRAC = 0.9    # C08: at least 90% of trials resolve

SURVEY_NS = tuple(range(4, 41))
PINNED_SURVEY = "e9ca73a3b75834462b25f2df874a40477c25e817bb5c2a9c4de54a7015052c7f"

# Layers named by the per-layer metrics, in package-module.function form.
LAYER_SPANS = (
    "optimizer.optimize", "geometry.build_fogna", "coarray.foeca",
    "coarray.analyze_segment", "coupling.coupling_matrix", "coupling.coupling_leakage",
    "signalsim.simulate", "estimator.sample_cumulants", "estimator.assemble_foeca",
    "estimator.ss_music",
)


class CheckFailed(Exception):
    """An operation completed but its output failed a check."""


@dataclass
class Outcome:
    """Counts, timings and checks of one run of a workload."""

    attempted: int = 0
    failed: int = 0
    checks_ok: bool = True
    op_latency_s: List[float] = field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)

    def fail(self, units: int, message: str, check: bool = False) -> None:
        self.failed += units
        if check:
            self.checks_ok = False
        if len(self.errors) < 10:
            self.errors.append(message)


# ---------------------------------------------------------------- helpers

def child_env() -> Dict[str, str]:
    """The caller's environment with the package source on PYTHONPATH.

    Thread variables for BLAS and OpenMP are passed on as found.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: List[str]) -> Tuple[int, str]:
    """Run ``argv`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err = f"timed out after {CHILD_TIMEOUT_S} s\n{err}"
    return proc.returncode, err


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def setup_code(workload: str) -> str:
    """Code a fresh interpreter runs to measure a workload's set-up."""
    n = {"sweep_n9": SWEEP_N, "resolve_n7": RESOLVE_N}.get(workload)
    if n is None:
        return "import coarraylab\n"
    return ("import coarraylab as cl\nfrom coarraylab.optimizer import optimize\n"
            f"arr = cl.build_fogna(optimize({n}).best_params)\n"
            "cl.analyze_segment(cl.foeca(arr))\n")


def measure_setup(workload: str, reps: int) -> List[float]:
    code = setup_code(workload)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        rc, err = run_child([sys.executable, "-c", code])
        times.append(perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up failed with exit code {rc}: {err.strip()[-400:]}")
    return times


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def design(n: int, tr: Tracer):
    """The workload's design and segment calls for an N-sensor FOGNA array."""
    with tr.span("optimizer.optimize"):
        result = optimize(n)
    with tr.span("geometry.build_fogna"):
        array = geo.build_fogna(result.best_params)
    with tr.span("coarray.foeca"):
        multiset = ca.foeca(array)
    with tr.span("coarray.analyze_segment"):
        segment = ca.analyze_segment(multiset)
    if array.n_sensors != n:
        raise CheckFailed(f"N={n}: the design has {array.n_sensors} sensors")
    if segment.dof < result.dof_star:
        raise CheckFailed(f"N={n}: measured DOF {segment.dof} below the floor {result.dof_star}")
    return result, array, segment


def music(tr: Tracer, meas, n_sources: int, grid_step_deg: float):
    with tr.span("estimator.ss_music"):
        estimate = est.ss_music(meas, n_sources, grid_step_deg=grid_step_deg)
    tr.count("estimator.ss_music", "calls")
    tr.count("estimator.ss_music", "peaks_requested", n_sources)
    tr.count("estimator.ss_music", "peaks_found", len(estimate.angles_deg))
    tr.count("estimator.ss_music", "rank_ok", estimate.rank_ok)
    return estimate


def score(angles, truths) -> np.ndarray:
    """Signed errors per truth; too few or non-finite angles fail the estimate."""
    angles = np.asarray(angles, dtype=float)
    if len(angles) != len(truths) or not np.all(np.isfinite(angles)):
        raise CheckFailed(f"{len(angles)} finite angles for {len(truths)} sources")
    return est.match_nearest(angles, truths)


def alternate(op, tr: Tracer, deadline: float, min_each: int) -> Dict[str, List[float]]:
    """Run ``op(i)`` alternately with tracing off and on until ``deadline``.

    Returns the wall times of each op per mode; their medians differ by
    the tracing overhead.
    """
    walls: Dict[str, List[float]] = {"off": [], "time": []}
    i = 0
    while min(len(w) for w in walls.values()) < min_each or perf_counter() < deadline:
        tr.mode = "time" if i % 2 else "off"
        tr.run_id = f"op{i}"
        t0 = perf_counter()
        op(i)
        walls[tr.mode].append(perf_counter() - t0)
        i += 1
    return walls


def tracing_overhead(walls: Dict[str, List[float]], units_per_op: int) -> float:
    return (statistics.median(walls["time"]) - statistics.median(walls["off"])) / units_per_op


# --------------------------------------------------------------- sweep_n9

def cli_rmse(out_dir: Path, cli_seed: int, trials: int, jobs: int):
    """One ``coarraylab rmse`` invocation; returns (exit code, wall s, CPU s, stderr)."""
    argv = [sys.executable, "-m", "coarraylab.cli", "rmse", *SWEEP_ARGS,
            "--trials", str(trials), "--seed", str(cli_seed), "--jobs", str(jobs),
            "--out-dir", str(out_dir)]
    cpu0, t0 = children_cpu_s(), perf_counter()
    rc, err = run_child(argv)
    return rc, perf_counter() - t0, children_cpu_s() - cpu0, err


def check_sweep(out: Outcome, out_dir: Path, trials: int) -> List[dict]:
    """Check one invocation's CSV and JSONL; count bad or missing estimates."""
    expected = trials * len(SWEEP_SNRS)
    records = [json.loads(line) for line in (out_dir / "rmse_trials.jsonl").open()]
    good = []
    for rec in records:
        try:
            errors = score(rec["estimates"], SWEEP_TRUTHS)
        except (CheckFailed, ValueError) as exc:
            out.fail(1, f"trial {rec.get('trial')} at {rec.get('snr_db')} dB: {exc}")
            continue
        if not math.isclose(rec["rmse"], float(np.sqrt(np.mean(errors ** 2))), abs_tol=2e-6):
            out.fail(1, f"trial {rec['trial']}: logged RMSE disagrees with its estimates", check=True)
            continue
        good.append(rec)
    if len(records) != expected:
        out.fail(max(expected - len(good), 0), f"{len(records)} trial records, expected {expected}",
                 check=True)
    with (out_dir / "rmse_results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        vals = [r["rmse"] for r in records
                if r["snr_db"] == float(row["snr_db"]) and r["n_snapshots"] == int(row["n_snapshots"])]
        if (int(row["n_trials"]) != trials or not vals
                or row["median_rmse_deg"] != f"{float(np.median(vals)):.6f}"
                or row["mean_rmse_deg"] != f"{float(np.mean(vals)):.6f}"):
            out.fail(0, f"summary row at {row['snr_db']} dB disagrees with the trial log", check=True)
    if len(rows) != len(SWEEP_SNRS):
        out.fail(0, f"{len(rows)} summary rows, expected {len(SWEEP_SNRS)}", check=True)
    return good


def sweep_untraced(seed: int, seconds: float, work: Path) -> Outcome:
    """CLI invocations at --jobs 1, the first at the pinned seed, until time is up."""
    out = Outcome()
    units = SWEEP_TRIALS * len(SWEEP_SNRS)
    walls, cpus = [], []
    t_start = perf_counter()
    deadline = t_start + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        cli_seed = REF_SEED if i == 0 else seed * 1000 + i
        out_dir = work / f"inv{i}"
        rc, wall, cpu, err = cli_rmse(out_dir, cli_seed, SWEEP_TRIALS, 1)
        out.attempted += units
        walls.append(wall)
        cpus.append(cpu)
        out.op_latency_s.append(wall / units)
        if rc != 0:
            out.fail(units, f"rmse --seed {cli_seed} exited {rc}: {err.strip()[-400:]}")
        else:
            try:
                good = check_sweep(out, out_dir, SWEEP_TRIALS)
            except (OSError, ValueError, KeyError) as exc:
                out.fail(units, f"rmse --seed {cli_seed}: unreadable output: {exc!r}", check=True)
                good = []
            out.completed += len(good)
            if i == 0:
                digests = {name: sha256(out_dir / name) for name in PINNED_SWEEP}
                out.details["outputs_identical"] = digests == PINNED_SWEEP
                out.details["reference_digests"] = digests
                out.details["rmse_deg"] = float(np.median([r["rmse"] for r in good])) if good else None
        i += 1
    out.busy_s = sum(walls)
    out.details.update(invocations=i, trials_per_invocation=SWEEP_TRIALS, jobs=1,
                       invocation_wall_s=walls, invocation_cpu_s=cpus)
    return out


def sweep_replay_trial(array, lc: int, cli_seed: int, trial: int, tr: Tracer) -> List[np.ndarray]:
    """One CLI trial replayed through the library's public functions.

    It draws the same numbers in the same order as the CLI's trial runner,
    so its estimates equal the CLI's for the same seed and trial.
    """
    rng = np.random.default_rng([cli_seed, trial])
    with tr.span("signalsim.manifold"):
        a = sim.manifold(array, SWEEP_TRUTHS)
    sources = rng.choice([-1.0, 1.0], size=(len(SWEEP_TRUTHS), SWEEP_K))
    with tr.span("signalsim.complex_gaussian_sampler"):
        unit_noise = sim.complex_gaussian_sampler(rng, (array.n_sensors, SWEEP_K))
    estimates = []
    for snr_db in SWEEP_SNRS:
        x = a @ sources + math.sqrt(10.0 ** (-snr_db / 10.0)) * unit_noise
        with tr.span("estimator.sample_cumulants"):
            bank = est.sample_cumulants(x)
        with tr.span("estimator.assemble_foeca"):
            meas = est.assemble_foeca(bank, array, lc=lc)
        estimate = music(tr, meas, len(SWEEP_TRUTHS), SWEEP_GRID)
        with tr.span("estimator.match_nearest"):
            score(estimate.angles_deg, SWEEP_TRUTHS)
        estimates.append(estimate.angles_deg)
    return estimates


def sweep_traced(seed: int, seconds: float, work: Path, tr: Tracer, nproc: int) -> Outcome:
    """The CLI at --jobs 1 and --jobs nproc, then the same trials replayed in-process.

    The in-process replay is timed untraced (for ``cli.overhead_s``) and
    then alternately traced and untraced for the per-layer split.
    """
    out = Outcome()
    deadline = perf_counter() + seconds
    tr.run_id = "setup"
    with tr.span("op.setup"):
        _, array, segment = design(SWEEP_N, tr)
    # The pool comparison gives every worker two trials.
    trials = 2 * min(nproc, 8)
    units = trials * len(SWEEP_SNRS)
    cli = {}
    for jobs in (1, nproc):
        out_dir = work / f"jobs{jobs}"
        rc, wall, cpu, err = cli_rmse(out_dir, REF_SEED, trials, jobs)
        out.attempted += units
        if rc != 0:
            out.fail(units, f"rmse --jobs {jobs} exited {rc}: {err.strip()[-400:]}")
        else:
            out.completed += len(check_sweep(out, out_dir, trials))
        cli[jobs] = (wall, cpu)
    try:
        cli_records = [json.loads(line) for line in (work / "jobs1" / "rmse_trials.jsonl").open()]
    except OSError:
        cli_records = []

    tr.mode = "off"
    t0 = perf_counter()
    replayed = []
    try:
        for trial in range(trials):
            replayed.extend(sweep_replay_trial(array, segment.lc, REF_SEED, trial, tr))
    except Exception:
        out.fail(0, f"replay of the pool comparison: {traceback.format_exc(limit=3)}")
    replay_wall = perf_counter() - t0
    out.details["replay_matches_cli"] = len(cli_records) == len(replayed) and all(
        rec["estimates"] == [round(float(v), 6) for v in angles]
        for rec, angles in zip(cli_records, replayed))

    def op(i: int) -> None:
        out.attempted += len(SWEEP_SNRS)
        try:
            sweep_replay_trial(array, segment.lc, seed * 1000 + 1, i, tr)
            out.completed += len(SWEEP_SNRS)
        except CheckFailed as exc:
            out.fail(len(SWEEP_SNRS), f"replay trial {i}: {exc}")
        except Exception:
            out.fail(len(SWEEP_SNRS), f"replay trial {i}: {traceback.format_exc(limit=3)}")

    walls = alternate(op, tr, deadline, min_each=2)
    with memory_tracing(tr):
        design(SWEEP_N, tr)
        op(len(walls["off"]) + len(walls["time"]))

    wall1, _ = cli[1]
    wall_n, cpu_n = cli[nproc]
    out.per_layer.update({
        "cli.rmse.jobs1.wall_s": wall1,
        "cli.rmse.jobsN.wall_s": wall_n,
        "cli.pool.speedup": wall1 / wall_n,
        "cli.cpu_s": cpu_n,
        "cli.overhead_s": wall1 - replay_wall,
        "trace.overhead_s": tracing_overhead(walls, len(SWEEP_SNRS)),
    })
    out.details.update(pool_trials=trials, pool_jobs=nproc, cli_cpu_s_jobs1=cli[1][1],
                       replay_wall_s=replay_wall, replay_walls=walls)
    return out


# -------------------------------------------------------------- resolve_n7

def resolve_estimate(array, lc: int, scene_seed: int, tr: Tracer) -> np.ndarray:
    scene = sim.SourceScene(RESOLVE_TRUTHS, seed=scene_seed)
    with tr.span("signalsim.simulate"):
        snap = sim.simulate(array, scene, RESOLVE_SNR, RESOLVE_K)
    with tr.span("estimator.sample_cumulants"):
        bank = est.sample_cumulants(snap)
    with tr.span("estimator.assemble_foeca"):
        meas = est.assemble_foeca(bank, array, lc=lc)
    estimate = music(tr, meas, len(RESOLVE_TRUTHS), RESOLVE_GRID)
    with tr.span("estimator.match_nearest"):
        return score(estimate.angles_deg, RESOLVE_TRUTHS)


def resolve_run(seed: int, seconds: float, tr: Tracer, traced: bool) -> Outcome:
    """Serial estimates, at least RESOLVE_MIN_ESTIMATES, until time is up."""
    out = Outcome()
    tr.run_id = "setup"
    with tr.span("op.setup"):
        _, array, segment = design(RESOLVE_N, tr)
    trial_rmse, hits = [], 0

    def op(i: int) -> None:
        nonlocal hits
        out.attempted += 1
        t0 = perf_counter()
        try:
            with tr.span("op.estimate"):
                errors = resolve_estimate(array, segment.lc, seed * 1_000_000 + i, tr)
        except CheckFailed as exc:
            out.fail(1, f"estimate {i}: {exc}")
            return
        except Exception:
            out.fail(1, f"estimate {i}: {traceback.format_exc(limit=3)}")
            return
        finally:
            out.op_latency_s.append(perf_counter() - t0)
        out.completed += 1
        trial_rmse.append(float(np.sqrt(np.mean(errors ** 2))))
        hits += bool(np.all(np.abs(errors) < RESOLVE_TOL_DEG))

    t_start = perf_counter()
    deadline = t_start + seconds
    if traced:
        walls = alternate(op, tr, deadline, min_each=RESOLVE_MIN_ESTIMATES // 4)
        with memory_tracing(tr):
            design(RESOLVE_N, tr)
            op(out.attempted)
        out.per_layer["trace.overhead_s"] = tracing_overhead(walls, 1)
    else:
        i = 0
        while i < RESOLVE_MIN_ESTIMATES or perf_counter() < deadline:
            op(i)
            i += 1
        out.busy_s = perf_counter() - t_start
    hit_frac = hits / out.completed if out.completed else 0.0
    if hit_frac < RESOLVE_MIN_HIT_FRAC:
        out.fail(0, f"only {hit_frac:.3f} of estimates resolve both sources within "
                    f"{RESOLVE_TOL_DEG} deg", check=True)
    out.details.update(rmse_deg=statistics.median(trial_rmse) if trial_rmse else None,
                       resolved_frac=hit_frac)
    return out


# ----------------------------------------------------------- design_survey

def survey_design(n: int, tr: Tracer) -> str:
    """One sensor count fully analysed; returns its row of the survey table."""
    result, array, segment = design(n, tr)
    with tr.span("coupling.coupling_matrix"):
        c = cp.coupling_matrix(array)
    with tr.span("coupling.coupling_leakage"):
        leakage = cp.coupling_leakage(c)
    if not 0.0 <= leakage < 1.0:
        raise CheckFailed(f"N={n}: leakage {leakage} outside [0, 1)")
    p = result.best_params
    return (f"{n},{p.n1},{p.n2},{p.n3},{result.dof_star},{segment.lc},{segment.full_max},"
            f"{len(segment.holes)},{leakage:.6f}")


def survey_run(seed: int, seconds: float, tr: Tracer, traced: bool) -> Outcome:
    """Whole passes over N = 4..40, each in a seeded order, until time is up."""
    out = Outcome()
    rng = np.random.default_rng(seed)
    digests = set()

    def op(i: int) -> None:
        rows = {}
        for n in rng.permutation(SURVEY_NS).tolist():
            out.attempted += 1
            t0 = perf_counter()
            try:
                with tr.span("op.design"):
                    rows[n] = survey_design(n, tr)
            except CheckFailed as exc:
                out.fail(1, f"pass {i}: {exc}", check=True)
            except Exception:
                out.fail(1, f"pass {i}, N={n}: {traceback.format_exc(limit=3)}")
            else:
                out.completed += 1
            out.op_latency_s.append(perf_counter() - t0)
        table = "n,n1,n2,n3,dof_star,lc,full_max,holes,leakage\n" + "".join(
            rows[n] + "\n" for n in sorted(rows))
        digests.add(hashlib.sha256(table.encode()).hexdigest())

    t_start = perf_counter()
    deadline = t_start + seconds
    if traced:
        walls = alternate(op, tr, deadline, min_each=2)
        with memory_tracing(tr):
            survey_design(max(SURVEY_NS), tr)
        out.per_layer["trace.overhead_s"] = tracing_overhead(walls, len(SURVEY_NS))
    else:
        i = 0
        while i == 0 or perf_counter() < deadline:
            op(i)
            i += 1
        out.busy_s = perf_counter() - t_start
    if len(digests) != 1:
        out.fail(0, f"survey tables differ between passes ({len(digests)} digests)", check=True)
    out.details.update(survey_digests=sorted(digests),
                       outputs_identical=digests == {PINNED_SURVEY})
    return out
