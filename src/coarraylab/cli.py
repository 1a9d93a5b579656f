"""Command-line front end wiring the library into reproducible experiments.

Subcommands: design, coarray, dof-table, coupling-table, resolve, rmse.
Tabular outputs are UTF-8 CSV with a header row; per-trial logs are JSON
Lines.  Every stochastic command takes a mandatory --seed and echoes it,
and re-running a command with the same configuration reproduces its
output files byte for byte.

A flat key-value config file (``key = value`` lines, '#' comments) given as
--config FILE or --config=FILE seeds any subcommand's options; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import coarray as ca
from . import coupling as cp
from . import estimator as est
from . import geometry as geo
from . import signalsim as sim
from .optimizer import optimize

OUT_DIR_ENV = "COARRAYLAB_OUT"
# set while the --jobs workers are spawned, so each runs one BLAS thread
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _make_dir(path: str) -> None:
    """Create directory ``path`` if missing; one that cannot be made is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None


def _out_path(args, name: str) -> str:
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    _make_dir(out_dir)
    return os.path.join(out_dir, name)


def _open_out(path: str, newline: Optional[str] = None):
    """Open ``path`` for writing; a path that cannot be written is a usage error."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None


def _values(convert, form: str, count: Optional[int] = None):
    """argparse type for a comma-separated list; ``form`` describes it in the error."""
    def parse(text: str) -> list:
        error = argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        try:
            values = [convert(x) for x in text.split(",") if x.strip() != ""]
        except ValueError:
            raise error from None
        if count is not None and len(values) != count:
            raise error
        return values
    return parse


def _write_csv(args, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    path = _out_path(args, name)
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------- design

def cmd_design(args) -> int:
    result = optimize(args.n)
    p = result.best_params
    array = geo.build_fogna(p)
    path = _write_csv(
        args, f"design_trace_N{args.n}.csv",
        ["N1", "N2", "N3", "M1", "M2", "E1", "E2", "DOF"],
        [[r.n1, r.n2, r.n3, r.m1, r.m2, r.e1, r.e2, r.dof] for r in result.trace],
    )
    print(f"N={args.n} best split (N1,N2,N3)=({p.n1},{p.n2},{p.n3}) "
          f"M=({p.m1},{p.m2}) E1={p.e1} E2={p.e2}")
    print(f"DOF={result.dof_star}")
    print(f"positions={list(array.positions)}")
    print(f"aperture={array.aperture}")
    print(f"trace written to {path}")
    return 0


# --------------------------------------------------------------- coarray

def _array_from_args(args) -> geo.SensorArray:
    if args.positions is not None:
        return geo.SensorArray(tuple(args.positions))
    if args.fogna is not None:
        return geo.build_fogna(optimize(args.fogna).best_params)
    if args.split is not None:
        return geo.build_fogna(tuple(args.split))
    if args.cna is not None:
        return geo.build_cna(*args.cna)
    return geo.build_nested(*args.nested)


_COARRAY_BUILDERS = {
    "sca": ca.sum_coarray,
    "dca": ca.diff_coarray,
    "foca1": lambda s: ca.foca(s, 1),
    "foca2": lambda s: ca.foca(s, 2),
    "foca3": lambda s: ca.foca(s, 3),
    "foeca": ca.foeca,
}


def cmd_coarray(args) -> int:
    array = _array_from_args(args)
    report: Dict[str, object] = {"positions": list(array.positions)}
    for which in args.which:
        multiset = _COARRAY_BUILDERS[which](array)
        segment = ca.analyze_segment(multiset)
        entry: Dict[str, object] = {
            "total": multiset.total(),
            "segment": segment.as_dict(),
        }
        if args.entries:
            entry["entries"] = {str(l): m for l, m in multiset.items()}
        report[which] = entry
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _make_dir(os.path.dirname(args.out) or ".")
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
    print(text)
    return 0


# -------------------------------------------------------------- dof-table

def cmd_dof_table(args) -> int:
    rows = []
    for n in args.n:
        result = optimize(n)
        p = result.best_params
        published = geo.REFERENCE_DOF_ROWS.get(n, {})
        pub_fogna = published.get("FOGNA", (None, ""))[1]
        rows.append([n, "FOGNA", f"({p.n1},{p.n2},{p.n3})", result.dof_star, pub_fogna])
        for family in ("FL_NA", "SE_FL_NA", "FO_FRACTAL_NA", "SD_FODC_NA"):
            if family not in published:
                continue
            split, pub = published[family]
            try:
                formula = geo.competitor_dof(family, split)
            except ValueError:
                formula = ""
            rows.append([n, family, "(" + ",".join(map(str, split)) + ")", formula, pub])
    path = _write_csv(args, "dof_table.csv",
                      ["n_sensors", "family", "split", "dof_formula", "dof_published"], rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    print(f"table written to {path}")
    return 0


# ---------------------------------------------------------- coupling-table

def cmd_coupling_table(args) -> int:
    rows = []
    for n in args.n:
        opt = optimize(n).best_params
        opt_split = (opt.n1, opt.n2, opt.n3)
        leak_opt = cp.coupling_leakage(cp.coupling_matrix(geo.build_fogna(opt)))
        tab_split, published = cp.REFERENCE_LEAKAGE.get(n, (None, ""))
        if tab_split is not None and tuple(tab_split) != opt_split:
            leak_tab = cp.coupling_leakage(cp.coupling_matrix(geo.build_fogna(tab_split)))
            tab_cell, leak_tab_cell = "(" + ",".join(map(str, tab_split)) + ")", f"{leak_tab:.6f}"
        else:
            tab_cell, leak_tab_cell = "", ""
        rows.append([
            n,
            f"({opt.n1},{opt.n2},{opt.n3})",
            f"{leak_opt:.6f}",
            tab_cell,
            leak_tab_cell,
            published,
        ])
    path = _write_csv(
        args, "coupling_table.csv",
        ["n_sensors", "split_optimizer", "leakage_optimizer", "split_tabulated",
         "leakage_tabulated", "leakage_published"],
        rows,
    )
    for row in rows:
        print(",".join(str(x) for x in row))
    print(f"table written to {path}")
    return 0


# ------------------------------------------------------------ experiments

def _run_doa_trial(trial: int, *, array, truths, snr_list, k_list, seed, grid_step,
                   min_sep, coupling) -> List[Dict]:
    """One Monte-Carlo trial, evaluated at every sweep point.

    ``simulate_sweep`` draws the trial's sources and noise once from the
    seed (seed, trial), so sweep points are compared on common random
    numbers.  An estimate with fewer peaks than sources is a miss: its
    record keeps the peaks found, with ``errors`` and ``rmse`` null.
    Overflow and invalid-value warnings are silenced: a non-finite
    measurement is already a miss, and each ``--jobs`` worker would print
    its own copy, so stderr would depend on the worker count and timing.
    """
    scene = sim.SourceScene(truths, seed=(seed, trial))
    records = []
    with np.errstate(over="ignore", invalid="ignore"):
        for snr_db, x in sim.simulate_sweep(array, scene, snr_list, k_list, coupling):
            meas = est.assemble_foeca(est.sample_cumulants(x), array)
            estimate = est.ss_music(meas, scene.n_sources, grid_step_deg=grid_step,
                                    min_peak_sep_deg=min_sep)
            record = {
                "snr_db": snr_db,
                "n_snapshots": x.shape[1],
                "trial": trial,
                "seed": seed,
                "truths": list(truths),
                "estimates": [round(float(v), 6) for v in estimate.angles_deg],
                "errors": None,
                "rmse": None,
            }
            if len(estimate.angles_deg) == len(truths):
                errors = est.match_nearest(estimate.angles_deg, truths)
                record["errors"] = [round(float(v), 6) for v in errors]
                record["rmse"] = round(float(np.sqrt(np.mean(errors ** 2))), 6)
            records.append(record)
    return records


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _sweep(args, truths: Sequence[float], snr_list: Sequence[float], k_list: Sequence[int],
           name: str) -> List[Dict]:
    """Run the ``resolve`` or ``rmse`` trials, write ``<name>_trials.jsonl``, return its records.

    Every setting is checked, the capacity Lc included, and the scan grid
    is built before anything is printed or written, so a rejected sweep
    leaves stdout empty and no file.  With ``--jobs`` above 1 the trials
    run in spawned workers, one BLAS thread each and at most one per trial
    and per usable CPU; each builds its own grid (about 3 ms at N = 9 and
    a 0.02 degree step: 16 steering rows of 8999 points).
    """
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    try:
        sim.SourceScene(tuple(truths))
    except ValueError as exc:
        raise ValueError(f"truth angles {list(truths)}: {exc}") from None
    if not snr_list or not k_list:
        raise ValueError("the sweep needs at least one SNR and one snapshot count")
    for snr_db in snr_list:
        sim.noise_std(snr_db)
    for flag, values in (("--snr-list", snr_list), ("--snapshots-list", k_list)):
        if len(set(values)) != len(values):
            raise ValueError(f"{flag} repeats a sweep point: {list(values)}")
    if min(k_list) < 2:
        raise ValueError(f"snapshot counts must be at least 2, got {min(k_list)}")
    if not (math.isfinite(args.min_peak_sep) and args.min_peak_sep >= 0):
        raise ValueError(f"--min-peak-sep must be a finite number of degrees >= 0, "
                         f"got {args.min_peak_sep}")
    array = geo.build_fogna(optimize(args.n_sensors).best_params)
    sub = est.subarray_length(ca.analyze_segment(ca.foeca(array)).lc, len(truths))
    try:
        est.steering_grid(sub, args.grid_step)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"--grid-step {args.grid_step}: {exc}") from None
    jsonl_path = _out_path(args, f"{name}_trials.jsonl")

    print(f"array positions: {list(array.positions)}")
    print(f"seed: {args.seed}")
    run_trial = functools.partial(
        _run_doa_trial, array=array, truths=truths, snr_list=snr_list, k_list=k_list,
        seed=args.seed, grid_step=args.grid_step, min_sep=args.min_peak_sep,
        coupling=cp.coupling_matrix(array) if args.coupling else None,
    )
    # a worker without a trial or a CPU of its own only adds start-up time
    workers = min(args.jobs, args.trials, _usable_cpus())
    if workers > 1:
        # imported here, so a serial run does not pay for the pool machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: a forked worker inherits BLAS already started
        # with a thread per CPU, and the workers' threads oversubscribe the CPUs
        saved = {name: os.environ.get(name) for name in _WORKER_ENV}
        os.environ.update(_WORKER_ENV)
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                per_trial = list(pool.map(run_trial, range(args.trials)))
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    else:
        per_trial = [run_trial(trial) for trial in range(args.trials)]
    records = [rec for records in per_trial for rec in records]
    misses = sum(rec["rmse"] is None for rec in records)
    print(f"misses: {misses} of {len(records)} estimates found fewer peaks than sources",
          file=sys.stderr)

    with _open_out(jsonl_path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def cmd_resolve(args) -> int:
    if not (math.isfinite(args.tol_deg) and args.tol_deg >= 0):
        raise ValueError(f"--tol-deg must be a finite number of degrees >= 0, got {args.tol_deg}")
    truths = sorted(args.angles)
    records = _sweep(args, truths, [args.snr], [args.snapshots], "resolve")
    rows = []
    n_ok = 0
    for rec in records:
        scored = rec["rmse"] is not None
        hit = scored and max(abs(e) for e in rec["errors"]) <= args.tol_deg
        n_ok += hit
        rows.append([rec["trial"], rec["seed"],
                     ";".join(f"{v:.4f}" for v in rec["estimates"]),
                     f"{rec['rmse']:.6f}" if scored else "nan", int(hit)])
    path = _write_csv(args, "resolve_summary.csv",
                      ["trial", "seed", "estimates_deg", "rmse_deg", "within_tol"], rows)
    print(f"{n_ok}/{len(records)} trials within {args.tol_deg} deg; summary in {path}")
    return 0


def cmd_rmse(args) -> int:
    snr_list, k_list = args.snr_list, args.snapshots_list
    if args.angles:
        truths = sorted(args.angles)
    elif args.n_sources < 1:
        raise ValueError(f"--n-sources must give at least one source, got {args.n_sources}")
    else:
        truths = list(np.linspace(-60.0, 60.0, args.n_sources))
    records = _sweep(args, truths, snr_list, k_list, "rmse")
    rows = []
    for snr_db in snr_list:
        for k in k_list:
            vals = [r["rmse"] for r in records
                    if r["snr_db"] == snr_db and r["n_snapshots"] == k and r["rmse"] is not None]
            if vals:
                # statistics.median gives np.median's value without its
                # first call's import of numpy.ma (about 10 ms a run)
                rows.append([snr_db, k, len(vals),
                             f"{statistics.median(vals):.6f}", f"{float(np.mean(vals)):.6f}"])
            else:
                rows.append([snr_db, k, 0, "nan", "nan"])
    header = ["snr_db", "n_snapshots", "n_trials", "median_rmse_deg", "mean_rmse_deg"]
    path = _write_csv(args, "rmse_results.csv", header, rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    print(f"results written to {path}")
    return 0


# ------------------------------------------------------------------ main

def _load_config(path: str) -> List[str]:
    flags: List[str] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"--config {path}: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() in ("true", "false"):
                if value.lower() == "true":
                    flags.append(flag)
            else:
                # single-token form so values may start with a minus sign
                flags.append(f"{flag}={value}")
    return flags


def _expand_config(argv: List[str]) -> List[str]:
    """Replace the first ``--config PATH`` or ``--config=PATH`` with the file's flags.

    No parser declares --config, so argparse rejects any other spelling or a second one.
    """
    for i, token in enumerate(argv):
        flag, eq, path = token.partition("=")
        if flag == "--config":
            end = i + 1 if eq else i + 2
            if end > len(argv):
                raise ValueError("--config needs a file path")
            rest = argv[:i] + argv[end:]
            # config flags go right after the subcommand so explicit flags win
            return rest[:1] + _load_config(path if eq else argv[i + 1]) + rest[1:]
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coarraylab",
                                     description="sparse-array design and co-array DOA lab")
    subs = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", help=f"output directory (default: ${OUT_DIR_ENV}, then .)")

    angles = _values(float, "comma-separated angles in degrees")

    sweep = argparse.ArgumentParser(add_help=False, parents=[out])
    sweep.add_argument("--n-sensors", type=int, required=True)
    sweep.add_argument("--seed", type=int, required=True, help="base RNG seed (mandatory)")
    sweep.add_argument("--trials", type=int, default=20)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    sweep.add_argument("--grid-step", type=float, default=0.05, help="spectrum grid step, degrees")
    sweep.add_argument("--min-peak-sep", type=float, default=0.5,
                       help="minimum separation between picked peaks, degrees")
    sweep.add_argument("--coupling", action="store_true",
                       help="apply the default mutual-coupling model")

    p = subs.add_parser("design", parents=[out],
                        help="optimize the three-subarray split for N sensors")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_design)

    p = subs.add_parser("coarray", help="co-array multiset and segment report")
    geometry = p.add_mutually_exclusive_group(required=True)
    geometry.add_argument("--positions", type=_values(int, "comma-separated integers"),
                          help="comma-separated integer positions")
    geometry.add_argument("--fogna", type=int, help="optimized design with this many sensors")
    geometry.add_argument("--split", type=_values(int, "three integers N1,N2,N3", 3),
                          help="explicit N1,N2,N3 split")
    geometry.add_argument("--cna", type=_values(int, "two integers M1,M2", 2),
                          help="CNA blocks M1,M2")
    geometry.add_argument("--nested", type=_values(int, "two integers N1,N2", 2),
                          help="two-level nested N1,N2")
    p.add_argument("--which", nargs="+", default=["foeca"],
                   choices=sorted(_COARRAY_BUILDERS))
    p.add_argument("--entries", action="store_true", help="include the lag->multiplicity map")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_coarray)

    p = subs.add_parser("dof-table", parents=[out],
                        help="DOF comparison rows (formula vs published)")
    p.add_argument("n", type=int, nargs="+")
    p.set_defaults(func=cmd_dof_table)

    p = subs.add_parser("coupling-table", parents=[out],
                        help="coupling-leakage rows (computed vs published)")
    p.add_argument("n", type=int, nargs="+")
    p.set_defaults(func=cmd_coupling_table)

    p = subs.add_parser("resolve", parents=[sweep], help="two-source (or more) resolution trials")
    p.add_argument("--angles", type=angles, required=True,
                   help="comma-separated truth angles, degrees")
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--snapshots", type=int, default=10000)
    p.add_argument("--tol-deg", type=float, default=0.4)
    p.set_defaults(func=cmd_resolve)

    p = subs.add_parser("rmse", parents=[sweep], help="RMSE sweep over SNR and snapshot counts")
    p.add_argument("--n-sources", type=int, default=12)
    p.add_argument("--angles", type=angles,
                   help="explicit truths (default: uniform in [-60, 60])")
    p.add_argument("--snr-list", type=_values(float, "comma-separated SNRs in dB"),
                   default="-7,-1,5,8")
    p.add_argument("--snapshots-list", type=_values(int, "comma-separated integer snapshot counts"),
                   default="14000")
    p.set_defaults(func=cmd_rmse)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = build_parser().parse_args(argv)
        code = args.func(args)
        # flushed here, so a reader that closed stdout early is caught below
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit does not fail again (the recipe of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
