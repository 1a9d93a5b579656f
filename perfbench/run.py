"""coarraylab benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload sweep_n9 --seed 1 --seconds 20 --trace 0

Workloads are ``sweep_n9``, ``resolve_n7`` and ``design_survey`` (see
``workloads.py``).  With ``--trace 0`` the run is untraced and reports the
end-to-end metrics; with ``--trace 1`` it records spans around every call
into the package and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``.

Standard output ends with two JSON lines: a full report (environment,
details such as ``rmse_deg`` and ``outputs_identical``, errors), then the
result ``{"correct", "attempted", "failed", "metrics"}``.  The report, and
in traced runs every span, is also written under ``.perfbench_out/``.
The benchmark sets no BLAS or OpenMP thread variable; it records the ones
it finds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

from tracing import Tracer, median_or_zero

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_n9", "resolve_n7", "design_survey")
# Set-up is sampled before and after the workload, so one run's median
# covers two states of a machine whose speed drifts over tens of seconds.
SETUP_REPS = (4, 3)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "GOTO_NUM_THREADS")
PEAK_ALLOC_LAYERS = ("estimator.ss_music", "estimator.sample_cumulants",
                     "signalsim.simulate", "coarray.foeca")
CLI_METRICS = ("cli.rmse.jobs1.wall_s", "cli.rmse.jobsN.wall_s", "cli.pool.speedup",
               "cli.cpu_s", "cli.overhead_s")


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` inside the checkout only."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for (Linux: KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(out, setup_times) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": out.completed / out.busy_s,
        "op_p50_ms": 1000.0 * quantile(out.op_latency_s, 50),
        "op_p90_ms": 1000.0 * quantile(out.op_latency_s, 90),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (out.attempted - out.failed) / out.attempted,
    }


def per_layer(out, tracer, workloads) -> dict:
    self_times = tracer.self_times()
    values = {f"{layer}.s": median_or_zero(self_times.get(layer, ()))
              for layer in workloads.LAYER_SPANS}
    for layer in PEAK_ALLOC_LAYERS:
        values[f"{layer}.peak_alloc_mb"] = tracer.peak_alloc.get(layer, 0) / 2 ** 20
    music = tracer.counts["estimator.ss_music"]
    values["estimator.ss_music.peaks_ratio"] = (
        music["peaks_found"] / music["peaks_requested"] if music["peaks_requested"] else 0.0)
    values["estimator.ss_music.rank_ok_frac"] = (
        music["rank_ok"] / music["calls"] if music["calls"] else 0.0)
    values.update({name: 0.0 for name in CLI_METRICS})
    values.update(out.per_layer)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer("time" if args.trace else "off")
    try:
        setup_times = workloads.measure_setup(args.workload, SETUP_REPS[0])
        if args.workload == "sweep_n9":
            out = (workloads.sweep_traced(args.seed, args.seconds, work, tracer, nproc) if args.trace
                   else workloads.sweep_untraced(args.seed, args.seconds, work))
        elif args.workload == "resolve_n7":
            out = workloads.resolve_run(args.seed, args.seconds, tracer, bool(args.trace))
        else:
            out = workloads.survey_run(args.seed, args.seconds, tracer, bool(args.trace))
        setup_times += workloads.measure_setup(args.workload, SETUP_REPS[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, declared = per_layer(out, tracer, workloads), spec["per_layer"]
    else:
        values, declared = end_to_end(out, setup_times), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": out.checks_ok, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed, nproc),
        "setup_s_samples": setup_times, "fail_frac": out.failed / out.attempted,
        "completed": out.completed, "details": out.details, "errors": out.errors,
    }
    record = dict(report, result=result)
    if args.trace:
        record.update(spans=tracer.spans, counts=tracer.counts,
                      self_time_s={k: sum(v) for k, v in tracer.self_times().items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, default=float) + "\n")
    print(json.dumps(report, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
