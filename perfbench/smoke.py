"""Smoke check of the benchmark itself.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It runs every workload briefly, untraced and traced, and checks that the
last line of output has the shape ``BENCHMARK.json`` promises: the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, every declared
metric with its unit and a finite value, and no failed operation.  It then
copies only ``BENCHMARK.json`` and the benchmark's own directory into an
empty directory and checks that a run there fails without printing a
result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace)]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} trace {trace}: result keys {sorted(result)}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise SystemExit(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{workload} trace {trace}: bad metric {m['name']}: {got}")
        if "bound" in m and got["value"] == 0:
            raise SystemExit(f"{workload}: end-to-end metric {m['name']} reads 0")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace {trace}: correct={result['correct']} "
                         f"attempted={result['attempted']} failed={result['failed']}")
    print(f"ok  {workload} trace {trace}: {result['attempted']} operations")


def check_fails_without_program() -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit("a run without the program's sources did not fail")
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_fails_without_program()


if __name__ == "__main__":
    main()
