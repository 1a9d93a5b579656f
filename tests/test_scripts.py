"""Experiment scripts: each runs end to end through the CLI and writes its files."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SWEEP_FILES = ["rmse_results.csv", "rmse_trials.jsonl"]


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, flags, files", [
    ("capacity_experiment", [], SWEEP_FILES),
    ("reproduce_tables", [],
     ["design_trace_N9.csv", "design_trace_N11.csv", "design_trace_N19.csv",
      "dof_table.csv", "coupling_table.csv"]),
    ("resolution_experiment", ["--trials", "1", "--jobs", "1"],
     ["resolve_summary.csv", "resolve_trials.jsonl"]),
    ("rmse_sweep", ["--trials", "1", "--jobs", "1"],
     [f"{sweep}/{f}" for sweep in ("vs_snr", "vs_snapshots") for f in SWEEP_FILES]),
])
def test_script_runs(capsys, tmp_path, name, flags, files):
    code = load(name).run([*flags, "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    written = [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()]
    assert sorted(written) == sorted(files)
