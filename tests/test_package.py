"""The library surface: the names the package and its modules export.

The package's public names are pinned as an explicit list, so adding or
removing an export is a visible decision in this file.
"""

import importlib
import types

import pytest

import coarraylab

MODULES = ("coarray", "coupling", "estimator", "geometry", "optimizer", "signalsim")

PACKAGE_NAMES = {
    "CumulantBank", "DoaEstimate", "FoecaMeasurement", "FognaParams", "LagCounts",
    "OptimizerResult", "SegmentReport", "SensorArray", "SourceScene",
    "analyze_segment", "assemble_foeca", "build_cna", "build_fogna", "build_nested",
    "competitor_dof", "coupling_leakage", "coupling_matrix", "diff_coarray", "dof_bound_ratio",
    "dof_quadratic", "foca", "foeca", "optimize", "sample_cumulants", "simulate",
    "simulate_sweep", "ss_music", "sum_coarray",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"coarraylab.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"coarraylab.{name}.__all__ names {missing}, which do not exist"


def test_package_exports_are_the_pinned_list():
    public = {name for name, value in vars(coarraylab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PACKAGE_NAMES


def test_package_exports_come_from_module_exports():
    exported = set()
    for name in MODULES:
        exported |= set(importlib.import_module(f"coarraylab.{name}").__all__)
    assert PACKAGE_NAMES <= exported
