"""Sparse-linear-array design and fourth-order co-array DOA estimation lab."""

from .coarray import (
    LagCounts,
    SegmentReport,
    analyze_segment,
    diff_coarray,
    foca,
    foeca,
    sum_coarray,
)
from .coupling import coupling_leakage, coupling_matrix
from .estimator import (
    CumulantBank,
    DoaEstimate,
    FoecaMeasurement,
    assemble_foeca,
    sample_cumulants,
    ss_music,
)
from .geometry import (
    FognaParams,
    SensorArray,
    build_cna,
    build_fogna,
    build_nested,
    competitor_dof,
)
from .optimizer import OptimizerResult, dof_bound_ratio, dof_quadratic, optimize
from .signalsim import SourceScene, simulate, simulate_sweep

__version__ = "0.1.0"
