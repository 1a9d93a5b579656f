"""Sparse-linear-array design and fourth-order co-array DOA estimation lab."""

from .coarray import (
    SegmentReport,
    analyze_segment,
    cross_sum,
    diff_coarray,
    foca,
    foeca,
    sum_coarray,
)
from .coupling import CouplingModel, coupling_leakage, coupling_matrix
from .estimator import (
    CumulantBank,
    DoaEstimate,
    FoecaMeasurement,
    SteeringGrid,
    assemble_foeca,
    rmse,
    sample_cumulants,
    ss_music,
)
from .geometry import (
    FognaParams,
    SensorArray,
    build_cna,
    build_fogna,
    build_nested,
    build_ula,
    competitor_dof,
    published_dof,
)
from .optimizer import OptimizerResult, dof_bound_ratio, dof_quadratic, optimize
from .signalsim import SourceScene, simulate, simulate_sweep, steering_vector

__version__ = "0.1.0"
