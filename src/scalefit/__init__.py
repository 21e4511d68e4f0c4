"""Scaling-law fitting, compute-optimal allocation, and alignment scoring."""

from .numerics import (
    HuberParams,
    OptimizerConfig,
    MinimizeResult,
    huber,
    lse,
    loglog_linreg,
    minimize,
    check_gradient,
)
from .records import (
    RunRecord,
    RunTable,
    ingest,
    export,
    filter_for_fit,
)
from .scaling import (
    Rescale,
    FitConfig,
    PowerLawFit,
    ShiftedPowerLawFit,
    JointFit,
    fit_power_law,
    fit_shifted_power_law,
    fit_joint,
    predict,
    region_gain,
)
from .allocation import (
    ComputeModel,
    AllocationCoefficients,
    AllocationResult,
    fit_compute_model,
    allocation_coefficients,
    optimal_allocation,
    brute_force_allocation,
)
from .uncertainty import BootstrapConfig, BootstrapResult, bootstrap_fit
from .alignment import (
    BenchmarkData,
    BehaviorData,
    ScoreReport,
    neural_score,
    behavior_score,
    ceiling_normalize,
    pearson,
)
from .synth import (
    CurveGenerator,
    BenchmarkGenerator,
    gen_curve_points,
    gen_benchmark,
)

__version__ = "0.1.0"
