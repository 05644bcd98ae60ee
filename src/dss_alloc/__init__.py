"""Service rates and recovery probabilities of coded storage allocations.

A file split into k blocks is MDS-coded into mk blocks and spread evenly
over m*alpha of N storage nodes, each holding k/alpha blocks; an access
that reaches at least alpha data nodes recovers the file. This package
computes the recovery probability and the service rate of such allocations
under two access models (fixed-size subset, independent node failures) and
four service-time models, searches for the optimal spreading parameter
alpha, evaluates threshold certificates for when minimal spreading
(alpha = 1) is or is not optimal, and cross-checks every closed form with
a seeded Monte-Carlo simulator.
"""

from .acceptance import CriterionResult, run_all
from .analysis import (
    MetricResult,
    OptimalResult,
    Simulated,
    SweepRow,
    access_pmf,
    alpha_table,
    expected_metrics,
    feasible_alphas,
    maximal_spreading_rate,
    minimal_spreading_rate,
    optimal_alpha,
    recovery_probability,
    service_rate,
    sweep,
)
from .conditions import (
    CandidateCheck,
    ConditionReport,
    ThresholdResult,
    classify,
    constant_prob_m1_optimal_alpha,
    fixed_scaled_nonoptimality_threshold,
    fixed_scaled_optimality_threshold,
    fixed_shifted_nonoptimality_threshold,
    fixed_shifted_optimality_threshold,
    optimal_alpha_profile,
    prob_scaled_nonoptimality_threshold,
    prob_scaled_optimality_threshold,
    prob_shifted_nonoptimality_threshold,
    prob_shifted_optimality_threshold,
    scaled_prob_m1_optimal_range,
)
from .errors import (
    ConfigurationError,
    DssAllocError,
    InfeasibleError,
    NoClosedFormError,
    SimulationError,
)
from .models import (
    ConstantTime,
    FixedSize,
    Probabilistic,
    ScaledExp,
    ShiftedExp,
    SmallExp,
    SystemConfig,
    conditional_rate,
    conditional_rate_bounds,
)
from .numerics import (
    binomial,
    binomial_pmf,
    harmonic,
    harmonic_gap,
    hypergeometric_pmf,
    hypergeometric_support,
    log_binomial,
)
from .presets import PRESETS, Preset, preset_rows
from .simulator import (
    SimConfig,
    SimEstimate,
    estimate_recovery_probability,
    estimate_service_rate,
    sample_completion_time,
    sample_phi,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateCheck",
    "ConditionReport",
    "ConfigurationError",
    "ConstantTime",
    "CriterionResult",
    "DssAllocError",
    "FixedSize",
    "InfeasibleError",
    "MetricResult",
    "NoClosedFormError",
    "OptimalResult",
    "PRESETS",
    "Preset",
    "Probabilistic",
    "ScaledExp",
    "ShiftedExp",
    "SimConfig",
    "SimEstimate",
    "Simulated",
    "SimulationError",
    "SmallExp",
    "SweepRow",
    "SystemConfig",
    "ThresholdResult",
    "access_pmf",
    "alpha_table",
    "binomial",
    "binomial_pmf",
    "classify",
    "conditional_rate",
    "conditional_rate_bounds",
    "constant_prob_m1_optimal_alpha",
    "estimate_recovery_probability",
    "estimate_service_rate",
    "expected_metrics",
    "feasible_alphas",
    "fixed_scaled_nonoptimality_threshold",
    "fixed_scaled_optimality_threshold",
    "fixed_shifted_nonoptimality_threshold",
    "fixed_shifted_optimality_threshold",
    "harmonic",
    "harmonic_gap",
    "hypergeometric_pmf",
    "hypergeometric_support",
    "log_binomial",
    "maximal_spreading_rate",
    "minimal_spreading_rate",
    "optimal_alpha",
    "optimal_alpha_profile",
    "preset_rows",
    "prob_scaled_nonoptimality_threshold",
    "prob_scaled_optimality_threshold",
    "prob_shifted_nonoptimality_threshold",
    "prob_shifted_optimality_threshold",
    "recovery_probability",
    "run_all",
    "sample_completion_time",
    "sample_phi",
    "scaled_prob_m1_optimal_range",
    "service_rate",
    "sweep",
    "__version__",
]
