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
    OptimalResult,
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
)
from .conditions import (
    ConditionReport,
    classify,
    scaled_prob_m1_optimal_range,
)
from .errors import (
    ConfigurationError,
    DssAllocError,
    InfeasibleError,
    NoClosedFormError,
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
    harmonic,
    harmonic_gap,
    hypergeometric_pmf,
)
from .presets import PRESETS, Preset, preset_rows
from .simulator import (
    SimConfig,
    SimEstimate,
    estimate_recovery_probability,
    estimate_service_rate,
    sample_completion_time,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "ConfigurationError",
    "ConstantTime",
    "CriterionResult",
    "DssAllocError",
    "FixedSize",
    "InfeasibleError",
    "NoClosedFormError",
    "OptimalResult",
    "PRESETS",
    "Preset",
    "Probabilistic",
    "ScaledExp",
    "ShiftedExp",
    "SimConfig",
    "SimEstimate",
    "SmallExp",
    "SweepRow",
    "SystemConfig",
    "access_pmf",
    "alpha_table",
    "binomial",
    "classify",
    "conditional_rate",
    "conditional_rate_bounds",
    "estimate_recovery_probability",
    "estimate_service_rate",
    "expected_metrics",
    "feasible_alphas",
    "harmonic",
    "harmonic_gap",
    "hypergeometric_pmf",
    "maximal_spreading_rate",
    "minimal_spreading_rate",
    "optimal_alpha",
    "preset_rows",
    "recovery_probability",
    "run_all",
    "sample_completion_time",
    "scaled_prob_m1_optimal_range",
    "service_rate",
    "__version__",
]
