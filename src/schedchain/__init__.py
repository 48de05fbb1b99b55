"""Markov-chain toolkit for quantum-based process scheduling schemes.

A scheduler moves over a ring of ``m`` process slots and one absorbing
deadlock state.  The package evaluates per-quantum state probabilities three
independent ways (exact matrix propagation, closed forms, seeded Monte Carlo)
and derives deadlock/fairness analytics for comparing schemes.
"""

__version__ = "0.1.0"

from .analysis import (
    ComparisonReport,
    SchemeComparison,
    SchemeMetrics,
    compare,
    jain_fairness,
    metrics,
)
from .model import (
    ATOL,
    DRIFT_TOL,
    DimensionError,
    Distribution,
    ModelError,
    ParameterError,
    SchemeParams,
    Trajectory,
    TransitionMatrix,
    build_matrix,
    propagate,
    state_labels,
)
from .montecarlo import (
    CENSORED,
    AbsorptionSample,
    OccupancyEstimate,
    SimConfig,
    absorption_times,
    simulate,
    walk_traces,
)
from .schemes import (
    CONSTRAINTS,
    ConstraintError,
    ConstraintSet,
    SchemeId,
    SchemePreset,
    closed_form,
    closed_form_table,
    closed_form_trajectory,
    make_preset,
)

__all__ = [
    "__version__",
    "ATOL",
    "DRIFT_TOL",
    "ModelError",
    "ParameterError",
    "DimensionError",
    "ConstraintError",
    "SchemeParams",
    "Distribution",
    "TransitionMatrix",
    "Trajectory",
    "state_labels",
    "build_matrix",
    "propagate",
    "SchemeId",
    "ConstraintSet",
    "CONSTRAINTS",
    "SchemePreset",
    "make_preset",
    "closed_form",
    "closed_form_table",
    "closed_form_trajectory",
    "CENSORED",
    "SimConfig",
    "OccupancyEstimate",
    "AbsorptionSample",
    "simulate",
    "absorption_times",
    "walk_traces",
    "jain_fairness",
    "SchemeMetrics",
    "SchemeComparison",
    "ComparisonReport",
    "metrics",
    "compare",
]
