"""Doubly nonlinear evolution solver with certified energy diagnostics.

Solves finite-dimensional inclusions of the form

    d Psi_u(u'(t)) + F_t(u(t)) owns 0

by incremental minimization, and certifies each discrete trajectory with
Fenchel-Young gaps, discrete energy estimates, the energy identity defect,
and chain-rule residuals.
"""

from .energy import (AssumptionReport, EnergyConstants, EnergyModel,
                     MarginalEnergy, argmin_set, audit_assumptions,
                     clarke_subdifferential_1d, default_probe_plan,
                     energy_value, generalized_time_derivative,
                     marginal_subdifferential)
from .errors import (ConditioningError, ConfigError, DimensionMismatchError,
                     DnevolveError, DomainError, MaximizationFailureError,
                     RangeError, RefinementError, ResolutionError,
                     SolveAbortedError, StepFailureError,
                     SubdifferentialUnavailableError)
from .models import MODEL_NAMES, ModelSpec, build, describe
from .potentials import (AdmissibilityReport, DissipationPotential,
                         OneHomPlusQuad, PNorm, Quadratic, Scaled,
                         StateWeighted, TwoSlope, WeightedSum,
                         check_admissible, conjugate, fenchel_young_gap,
                         subdiff_contains)
from .scheme import (DiscreteTrajectory, SolveOptions, TimeGrid,
                     de_giorgi_interpolant, incremental_step, solve)
from .diagnostics import (DiagnosticsReport, RefinementTable, build_report,
                          chain_rule_defects, energy_identity_defect,
                          fenchel_young_profile, refinement_study,
                          step_inequality)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "AssumptionReport", "ConditioningError",
    "ConfigError", "DiagnosticsReport", "DimensionMismatchError",
    "DiscreteTrajectory", "DissipationPotential", "DnevolveError",
    "DomainError", "EnergyConstants", "EnergyModel", "MODEL_NAMES",
    "MarginalEnergy", "MaximizationFailureError", "ModelSpec",
    "OneHomPlusQuad", "PNorm", "Quadratic", "RangeError", "RefinementError",
    "RefinementTable", "ResolutionError", "Scaled",
    "SolveAbortedError", "SolveOptions", "StateWeighted", "StepFailureError",
    "SubdifferentialUnavailableError", "TimeGrid", "TwoSlope", "WeightedSum",
    "argmin_set", "audit_assumptions", "build", "build_report",
    "chain_rule_defects", "check_admissible", "clarke_subdifferential_1d",
    "conjugate", "de_giorgi_interpolant", "default_probe_plan", "describe",
    "energy_identity_defect", "energy_value", "fenchel_young_gap",
    "fenchel_young_profile", "generalized_time_derivative",
    "incremental_step", "marginal_subdifferential",
    "refinement_study", "solve", "step_inequality",
    "subdiff_contains",
]
