"""Equilibria, replicator dynamics, and pricing control for a protection
game played by a Poisson-sized heterogeneous population."""

from .control import (ConcavityReport, ControllerState, ControlMode,
                      concavity_check, optimize_exact, revenue,
                      run_two_timescale, spsa_gradient)
from .dynamics import (StepFamily, StepSchedule, Trajectory,
                       discrete_replicator, integrate_replicator,
                       replicator_rhs)
from .equilibrium import (EquilibriumKind, EquilibriumResult, EssReport,
                          check_dominance, closed_form_lambert,
                          closed_form_log, interior_exists, lambert_w_minus1,
                          solve_equilibrium, verify_ess)
from .errors import (DomainError, EvoPoissonError, NumericalError,
                     ParameterError, ResourceLimitError)
from .model import (PopulationModel, SafeSet, SafeSetConvention,
                    critical_threshold_homogeneous, effective_rates,
                    enumerate_safe_set, model_from_dict, model_from_json,
                    propagates)
from .payoff import PayoffEngine

__version__ = "0.1.0"

# Always False: there is no jit backend. Kept for callers that read it, such
# as the benchmark's environment stamp.
NUMBA_ACTIVE = False

__all__ = [
    "ConcavityReport", "ControlMode", "ControllerState", "DomainError",
    "EquilibriumKind", "EquilibriumResult", "EssReport", "EvoPoissonError",
    "NUMBA_ACTIVE", "NumericalError", "ParameterError", "PayoffEngine",
    "PopulationModel", "ResourceLimitError", "SafeSet", "SafeSetConvention",
    "StepFamily", "StepSchedule", "Trajectory",
    "check_dominance", "closed_form_lambert", "closed_form_log",
    "concavity_check", "critical_threshold_homogeneous",
    "discrete_replicator", "effective_rates", "enumerate_safe_set",
    "integrate_replicator", "interior_exists", "lambert_w_minus1",
    "model_from_dict", "model_from_json", "optimize_exact", "propagates",
    "replicator_rhs", "revenue", "run_two_timescale", "solve_equilibrium",
    "spsa_gradient", "verify_ess",
]
