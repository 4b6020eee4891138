"""Replicator dynamics in continuous and discrete time.

The population share p(t) of unprotected players follows

    dp/dt = (1/eps) * p (1-p) * (C - U_off(p)),

whose interior rest point is the mixed equilibrium. The discrete form
replaces dt with a step schedule b(n); with b summing to infinity and
square-summable it tracks the ODE limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .errors import ParameterError
from .payoff import PayoffEngine

DEFAULT_TOL = 1e-9
MAX_STORED_POINTS = 100_000


class StepFamily(Enum):
    INV_N = "1/n"
    INV_N_LOG_N = "1/(1+n log n)"
    INV_N_SQ = "1/n^2"
    CONSTANT = "constant"


_FAMILY_CODE = {
    StepFamily.INV_N: 0,
    StepFamily.INV_N_LOG_N: 1,
    StepFamily.INV_N_SQ: 2,
    StepFamily.CONSTANT: 3,
}

# (sums_to_infinity, square_summable, slower_than_inv_n); the third flag
# records whether n*b(n) -> 0, the timescale-separation requirement for a
# controller stacked on top of a 1/n population update. It is moot for
# families whose sum already fails to diverge.
_FAMILY_FLAGS = {
    StepFamily.INV_N: (True, True, False),
    StepFamily.INV_N_LOG_N: (True, True, True),
    StepFamily.INV_N_SQ: (False, True, None),
    StepFamily.CONSTANT: (True, False, False),
}


@dataclass(frozen=True)
class StepSchedule:
    """Step-size family b(n) with its analytic summability flags."""

    family: StepFamily
    h: float = 0.0

    def __post_init__(self):
        if self.family is StepFamily.CONSTANT and not self.h > 0.0:
            raise ParameterError("CONSTANT schedule needs h > 0")

    @property
    def sums_to_infinity(self) -> bool:
        return _FAMILY_FLAGS[self.family][0]

    @property
    def square_summable(self) -> bool:
        return _FAMILY_FLAGS[self.family][1]

    @property
    def slower_than_inv_n(self) -> bool | None:
        return _FAMILY_FLAGS[self.family][2]

    @property
    def valid_for_control(self) -> bool:
        """All three conditions hold, as the controller's a(n) needs."""
        return bool(self.sums_to_infinity and self.square_summable
                    and self.slower_than_inv_n)

    def step(self, n: int) -> float:
        if n < 1:
            raise ParameterError(f"schedule index starts at 1, got {n}")
        return _kernels.py_step(_FAMILY_CODE[self.family], self.h, n)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed population path; immutable once returned."""

    times: np.ndarray
    values: np.ndarray
    converged: bool
    rest_point: float | None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ParameterError("trajectory times must be strictly increasing")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ParameterError("trajectory values must lie in [0, 1]")

    @property
    def final(self) -> float:
        return float(self.values[-1])


def replicator_rhs(engine: PayoffEngine, p: float,
                   epsilon: float = 1.0) -> float:
    """(1/epsilon) * p(1-p) * (C - U_off(p))."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1], got {p}")
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    m = engine.model
    return _kernels.drift(engine.coeffs, m.lam, m.infection_cost,
                          m.protection_cost, p, epsilon)


def default_dt(engine: PayoffEngine) -> float:
    """Step small enough that dt * lam * K <= 0.5 (steepest-slope heuristic)."""
    m = engine.model
    return min(0.05, 0.5 / (m.lam * m.infection_cost))


def integrate_replicator(engine: PayoffEngine, p0: float,
                         dt: float | None = None, t_max: float = 400.0,
                         epsilon: float = 1.0,
                         tol: float = DEFAULT_TOL) -> Trajectory:
    """Fixed-step RK4 integration until the rest point (or t_max)."""
    if not 0.0 <= p0 <= 1.0:
        raise ParameterError(f"p0 must lie in [0, 1], got {p0}")
    if dt is None:
        dt = default_dt(engine)
    if not dt > 0.0 or not t_max > 0.0:
        raise ParameterError(f"need dt > 0 and t_max > 0, got {dt}, {t_max}")
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    n_max = max(1, int(round(t_max / dt)))
    stride = max(1, n_max // MAX_STORED_POINTS)
    cap = n_max // stride + 4
    m = engine.model
    ts, ps, _, _, converged, p_final = _kernels.rk4_path(
        engine.coeffs, m.lam, m.infection_cost, m.protection_cost,
        p0, dt, n_max, epsilon, tol, stride, cap)
    return Trajectory(times=ts, values=ps, converged=bool(converged),
                      rest_point=p_final if converged else None)


def discrete_replicator(engine: PayoffEngine, p0: float,
                        schedule: StepSchedule, n_max: int = 1_000_000,
                        tol: float = 1e-6) -> Trajectory:
    """Iterate p_{n+1} = p_n + b(n) p_n(1-p_n)(C - U_off(p_n)) from n = 1.

    Steps that would cross the simplex boundary are halved rather than
    projected; a hard clamp at 0 or 1 would make the boundary absorbing
    and freeze an overshooting early iterate there. Converged once
    |p_{n+1} - p_n| / b(n) < tol.
    """
    if not 0.0 <= p0 <= 1.0:
        raise ParameterError(f"p0 must lie in [0, 1], got {p0}")
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    if not (schedule.sums_to_infinity and schedule.square_summable):
        warnings.warn(
            f"schedule {schedule.family.value} does not satisfy the "
            f"divergent-sum/square-summable step conditions; the iteration "
            f"may stall or wander", stacklevel=2)
    stride = max(1, n_max // MAX_STORED_POINTS)
    cap = n_max // stride + 4
    m = engine.model
    ns, ps, _, _, converged, p_final = _kernels.discrete_path(
        engine.coeffs, m.lam, m.infection_cost, m.protection_cost, p0,
        n_max, tol, _FAMILY_CODE[schedule.family], schedule.h, stride, cap)
    return Trajectory(times=ns, values=ps, converged=bool(converged),
                      rest_point=p_final if converged else None)
