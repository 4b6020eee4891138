"""Symmetric equilibrium solvers and evolutionary stability checks.

The mixed equilibrium is the unique root of poly_side(p) = exp_side(p),
equivalently safe_probability(p) = 1 - C/K, a strictly decreasing left
side against a constant. Bisection on that bounded form avoids the
overflow of e^{lam*p} and is guaranteed to bracket; closed forms exist for
single-type populations with the safe set truncated at total count 0 (log
formula) or 1 (lower-branch Lambert W formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import _kernels
from .errors import DomainError, NumericalError, ParameterError
from .model import SafeSetConvention
from .payoff import PayoffEngine

INV_E = math.exp(-1.0)
BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
# Largest safe mass the underflowed coefficients may drop before a solve
# raises instead of answering.
TRUNCATION_TOL = 1e-12


class EquilibriumKind(Enum):
    PURE_OFF_DOMINANT = "pure_off_dominant"
    INTERIOR_MIXED = "interior_mixed"
    CLOSED_FORM_LOG = "closed_form_log"
    CLOSED_FORM_LAMBERT = "closed_form_lambert"


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved equilibrium with diagnostics.

    ``residual`` is the defect of the indifference equation at p_star in
    its bounded (safe-mass) form, |safe_probability(p*) - (1 - C/K)|,
    which equals |U_off(p*) - C| / K. The raw polynomial/exponential gap
    grows like e^{lam p} and would dwarf any bisection tolerance.
    """

    p_star: float
    kind: EquilibriumKind
    residual: float
    iterations: int
    convention: SafeSetConvention


def _result(engine: PayoffEngine, p: float, kind: EquilibriumKind,
            iterations: int) -> EquilibriumResult:
    if kind is EquilibriumKind.PURE_OFF_DOMINANT:
        residual = 0.0
    else:
        m = engine.model
        target = 1.0 - m.protection_cost / m.infection_cost
        residual = float(abs(engine.safe_probability(p) - target))
        if not math.isfinite(residual):
            raise NumericalError(f"non-finite residual {residual} at p={p}")
    return EquilibriumResult(p_star=p, kind=kind, residual=residual,
                             iterations=iterations,
                             convention=engine.model.convention)


def check_dominance(engine: PayoffEngine) -> EquilibriumResult | None:
    """Pure equilibrium p*=1 when protecting costs at least the infection."""
    m = engine.model
    if m.protection_cost >= m.infection_cost:
        return _result(engine, 1.0, EquilibriumKind.PURE_OFF_DOMINANT, 0)
    return None


def interior_exists(engine: PayoffEngine) -> bool:
    """Whether the two sides cross inside (0, 1): poly_side(1) < exp_side(1).

    Evaluated in the bounded safe-probability form so large lam cannot
    overflow the exponential. A non-finite safe mass (its polynomial can
    still overflow) raises NumericalError rather than pick a branch.
    """
    m = engine.model
    target = 1.0 - m.protection_cost / m.infection_cost
    mass = engine.safe_probability(1.0)
    if not math.isfinite(mass):
        raise NumericalError(
            f"non-finite safe mass {mass} at p=1 (lam={m.lam})")
    return mass < target


def check_truncation(engine: PayoffEngine) -> None:
    """Raise NumericalError when the coefficients from the safe set's
    underflow total n_u on can carry more than TRUNCATION_TOL of safe mass.

    Each coefficient is at most 1/n!, so at y = lam*p <= lam the mass they
    carry is at most P(Pois(lam) >= n_u). For n_u > lam + 1 the tail is
    bounded by pmf(n_u) / (1 - lam/(n_u + 1)), taken in log space.
    """
    n_u = engine.safe_set.underflow_total
    if n_u is None:
        return
    lam = engine.model.lam
    bound = 1.0
    if n_u > lam + 1.0:
        log_tail = (n_u * math.log(lam) - lam - math.lgamma(n_u + 1.0)
                    - math.log1p(-lam / (n_u + 1.0)))
        bound = math.exp(log_tail)
        if bound <= TRUNCATION_TOL:
            return
    raise NumericalError(
        f"safe-set coefficients underflow from total {n_u} on, and "
        f"P(Pois({lam}) >= {n_u}) is bounded only by {bound:.3g}")


def solve_equilibrium(engine: PayoffEngine,
                      tol: float = BISECT_TOL) -> EquilibriumResult:
    """Dominance shortcut, then bisection on the indifference equation."""
    dominant = check_dominance(engine)
    if dominant is not None:
        return dominant
    m = engine.model
    if m.protection_cost == 0.0:
        # protection is free: the crossing sits at p = 0 exactly
        return _result(engine, 0.0, EquilibriumKind.INTERIOR_MIXED, 0)
    check_truncation(engine)
    if not interior_exists(engine):
        # staying unprotected is always the cheaper reply
        return _result(engine, 1.0, EquilibriumKind.PURE_OFF_DOMINANT, 0)
    target = 1.0 - m.protection_cost / m.infection_cost
    p, iters, ok = _kernels.bisect_root(engine.coeffs, m.lam, target, tol,
                                        BISECT_MAX_ITER)
    if not ok or not math.isfinite(p):
        raise NumericalError(
            f"non-finite value while bisecting (lam={m.lam}, C={m.protection_cost}, "
            f"K={m.infection_cost}, p around {p})")
    return _result(engine, p, EquilibriumKind.INTERIOR_MIXED, iters)


def lambert_w_minus1(z: float) -> float:
    """Lower branch W_{-1}(z) on (-1/e, 0), by Halley iteration.

    Initial guess log(-z) - log(-log(-z)) (asymptotically exact as z->0-),
    replaced near the branch point by the square-root series. Converges to
    |w e^w - z| <= 1e-13 |z|. Inputs within 1e-15 left of -1/e are treated
    as the branch point itself.
    """
    if not math.isfinite(z) or z >= 0.0 or z < -INV_E - 1e-15:
        raise DomainError(f"W_-1 needs -1/e < z < 0, got {z!r}")
    if z <= -INV_E:
        return -1.0
    rho = 2.0 * (math.e * z + 1.0)
    if rho < 1e-3:
        # branch-point series with s = -sqrt(2(1+ez)) for the lower branch
        s = -math.sqrt(rho)
        w = -1.0 + s - s * s / 3.0 + 11.0 * s ** 3 / 72.0
    else:
        lz = math.log(-z)
        w = lz - math.log(-lz)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-14 * abs(z):
            break
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - z) > 1e-13 * abs(z):
        raise NumericalError(f"W_-1 iteration failed to converge at z={z!r}")
    return w


def _require_single_type(engine: PayoffEngine, label: str) -> float:
    m = engine.model
    if m.num_types != 1:
        raise ParameterError(f"{label} needs a single-type population")
    if m.convention is not SafeSetConvention.SELF_EXCLUSIVE:
        raise ParameterError(f"{label} holds under the SELF_EXCLUSIVE "
                             f"convention")
    if m.protection_cost >= m.infection_cost:
        raise DomainError(f"{label} needs C < K (use the dominance path)")
    return float(engine.model.spreading_rates_exact[0])


def closed_form_log(engine: PayoffEngine) -> EquilibriumResult:
    """p* = min(1, log(K/(K-C)) / lam), valid for one type with tau > 1.

    With spreading rate above 1 only the empty outcome is safe, so the
    indifference equation collapses to exp(-lam*p) = 1 - C/K.
    """
    tau = _require_single_type(engine, "log closed form")
    if tau <= 1.0:
        raise DomainError(f"log closed form needs tau > 1, got {tau}")
    m = engine.model
    p = math.log(m.infection_cost
                 / (m.infection_cost - m.protection_cost)) / m.lam
    return _result(engine, min(1.0, p), EquilibriumKind.CLOSED_FORM_LOG, 0)


def closed_form_lambert(engine: PayoffEngine) -> EquilibriumResult:
    """p* = -(1 + W_{-1}(-(1-C/K)/e)) / lam for one type with 1/2 < tau <= 1.

    The safe totals are {0, 1}, so the indifference equation is
    1 + lam*p = (1-C/K) e^{lam*p}; only the lower branch gives a root in
    (0, 1). When the formula lands outside (0, 1) the interior crossing
    does not exist and the general solver is used instead.
    """
    tau = _require_single_type(engine, "Lambert closed form")
    if not (0.5 < tau <= 1.0):
        raise DomainError(f"Lambert closed form needs 1/2 < tau <= 1, "
                          f"got {tau}")
    m = engine.model
    a = 1.0 - m.protection_cost / m.infection_cost
    w = lambert_w_minus1(-a * INV_E)
    p = -(1.0 + w) / m.lam
    if not 0.0 < p < 1.0:
        return solve_equilibrium(engine)
    residual = abs((1.0 + m.lam * p) - a * math.exp(m.lam * p))
    if residual > 1e-8:
        raise NumericalError(
            f"Lambert root check failed: residual {residual} at p={p}")
    return _result(engine, p, EquilibriumKind.CLOSED_FORM_LAMBERT, 0)


@dataclass(frozen=True)
class EssReport:
    passed: bool
    worst_margin: float
    worst_q: float
    worst_eps: float
    checks: int


def verify_ess(engine: PayoffEngine, p_star: float, q_grid, eps_grid,
               exclude_tol: float = 1e-6,
               strict_margin: float = 1e-12) -> EssReport:
    """Check that incumbents at p_star strictly undercut every mutant mix.

    For each candidate mutant strategy q and invasion share eps, the
    incumbent cost against the post-invasion profile must be lower:
    U(p*, eps*q + (1-eps)*p*) < U(q, same) by at least strict_margin.
    Grid points closer than exclude_tol to p_star are skipped.
    """
    worst = math.inf
    worst_q = float("nan")
    worst_eps = float("nan")
    checks = 0
    for q in q_grid:
        if abs(q - p_star) <= exclude_tol:
            continue
        if not 0.0 < q < 1.0:
            raise ParameterError(f"mutant strategies must lie in (0,1), "
                                 f"got {q}")
        for eps in eps_grid:
            if not 0.0 < eps <= 1.0:
                raise ParameterError(f"invasion shares must lie in (0,1], "
                                     f"got {eps}")
            mix = eps * q + (1.0 - eps) * p_star
            margin = (engine.expected_cost_mixed(q, mix)
                      - engine.expected_cost_mixed(p_star, mix))
            checks += 1
            if margin < worst:
                worst = margin
                worst_q = q
                worst_eps = eps
    return EssReport(passed=bool(checks and worst > strict_margin),
                     worst_margin=worst, worst_q=worst_q,
                     worst_eps=worst_eps, checks=checks)
