"""Revenue evaluation and the price-learning controller.

The provider earns lam * (1 - p*(C)) * C per interaction at price C. An
exact grid+golden-section optimizer serves as the oracle; the online
controller never touches the equilibrium map directly and instead probes
revenue with a two-sample simultaneous-perturbation gradient estimate,
interleaved (COUPLED) or nested (NESTED) with the population's replicator
update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .dynamics import StepSchedule
from .equilibrium import solve_equilibrium
from .errors import ParameterError
from .payoff import PayoffEngine

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EQUILIBRATE_TOL = 1e-9
EQUILIBRATE_MAX_STEPS = 500_000


def revenue(engine: PayoffEngine, price: float) -> float:
    """lam * (1 - p*(price)) * price at the solved equilibrium."""
    if price < 0.0:
        raise ParameterError(f"price must be >= 0, got {price}")
    if price == 0.0:
        return 0.0
    res = solve_equilibrium(engine.with_cost(price))
    return engine.model.lam * (1.0 - res.p_star) * price


@dataclass(frozen=True)
class ConcavityReport:
    grid: np.ndarray
    values: np.ndarray
    second_diffs: np.ndarray
    concave_from: float          # smallest grid point past which all
    all_concave_above: bool      # second differences stay negative


def concavity_check(engine: PayoffEngine, c_lo: float, c_hi: float,
                    n_points: int = 200) -> ConcavityReport:
    """Second differences of the revenue curve on [c_lo, c_hi].

    Reports the smallest grid point above which every second difference is
    negative (the onset of the strictly concave stretch).
    """
    if not (0.0 <= c_lo < c_hi):
        raise ParameterError(f"need 0 <= c_lo < c_hi, got {c_lo}, {c_hi}")
    if n_points < 3:
        raise ParameterError(f"need at least 3 grid points, got {n_points}")
    grid = np.linspace(c_lo, c_hi, n_points)
    vals = np.array([revenue(engine, c) for c in grid])
    d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    concave = d2 < 0.0
    centers = grid[1:-1]
    if concave.all():
        concave_from = float(grid[0])
        all_above = True
    else:
        last_fail = int(np.flatnonzero(~concave)[-1])
        all_above = last_fail + 1 < len(centers)
        concave_from = float(centers[last_fail + 1] if all_above
                             else grid[-1])
    return ConcavityReport(grid=grid, values=vals, second_diffs=d2,
                           concave_from=concave_from,
                           all_concave_above=all_above)


def optimize_exact(engine: PayoffEngine, tol: float = 1e-6,
                   revenue_fn=None) -> tuple[float, float]:
    """Grid scan (512 points on [0, K]) plus golden-section refinement.

    ``revenue_fn`` substitutes the objective (test hook); the default is
    the equilibrium revenue of the engine's model.
    """
    fn = revenue_fn if revenue_fn is not None else (
        lambda c: revenue(engine, c))
    big_k = engine.model.infection_cost
    grid = np.linspace(0.0, big_k, 512)
    vals = np.array([fn(c) for c in grid])
    i = int(np.argmax(vals))
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = fn(x1)
    f2 = fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fn(x1)
    c_star = 0.5 * (lo + hi)
    return c_star, fn(c_star)


def spsa_gradient(revenue_eval, price: float, delta: float, rng) -> float:
    """Two-sample perturbation quotient (R(C+dD) - R(C)) / (dD), D = +-1."""
    if not delta > 0.0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    sign = 1.0 if rng.random() < 0.5 else -1.0
    shift = delta * sign
    return (revenue_eval(price + shift) - revenue_eval(price)) / shift


class ControlMode(Enum):
    COUPLED = "coupled"
    NESTED = "nested"


@dataclass(frozen=True)
class ControllerState:
    """Final controller iterate plus the per-iteration trace.

    Trace columns mirror the CSV schema: iteration n, posted price C_n,
    revenue estimate, perturbation sign, and (population-coupled runs)
    the current unprotected share.
    """

    price: float
    iteration: int
    schedule: StepSchedule
    delta: float
    rng_seed: int
    mode: ControlMode
    trace_n: np.ndarray
    trace_price: np.ndarray
    trace_revenue: np.ndarray
    trace_sign: np.ndarray
    trace_population: np.ndarray
    notes: tuple = field(default_factory=tuple)


def run_two_timescale(engine: PayoffEngine, schedule_a: StepSchedule,
                      delta: float | None = None, c0: float | None = None,
                      n_outer: int = 300,
                      mode: ControlMode = ControlMode.NESTED,
                      seed: int = 0, p0: float = 0.5,
                      revenue_hook=None) -> ControllerState:
    """Coupled price/population learning loop.

    NESTED re-equilibrates the population for each probe price before
    reading revenue off the settled share, matching a controller that
    waits out the population between moves. COUPLED takes a single 1/n
    replicator step per price update and estimates both probe revenues at
    the current, possibly unsettled, share. The price is projected onto
    [delta, K - delta] every step so probes stay evaluable.
    ``revenue_hook`` replaces the revenue observation entirely (test hook
    for known objectives).
    """
    m = engine.model
    big_k = m.infection_cost
    if delta is None:
        delta = 0.01 * big_k
    if not 0.0 < delta < 0.5 * big_k:
        raise ParameterError(f"delta must sit inside (0, K/2), got {delta}")
    if c0 is None:
        c0 = 0.5 * big_k
    if not 0.0 < c0 < big_k:
        raise ParameterError(f"c0 must lie in (0, K), got {c0}")
    if not isinstance(schedule_a, StepSchedule):
        raise ParameterError(f"unsupported schedule {schedule_a!r}")
    notes = []
    if not schedule_a.valid_for_control:
        notes.append(
            f"schedule a(n)={schedule_a.family.value} violates the "
            f"controller step conditions; convergence is not expected")
    rng = np.random.default_rng(seed)
    gain = min(0.25, 2.0 / (1.0 + m.lam * big_k / 4.0))

    price = min(max(float(c0), delta), big_k - delta)
    pop = float(p0)

    def observe(c):
        """Revenue at price c; NESTED first settles the population at c."""
        nonlocal pop
        if mode is ControlMode.NESTED:
            pop, _, _ = _kernels.equilibrate(
                engine.coeffs, m.lam, big_k, c, pop, gain, EQUILIBRATE_TOL,
                EQUILIBRATE_MAX_STEPS)
        if revenue_hook is not None:
            return revenue_hook(c)
        return m.lam * (1.0 - pop) * c

    ns = np.empty(n_outer)
    prices = np.empty(n_outer)
    revenues = np.empty(n_outer)
    signs = np.empty(n_outer)
    pops = np.empty(n_outer)
    for n in range(1, n_outer + 1):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        probe = price + delta * sign
        if mode is ControlMode.COUPLED:
            drift = _kernels.drift(engine.coeffs, m.lam, big_k, price, pop,
                                   1.0)
            pop = _kernels.halving_step(pop, (1.0 / n) * drift)
        r_probe = observe(probe)
        r_base = observe(price)
        quotient = (r_probe - r_base) / (delta * sign)
        ns[n - 1] = n
        prices[n - 1] = price
        revenues[n - 1] = r_base
        signs[n - 1] = sign
        pops[n - 1] = pop
        price = price + schedule_a.step(n) * quotient
        price = min(max(price, delta), big_k - delta)
    return ControllerState(
        price=price, iteration=n_outer, schedule=schedule_a, delta=delta,
        rng_seed=seed, mode=mode, trace_n=ns, trace_price=prices,
        trace_revenue=revenues, trace_sign=signs, trace_population=pops,
        notes=tuple(notes))
