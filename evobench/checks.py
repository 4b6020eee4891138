"""Output checks for every job the benchmark runs.

Equilibria are verified against an oracle of the benchmark's own: the safe
mass at profile p is summed directly as a product of Poisson probabilities
over the safe region, with the threshold compared in exact integer
arithmetic. It shares no code with the program's safe-set enumeration or
coefficient grouping, so a faster replacement of either (a DP, a cache)
is still checked against an independent reference.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

# Residual allowed on the indifference equation, in its bounded
# safe-mass form: ten times the program's bisection tolerance of 1e-10.
RESIDUAL_TOL = 1e-9
# Distance allowed between a converged replicator path and p*.
PATH_TOL = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters as the benchmark generates them."""

    lam: float
    r: tuple              # type distribution (floats summing to 1)
    beta: Fraction
    deltas: tuple         # recovery rates (Fractions)
    big_k: float
    price: float
    convention: str       # "literal" | "exclusive"

    def to_json(self) -> dict:
        def frac(x):
            return {"num": x.numerator, "den": x.denominator}
        return {"lambda": self.lam, "beta": frac(self.beta), "K": self.big_k,
                "C": self.price, "convention": self.convention,
                "types": [{"r": rt, "delta": frac(d)}
                          for rt, d in zip(self.r, self.deltas)]}

    def with_param(self, name: str, value: float) -> "ModelSpec":
        """The cell model of a CLI sweep (lambda, C or two-type r)."""
        if name == "lambda":
            return replace(self, lam=value)
        if name == "C":
            return replace(self, price=value)
        if name == "r":
            return replace(self, r=(value, 1.0 - value))
        raise ValueError(f"unsupported sweep parameter {name!r}")


def integer_geometry(beta, deltas, convention):
    """Integer weights and bound of the safe region.

    A type's weight is tau/(1+tau) = beta/(beta+delta). Scaled by the
    common denominator D, an outcome x is safe iff sum x_t W_t <= limit:
    literal means sum < D, exclusive means sum <= D - max W. Axes come
    back heaviest weight first, so the last (summed in closed form) is the
    longest.
    """
    weights = [Fraction(beta) / (beta + d) for d in deltas]
    den = math.lcm(*(w.denominator for w in weights))
    ints = [int(w * den) for w in weights]
    limit = den - 1 if convention == "literal" else den - max(ints)
    order = sorted(range(len(ints)), key=lambda t: -ints[t])
    return [ints[t] for t in order], limit, order


def count_points(ints, limit) -> int:
    """Number of safe outcome vectors."""
    def rec(axis, budget):
        if axis == len(ints) - 1:
            return budget // ints[axis] + 1
        return sum(rec(axis + 1, budget - k * ints[axis])
                   for k in range(budget // ints[axis] + 1))
    return rec(0, limit) if limit >= 0 else 0


class Oracle:
    """Safe mass, equilibrium and residual checks for ModelSpecs."""

    def __init__(self):
        self._geometry = {}

    def _geom(self, spec):
        key = (spec.beta, spec.deltas, spec.convention)
        if key not in self._geometry:
            self._geometry[key] = integer_geometry(*key)
        return self._geometry[key]

    def safe_mass(self, spec: ModelSpec, p: float) -> float:
        """P(sum x_t W_t <= limit), x_t ~ Poisson(lam r_t p) independent."""
        ints, limit, order = self._geom(spec)
        pmfs = []
        for w, t in zip(ints, order):
            mean = spec.lam * spec.r[t] * p
            term = math.exp(-mean)
            pmf = [term]
            for k in range(1, limit // w + 1):
                term *= mean / k
                pmf.append(term)
            pmfs.append(pmf)
        last = pmfs[-1]
        cdf = []
        acc = 0.0
        for v in last:
            acc += v
            cdf.append(acc)

        def rec(axis, budget):
            if axis == len(ints) - 1:
                return cdf[budget // ints[axis]]
            w = ints[axis]
            return sum(pmfs[axis][k] * rec(axis + 1, budget - k * w)
                       for k in range(budget // w + 1))
        return rec(0, limit)

    def p_star(self, spec: ModelSpec) -> float:
        """Reference equilibrium by bisection on the oracle's safe mass."""
        target = 1.0 - spec.price / spec.big_k
        if spec.price >= spec.big_k or self.safe_mass(spec, 1.0) >= target:
            return 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if self.safe_mass(spec, mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def equilibrium_problem(self, spec: ModelSpec, p: float):
        """None when p is an equilibrium of spec to RESIDUAL_TOL.

        Interior: |safe_mass(p) - (1 - C/K)| within tolerance. Corner
        p = 1: no interior crossing, safe_mass(1) >= 1 - C/K.
        """
        if not 0.0 <= p <= 1.0:
            return f"p*={p!r} outside [0, 1]"
        target = 1.0 - spec.price / spec.big_k
        if spec.price >= spec.big_k:
            return None if p == 1.0 else f"p*={p!r} but C >= K"
        mass = self.safe_mass(spec, p)
        gap = max(0.0, target - mass) if p == 1.0 else abs(mass - target)
        if gap > RESIDUAL_TOL:
            return f"residual {gap:.3g} at p*={p!r} (lam={spec.lam})"
        return None


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_equilibria(oracle, path, cells, p_col, protection=False):
    """One row per expected cell; column p_col holds p* (or 1 - p*)."""
    _, rows = read_csv(path)
    if len(rows) != len(cells):
        return [f"{path}: {len(rows)} rows, expected {len(cells)}"]
    problems = []
    for row, spec in zip(rows, cells):
        value = float(row[p_col])
        problem = oracle.equilibrium_problem(
            spec, 1.0 - value if protection else value)
        if problem:
            problems.append(f"{path}: {problem}")
    return problems


def check_path(oracle, path, spec, p0, last_step):
    """Replicator path: starts at p0, stays in [0, 1], and ends within
    PATH_TOL of p* when it stopped before its last step (converged)."""
    _, rows = read_csv(path)
    if not rows:
        return [f"{path}: empty path"]
    xs = [float(r[0]) for r in rows]
    ps = [float(r[1]) for r in rows]
    problems = []
    if xs[0] != 0.0 or abs(ps[0] - p0) > 1e-11:
        problems.append(f"{path}: starts at ({xs[0]}, {ps[0]}), not p0={p0}")
    if not all(0.0 <= p <= 1.0 for p in ps):
        problems.append(f"{path}: values outside [0, 1]")
    if xs[-1] < last_step:
        gap = abs(ps[-1] - oracle.p_star(spec))
        if gap > PATH_TOL:
            problems.append(f"{path}: converged {gap:.3g} away from p*")
    return problems


def check_trace(path, n_outer, lo, hi):
    """Controller trace: n_outer rows, every posted price in [lo, hi]."""
    _, rows = read_csv(path)
    if len(rows) != n_outer:
        return [f"{path}: {len(rows)} rows, expected {n_outer}"]
    bad = [r[1] for r in rows if not lo <= float(r[1]) <= hi]
    return [f"{path}: prices {bad[:3]} outside [{lo}, {hi}]"] if bad else []


def check_svg_points(path, n_points):
    with open(path) as fh:
        match = re.search(r'<polyline points="([^"]*)"', fh.read())
    count = len(match.group(1).split()) if match else 0
    if count != n_points:
        return [f"{path}: {count} polyline points, expected {n_points}"]
    return []


def check_final_price(stdout, lo, hi):
    match = re.search(r"^final_price (\S+)$", stdout, re.MULTILINE)
    if not match:
        return ["no final_price line on stdout"]
    price = float(match.group(1))
    if not (math.isfinite(price) and lo <= price <= hi):
        return [f"final price {price} outside [{lo}, {hi}]"]
    return []
