"""Population game parameters, the outbreak predicate, and the safe set.

A population of random size (Poisson with mean ``lam``) meets in local
interactions. Each player has a type t drawn with probability r(t); a type
carries a recovery rate delta_t against a contamination process of rate
beta, giving the effective spreading rate tau_t = beta / delta_t. An
outcome vector x counts, per type, the players who stayed unprotected. The
infection sweeps the whole group exactly when

    sum_t x_t * tau_t / (1 + tau_t)  crosses the threshold,

and the *safe set* is the (finite) collection of outcome vectors below the
threshold. Two threshold conventions are exposed:

  LITERAL_EQ2     propagation iff the weighted sum >= 1. Here x counts all
                  unprotected players.
  SELF_EXCLUSIVE  x counts the *other* players; the focal unprotected
                  player is accounted for by lowering the threshold to
                  1 - max_t tau_t/(1+tau_t), with the boundary counted as
                  safe. For a single type this truncates the safe counts
                  at floor(delta/beta), which is what the closed-form
                  equilibrium expressions assume.

Threshold comparisons are performed in exact rational arithmetic: rate
inputs given as {num, den} pairs are taken verbatim, and float inputs are
read as the decimal literal of their shortest repr (so 0.05 means 1/20,
not the nearest binary double). Boundary membership is therefore
deterministic.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError, ResourceLimitError

DEFAULT_SAFESET_CAP = 10**7
SAFESET_CAP_ENV = "EVOPOISSON_SAFESET_CAP"
DBL_MIN = sys.float_info.min


class SafeSetConvention(Enum):
    LITERAL_EQ2 = "literal"
    SELF_EXCLUSIVE = "exclusive"


def _as_fraction(value) -> Fraction:
    """Exact rational reading of a rate parameter.

    Accepts Fraction, int, float (interpreted as its shortest decimal
    repr), or a {"num": int, "den": int} mapping.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"rate must be numeric, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParameterError(f"rate must be finite, got {value!r}")
        return Fraction(repr(value))
    if isinstance(value, dict):
        try:
            return Fraction(int(value["num"]), int(value["den"]))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ParameterError(f"bad rational pair {value!r}") from exc
    raise ParameterError(f"cannot read rate from {value!r}")


@dataclass(frozen=True)
class PopulationModel:
    """All game and epidemic parameters.

    Fields
    ------
    lam               mean interaction size (dimensionless, > 0)
    type_dist         probability vector r over types, sums to 1
    contamination_rate  beta > 0 (exact rational)
    recovery_rates    delta_t > 0 per type (exact rationals)
    infection_cost    K > 0, cost paid by an unprotected player on outbreak
    protection_cost   C >= 0, price of protecting
    convention        safe-set convention; defaults to SELF_EXCLUSIVE for a
                      single type and LITERAL_EQ2 otherwise
    """

    lam: float
    type_dist: tuple
    contamination_rate: Fraction
    recovery_rates: tuple
    infection_cost: float
    protection_cost: float
    convention: SafeSetConvention | None = None

    def __post_init__(self):
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 0.0):
            raise ParameterError(f"lam must be positive and finite, got {lam}")
        r = tuple(float(v) for v in self.type_dist)
        if not r:
            raise ParameterError("type_dist must be nonempty")
        if any(not math.isfinite(v) or v < 0.0 for v in r):
            raise ParameterError(f"type_dist entries must be >= 0, got {r}")
        if abs(sum(r) - 1.0) > 1e-12:
            raise ParameterError(f"type_dist must sum to 1, got sum {sum(r)!r}")
        beta = _as_fraction(self.contamination_rate)
        if beta <= 0:
            raise ParameterError(f"contamination_rate must be > 0, got {beta}")
        deltas = tuple(_as_fraction(v) for v in self.recovery_rates)
        if len(deltas) != len(r):
            raise ParameterError(
                f"{len(deltas)} recovery rates for {len(r)} types")
        if any(d <= 0 for d in deltas):
            raise ParameterError(f"recovery rates must be > 0, got {deltas}")
        big_k = float(self.infection_cost)
        if not (math.isfinite(big_k) and big_k > 0.0):
            raise ParameterError(f"infection_cost must be > 0, got {big_k}")
        price = float(self.protection_cost)
        if not (math.isfinite(price) and price >= 0.0):
            raise ParameterError(f"protection_cost must be >= 0, got {price}")
        conv = self.convention
        if conv is None:
            conv = (SafeSetConvention.SELF_EXCLUSIVE if len(r) == 1
                    else SafeSetConvention.LITERAL_EQ2)
        elif not isinstance(conv, SafeSetConvention):
            raise ParameterError(f"unknown convention {conv!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "type_dist", r)
        object.__setattr__(self, "contamination_rate", beta)
        object.__setattr__(self, "recovery_rates", deltas)
        object.__setattr__(self, "infection_cost", big_k)
        object.__setattr__(self, "protection_cost", price)
        object.__setattr__(self, "convention", conv)

    @property
    def num_types(self) -> int:
        return len(self.type_dist)

    @property
    def spreading_rates_exact(self) -> tuple:
        """tau_t = beta / delta_t as exact rationals."""
        return tuple(self.contamination_rate / d for d in self.recovery_rates)

    def with_cost(self, price: float) -> "PopulationModel":
        """Copy of the model with a different protection price."""
        return replace(self, protection_cost=float(price))

    def safe_set_fingerprint(self) -> tuple:
        """Parameters the safe set depends on (price, cost, lam excluded)."""
        return (self.num_types, self.type_dist, self.contamination_rate,
                self.recovery_rates, self.convention)


def effective_rates(model: PopulationModel) -> np.ndarray:
    """Componentwise tau_t = beta / delta_t as floats."""
    return np.array([float(t) for t in model.spreading_rates_exact])


def _weights_and_threshold(model: PopulationModel):
    """Exact per-type weights tau/(1+tau) and the propagation threshold."""
    taus = model.spreading_rates_exact
    weights = [t / (1 + t) for t in taus]
    if model.convention is SafeSetConvention.LITERAL_EQ2:
        return weights, Fraction(1), False
    # SELF_EXCLUSIVE: the focal unprotected player contributes the largest
    # weight; boundary totals stay safe (strict propagation inequality).
    return weights, Fraction(1) - max(weights), True


def propagates(model: PopulationModel, x: Sequence[int]) -> bool:
    """Whether outcome vector x triggers a network-wide infection."""
    counts = _check_outcome(model, x)
    weights, threshold, strict = _weights_and_threshold(model)
    total = sum(c * w for c, w in zip(counts, weights))
    return total > threshold if strict else total >= threshold


def _check_outcome(model: PopulationModel, x: Sequence[int]) -> tuple:
    counts = tuple(x)
    if len(counts) != model.num_types:
        raise ParameterError(
            f"outcome vector of length {len(counts)} for "
            f"{model.num_types} types")
    for c in counts:
        if c != int(c) or c < 0:
            raise ParameterError(f"outcome counts must be >= 0 ints, got {x}")
    return tuple(int(c) for c in counts)


def critical_threshold_homogeneous(x: int) -> float:
    """Critical spreading rate 1/(x-1) for x >= 2 identical unprotected nodes."""
    if x != int(x) or x <= 1:
        raise DomainError(f"need at least 2 unprotected nodes, got {x}")
    return 1.0 / (int(x) - 1)


@dataclass(frozen=True)
class SafeSet:
    """Enumerated non-propagating outcome vectors with grouped coefficients.

    ``coeffs[n]`` holds sum over safe points with total count n of
    prod_t r(t)**x_t / x_t!, so the safe probability mass at Poisson scale
    y is exp(-y) * sum_n coeffs[n] * y**n.

    ``underflow_total`` (n_u) is the smallest total of a point whose term
    fell below DBL_MIN although every factor r(t) it multiplies by is
    positive, or None when no term did. From n_u on the coefficients may
    have lost mass; terms that are zero because some r(t) = 0 are exact
    and do not count.
    """

    points: np.ndarray          # (N, T) int64, lexicographically sorted
    coeffs: np.ndarray          # (max_total + 1,) float64
    max_total: int
    fingerprint: tuple = field(repr=False)
    underflow_total: int | None = None

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _resolve_cap(cap: int | None) -> int:
    if cap is not None:
        return int(cap)
    env = os.environ.get(SAFESET_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ParameterError(
                f"{SAFESET_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_SAFESET_CAP


def enumerate_safe_set(model: PopulationModel,
                       cap: int | None = None) -> SafeSet:
    """Depth-first enumeration of every non-propagating outcome vector.

    All weights are positive, so counts are bounded per axis and the
    recursion explores exactly the downward-closed safe region. Raises
    ResourceLimitError when the set would exceed ``cap`` points (default
    10**7, overridable via EVOPOISSON_SAFESET_CAP).
    """
    cap = _resolve_cap(cap)
    weights, threshold, strict = _weights_and_threshold(model)
    t_count = model.num_types

    def fits(total: Fraction) -> bool:
        return total < threshold if not strict else total <= threshold

    points: list[tuple] = []
    prefix = [0] * t_count

    def descend(axis: int, acc: Fraction):
        if axis == t_count:
            points.append(tuple(prefix))
            if len(points) > cap:
                raise ResourceLimitError(
                    f"safe set exceeds cap of {cap} points")
            return
        w = weights[axis]
        k = 0
        while fits(acc + k * w):
            prefix[axis] = k
            descend(axis + 1, acc + k * w)
            k += 1
        prefix[axis] = 0

    descend(0, Fraction(0))
    points.sort()
    arr = np.array(points, dtype=np.int64).reshape(len(points), t_count)
    max_total = int(arr.sum(axis=1).max())

    r = model.type_dist
    coeffs = np.zeros(max_total + 1)
    comp = np.zeros(max_total + 1)  # Kahan compensation per total count
    n_u = max_total + 1
    for pt in points:
        term = 1.0
        for rt, k in zip(r, pt):
            for j in range(1, k + 1):
                term *= rt / j
        n = sum(pt)
        if (term < DBL_MIN and n < n_u
                and all(rt > 0.0 for rt, k in zip(r, pt) if k)):
            n_u = n
        y = term - comp[n]
        s = coeffs[n] + y
        comp[n] = (s - coeffs[n]) - y
        coeffs[n] = s
    return SafeSet(points=arr, coeffs=coeffs, max_total=max_total,
                   fingerprint=model.safe_set_fingerprint(),
                   underflow_total=n_u if n_u <= max_total else None)


def model_from_dict(doc: dict) -> PopulationModel:
    """Build a model from the JSON document schema.

    Expected keys: lambda, beta, K, C, types (list of {r, delta}), and an
    optional convention ("literal" | "exclusive"). Rates may be decimals
    or {num, den} integer pairs.
    """
    if not isinstance(doc, dict):
        raise ParameterError(f"config must be a JSON object, got {type(doc)}")
    try:
        lam = doc["lambda"]
        beta = doc["beta"]
        big_k = doc["K"]
        price = doc["C"]
        types = doc["types"]
    except KeyError as exc:
        raise ParameterError(f"config missing key {exc}") from exc
    if not isinstance(types, list) or not types:
        raise ParameterError("'types' must be a nonempty list of {r, delta}")
    try:
        r = tuple(float(t["r"]) for t in types)
        deltas = tuple(_as_fraction(t["delta"]) for t in types)
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"bad type entry in config: {exc}") from exc
    conv = doc.get("convention")
    if conv is not None:
        try:
            conv = SafeSetConvention(conv)
        except ValueError as exc:
            raise ParameterError(
                f"convention must be 'literal' or 'exclusive', got {conv!r}"
            ) from exc
    return PopulationModel(lam=lam, type_dist=r, contamination_rate=beta,
                           recovery_rates=deltas, infection_cost=big_k,
                           protection_cost=price, convention=conv)


def model_from_json(text: str) -> PopulationModel:
    """Parse a JSON document string into a model."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"malformed JSON config: {exc}") from exc
    return model_from_dict(doc)
