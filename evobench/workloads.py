"""The three workloads: fixed lists of CLI jobs with generated inputs.

Every pass of a run gets fresh inputs, drawn from (seed, pass index) and
written to the pass directory before its clock starts. A fresh geometry per
pass keeps a cache inside the program from hitting on inputs it saw in an
earlier pass, which would never happen on a user's first run. Safe-set
sizes are drawn to fixed targets, so every pass carries the same amount of
work and passes, and seeds, are comparable.

Why these three:
  grid_sweep      thousands of equilibrium cells over a handful of small
                  geometries (|S| <= ~200): re-enumeration per cell, engine
                  reuse and bisection show here; dynamics and control idle.
  wide_types      one eq job per model, T = 3..6 types with small tau and
                  |S| ~ 10^3..10^4, each a new geometry: the per-point cost
                  of safe-set construction, with no possible reuse.
  learn_dynamics  replicator ODE and discrete paths, figures 4 and 6, SPSA
                  in nested and coupled modes, on safe sets of <= ~75
                  points: the four loop kernels and trajectory CSV output.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from checks import (ModelSpec, check_equilibria, check_final_price,
                    check_path, check_svg_points, check_trace, count_points,
                    integer_geometry)


@dataclass
class Job:
    argv: list
    solves: int                       # results the job produces
    check: Callable[[str], list]      # stdout -> list of problems


def _geometry(rng, n_types, target, beta, convention, spread):
    """Integer recovery rates whose safe set has within 2% of ``target``
    points. Rates are a random shape times a scale found by bisection (the
    count grows with the scale)."""
    def count(scale, shape):
        deltas = tuple(Fraction(max(1, round(scale * a))) for a in shape)
        ints, limit, _ = integer_geometry(beta, deltas, convention)
        return count_points(ints, limit), deltas

    for _ in range(100):
        shape = np.exp(rng.uniform(-spread, spread, n_types))
        # simplex volume prod(delta/beta) / T! as the first guess
        guess = (target * math.factorial(n_types) * beta ** n_types
                 / shape.prod()) ** (1.0 / n_types)
        lo, hi = guess / 4.0, guess * 1.5
        while count(hi, shape)[0] < target:
            hi *= 1.5
        while hi / lo > 1.002:
            mid = math.sqrt(lo * hi)
            if count(mid, shape)[0] < target:
                lo = mid
            else:
                hi = mid
        size, deltas = count(hi, shape)
        if abs(size / target - 1.0) <= 0.02:
            return deltas
    raise RuntimeError(f"no geometry near {target} points")


def write_model(workdir, name, spec):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh)
    return path


def _sweep_grid(name, lo, hi, n):
    return f"{name}={lo!r}:{hi!r}:{n}", np.linspace(lo, hi, n)


# The CLI's low-spread preset: spreading rates 0.05 and 0.2.
LOW_SPREAD = ModelSpec(lam=10.0, r=(0.1, 0.9), beta=Fraction(5),
                       deltas=(Fraction(100), Fraction(25)), big_k=5.0,
                       price=4.0, convention="literal")


def grid_sweep(seed, k, workdir, oracle, tiny=False):
    rng = np.random.default_rng([seed, k])
    targets = (40, 70) if tiny else (40, 70, 100, 130, 160, 200)
    n = 3 if tiny else 10
    jobs = []
    specs = []
    for i, target in enumerate(targets):
        conv = "literal" if i % 2 == 0 else "exclusive"
        beta = Fraction(5)
        r1 = float(rng.uniform(0.1, 0.9))
        spec = ModelSpec(
            lam=float(rng.uniform(5, 25)), r=(r1, 1.0 - r1), beta=beta,
            deltas=_geometry(rng, 2, target, beta, conv, 0.7), big_k=5.0,
            price=float(rng.uniform(1.0, 4.5)), convention=conv)
        specs.append(spec)
        config = write_model(workdir, f"sweep{i}.json", spec)
        axes = {"lambda": (rng.uniform(2, 6), rng.uniform(24, 30)),
                "r": (rng.uniform(0.02, 0.1), rng.uniform(0.9, 0.98)),
                "C": (rng.uniform(0.3, 1.0), rng.uniform(4.0, 4.8))}
        names = (("lambda", "r"), ("lambda", "C"), ("r", "C"))[i % 3]
        args, grids = zip(*(_sweep_grid(nm, float(axes[nm][0]),
                                        float(axes[nm][1]), n)
                            for nm in names))
        cells = [spec.with_param(names[0], float(a)).with_param(
                     names[1], float(b))
                 for a, b in itertools.product(*grids)]
        out = os.path.join(workdir, f"sweep{i}.csv")
        argv = ["--config", config, "--out", out, "sweep"]
        for arg in args:
            argv += ["--sweep", arg]
        jobs.append(Job(argv, len(cells), _files(
            partial(check_equilibria, oracle, out, cells, 2))))

    for i in (0, 1):
        spec = specs[i]
        out = os.path.join(workdir, f"revenue{i}.csv")
        n_points = 11 if tiny else 101
        cells = [replace(spec, price=float(c))
                 for c in np.linspace(0.0, spec.big_k, n_points)]
        jobs.append(Job(
            ["--config", os.path.join(workdir, f"sweep{i}.json"), "--out",
             out, "revenue", "--n-points", str(n_points)],
            n_points,
            _files(partial(check_equilibria, oracle, out, cells, 1))))

    fig = os.path.join(workdir, "figures")
    cells = [replace(LOW_SPREAD, lam=float(lam), r=(r1, 1.0 - r1))
             for lam in np.arange(2.0, 31.0, 1.0)
             for r1 in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)]
    jobs.append(Job(["--out", fig, "figure", "2"], len(cells), _files(partial(
        check_equilibria, oracle,
        os.path.join(fig, "figure2_protection_vs_lambda.csv"), cells, 2,
        True))))

    checks = []
    for tau1, d1 in (("0.05", 100), ("0.1", 50)):
        cells = [replace(LOW_SPREAD, lam=30.0,
                         r=(float(r1), 1.0 - float(r1)),
                         deltas=(Fraction(d1), Fraction(25)))
                 for r1 in np.linspace(0.0, 1.0, 51)]
        checks.append(partial(
            check_equilibria, oracle,
            os.path.join(fig, f"figure3_protection_vs_r_tau1_{tau1}.csv"),
            cells, 1, True))
    jobs.append(Job(["--out", fig, "figure", "3"], 102,
                    _files(*checks)))

    # the CLI's pricing preset (spreading rates 0.5 and 0.98), seeded mix
    r1 = float(rng.uniform(0.2, 0.4))
    spec = ModelSpec(lam=float(rng.uniform(8, 12)), r=(r1, 1.0 - r1),
                     beta=Fraction(1), deltas=(Fraction(2), Fraction(50, 49)),
                     big_k=10.0, price=4.0, convention="literal")
    config = write_model(workdir, "pricing.json", spec)
    cells = [replace(spec, price=float(c))
             for c in np.linspace(0.0, spec.big_k, 101)]
    jobs.append(Job(["--config", config, "--out", fig, "figure", "5"], 101,
                    _files(partial(
                        check_equilibria, oracle,
                        os.path.join(fig, "figure5_revenue_vs_price.csv"),
                        cells, 1))))
    return jobs


def wide_types(seed, k, workdir, oracle, tiny=False):
    rng = np.random.default_rng([seed, k])
    targets = np.geomspace(50, 200, 3) if tiny else np.geomspace(1e3, 1e4, 40)
    jobs = []
    for i, target in enumerate(targets):
        n_types = 3 + i % 4
        beta = Fraction(10)
        r = rng.dirichlet(np.ones(n_types))
        r = tuple(float(v) for v in r / r.sum())
        spec = ModelSpec(
            lam=float(rng.uniform(2, 30)), r=r, beta=beta,
            deltas=_geometry(rng, n_types, int(target), beta, "literal",
                             0.3),
            big_k=5.0, price=float(5.0 * rng.uniform(0.05, 0.95)),
            convention="literal")
        config = write_model(workdir, f"model{i}.json", spec)
        out = os.path.join(workdir, f"eq{i}.csv")
        jobs.append(Job(["--config", config, "--out", out, "eq"], 1,
                        _files(partial(check_equilibria, oracle, out,
                                       [spec], 0))))
    return jobs


def _ode_last_step(spec, t_max):
    dt = min(0.05, 0.5 / (spec.lam * spec.big_k))
    return max(1, int(round(t_max / dt))) * dt - 0.5 * dt


def learn_dynamics(seed, k, workdir, oracle, tiny=False):
    rng = np.random.default_rng([seed, k])
    jobs = []
    t_max = 20.0 if tiny else 400.0
    n_max = 2_000 if tiny else 100_000
    n_outer = 20 if tiny else 300

    # near the preset, where p* ~ 0.8..0.9 and RK4 settles in ~3-4k steps
    def low_spread():
        r1 = float(rng.uniform(0.08, 0.12))
        return replace(LOW_SPREAD, lam=float(rng.uniform(9.5, 10.5)),
                       r=(r1, 1.0 - r1), price=float(rng.uniform(3.9, 4.1)))

    for i in range(1 if tiny else 4):
        spec = low_spread()
        config = write_model(workdir, f"ode{i}.json", spec)
        out = os.path.join(workdir, f"ode{i}.csv")
        p0 = round(float(rng.uniform(0.05, 0.95)), 6)
        jobs.append(Job(
            ["--config", config, "--out", out, "replicator", "--mode", "ode",
             "--p0", repr(p0), "--t-max", repr(t_max)], 1,
            _files(partial(check_path, oracle, out, spec, p0,
                           _ode_last_step(spec, t_max)))))

    for schedule in ("inv_n", "inv_n_log_n"):
        spec = low_spread()
        config = write_model(workdir, f"{schedule}.json", spec)
        out = os.path.join(workdir, f"{schedule}.csv")
        p0 = round(float(rng.uniform(0.1, 0.5)), 6)
        jobs.append(Job(
            ["--config", config, "--out", out, "replicator", "--mode",
             "discrete", "--schedule", schedule, "--p0", repr(p0),
             "--n-max", str(n_max), "--tol", "2e-5"], 1,
            _files(partial(check_path, oracle, out, spec, p0,
                           n_max - 0.5))))

    spec = low_spread()
    config = write_model(workdir, "figure4.json", spec)
    fig = os.path.join(workdir, "figures")
    checks = [partial(check_path, oracle,
                      os.path.join(fig, f"figure4_trajectory_p0_{p0}.csv"),
                      spec, p0, _ode_last_step(spec, 400.0))
              for p0 in (0.3, 0.7)]
    jobs.append(Job(["--config", config, "--out", fig, "figure", "4"], 2,
                    _files(*checks)))

    # Controller runs start from c0 in [2.5, 3] on the low-spread geometry.
    # From other starts, and on the learning preset, some probes reach
    # price 0, where the population crawls towards p = 0 for the whole
    # 500k-step equilibrate budget, so pass times turn heavy-tailed; from
    # c0 below ~1.5 the price settles where nobody protects and equilibrate
    # has almost nothing to do.
    spec = low_spread()
    config = write_model(workdir, "figure6.json", spec)
    lo, hi = 0.01 * spec.big_k, 0.99 * spec.big_k
    checks = [partial(check_trace,
                      os.path.join(fig, f"figure6_trace_{slug}.csv"),
                      n_outer, lo, hi)
              for slug in ("inv_n_log_n", "inv_n", "inv_n_sq")]
    jobs.append(Job(
        ["--seed", str(int(rng.integers(1 << 30))), "--config", config,
         "--out", fig, "figure", "6",
         "--c0", repr(float(rng.uniform(2.5, 3.0))),
         "--n-outer", str(n_outer)], 3, _files(*checks)))

    for mode, fmt in (("nested", "csv"), ("nested", "csv"),
                      ("coupled", "csv"), ("coupled", "csv"),
                      ("coupled", "svg"), ("coupled", "svg")):
        spec = low_spread()
        i = len(jobs)
        config = write_model(workdir, f"spsa{i}.json", spec)
        out = os.path.join(workdir, f"spsa{i}.{fmt}")
        file_check = (partial(check_trace, out, n_outer, lo, hi)
                      if fmt == "csv" else
                      partial(check_svg_points, out, n_outer))
        jobs.append(Job(
            ["--seed", str(int(rng.integers(1 << 30))), "--config", config,
             "--out", out, "--format", fmt, "spsa", "--mode", mode,
             "--c0", repr(float(rng.uniform(2.5, 3.0))),
             "--n-outer", str(n_outer)], 1,
            _file_and_price(file_check, lo, hi)))
    return jobs


def _files(*checks):
    """A job check that reads only the job's output files."""
    return lambda stdout: [p for check in checks for p in check()]


def _file_and_price(file_check, lo, hi):
    return lambda stdout: file_check() + check_final_price(stdout, lo, hi)


WORKLOADS = {
    "grid_sweep": grid_sweep,
    "wide_types": wide_types,
    "learn_dynamics": learn_dynamics,
}
