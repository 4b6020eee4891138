"""Command line front end: ad-hoc solves, parameter sweeps, and the bundled
figure experiments (numbered presets 2-6).

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .control import ControlMode, run_two_timescale
from .dynamics import (StepFamily, StepSchedule, discrete_replicator,
                       integrate_replicator)
from .equilibrium import solve_equilibrium
from .errors import (EvoPoissonError, NumericalError, ParameterError,
                     ResourceLimitError)
from .model import PopulationModel, SafeSetConvention, model_from_json
from .output import format_value, write_csv, write_series
from .payoff import PayoffEngine

_SCHEDULES = {
    "inv_n": StepFamily.INV_N,
    "inv_n_log_n": StepFamily.INV_N_LOG_N,
    "inv_n_sq": StepFamily.INV_N_SQ,
    "constant": StepFamily.CONSTANT,
}


# two types with spreading rates 0.05 and 0.2
LOW_SPREAD = PopulationModel(lam=10.0, type_dist=(0.1, 0.9),
                             contamination_rate=5, recovery_rates=(100, 25),
                             infection_cost=5.0, protection_cost=4.0)

# two types with spreading rates 0.5 and 0.98
PRICING = PopulationModel(lam=10.0, type_dist=(0.3, 0.7),
                          contamination_rate=1,
                          recovery_rates=(2, Fraction(50, 49)),
                          infection_cost=10.0, protection_cost=4.0)

# two types with spreading rates 0.5 and 50/51
LEARNING = PopulationModel(lam=10.0, type_dist=(0.3, 0.7),
                           contamination_rate=5,
                           recovery_rates=(10, Fraction(51, 10)),
                           infection_cost=10.0, protection_cost=4.0)


def _load_model(args, default=None) -> PopulationModel:
    model = default
    if args.config:
        with open(args.config) as fh:
            model = model_from_json(fh.read())
    if model is None:
        raise ParameterError("this command needs --config MODEL.json")
    if args.convention:
        model = replace(model,
                        convention=SafeSetConvention(args.convention))
    return model


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_eq(args) -> int:
    engine = PayoffEngine(_load_model(args))
    res = solve_equilibrium(engine)
    print(f"p_star        {format_value(res.p_star)}")
    print(f"protection    {format_value(1.0 - res.p_star)}")
    print(f"kind          {res.kind.value}")
    print(f"residual      {format_value(res.residual)}")
    print(f"iterations    {res.iterations}")
    print(f"convention    {res.convention.value}")
    if args.out:
        write_csv(args.out,
                  ["p_star", "protection_rate", "kind", "residual",
                   "iterations", "convention"],
                  [(res.p_star, 1.0 - res.p_star, res.kind.value,
                    res.residual, res.iterations, res.convention.value)])
    return 0


def _parse_sweep_spec(spec: str):
    try:
        name, rng = spec.split("=", 1)
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ParameterError(
            f"sweep spec must look like PARAM=LO:HI:N, got {spec!r}") from exc
    if count < 1 or hi < lo:
        raise ParameterError(f"empty sweep grid in {spec!r}")
    return name, np.linspace(lo, hi, count)


def _apply_param(model: PopulationModel, name: str,
                 value: float) -> PopulationModel:
    if name == "lambda":
        return replace(model, lam=value)
    if name == "C":
        return model.with_cost(value)
    if name == "r":
        if model.num_types != 2:
            raise ParameterError("sweeping r needs a two-type model")
        return replace(model, type_dist=(value, 1.0 - value))
    if name.startswith("tau") and name[3:].isdecimal():
        idx = int(name[3:]) - 1
        if not 0 <= idx < model.num_types:
            raise ParameterError(f"no type for sweep parameter {name!r}")
        tau = Fraction(repr(float(value)))
        if tau <= 0:
            raise ParameterError(f"tau must be > 0, got {value}")
        rates = list(model.recovery_rates)
        rates[idx] = model.contamination_rate / tau
        return replace(model, recovery_rates=tuple(rates))
    raise ParameterError(f"unknown sweep parameter {name!r} "
                         f"(use lambda, C, r, or tauN)")


def _grid(model: PopulationModel, axes) -> list:
    """Equilibrium rows (*axis values, p*, 1 - p*, lam (1 - p*) C) over the
    product of axes [(param, values)]. Cells that differ only in lambda or
    C share one safe set, enumerated once per call."""
    names, grids = zip(*axes)
    safe_sets = {}
    rows = []
    for combo in itertools.product(*grids):
        combo = tuple(float(v) for v in combo)
        cell = model
        for name, value in zip(names, combo):
            cell = _apply_param(cell, name, value)
        key = cell.safe_set_fingerprint()
        engine = PayoffEngine(cell, safe_sets.get(key))
        safe_sets[key] = engine.safe_set
        res = solve_equilibrium(engine)
        rows.append(combo + (res.p_star, 1.0 - res.p_star,
                             cell.lam * (1.0 - res.p_star)
                             * cell.protection_cost))
    return rows


def cmd_sweep(args) -> int:
    model = _load_model(args)
    axes = [_parse_sweep_spec(s) for s in args.sweep]
    if not 1 <= len(axes) <= 2:
        raise ParameterError("give one or two --sweep specs")
    header = [name for name, _ in axes] + ["p_star", "protection_rate",
                                           "revenue[cost]"]
    out = args.out or "sweep.csv"
    write_series(out, header, _grid(model, axes), args.format,
                 x_col=len(axes) - 1, y_col=len(axes) + 1, title="sweep")
    return 0


def cmd_replicator(args) -> int:
    engine = PayoffEngine(_load_model(args))
    if args.mode == "ode":
        traj = integrate_replicator(engine, args.p0, dt=args.dt,
                                    t_max=args.t_max, epsilon=args.eps,
                                    tol=args.tol)
    else:
        sched = StepSchedule(_SCHEDULES[args.schedule], h=args.h)
        traj = discrete_replicator(engine, args.p0, sched,
                                   n_max=args.n_max, tol=args.tol)
    rows = list(zip(traj.times.tolist(), traj.values.tolist()))
    out = args.out or "replicator.csv"
    write_series(out, ["t_or_n", "p"], rows, args.format,
                 title="replicator path")
    return 0


_REVENUE_HEADER = ["C[cost]", "p_star", "revenue[cost]"]


def _revenue_rows(model: PopulationModel, c_lo: float, c_hi: float,
                  n: int) -> list:
    """(C, p*, revenue) at n prices from c_lo to c_hi."""
    if n < 1 or c_hi < c_lo:
        raise ParameterError("empty revenue grid")
    return [(c, p_star, rev) for c, p_star, _, rev
            in _grid(model, [("C", np.linspace(c_lo, c_hi, n))])]


def cmd_revenue(args) -> int:
    model = _load_model(args)
    c_hi = model.infection_cost if args.c_hi is None else args.c_hi
    rows = _revenue_rows(model, args.c_lo, c_hi, args.n_points)
    out = args.out or "revenue.csv"
    write_series(out, _REVENUE_HEADER, rows, args.format,
                 title="revenue vs price")
    return 0


def _trace_rows(state):
    return np.column_stack([state.trace_n, state.trace_price,
                            state.trace_revenue, state.trace_sign,
                            state.trace_population]).tolist()


_TRACE_HEADER = ["n", "C_n[cost]", "R_hat[cost]", "Delta_n", "p_population"]


def cmd_spsa(args) -> int:
    engine = PayoffEngine(_load_model(args))
    sched = StepSchedule(_SCHEDULES[args.schedule_a], h=args.h)
    state = run_two_timescale(
        engine, sched, delta=args.delta, c0=args.c0, n_outer=args.n_outer,
        mode=ControlMode(args.mode), seed=args.seed, p0=args.p0)
    for note in state.notes:
        print(f"note: {note}", file=sys.stderr)
    out = args.out or "spsa_trace.csv"
    write_series(out, _TRACE_HEADER, _trace_rows(state), args.format,
                 x_col=0, y_col=1, title="price trace")
    print(f"final_price {format_value(state.price)}")
    return 0


def _figure2(args, out):
    rows = _grid(replace(LOW_SPREAD, convention=_conv(args)),
                 [("lambda", np.arange(2.0, 31.0, 1.0)),
                  ("r", (0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0))])
    path = os.path.join(out, "figure2_protection_vs_lambda.csv")
    return [write_series(path, ["lambda", "r", "protection_rate"],
                         [(lam, r1, q) for lam, r1, _, q, _ in rows],
                         args.format, x_col=0, y_col=2,
                         title="protection vs lambda")]


def _figure3(args, out):
    rows = _grid(replace(LOW_SPREAD, lam=30.0, convention=_conv(args)),
                 [("tau1", (0.05, 0.1)), ("r", np.linspace(0.0, 1.0, 51))])
    written = []
    for tau1 in (0.05, 0.1):
        path = os.path.join(out, f"figure3_protection_vs_r_tau1_{tau1}.csv")
        written.append(write_series(
            path, ["r", "protection_rate"],
            [(r1, q) for t, r1, _, q, _ in rows if t == tau1], args.format,
            title=f"protection vs r (tau1={tau1})"))
    return written


def _figure4(args, out):
    written = []
    preset = (LOW_SPREAD if args.lam is None
              else replace(LOW_SPREAD, lam=args.lam))
    engine = PayoffEngine(_load_model(args, preset))
    for p0 in (0.3, 0.7):
        traj = integrate_replicator(engine, p0)
        rows = list(zip(traj.times.tolist(), traj.values.tolist()))
        path = os.path.join(out, f"figure4_trajectory_p0_{p0}.csv")
        written.append(write_series(path, ["t_or_n", "p"], rows, args.format,
                                    title=f"replicator from p0={p0}"))
    return written


def _figure5(args, out):
    model = _load_model(args, PRICING)
    rows = _revenue_rows(model, 0.0, model.infection_cost, 101)
    path = os.path.join(out, "figure5_revenue_vs_price.csv")
    return [write_series(path, _REVENUE_HEADER, rows, args.format, x_col=0,
                         y_col=2, title="revenue vs price")]


def _figure6(args, out):
    engine = PayoffEngine(_load_model(args, LEARNING))
    c0 = 1.5 if args.c0 is None else args.c0
    written = []
    for slug in ("inv_n_log_n", "inv_n", "inv_n_sq"):
        sched = StepSchedule(_SCHEDULES[slug])
        state = run_two_timescale(engine, sched, delta=args.delta,
                                  c0=c0, n_outer=args.n_outer,
                                  mode=ControlMode.NESTED, seed=args.seed)
        path = os.path.join(out, f"figure6_trace_{slug}.csv")
        written.append(write_series(path, _TRACE_HEADER, _trace_rows(state),
                                    args.format, x_col=0, y_col=1,
                                    title=f"price trace a(n)={slug}"))
    return written


def _conv(args):
    return SafeSetConvention(args.convention) if args.convention else None


_FIGURES = {2: _figure2, 3: _figure3, 4: _figure4, 5: _figure5, 6: _figure6}


def cmd_figure(args) -> int:
    out = _out_dir(args)
    written = _FIGURES[args.which](args, out)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evopoisson",
        description="Protection-game equilibria, replicator dynamics, and "
                    "price learning for Poisson-sized interactions")
    parser.add_argument("--config", help="model JSON file")
    parser.add_argument("--out", help="output path (directory for figure)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic runs")
    parser.add_argument("--convention", choices=["literal", "exclusive"],
                        help="safe-set convention override")
    parser.add_argument("--format", choices=["csv", "svg"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("eq", help="solve the equilibrium for a model config")

    p = sub.add_parser("sweep", help="1-D/2-D parameter sweeps")
    p.add_argument("--sweep", action="append", required=True,
                   metavar="PARAM=LO:HI:N",
                   help="sweep spec; params: lambda, C, r, tauN")

    p = sub.add_parser("replicator", help="integrate the replicator path")
    p.add_argument("--p0", type=float, default=0.5)
    p.add_argument("--mode", choices=["ode", "discrete"], default="ode")
    p.add_argument("--schedule", choices=sorted(_SCHEDULES), default="inv_n")
    p.add_argument("--h", type=float, default=0.01,
                   help="step for the constant schedule")
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-max", type=float, default=400.0)
    p.add_argument("--n-max", type=int, default=1_000_000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--eps", type=float, default=1.0)

    p = sub.add_parser("revenue", help="revenue across a price grid")
    p.add_argument("--c-lo", type=float, default=0.0)
    p.add_argument("--c-hi", type=float, default=None,
                   help="defaults to the infection cost K")
    p.add_argument("--n-points", type=int, default=101)

    p = sub.add_parser("spsa", help="two-timescale price learning run")
    p.add_argument("--schedule-a", choices=sorted(_SCHEDULES),
                   default="inv_n_log_n")
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--mode", choices=["coupled", "nested"], default="nested")
    p.add_argument("--n-outer", type=int, default=300)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--p0", type=float, default=0.5)

    p = sub.add_parser("figure", help="run a bundled experiment preset")
    p.add_argument("which", type=int, choices=sorted(_FIGURES))
    p.add_argument("--lam", type=float, default=None,
                   help="override the preset interaction size")
    p.add_argument("--n-outer", type=int, default=300)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eq": cmd_eq,
        "sweep": cmd_sweep,
        "replicator": cmd_replicator,
        "revenue": cmd_revenue,
        "spsa": cmd_spsa,
        "figure": cmd_figure,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ResourceLimitError, EvoPoissonError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
