"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces module attributes (the names the CLI, the payoff engine
and the dynamics look up at call time) with wrappers for the length of one
job, so no source file of the program changes. Each span records name,
start, end, parent and, where the boundary returns them, counts read off
the return value: safe-set size, bisection iterations, kernel steps and
convergence flags, rows and bytes written.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time

from evopoisson import _kernels, cli, payoff
from evopoisson.errors import EvoPoissonError


def _safe_set_attrs(args, kwargs, out):
    model = args[0]
    geometry = (model.spreading_rates_exact, model.convention.value)
    return {"points": int(out.size), "geometry": repr(geometry)}


def _path_attrs(args, kwargs, out):
    # (xs, ps, n_stored, n_total, converged, p_final)
    return {"steps": int(out[3]), "converged": bool(out[4]),
            "coeffs": len(args[0])}


def _bisect_attrs(args, kwargs, out):
    # (root, iterations, ok)
    return {"steps": int(out[1]), "coeffs": len(args[0])}


def _equilibrate_attrs(args, kwargs, out):
    # (p_final, steps, converged)
    return {"steps": int(out[1]), "converged": bool(out[2]),
            "coeffs": len(args[0])}


def _write_attrs(args, kwargs, out):
    path = out if isinstance(out, str) else args[0]
    return {"rows": len(args[2]), "bytes": os.path.getsize(path)}


# (module, attribute, span name, attrs from (args, kwargs, return value))
BOUNDARIES = (
    (cli, "model_from_json", "model.parse", None),
    (payoff, "enumerate_safe_set", "model.safe_set", _safe_set_attrs),
    (payoff.PayoffEngine, "__init__", "payoff.engine", None),
    (cli, "solve_equilibrium", "equilibrium.solve", None),
    (cli, "integrate_replicator", "dynamics.rk4", None),
    (cli, "discrete_replicator", "dynamics.discrete", None),
    (cli, "run_two_timescale", "control.two_timescale", None),
    (_kernels, "bisect_root", "kernels.bisect", _bisect_attrs),
    (_kernels, "rk4_path", "kernels.rk4", _path_attrs),
    (_kernels, "discrete_path", "kernels.discrete", _path_attrs),
    (_kernels, "equilibrate", "kernels.equilibrate", _equilibrate_attrs),
    (cli, "write_series", "output.write", _write_attrs),
    (cli, "write_csv", "output.write", _write_attrs),
)

# Horner evaluations per kernel step: RK4 evaluates four stages plus the
# convergence test; the others one per step or bisection iteration.
HORNER_EVALS = {"kernels.rk4": 5, "kernels.discrete": 1,
                "kernels.equilibrate": 1, "kernels.bisect": 1}


class Tracer:
    """In-memory spans: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except EvoPoissonError as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every boundary for its traced wrapper; restore on exit."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in BOUNDARIES]
        try:
            for (owner, attr, name, attrs), (_, _, fn) in zip(BOUNDARIES,
                                                              saved):
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (jobs are the root spans)."""
    total = {}
    count = {}
    steps = {}
    unconverged = {}
    for name, start, end, _, attrs in spans:
        total[name] = total.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1
        steps[name] = steps.get(name, 0) + attrs.get("steps", 0)
        if attrs.get("converged") is False:
            unconverged[name] = unconverged.get(name, 0) + 1
    selfs = self_times(spans)
    wall = sum(end - start for _, start, end, parent, _ in spans
               if parent < 0)
    attrs_of = [(s[0], s[4]) for s in spans]
    points = sum(a["points"] for n, a in attrs_of if n == "model.safe_set")
    geometries = {a["geometry"] for n, a in attrs_of if n == "model.safe_set"}

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return count.get(name, 0)

    def per(numer, denom, scale=1e6):
        return numer / denom * scale if denom else 0.0

    kernel_s = sum(t(n) for n in HORNER_EVALS)
    return {
        "cli.self_s": sum(s for (n, *_), s in zip(spans, selfs)
                          if n == "cli"),
        "model.parse_s": t("model.parse"),
        "model.safe_set_s": t("model.safe_set"),
        "model.safe_set_calls": c("model.safe_set"),
        "model.safe_set_points": points,
        "model.safe_set_us_per_point": per(t("model.safe_set"), points),
        "model.geometry_reuse": per(len(geometries), c("model.safe_set"), 1),
        "payoff.engine_calls": c("payoff.engine"),
        "equilibrium.solve_s": t("equilibrium.solve"),
        "equilibrium.solve_calls": c("equilibrium.solve"),
        "equilibrium.bisect_iters": steps.get("kernels.bisect", 0),
        "equilibrium.us_per_solve": per(t("equilibrium.solve"),
                                        c("equilibrium.solve")),
        "equilibrium.errors": sum(1 for n, a in attrs_of
                                  if n == "equilibrium.solve"
                                  and "error" in a),
        "dynamics.rk4_s": t("dynamics.rk4"),
        "dynamics.rk4_steps": steps.get("kernels.rk4", 0),
        "dynamics.rk4_us_per_step": per(t("dynamics.rk4"),
                                        steps.get("kernels.rk4", 0)),
        "dynamics.discrete_s": t("dynamics.discrete"),
        "dynamics.discrete_steps": steps.get("kernels.discrete", 0),
        "dynamics.discrete_us_per_step": per(
            t("dynamics.discrete"), steps.get("kernels.discrete", 0)),
        "dynamics.unconverged": (unconverged.get("kernels.rk4", 0)
                                 + unconverged.get("kernels.discrete", 0)),
        "control.two_timescale_s": t("control.two_timescale"),
        "control.equilibrate_calls": c("kernels.equilibrate"),
        "control.equilibrate_steps": steps.get("kernels.equilibrate", 0),
        "control.equilibrate_unconverged": unconverged.get(
            "kernels.equilibrate", 0),
        "control.us_per_equilibrate_step": per(
            t("kernels.equilibrate"), steps.get("kernels.equilibrate", 0)),
        "kernels.s": kernel_s,
        "kernels.share": per(kernel_s, wall, 1),
        "kernels.horner_terms": sum(
            HORNER_EVALS[n] * a.get("steps", 0) * a.get("coeffs", 0)
            for n, a in attrs_of if n in HORNER_EVALS),
        "output.write_s": t("output.write"),
        "output.rows": sum(a["rows"] for n, a in attrs_of
                           if n == "output.write"),
        "output.bytes": sum(a["bytes"] for n, a in attrs_of
                            if n == "output.write"),
    }


def summarize(passes, exact):
    """Median of each metric over traced passes; exact counts from the
    first pass, since every pass has its own inputs."""
    first = passes[0]
    return {name: (first[name] if name in exact
                   else statistics.median(p[name] for p in passes))
            for name in first}
