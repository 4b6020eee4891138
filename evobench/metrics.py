"""Metric registry: every name the benchmark reports, with its unit and,
for per-layer metrics, the end-to-end metric and workload it should move.

BENCHMARK.json at the repository root repeats the names, units, directions
and bounds; ``selftest.py`` checks that the two agree.
"""

# name -> (unit, better, meaning). Times are scaled to the reference
# machine speed of run.CALIBRATION_S (see run.py).
END_TO_END = {
    "setup_s": ("s", "lower",
                "fresh interpreter: import evopoisson plus one small eq "
                "solve, bytecode caches warm; median of several launches"),
    "wall_s": ("s", "lower",
               "time to finish the workload's whole job list, untraced; "
               "median over passes"),
    "job_p50_ms": ("ms", "lower", "median per-job latency"),
    "job_p90_ms": ("ms", "lower", "p90 per-job latency"),
    "solves_per_s": ("1/s", "higher",
                     "results produced per second of job time: sweep cells, "
                     "eq results and revenue/figure grid points; on "
                     "learn_dynamics one per trajectory or controller run"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident memory of the workload process"),
}

# Printed with the end-to-end metrics but kept out of the JSON metrics:
# it reads 0 on a healthy run. The result line carries it as
# attempted/failed.
FAILED_FRAC = ("failed_frac", "-",
               "failed jobs / jobs attempted; a job fails on a non-zero exit "
               "code, an exception, or a failed output check")

_GRID = "wall_s on grid_sweep"
_LEARN = "wall_s on learn_dynamics"
_SAFE = ("wall_s and solves_per_s on grid_sweep (reuse) and wide_types "
         "(per-point cost); no change on learn_dynamics")
_SOLVE = "solves_per_s on grid_sweep; small effect on wide_types"
_DYN = "wall_s and job_p50_ms on learn_dynamics only"
_CTRL = "wall_s on learn_dynamics only"
_KERN = ("wall_s on learn_dynamics; solves_per_s on grid_sweep through "
         "bisection only")
_OUT = "wall_s on learn_dynamics (100k-row trajectory CSVs)"

# name -> (unit, better, should move)
PER_LAYER = {
    "cli.self_s": ("s", "lower", _GRID),
    "model.parse_s": ("s", "lower", _SAFE),
    "model.safe_set_s": ("s", "lower", _SAFE),
    "model.safe_set_calls": ("count", "lower", _SAFE),
    "model.safe_set_points": ("count", "lower", _SAFE),
    "model.safe_set_us_per_point": ("us", "lower", _SAFE),
    "model.geometry_reuse": ("ratio", "higher", _SAFE),
    "payoff.engine_calls": ("count", "lower",
                            "wall_s and peak_rss_mb on grid_sweep"),
    "equilibrium.solve_s": ("s", "lower", _SOLVE),
    "equilibrium.solve_calls": ("count", "lower", _SOLVE),
    "equilibrium.bisect_iters": ("count", "lower", _SOLVE),
    "equilibrium.us_per_solve": ("us", "lower", _SOLVE),
    "equilibrium.errors": ("count", "lower", _SOLVE),
    "dynamics.rk4_s": ("s", "lower", _DYN),
    "dynamics.rk4_steps": ("count", "lower", _DYN),
    "dynamics.rk4_us_per_step": ("us", "lower", _DYN),
    "dynamics.discrete_s": ("s", "lower", _DYN),
    "dynamics.discrete_steps": ("count", "lower", _DYN),
    "dynamics.discrete_us_per_step": ("us", "lower", _DYN),
    "dynamics.unconverged": ("count", "lower", _DYN),
    "control.two_timescale_s": ("s", "lower", _CTRL),
    "control.equilibrate_calls": ("count", "lower", _CTRL),
    "control.equilibrate_steps": ("count", "lower", _CTRL),
    "control.equilibrate_unconverged": ("count", "lower", _CTRL),
    "control.us_per_equilibrate_step": ("us", "lower", _CTRL),
    "kernels.s": ("s", "lower", _KERN),
    "kernels.share": ("ratio", "higher", _KERN),
    "kernels.horner_terms": ("count", "lower", _KERN),
    "output.write_s": ("s", "lower", _OUT),
    "output.rows": ("count", "lower", _OUT),
    "output.bytes": ("bytes", "lower", _OUT),
    "trace.overhead_frac": ("ratio", "lower",
                            "none; what the tracing itself costs"),
}

# Per-layer metrics that are operation counts (or ratios of counts): they
# must repeat exactly for the same seed, so later changes can cite them.
EXACT = tuple(name for name, (unit, _, _) in PER_LAYER.items()
              if unit in ("count", "bytes")) + ("model.geometry_reuse",)
