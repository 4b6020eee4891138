"""Benchmark command for evopoisson.

    python3 evobench/run.py --workload grid_sweep --seed 1 --seconds 30 \
        --trace 0

Runs the named workload as passes of CLI jobs through
``evopoisson.cli.main(argv)``, in this process and thread, one job at a
time (a closed loop with one client), until ``--seconds`` of job time have
been measured. Every job's output is checked. Inputs come from the seed
and are written before each pass's clock starts.

Times are reported at a reference machine speed. The speed of a shared
host drifts by a third over minutes: one fixed figure-2 job took 205 to
276 ms, the fastest of ~20 passes, in runs a minute apart on a 2-vCPU VM.
So just before and just after every job (and before every set-up launch)
the benchmark times a fixed calibration loop that runs no code of the
program, and scales each pass's job times by CALIBRATION_S / (the pass's
calibration time: the mean around each job, weighted by the job's time).
A program change moves the scaled times as it moves the raw ones; a slower
host moves both the job and the calibration. The raw pass times and the
pass calibrations are kept in the result file. Per-layer times are the
raw span times.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics, including the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Results, the environment
stamp and (traced) the spans go to evobench/work/results/.

The program is imported from src/ next to this directory; without it the
command fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SETUP_RUNS = 7
SETUP_CODE = ("import sys, evopoisson.cli as cli; "
              "sys.exit(cli.main(['--config', sys.argv[1], '--out', "
              "sys.argv[2], 'eq']))")
# Pass index of the unmeasured warm-up list, outside any run's passes.
WARMUP_PASS = 10**6
# Stop starting passes once this much wall time has gone, so a run ends
# well inside its 180 s limit on a slow machine.
RUN_LIMIT_S = 140.0
# Median time of calibrate() on a 2-vCPU VM (Python 3.11, numpy 2.4): the
# reference speed that reported times are scaled to.
CALIBRATION_S = 0.004


def calibrate():
    """Time a fixed interpreter loop and numpy pass, shaped like the
    program's pure-Python work; shares no code with the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    a = np.arange(2_000.0)
    for _ in range(100):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "evopoisson", "__init__.py")):
        sys.exit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import evopoisson
    if not os.path.abspath(evopoisson.__file__).startswith(SRC):
        sys.exit(f"error: imported evopoisson from {evopoisson.__file__}")
    return evopoisson


def environment(evopoisson, seed):
    """Backend, versions, machine and code identity of a run."""
    import numpy

    digest = hashlib.sha256()
    pkg = os.path.dirname(evopoisson.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "backend": "numba" if evopoisson.NUMBA_ACTIVE else "python",
        "NUMBA_ACTIVE": bool(evopoisson.NUMBA_ACTIVE),
        "evopoisson_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith("EVOPOISSON_")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


class SetupProbe:
    """Fresh interpreters that import the package and solve one small
    model: the program's set-up cost, with bytecode caches warm."""

    def __init__(self, workdir, oracle):
        from workloads import LOW_SPREAD, write_model

        self.spec = LOW_SPREAD
        self.config = write_model(workdir, "setup.json", self.spec)
        self.out = os.path.join(workdir, "setup.csv")
        self.oracle = oracle
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]]
                     if self.env.get("PYTHONPATH") else []))
        self.times, self.problems = [], []
        self.attempted = self.failed = 0

    def launch(self, timed=True):
        from checks import check_equilibria

        speed = statistics.median(calibrate() for _ in range(5))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, self.config, self.out],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        problems = ([f"setup exit {proc.returncode}: "
                     f"{proc.stderr.strip()[-300:]}"] if proc.returncode
                    else check_equilibria(self.oracle, self.out,
                                          [self.spec], 0))
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems
        if timed and not proc.returncode:
            self.times.append(elapsed * CALIBRATION_S / speed)


def run_pass(jobs, main, tracer=None, tamper=None):
    """Run jobs one after another; returns (seconds, solves, problems,
    calibration seconds) per job. Only the main(argv) call is timed; the
    calibration runs just before and just after it, the checks after
    that."""
    records = []
    for job in jobs:
        before = calibrate()
        stdout, stderr = io.StringIO(), io.StringIO()
        installed = (tracer.installed() if tracer is not None
                     else contextlib.nullcontext())
        problems = []
        t0 = time.perf_counter()
        try:
            with installed, contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(job.argv)
        except SystemExit as exc:       # argparse rejects its argv
            code = exc.code
        except Exception as exc:        # the job fails, the run goes on
            code = None
            problems.append(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        calibration = 0.5 * (before + calibrate())
        if code != 0:
            problems.append(f"exit code {code}: "
                            f"{stderr.getvalue().strip()[-300:]}")
        else:
            if tamper is not None:
                tamper(job)
            try:
                problems += job.check(stdout.getvalue())
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        records.append((elapsed, job.solves,
                        [f"{' '.join(job.argv)}: {p}" for p in problems],
                        calibration))
    return records


def _calibration(records):
    """A pass's calibration time, weighted by the time of each job."""
    return (sum(r[0] * r[3] for r in records)
            / sum(r[0] for r in records))


def _scaled(passes):
    """Job times of each pass at the reference speed."""
    scaled = []
    for records in passes:
        scale = CALIBRATION_S / _calibration(records)
        scaled.append([r[0] * scale for r in records])
    return scaled


def _fresh_dir(workload, name):
    path = os.path.join(WORK, workload, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run(workload, seed, seconds, trace, tiny=False, tamper=None):
    """One benchmark run; returns the result document."""
    evopoisson = _import_program()
    from evopoisson import cli
    from checks import Oracle
    from metrics import END_TO_END, EXACT, PER_LAYER
    from tracer import Tracer, layer_metrics, summarize
    from workloads import WORKLOADS

    build = WORKLOADS[workload]
    started = time.perf_counter()
    oracle = Oracle()
    env = environment(evopoisson, seed)
    setup = SetupProbe(_fresh_dir(workload, "setup"), oracle)
    setup.launch(timed=False)       # writes the bytecode caches
    next_setup = 0.0
    # warm the in-process paths on a small list that is not measured
    run_pass(build(seed, WARMUP_PASS, _fresh_dir(workload, "warmup"), oracle,
                   tiny=True), cli.main)

    untraced, traced, layer_passes, spans, problems = [], [], [], [], []
    attempted = failed = 0
    measured = 0.0
    k = 0
    while True:
        # set-up launches spread over the run see the same machine as it
        if measured >= next_setup:
            setup.launch()
            next_setup += seconds / SETUP_RUNS
        jobs = build(seed, k, _fresh_dir(workload, f"pass{k % 2}"), oracle,
                      tiny=tiny)
        tracer = Tracer() if trace and k % 2 else None
        main = tracer.wrap("cli", cli.main) if tracer else cli.main
        records = run_pass(jobs, main, tracer, tamper)
        (traced if tracer else untraced).append(records)
        if tracer:
            layer_passes.append(layer_metrics(tracer.spans))
            spans.append(tracer.spans)
        attempted += len(records)
        for _, _, job_problems, _ in records:
            failed += bool(job_problems)
            problems += job_problems
        k += 1
        measured = sum(r[0] for p in untraced + traced for r in p)
        elapsed = time.perf_counter() - started
        last = sum(r[0] for r in records)
        if measured >= seconds and (traced or not trace):
            break
        if elapsed + 2.0 * last > RUN_LIMIT_S:
            break
    while len(setup.times) < SETUP_RUNS and setup.failed < SETUP_RUNS:
        setup.launch()
    if not setup.times:
        sys.exit("error: no set-up launch exited cleanly: "
                 + "; ".join(setup.problems[:3]))
    attempted += setup.attempted
    failed += setup.failed
    problems = setup.problems + problems

    scaled, traced_scaled = _scaled(untraced), _scaled(traced)
    walls = [sum(p) for p in scaled]
    if trace:
        metrics = summarize(layer_passes, EXACT)
        metrics["trace.overhead_frac"] = (
            statistics.median(sum(p) for p in traced_scaled)
            / statistics.median(walls) - 1.0)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        latencies = [t for p in scaled for t in p]
        solves = sum(r[1] for p in untraced for r in p)
        metrics = {
            "setup_s": statistics.median(setup.times),
            "wall_s": statistics.median(walls),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_p90_ms": 1e3 * statistics.quantiles(
                latencies, n=10, method="inclusive")[8],
            "solves_per_s": solves / sum(latencies),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    samples = sum(len(p) for p in untraced)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "pass_walls_s": {"untraced": walls,
                         "traced": [sum(p) for p in traced_scaled],
                         "untraced_raw": [sum(r[0] for r in p)
                                          for p in untraced]},
        "pass_calibration_s": [_calibration(p) for p in untraced],
        "job_samples": samples,
        "samples_beyond_p90": samples - int(0.9 * samples) - 1,
        "problems": problems[:20],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "spans": spans,
    }


def report(result):
    """Human-readable lines, the result files, then the JSON result line."""
    env = result["environment"]
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "evopoisson_env")
        + f" env={env['evopoisson_env']}")
    walls = result["pass_walls_s"]
    print(f"workload {result['workload']}: {len(walls['untraced'])} "
          f"untraced and {len(walls['traced'])} traced passes, "
          f"{result['job_samples']} untraced job samples")
    if walls["untraced_raw"]:
        raw = statistics.median(walls["untraced_raw"])
        calibration = statistics.median(result["pass_calibration_s"])
        print(f"  raw median pass wall {raw:.6g} s; calibration median "
              f"{1e3 * calibration:.4g} ms, reference "
              f"{1e3 * CALIBRATION_S:g} ms")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {result['failed_frac']:.6g} -  "
          f"({result['failed']}/{result['attempted']})")
    if not result["trace"] and result["samples_beyond_p90"] < 10:
        print(f"note: only {result['samples_beyond_p90']} samples beyond "
              f"p90")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{result['workload']}-seed"
                        f"{result['seed']}-trace{int(result['trace'])}")
    spans = result.pop("spans")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if spans:
        from tracer import self_times
        with open(stem + "-spans.json", "w") as fh:
            json.dump([[s[:4] + [s[4], own]
                        for s, own in zip(p, self_times(p))]
                       for p in spans], fh)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
