"""Self-test of the benchmark at tiny sizes.

    python3 evobench/selftest.py

Checks that BENCHMARK.json and the metric registry agree; that every
metric is emitted with its unit on every workload, traced and untraced;
that the per-layer counts repeat exactly for the same seed; that
deliberately corrupted outputs are counted as failed jobs; and that the
command fails when the program's sources are absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run
from metrics import END_TO_END, EXACT, PER_LAYER
from workloads import WORKLOADS

SEED = 3


def _rewrite_csv(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _shift_p(col):
    """Corruption: p* of the first data row moved by 1e-3."""
    def edit(lines):
        cells = lines[1].split(",")
        cells[col] = repr(float(cells[col]) + 1e-3)
        return [lines[0], ",".join(cells)] + lines[2:]
    return edit


def _out(job):
    return job.argv[job.argv.index("--out") + 1]


# workload -> (which jobs to corrupt, how)
TAMPER = {
    "wide_types": (lambda job: "eq" in job.argv, _shift_p(0)),
    "grid_sweep": (lambda job: "sweep" in job.argv, _shift_p(2)),
    "learn_dynamics": (lambda job: "spsa" in job.argv
                       and _out(job).endswith(".csv"),
                       lambda lines: lines[:-1]),
}


def _check_registry(problems):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, registry in (("end_to_end", END_TO_END),
                          ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        expected = {name: spec[:2] for name, spec in registry.items()}
        if declared != expected:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")


def _check_metrics(result, registry, problems):
    got = result["metrics"]
    for name, spec in registry.items():
        if name not in got or got[name]["unit"] != spec[0]:
            problems.append(f"{result['workload']}: {name} missing or "
                            f"without unit {spec[0]}")
        elif not math.isfinite(got[name]["value"]):
            problems.append(f"{result['workload']}: {name} is "
                            f"{got[name]['value']}")


def main():
    problems = []
    _check_registry(problems)
    for workload in WORKLOADS:
        plain = run.run(workload, SEED, 0, False, tiny=True)
        _check_metrics(plain, END_TO_END, problems)
        if plain["failed"]:
            problems.append(f"{workload}: {plain['problems']}")
        traced = [run.run(workload, SEED, 0, True, tiny=True)
                  for _ in range(2)]
        for result in traced:
            _check_metrics(result, PER_LAYER, problems)
        counts = [{name: r["metrics"][name]["value"] for name in EXACT}
                  for r in traced]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: counts differ between runs of "
                            f"seed {SEED}: {counts}")

        select, edit = TAMPER[workload]
        corrupted = []

        def tamper(job):
            if select(job):
                corrupted.append(job)
                _rewrite_csv(_out(job), edit)
        result = run.run(workload, SEED, 0, False, tiny=True, tamper=tamper)
        if not corrupted or result["failed"] != len(corrupted):
            problems.append(f"{workload}: {len(corrupted)} corrupted "
                            f"outputs, {result['failed']} failed jobs")

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "evobench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "evobench/run.py", "--workload", "grid_sweep",
         "--seed", "1", "--seconds", "1"], cwd=bare, capture_output=True,
        text=True, timeout=170)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py without src/ did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
