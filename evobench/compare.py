"""Compare two result files written by run.py.

    python3 evobench/compare.py BASE.json NEW.json

Prints each metric of both runs and the ratio NEW/BASE. Runs whose loop
backend or backend environment differ are flagged: their timings measure
different kernels, not a change in the code.
"""

import json
import sys


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    base, new = _load(argv[1]), _load(argv[2])
    env_a, env_b = base["environment"], new["environment"]
    flagged = []
    for key in ("backend", "evopoisson_env", "python", "numpy", "nproc"):
        if env_a[key] != env_b[key]:
            flagged.append(f"{key}: {env_a[key]} vs {env_b[key]}")
    if base["workload"] != new["workload"]:
        flagged.append(f"workload: {base['workload']} vs {new['workload']}")
    for name, a in base["metrics"].items():
        b = new["metrics"].get(name)
        if b is None:
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:34s} {a['value']:12.6g} {b['value']:12.6g} "
              f"{a['unit']:6s} x{ratio:.4f}")
    for note in flagged:
        print(f"WARNING: runs differ in {note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
