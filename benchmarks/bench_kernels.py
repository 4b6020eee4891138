"""Timing comparison of the compiled C loop kernels against their
pure-Python twins.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py
Exits with a message when the compiled library did not load (no ``cc``, a
failed build, or an unwritable ``__pycache__``).
"""

import time

import numpy as np

from evopoisson import _kernels as k

COEFFS = np.array([1.0, 1.0, 0.5, 0.12, 0.015, 0.0012])
LAM, BIG_K, PRICE = 10.0, 5.0, 4.0


def bench(label, fast, slow, repeat=3):
    fast()  # warm
    best_fast = min(_time(fast) for _ in range(repeat))
    best_slow = min(_time(slow) for _ in range(repeat))
    speedup = best_slow / best_fast if best_fast > 0 else float("inf")
    print(f"{label:<28s} C {best_fast * 1e3:9.2f} ms   "
          f"python {best_slow * 1e3:9.2f} ms   x{speedup:6.1f}")


def _time(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bisect_many(impl):
    def run():
        for target in np.linspace(0.05, 0.95, 2_000):
            impl(COEFFS, LAM, float(target), 1e-12, 200)
    return run


def discrete(impl):
    return lambda: impl(COEFFS, LAM, BIG_K, PRICE, 0.35, 2_000_000, 0.0,
                        0, 0.0, 1_000, 2_004)


def rk4(impl):
    return lambda: impl(COEFFS, LAM, BIG_K, PRICE, 0.35, 0.01, 200_000,
                        1.0, 0.0, 100, 2_004)


def equilibrate_many(impl):
    def run():
        for c in np.linspace(0.5, 4.5, 400):
            impl(COEFFS, LAM, BIG_K, float(c), 0.5, 0.1, 1e-10, 100_000)
    return run


def main():
    if k.LIB is None:
        raise SystemExit("the compiled kernels did not load; only the "
                         "pure-Python loops are available")
    bench("bisection, 2000 roots", bisect_many(k.bisect_root),
          bisect_many(k.py_bisect_root))
    bench("discrete path, 2e6 steps", discrete(k.discrete_path),
          discrete(k.py_discrete_path))
    bench("rk4 path, 2e5 steps", rk4(k.rk4_path), rk4(k.py_rk4_path))
    bench("equilibrate, 400 prices", equilibrate_many(k.equilibrate),
          equilibrate_many(k.py_equilibrate))


if __name__ == "__main__":
    main()
