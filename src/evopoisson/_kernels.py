"""Hot numeric loops for payoff evaluation, dynamics, and equilibrium search.

The three loop kernels (``bisect_root``, ``discrete_path``, ``rk4_path``)
are written twice: in C, in ``_kernels.c`` next to this file, and in plain
Python (``py_*``). ``equilibrate``, the nested controller's re-settling
loop, is ``discrete_path`` at a constant step that keeps no path. On first
import the C file is built with the system compiler (``cc -O2
-ffp-contract=off -fPIC -shared``, no fast-math) into ``__pycache__``,
under a name keyed by a hash of the source and the flags, and loaded with
ctypes; later imports load the cached library without starting the
compiler. Both versions execute the same sequence of IEEE operations with
the same libm ``exp``/``log``, so their results are bitwise equal. When
there is no ``cc``, the build fails, or ``__pycache__`` cannot be written,
the exported loops are the ``py_*`` twins (same results, 5-40x slower,
the most on the long paths).

The scalar evaluators (``poly``, ``safe_prob``, ``cost_off``, ``drift``)
are always the Python functions: a foreign call per evaluation would cost
more than it saves.

Schedule family codes used by the loop kernels (``py_step`` is the one
Python definition of b(n)):
  0 -> 1/n, 1 -> 1/(1 + n*log n), 2 -> 1/n**2, 3 -> constant h.
"""

import ctypes
import math
import os
import shutil
import zlib

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_kernels.c")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def py_poly(coeffs, y):
    """Evaluate sum_n coeffs[n] * y**n by Horner's scheme."""
    acc = 0.0
    for c in reversed(coeffs.tolist()):
        acc = acc * y + c
    return acc


def py_safe_prob(coeffs, y):
    """Probability mass of the non-propagating outcomes at Poisson scale y."""
    return math.exp(-y) * py_poly(coeffs, y)


def py_cost_off(coeffs, y, big_k):
    """Expected cost of an unprotected player, clamped into [0, big_k]."""
    u = big_k * (1.0 - py_safe_prob(coeffs, y))
    if u < 0.0:
        u = 0.0
    elif u > big_k:
        u = big_k
    return u


def py_drift(coeffs, lam, big_k, price, p, eps):
    """Replicator right-hand side (1/eps) * p(1-p) * (price - cost_off)."""
    return p * (1.0 - p) * (price - py_cost_off(coeffs, lam * p, big_k)) / eps


def py_step(family, h, n):
    """Step size b(n), n >= 1, of schedule family code ``family``."""
    if family == 0:
        return 1.0 / n
    if family == 1:
        return 1.0 / (1.0 + n * math.log(n))
    if family == 2:
        return 1.0 / (n * n)
    return h


def halving_step(p, step):
    """p + step, with the step halved until the iterate stays strictly
    inside (0, 1) or stops moving (an absorbing clamp at 0/1 would freeze
    the dynamics there)."""
    pn = p + step
    while pn <= 0.0 or pn >= 1.0:
        step *= 0.5
        pn = p + step
        if pn == p:
            break
    return pn


def py_bisect_root(coeffs, lam, target, tol, max_iter):
    """Bisect exp(-lam*p) * poly(lam*p) = target on [0, 1].

    The bracket presumes value(0)=1 > target and value(1) < target
    (monotone decreasing safe mass). Returns (root, iterations, ok) where
    ok=False signals a non-finite evaluation.
    """
    lo = 0.0
    hi = 1.0
    it = 0
    while hi - lo > tol and it < max_iter:
        mid = 0.5 * (lo + hi)
        val = py_safe_prob(coeffs, lam * mid)
        if not math.isfinite(val):
            return 0.5 * (lo + hi), it, False
        if val > target:
            lo = mid
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi), it, True


def py_discrete_path(coeffs, lam, big_k, price, p0, n_max, tol, family, h,
                     stride, cap):
    """Euler replicator iteration p += b(n) p(1-p)(price - cost_off).

    Steps that would leave the open unit interval are halved until the
    iterate stays strictly inside. Convergence: |p_{n+1} - p_n| / b(n) <
    tol, i.e. the unguarded drift magnitude falls below tol.

    Returns (index_array, p_array, n_stored, n_total, converged, p_final);
    the path is subsampled with the given stride but always contains the
    first and last points.
    """
    idx = np.empty(cap, dtype=np.float64)
    path = np.empty(cap, dtype=np.float64)
    idx[0] = 0.0
    path[0] = p0
    m = 1
    p = p0
    converged = False
    n_done = 0
    for n in range(1, n_max + 1):
        drift = py_drift(coeffs, lam, big_k, price, p, 1.0)
        n_done = n
        if abs(drift) < tol:
            converged = True
            break
        p = halving_step(p, py_step(family, h, n) * drift)
        if n % stride == 0 and m < cap - 1:
            idx[m] = float(n)
            path[m] = p
            m += 1
    if idx[m - 1] != float(n_done) or path[m - 1] != p:
        idx[m] = float(n_done)
        path[m] = p
        m += 1
    return idx[:m], path[:m], m, n_done, converged, p


def py_rk4_path(coeffs, lam, big_k, price, p0, dt, n_max, eps, tol, stride,
                cap):
    """Classical fourth-order fixed-step integration of the replicator ODE.

    Accepted points are clamped into [0, 1] (stage evaluations may step
    slightly outside near the boundary; the payoff expression extends
    smoothly). Stops early once |rhs| < tol and |delta p| < tol*dt.

    Returns (t_array, p_array, n_stored, n_total, converged, p_final).
    """
    ts = np.empty(cap, dtype=np.float64)
    path = np.empty(cap, dtype=np.float64)
    ts[0] = 0.0
    path[0] = p0
    m = 1
    p = p0
    converged = False
    n_done = 0
    for n in range(1, n_max + 1):
        k1 = py_drift(coeffs, lam, big_k, price, p, eps)
        k2 = py_drift(coeffs, lam, big_k, price, p + 0.5 * dt * k1, eps)
        k3 = py_drift(coeffs, lam, big_k, price, p + 0.5 * dt * k2, eps)
        k4 = py_drift(coeffs, lam, big_k, price, p + dt * k3, eps)
        pn = p + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if pn < 0.0:
            pn = 0.0
        elif pn > 1.0:
            pn = 1.0
        dp = pn - p
        p = pn
        n_done = n
        if n % stride == 0 and m < cap - 1:
            ts[m] = n * dt
            path[m] = p
            m += 1
        rhs = py_drift(coeffs, lam, big_k, price, p, eps)
        if abs(rhs) < tol and abs(dp) < tol * dt:
            converged = True
            break
    if ts[m - 1] != n_done * dt or path[m - 1] != p:
        ts[m] = n_done * dt
        path[m] = p
        m += 1
    return ts[:m], path[:m], m, n_done, converged, p


def py_equilibrate(coeffs, lam, big_k, price, p0, gain, tol, n_max):
    """Constant-gain replicator iteration run to its rest point.

    Used by the nested controller to re-equilibrate the population after a
    price move; geometric convergence makes it cheap to call per probe.
    This is ``py_discrete_path`` at the constant step ``gain``, keeping no
    path. It is called by that name, not as the exported ``discrete_path``,
    so a wrapper around the export (the benchmark's tracer) does not count
    these steps as replicator paths. Returns (p_final, steps, converged).
    """
    _, _, _, steps, converged, p = py_discrete_path(
        coeffs, lam, big_k, price, p0, n_max, tol, 3, gain, 1, 2)
    return p, steps, converged


poly = py_poly
safe_prob = py_safe_prob
cost_off = py_cost_off
drift = py_drift

# The compiled library in use, or None when the py_* loops are exported.
LIB = None

_PTR = ctypes.c_void_p
_D = ctypes.c_double
_LL = ctypes.c_longlong
_LLP = ctypes.POINTER(_LL)
_IP = ctypes.POINTER(ctypes.c_int)
_DP = ctypes.POINTER(_D)
# name -> (restype, argtypes) of every function _kernels.c exports
_SIGNATURES = {
    "poly": (_D, [_PTR, _LL, _D]),
    "safe_prob": (_D, [_PTR, _LL, _D]),
    "cost_off": (_D, [_PTR, _LL, _D, _D]),
    "drift": (_D, [_PTR, _LL, _D, _D, _D, _D, _D]),
    "bisect_root": (_D, [_PTR, _LL, _D, _D, _D, _LL, _LLP, _IP]),
    "discrete_path": (_LL, [_PTR, _LL, _D, _D, _D, _D, _LL, _D, ctypes.c_int,
                            _D, _LL, _LL, _PTR, _PTR, _LLP, _IP, _DP]),
    "rk4_path": (_LL, [_PTR, _LL, _D, _D, _D, _D, _D, _LL, _D, _D, _LL, _LL,
                       _PTR, _PTR, _LLP, _IP, _DP]),
    "equilibrate": (_D, [_PTR, _LL, _D, _D, _D, _D, _D, _D, _LL, _LLP,
                         _IP]),
}


def load_library(cache_dir=CACHE_DIR):
    """The compiled kernels from cache_dir, built there first if missing.

    Returns a ctypes library with its signatures set, or None when the
    source is missing, no ``cc`` is found, the cache directory cannot be
    written, or the build fails. A failed build leaves its compiler output
    in ``<name>.err`` and is not retried until the source or flags change.
    """
    try:
        with open(SOURCE, "rb") as fh:
            key = zlib.crc32(" ".join(CFLAGS).encode(), zlib.crc32(fh.read()))
    except OSError:
        return None
    lib_path = os.path.join(cache_dir, f"_kernels.{key:08x}.so")
    if not os.path.exists(lib_path) and not _build(lib_path):
        return None
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError:
        return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _build(lib_path):
    """Compile SOURCE to lib_path through a temporary file; True on
    success."""
    import subprocess
    import tempfile

    if os.path.exists(lib_path + ".err"):
        return False
    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so",
                                   dir=os.path.dirname(lib_path))
        os.close(fd)
    except OSError:
        return False
    try:
        proc = subprocess.run([cc, *CFLAGS, "-o", tmp, SOURCE, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            os.chmod(tmp, 0o755)    # mkstemp made it private to its owner
            os.replace(tmp, lib_path)
            return True
        with open(lib_path + ".err", "w") as fh:
            fh.write(proc.stderr)
        return False
    except OSError:
        return False
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def use_library(lib):
    """Export lib's loop kernels, or the py_* twins when lib is None."""
    global LIB, bisect_root, discrete_path, rk4_path, equilibrate
    LIB = lib
    if lib is None:
        bisect_root, discrete_path, rk4_path, equilibrate = (
            py_bisect_root, py_discrete_path, py_rk4_path, py_equilibrate)
    else:
        bisect_root, discrete_path, rk4_path, equilibrate = (
            c_bisect_root, c_discrete_path, c_rk4_path, c_equilibrate)


def _coeffs(coeffs):
    """(array, pointer, length): the caller keeps the array alive while C
    reads through the pointer."""
    c = np.ascontiguousarray(coeffs, dtype=np.float64)
    return c, c.ctypes.data, c.shape[0]


def c_bisect_root(coeffs, lam, target, tol, max_iter):
    """``py_bisect_root`` in C."""
    c, ptr, nc = _coeffs(coeffs)
    iters, ok = _LL(), ctypes.c_int()
    root = LIB.bisect_root(ptr, nc, lam, target, tol, max_iter,
                           ctypes.byref(iters), ctypes.byref(ok))
    return root, iters.value, bool(ok.value)


def _c_path(kernel, coeffs, lam, big_k, price, p0, middle, stride, cap):
    # C has no bounds check: it writes up to cap points and takes n % stride
    if stride < 1 or cap < 2:
        raise ValueError(f"need stride >= 1 and cap >= 2, got {stride}, {cap}")
    c, ptr, nc = _coeffs(coeffs)
    xs = np.empty(cap, dtype=np.float64)
    path = np.empty(cap, dtype=np.float64)
    n_total, converged, p_final = _LL(), ctypes.c_int(), _D()
    m = kernel(ptr, nc, lam, big_k, price, p0, *middle, stride, cap,
               xs.ctypes.data, path.ctypes.data, ctypes.byref(n_total),
               ctypes.byref(converged), ctypes.byref(p_final))
    return (xs[:m], path[:m], m, n_total.value, bool(converged.value),
            p_final.value)


def c_discrete_path(coeffs, lam, big_k, price, p0, n_max, tol, family, h,
                    stride, cap):
    """``py_discrete_path`` in C."""
    return _c_path(LIB.discrete_path, coeffs, lam, big_k, price, p0,
                   (n_max, tol, family, h), stride, cap)


def c_rk4_path(coeffs, lam, big_k, price, p0, dt, n_max, eps, tol, stride,
               cap):
    """``py_rk4_path`` in C."""
    return _c_path(LIB.rk4_path, coeffs, lam, big_k, price, p0,
                   (dt, n_max, eps, tol), stride, cap)


def c_equilibrate(coeffs, lam, big_k, price, p0, gain, tol, n_max):
    """``py_equilibrate`` in C."""
    c, ptr, nc = _coeffs(coeffs)
    steps, converged = _LL(), ctypes.c_int()
    p = LIB.equilibrate(ptr, nc, lam, big_k, price, p0, gain, tol, n_max,
                        ctypes.byref(steps), ctypes.byref(converged))
    return p, steps.value, bool(converged.value)


use_library(load_library())
