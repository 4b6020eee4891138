"""The compiled C kernels and their pure-Python twins agree bit for bit."""

import ctypes
import os
import shutil

import numpy as np
import pytest

from evopoisson import _kernels as k
from evopoisson import solve_equilibrium
from evopoisson.payoff import PayoffEngine

from conftest import low_spread_model

COEFFS = np.array([1.0, 1.0, 0.5, 0.12, 0.01])
LOOPS = ("bisect_root", "discrete_path", "rk4_path", "equilibrate")
compiled = pytest.mark.skipif(
    k.LIB is None, reason="the compiled kernel library did not load")


@compiled
def test_scalar_kernels_match():
    ptr, nc = COEFFS.ctypes.data, COEFFS.shape[0]
    for y in np.linspace(0.0, 12.0, 97):
        y = float(y)
        assert k.LIB.poly(ptr, nc, y) == k.py_poly(COEFFS, y)
        assert k.LIB.safe_prob(ptr, nc, y) == k.py_safe_prob(COEFFS, y)
        assert k.LIB.cost_off(ptr, nc, y, 5.0) == k.py_cost_off(COEFFS, y,
                                                                 5.0)
    for p in np.linspace(0.0, 1.0, 41):
        p = float(p)
        for eps in (1.0, 0.3):
            assert k.LIB.drift(ptr, nc, 10.0, 5.0, 4.0, p, eps) == \
                k.py_drift(COEFFS, 10.0, 5.0, 4.0, p, eps)


@compiled
def test_bisect_kernel_matches():
    got = k.bisect_root(COEFFS, 10.0, 0.2, 1e-12, 200)
    assert got == k.py_bisect_root(COEFFS, 10.0, 0.2, 1e-12, 200)
    assert [type(v) for v in got] == [float, int, bool]


def _assert_paths_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2:] == want[2:]


@compiled
def test_path_kernels_match():
    for family in (0, 1, 2, 3):
        args = (COEFFS, 10.0, 5.0, 4.0, 0.35, 20_000, 1e-9, family, 0.05, 7,
                20_000)
        _assert_paths_equal(k.discrete_path(*args),
                            k.py_discrete_path(*args))

    for p0, dt, eps in ((0.05, 0.01, 1.0), (0.35, 0.05, 1.0),
                        (0.9, 0.02, 0.3)):
        args = (COEFFS, 10.0, 5.0, 4.0, p0, dt, 5_000, eps, 1e-9, 1, 5_004)
        _assert_paths_equal(k.rk4_path(*args), k.py_rk4_path(*args))

    args = (COEFFS, 10.0, 5.0, 4.0, 0.35, 0.1, 1e-10, 100_000)
    assert k.equilibrate(*args) == k.py_equilibrate(*args)
    # equilibrate is the constant-step discrete path, keeping its end point
    _, _, _, steps, converged, p = k.discrete_path(
        COEFFS, 10.0, 5.0, 4.0, 0.35, 100_000, 1e-10, 3, 0.1, 1, 2)
    assert k.equilibrate(*args) == (p, steps, converged)


def test_equilibrate_reaches_rest_point():
    p, steps, converged = k.py_equilibrate(COEFFS, 10.0, 5.0, 4.0, 0.5, 0.1,
                                           1e-10, 200_000)
    assert converged
    assert abs(k.py_drift(COEFFS, 10.0, 5.0, 4.0, p, 1.0)) < 1e-10


@pytest.fixture
def restore_kernels():
    saved = k.LIB
    yield
    k.use_library(saved)


def test_fallback_without_compiler(tmp_path, monkeypatch, restore_kernels):
    want = solve_equilibrium(PayoffEngine(low_spread_model()))
    monkeypatch.setattr(shutil, "which", lambda cmd: None)
    k.use_library(k.load_library(str(tmp_path)))
    assert k.LIB is None
    assert os.listdir(tmp_path) == []
    for name in LOOPS:
        assert getattr(k, name) is getattr(k, "py_" + name)
    result = solve_equilibrium(PayoffEngine(low_spread_model()))
    assert 0.0 < result.p_star < 1.0
    assert result.p_star == want.p_star


@compiled
def test_cached_library_loads_without_compiler(monkeypatch):
    def no_compiler(cmd):
        raise AssertionError("looked for a compiler")
    monkeypatch.setattr(shutil, "which", no_compiler)
    lib = k.load_library()
    assert isinstance(lib, ctypes.CDLL)
    assert lib._name == k.LIB._name


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_failed_build_is_not_retried(tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(k, "SOURCE", str(broken))
    cache = tmp_path / "cache"
    assert k.load_library(str(cache)) is None
    assert [p.suffix for p in cache.iterdir()] == [".err"]

    def no_compiler(cmd):
        raise AssertionError("retried a failed build")
    monkeypatch.setattr(shutil, "which", no_compiler)
    assert k.load_library(str(cache)) is None
