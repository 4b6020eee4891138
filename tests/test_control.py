import numpy as np
import pytest

from evopoisson import (ControlMode, ParameterError, PayoffEngine,
                        StepFamily, StepSchedule, concavity_check,
                        optimize_exact, revenue, run_two_timescale,
                        spsa_gradient)

from conftest import learning_model

GOOD = StepSchedule(StepFamily.INV_N_LOG_N)


@pytest.mark.parametrize("family,triple", [
    (StepFamily.INV_N_LOG_N, (True, True, True)),
    (StepFamily.INV_N, (True, True, False)),
    (StepFamily.INV_N_SQ, (False, True, None)),
])
def test_validate_schedule(family, triple):
    sched = StepSchedule(family)
    assert (sched.sums_to_infinity, sched.square_summable,
            sched.slower_than_inv_n) == triple
    assert sched.valid_for_control == (triple == (True, True, True))


def test_validate_schedule_rejects_non_schedule(learning_engine):
    with pytest.raises(ParameterError):
        run_two_timescale(learning_engine, "1/n", n_outer=5)


def test_revenue_endpoints(pricing_engine):
    assert revenue(pricing_engine, 0.0) == 0.0
    assert revenue(pricing_engine, 10.0) == 0.0  # dominance: p* = 1
    assert revenue(pricing_engine, 12.0) == 0.0
    with pytest.raises(ParameterError):
        revenue(pricing_engine, -1.0)


def test_revenue_single_peak(pricing_engine):
    grid = np.linspace(0.25, 9.75, 39)
    vals = np.array([revenue(pricing_engine, float(c)) for c in grid])
    peak = int(np.argmax(vals))
    assert 0 < peak < len(grid) - 1
    assert np.all(np.diff(vals[:peak + 1]) > 0.0)
    assert np.all(np.diff(vals[peak:]) < 0.0)


def test_concavity_check_upper_half(pricing_engine):
    # stop short of the plateau where the price has driven everyone
    # unprotected and revenue is pinned at zero
    report = concavity_check(pricing_engine, 5.0, 9.9, n_points=200)
    assert report.all_concave_above
    assert report.concave_from == 5.0
    assert np.all(report.second_diffs < 0.0)


def test_concavity_check_reports_convex_kink(pricing_engine):
    # a grid straddling the zero-revenue plateau shows the convex junction
    report = concavity_check(pricing_engine, 5.0, 10.0, n_points=200)
    assert not report.all_concave_above
    assert report.second_diffs[-1] > 0.0


def test_concavity_check_rejects_degenerate(pricing_engine):
    with pytest.raises(ParameterError):
        concavity_check(pricing_engine, 5.0, 5.0)
    with pytest.raises(ParameterError):
        concavity_check(pricing_engine, 5.0, 6.0, n_points=2)


def test_optimize_exact_quadratic_hook(pricing_engine):
    c_star, r_star = optimize_exact(pricing_engine, tol=1e-9,
                                    revenue_fn=lambda c: c * (10.0 - c))
    assert c_star == pytest.approx(5.0, abs=1e-7)
    assert r_star == pytest.approx(25.0, abs=1e-10)


def test_optimize_exact_monotone_hook(pricing_engine):
    c_star, _ = optimize_exact(pricing_engine, tol=1e-7,
                               revenue_fn=lambda c: 3.0 * c)
    assert c_star == pytest.approx(10.0, abs=1e-5)
    c_star, _ = optimize_exact(pricing_engine, tol=1e-7,
                               revenue_fn=lambda c: -c)
    assert c_star == pytest.approx(0.0, abs=1e-5)


def test_optimize_exact_matches_dense_scan(pricing_engine):
    c_star, _ = optimize_exact(pricing_engine, tol=1e-6)
    grid = np.linspace(0.0, 10.0, 10_001)
    vals = [revenue(pricing_engine, float(c)) for c in grid]
    dense = float(grid[int(np.argmax(vals))])
    assert abs(c_star - dense) < 2e-3


class _FixedRng:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_spsa_gradient_exact_for_affine():
    for draw in (0.2, 0.9):  # both perturbation signs
        grad = spsa_gradient(lambda c: 3.0 * c - 1.0, 2.0, 0.1,
                             _FixedRng([draw]))
        assert grad == pytest.approx(3.0, rel=1e-12)


def test_spsa_gradient_quadratic_branches():
    up = spsa_gradient(lambda c: c * c, 1.0, 0.1, _FixedRng([0.0]))
    down = spsa_gradient(lambda c: c * c, 1.0, 0.1, _FixedRng([0.99]))
    assert up == pytest.approx(2.1, rel=1e-12)
    assert down == pytest.approx(1.9, rel=1e-12)
    # the two branches average to the central difference, here the exact
    # derivative; the one-sample bias cancels in expectation
    assert 0.5 * (up + down) == pytest.approx(2.0, rel=1e-12)


def test_spsa_gradient_rejects_bad_delta():
    with pytest.raises(ParameterError):
        spsa_gradient(lambda c: c, 1.0, 0.0, _FixedRng([0.1]))


def test_two_timescale_quadratic_hook_converges(learning_engine):
    hook = lambda c: c * (10.0 - c)
    for mode in (ControlMode.NESTED, ControlMode.COUPLED):
        for sched in (GOOD, StepSchedule(StepFamily.INV_N)):
            state = run_two_timescale(learning_engine, sched, c0=1.5,
                                      n_outer=2000, mode=mode, seed=3,
                                      revenue_hook=hook)
            assert abs(state.price - 5.0) < 1e-2, (mode, sched.family)


def test_two_timescale_deterministic(learning_engine):
    runs = [run_two_timescale(learning_engine, GOOD, c0=1.5, n_outer=120,
                              mode=ControlMode.NESTED, seed=11)
            for _ in range(2)]
    for col in ("trace_n", "trace_price", "trace_revenue", "trace_sign",
                "trace_population"):
        a, b = getattr(runs[0], col), getattr(runs[1], col)
        assert np.array_equal(a, b)


def test_two_timescale_bounded(learning_engine):
    state = run_two_timescale(learning_engine, GOOD, c0=9.5, n_outer=200,
                              mode=ControlMode.NESTED, seed=5)
    assert np.max(np.abs(state.trace_price)) <= 10.0
    assert state.delta <= state.price <= 10.0 - state.delta


def test_two_timescale_annotates_invalid_schedule(learning_engine):
    state = run_two_timescale(learning_engine, StepSchedule(StepFamily.INV_N),
                              c0=1.5, n_outer=5, mode=ControlMode.NESTED,
                              seed=0)
    assert not state.schedule.valid_for_control
    assert state.notes
    good = run_two_timescale(learning_engine, GOOD, c0=1.5, n_outer=5,
                             mode=ControlMode.NESTED, seed=0)
    assert good.schedule.valid_for_control
    assert not good.notes


def test_two_timescale_rejects_bad_start(learning_engine):
    with pytest.raises(ParameterError):
        run_two_timescale(learning_engine, GOOD, c0=0.0, n_outer=5)
    with pytest.raises(ParameterError):
        run_two_timescale(learning_engine, GOOD, c0=5.0, delta=6.0,
                          n_outer=5)


def test_coupled_trace_population_moves(learning_engine):
    state = run_two_timescale(learning_engine, GOOD, c0=4.0, n_outer=50,
                              mode=ControlMode.COUPLED, seed=1, p0=0.5)
    assert len(np.unique(state.trace_population)) > 1
    assert np.all((state.trace_population >= 0.0)
                  & (state.trace_population <= 1.0))


# (final price, last population share) after 60 iterations from c0=1.5
# with seed 7; compared exactly, so any change to the controller's
# floating-point operations shows.
GOLDEN = {
    (ControlMode.NESTED, StepFamily.INV_N):
        (7.853771760311091, 0.41647855151920454),
    (ControlMode.NESTED, StepFamily.INV_N_LOG_N):
        (7.387523552294984, 0.3843739449218472),
    (ControlMode.NESTED, StepFamily.INV_N_SQ):
        (5.853317170261057, 0.30377316313907243),
    (ControlMode.NESTED, StepFamily.CONSTANT):
        (5.3920452366703016, 0.2815427155222118),
    (ControlMode.COUPLED, StepFamily.INV_N): (9.9, 0.7431432514370427),
    (ControlMode.COUPLED, StepFamily.INV_N_LOG_N): (9.9, 0.7431432514370427),
    (ControlMode.COUPLED, StepFamily.INV_N_SQ): (9.9, 0.7431432514370427),
    (ControlMode.COUPLED, StepFamily.CONSTANT):
        (6.249534170746566, 0.2871577016317901),
}


@pytest.mark.parametrize("mode,family", sorted(
    GOLDEN, key=lambda k: (k[0].value, k[1].value)))
def test_two_timescale_golden(mode, family):
    state = run_two_timescale(PayoffEngine(learning_model()),
                              StepSchedule(family, h=0.01), c0=1.5,
                              n_outer=60, mode=mode, seed=7)
    assert (state.price, state.trace_population[-1]) == GOLDEN[mode, family]
