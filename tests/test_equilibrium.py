import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from evopoisson import (DomainError, EquilibriumKind, NumericalError,
                        PayoffEngine, SafeSetConvention, check_dominance,
                        closed_form_lambert, closed_form_log,
                        interior_exists, lambert_w_minus1, solve_equilibrium,
                        verify_ess)

from conftest import low_spread_model, single_type_model

# frozen: -(1 + W_{-1}(-0.2/e)) / 10, cross-checked against scipy lambertw
MID_TAU_P_STAR = 0.2994308347002122


def test_check_dominance():
    assert check_dominance(
        PayoffEngine(low_spread_model(price=5.0))).p_star == 1.0
    assert check_dominance(
        PayoffEngine(low_spread_model(price=6.0))).p_star == 1.0
    assert check_dominance(PayoffEngine(low_spread_model(price=4.0))) is None


def test_interior_exists_examples():
    eng = PayoffEngine(single_type_model(Fraction(1, 5)))
    # poly side at p=1 is sum_{k<=5} 10^k/k! = 1477.67 < 0.2 e^10 = 4405.3
    assert eng.poly_side(1.0) == pytest.approx(1477.6666666666667, rel=1e-12)
    assert interior_exists(eng)
    assert not interior_exists(PayoffEngine(
        single_type_model(Fraction(1, 5), price=4.9999999)))
    eng = PayoffEngine(single_type_model(Fraction(2), lam=1.0, price=0.1))
    assert interior_exists(eng)  # 1 < 0.98 e


def test_solve_matches_log_closed_form():
    eng = PayoffEngine(single_type_model(Fraction(2)))
    res = solve_equilibrium(eng)
    assert res.kind is EquilibriumKind.INTERIOR_MIXED
    assert res.p_star == pytest.approx(math.log(5.0) / 10.0, abs=1e-8)
    assert res.convention is SafeSetConvention.SELF_EXCLUSIVE


def test_solve_headline_values(low_spread_engine, low_spread_engine_lam20):
    res10 = solve_equilibrium(low_spread_engine)
    assert 1.0 - res10.p_star == pytest.approx(0.13, abs=0.03)
    res20 = solve_equilibrium(low_spread_engine_lam20)
    assert res20.p_star == pytest.approx(0.44, abs=0.03)


def test_solve_no_interior_returns_pure():
    eng = PayoffEngine(single_type_model(Fraction(4, 5), lam=2.0))
    assert not interior_exists(eng)
    res = solve_equilibrium(eng)
    assert res.p_star == 1.0
    assert res.kind is EquilibriumKind.PURE_OFF_DOMINANT


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_safe_mass_raises():
    # lam=5000, tau=1/2000: the safe-mass polynomial overflows to inf at
    # p=1 and e^{-y} * inf is NaN, which must not read as "no interior"
    eng = PayoffEngine(single_type_model(Fraction(1, 2000), lam=5000.0,
                                         price=1.0))
    with pytest.raises(NumericalError):
        interior_exists(eng)
    with pytest.raises(NumericalError):
        solve_equilibrium(eng)


def test_truncated_coefficients_raise():
    # tau=1/2000, lam=300: 1/n! goes subnormal from n=171 on, so the
    # coefficients drop almost all the safe mass. The true mass at p=1 is
    # about 1, above 1 - C/K = 0.8 (p*=1); the cut polynomial's root at
    # p=0.5557 is wrong.
    eng = PayoffEngine(single_type_model(Fraction(1, 2000), lam=300.0,
                                         price=1.0))
    assert eng.safe_set.underflow_total == 171
    with pytest.raises(NumericalError, match="underflow from total 171"):
        solve_equilibrium(eng)
    # far enough below the cut, the dropped tail is under the tolerance
    res = solve_equilibrium(PayoffEngine(single_type_model(
        Fraction(1, 2000), lam=50.0, price=1.0)))
    assert res.kind is EquilibriumKind.PURE_OFF_DOMINANT
    # dominance needs no coefficients, so it still answers
    res = solve_equilibrium(PayoffEngine(single_type_model(
        Fraction(1, 2000), lam=300.0, price=5.0)))
    assert res.p_star == 1.0


def test_exact_zero_coefficients_are_not_underflow():
    # a figure-2 cell with r=(0, 1): coeffs[6..20] are exact zeros (every
    # point there has x_1 > 0 and r_1 = 0), not underflow
    eng = PayoffEngine(low_spread_model(lam=30.0, r1=0.0))
    assert eng.safe_set.max_total == 20
    assert not eng.coeffs[6:].any()
    assert eng.safe_set.underflow_total is None
    res = solve_equilibrium(eng)
    assert res.p_star.hex() == "0x1.0ddb9f3780000p-2"


def test_residual_is_float(low_spread_engine):
    results = [
        solve_equilibrium(low_spread_engine),
        solve_equilibrium(PayoffEngine(low_spread_model(price=6.0))),
        closed_form_log(PayoffEngine(single_type_model(Fraction(2)))),
        closed_form_lambert(PayoffEngine(single_type_model(Fraction(4, 5)))),
    ]
    assert [r.kind for r in results] == [
        EquilibriumKind.INTERIOR_MIXED, EquilibriumKind.PURE_OFF_DOMINANT,
        EquilibriumKind.CLOSED_FORM_LOG, EquilibriumKind.CLOSED_FORM_LAMBERT]
    for r in results:
        assert type(r.residual) is float


def test_solve_free_protection():
    res = solve_equilibrium(PayoffEngine(low_spread_model(price=0.0)))
    assert res.p_star == 0.0


def test_indifference_at_interior(low_spread_engine):
    res = solve_equilibrium(low_spread_engine)
    u = low_spread_engine.expected_cost_off(res.p_star)
    assert abs(u - 4.0) <= 1e-8 * 5.0
    assert res.residual <= 1e-10  # interval tolerance of the bisection


def test_unique_sign_change(low_spread_engine):
    eng = low_spread_engine
    target = 1.0 - 4.0 / 5.0
    grid = np.linspace(0.0, 1.0, 10_001)
    vals = np.array([eng.safe_probability(float(p)) - target for p in grid])
    signs = np.sign(vals[vals != 0.0])
    assert int(np.sum(np.diff(signs) != 0)) == 1


def test_lambert_examples():
    assert lambert_w_minus1(-1.0 / math.e) == -1.0
    assert lambert_w_minus1(-2.0 * math.exp(-2.0)) == pytest.approx(
        -2.0, abs=1e-13)
    z = -4.0 * math.exp(-4.0)
    w = lambert_w_minus1(z)
    assert w == pytest.approx(-4.0, abs=1e-13)
    assert abs(w * math.exp(w) - z) <= 1e-13 * abs(z)


def test_lambert_domain_errors():
    for z in (0.0, 0.5, -1.0, -1.0 / math.e - 1e-9, math.nan):
        with pytest.raises(DomainError):
            lambert_w_minus1(z)
    # 1e-15 of slack at the branch point
    assert lambert_w_minus1(-1.0 / math.e - 5e-16) == -1.0


def test_lambert_residual_grid():
    zs = -np.logspace(math.log10(1e-12), math.log10(math.exp(-1) - 1e-12),
                      10_000)
    for z in zs:
        w = lambert_w_minus1(float(z))
        assert w <= -1.0
        assert abs(w * math.exp(w) - z) <= 1e-13 * abs(z)


def test_lambert_against_scipy():
    zs = -np.logspace(math.log10(1e-10), math.log10(0.3), 200)
    for z in zs:
        assert lambert_w_minus1(float(z)) == pytest.approx(
            scipy.special.lambertw(float(z), -1).real, rel=1e-12)


def test_closed_form_log():
    eng = PayoffEngine(single_type_model(Fraction(2)))
    res = closed_form_log(eng)
    assert res.kind is EquilibriumKind.CLOSED_FORM_LOG
    assert res.p_star == pytest.approx(0.16094379124341002, rel=1e-12)
    assert closed_form_log(
        PayoffEngine(single_type_model(Fraction(2), price=0.0))).p_star == 0.0
    clamped = closed_form_log(PayoffEngine(single_type_model(Fraction(2),
                                                             lam=1.0)))
    assert clamped.p_star == 1.0
    with pytest.raises(DomainError):
        closed_form_log(PayoffEngine(single_type_model(Fraction(1, 2))))
    with pytest.raises(DomainError):
        closed_form_log(PayoffEngine(single_type_model(Fraction(2),
                                                       price=5.0)))


def test_closed_form_lambert():
    eng = PayoffEngine(single_type_model(Fraction(4, 5)))
    res = closed_form_lambert(eng)
    assert res.kind is EquilibriumKind.CLOSED_FORM_LAMBERT
    assert res.p_star == pytest.approx(MID_TAU_P_STAR, rel=1e-12)
    # |poly_side - exp_side| at p*, i.e. the 1 + lam p = (1-C/K)e^{lam p}
    # defect the operation also checks internally
    assert res.residual <= 1e-8

    # toward free protection, z approaches the branch point and p* falls
    # off like sqrt(2 C/K)/lam rather than linearly
    tiny = closed_form_lambert(
        PayoffEngine(single_type_model(Fraction(4, 5), price=1e-8)))
    assert tiny.p_star == pytest.approx(math.sqrt(2.0 * 1e-8 / 5.0) / 10.0,
                                        rel=1e-3)

    with pytest.raises(DomainError):
        closed_form_lambert(PayoffEngine(single_type_model(Fraction(2))))


def test_closed_form_lambert_defers_without_interior():
    # formula value 2.994/2 = 1.497 > 1: falls back to the general solver
    eng = PayoffEngine(single_type_model(Fraction(4, 5), lam=2.0))
    res = closed_form_lambert(eng)
    assert res.kind is EquilibriumKind.PURE_OFF_DOMINANT
    assert res.p_star == 1.0


@pytest.mark.parametrize("tau_num,tau_den", [(11, 10), (3, 2), (3, 1), (5, 1)])
def test_log_form_agrees_with_bisection(tau_num, tau_den):
    for ck in (0.1, 0.5, 0.9):
        for lam in (2.0, 10.0, 30.0):
            eng = PayoffEngine(single_type_model(
                Fraction(tau_num, tau_den), lam=lam, price=5.0 * ck))
            cf = closed_form_log(eng)
            bi = solve_equilibrium(eng)
            assert abs(cf.p_star - bi.p_star) <= 1e-8


@pytest.mark.parametrize("tau_num,tau_den", [(55, 100), (7, 10), (9, 10),
                                             (1, 1)])
def test_lambert_form_agrees_with_bisection(tau_num, tau_den):
    for ck in (0.1, 0.5, 0.9):
        for lam in (2.0, 10.0, 30.0):
            eng = PayoffEngine(single_type_model(
                Fraction(tau_num, tau_den), lam=lam, price=5.0 * ck))
            cf = closed_form_lambert(eng)
            bi = solve_equilibrium(eng)
            assert abs(cf.p_star - bi.p_star) <= 1e-8


def test_pstar_monotone_in_price_and_lambda():
    # increasing-in-C reading (the opposite prose claim is not asserted);
    # lam * p_star is invariant in lam, giving an exact cross-check
    prices = np.linspace(0.5, 4.5, 9)
    stars = []
    for c in prices:
        res = solve_equilibrium(PayoffEngine(low_spread_model(price=float(c))))
        stars.append(res.p_star)
    assert np.all(np.diff(stars) > 0.0)

    # interior regime: lam must exceed the invariant lam * p_star (~8.77)
    lams = [10.0, 15.0, 20.0, 30.0]
    ystar = []
    for lam in lams:
        res = solve_equilibrium(PayoffEngine(low_spread_model(lam=lam)))
        ystar.append(lam * res.p_star)
    assert np.all(np.diff([y / lam for y, lam in zip(ystar, lams)]) < 0.0)
    np.testing.assert_allclose(ystar, ystar[0], rtol=1e-7)
    # below that the population saturates at p* = 1 (protection zero)
    assert solve_equilibrium(
        PayoffEngine(low_spread_model(lam=5.0))).p_star == 1.0


def test_verify_ess_interior(low_spread_engine):
    p_star = solve_equilibrium(low_spread_engine).p_star
    report = verify_ess(low_spread_engine, p_star,
                        q_grid=np.arange(0.05, 0.96, 0.05),
                        eps_grid=[0.01] + list(np.arange(0.05, 1.01, 0.05)))
    assert report.passed
    assert report.worst_margin > 1e-12
    assert report.checks > 0


def test_verify_ess_excludes_pstar(low_spread_engine):
    p_star = solve_equilibrium(low_spread_engine).p_star
    report = verify_ess(low_spread_engine, p_star, q_grid=[p_star],
                        eps_grid=[0.5])
    assert report.checks == 0
    assert not report.passed


def test_verify_ess_pure_dominant():
    eng = PayoffEngine(low_spread_model(price=6.0))
    report = verify_ess(eng, 1.0, q_grid=np.arange(0.05, 0.96, 0.05),
                        eps_grid=[0.1, 0.5, 1.0])
    assert report.passed
