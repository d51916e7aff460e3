"""Adaptive quadrature and thermal summation backbone."""

import math

import pytest

from casimir1d.errors import NaNIntegrandError, NonConvergenceError
from casimir1d.quadrature import (
    QuadratureSpec,
    integrate_interval,
    integrate_semiinfinite,
    matsubara_sum,
)

SPEC = QuadratureSpec()


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(panel_width=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)


def test_exponential():
    val, err = integrate_semiinfinite(math.exp_neg if hasattr(math, "exp_neg")
                                      else (lambda k: math.exp(-k)), SPEC)
    assert abs(val - 1.0) <= 1e-10
    assert abs(val - 1.0) <= err  # error honesty


def test_oscillatory_closed_form():
    # k e^{-k} cos(2k) integrates to Re[1/(1-2i)^2] = -3/25
    f = lambda k: k * math.exp(-k) * math.cos(2.0 * k)
    val, err = integrate_semiinfinite(f, SPEC)
    assert abs(val - (-0.12)) <= 1e-10
    assert abs(val - (-0.12)) <= err


def test_zero_integrand():
    val, err = integrate_semiinfinite(lambda k: 0.0, SPEC)
    assert val == 0.0
    assert err == 0.0


def test_lower_bound():
    val, err = integrate_semiinfinite(lambda k: math.exp(-k), SPEC, lower=2.0)
    exact = math.exp(-2.0)
    assert abs(val - exact) <= max(err, 1e-12)


def test_divergent_raises():
    with pytest.raises(NonConvergenceError) as exc:
        integrate_semiinfinite(lambda k: 1.0 / (1.0 + k),
                               QuadratureSpec(max_panels=500))
    assert exc.value.panels == 500
    assert exc.value.partial is not None


def test_nan_reports_abscissa():
    def f(k):
        if k > 5.0:
            return float("nan")
        return math.exp(-k)

    with pytest.raises(NaNIntegrandError) as exc:
        integrate_semiinfinite(f, SPEC)
    assert exc.value.abscissa > 5.0


def test_determinism():
    f = lambda k: k * math.exp(-k) * math.cos(2.0 * k)
    a = integrate_semiinfinite(f, SPEC)
    b = integrate_semiinfinite(f, SPEC)
    assert a == b  # bit-identical


def test_interval_polynomial_exactness():
    # the 15-point Kronrod rule is exact through degree 22; a single panel
    # must nail k^20 on [0, 1]
    spec = QuadratureSpec(panel_width=1.0)
    val, err = integrate_interval(lambda k: k ** 20, 0.0, 1.0, spec)
    assert val == pytest.approx(1.0 / 21.0, rel=1e-14)


def test_interval_breakpoints():
    # a jump at k = 1 is invisible to the rule if it sits on a panel edge
    f = lambda k: 1.0 if k < 1.0 else 2.0
    spec = QuadratureSpec(panel_width=10.0)
    val, err = integrate_interval(f, 0.0, 2.0, spec, breakpoints=(1.0,))
    assert val == pytest.approx(3.0, rel=1e-14)
    assert err < 1e-12


def test_interval_empty():
    assert integrate_interval(lambda k: 1.0, 2.0, 2.0, SPEC) == (0.0, 0.0)


def test_interval_layout_beyond_max_panels_raises():
    # 100 panels of width 1 on [0, 100] against max_panels = 10: the layout
    # stops at the 11th panel and carries the sum of the panels it laid
    spec = QuadratureSpec(panel_width=1.0, max_panels=10)
    with pytest.raises(NonConvergenceError,
                       match="layout exceeds max_panels") as exc:
        integrate_interval(lambda k: 1.0, 0.0, 100.0, spec)
    assert exc.value.partial == 11.0
    assert exc.value.panels == 11


@pytest.mark.parametrize("bad, node", [(lambda k: k > 0.9, 0.99573),
                                       (lambda k: k < 0.1, 0.00427)],
                         ids=["upper", "lower"])
def test_interval_nan_off_the_panel_centre_reports_its_node(bad, node):
    # one panel on [0, 1], finite at its centre: its outermost Kronrod
    # nodes, 0.5 -+ 0.5 * 0.99146, are the first to return NaN
    with pytest.raises(NaNIntegrandError) as exc:
        integrate_interval(lambda k: math.nan if bad(k) else 1.0, 0.0, 1.0,
                           SPEC)
    assert exc.value.abscissa == pytest.approx(node, abs=1e-5)


def test_interval_oscillatory():
    # sin integrates to 1 - cos(20) over [0, 20]
    val, err = integrate_interval(math.sin, 0.0, 20.0, SPEC)
    exact = 1.0 - math.cos(20.0)
    assert abs(val - exact) <= max(err, 1e-12)


def test_matsubara_zero():
    val, err = matsubara_sum(lambda xi: 0.0, 2.0 * math.pi, SPEC)
    assert val == 0.0
    assert err == 0.0


def test_matsubara_geometric():
    # at beta = 2*pi the summation frequencies are the integers, so
    # e^{-xi} sums to 1/(e-1)
    val, err = matsubara_sum(lambda xi: math.exp(-xi), 2.0 * math.pi, SPEC)
    exact = 1.0 / math.expm1(1.0)
    assert abs(val - exact) <= max(err, 1e-12)
    assert abs(val - exact) <= 1e-10


def test_matsubara_coth_identity():
    # 1/x + sum_l 2x/(x^2 + (pi l)^2) = coth(x) at x = 1; with beta = 2*pi
    # the summand is g(xi) = 2/(1 + (pi xi)^2).  The 1/l^2 tail converges
    # slowly, so allow a large term budget; the reported error must still
    # bound the true truncation.
    spec = QuadratureSpec(max_panels=600000)
    val, err = matsubara_sum(lambda xi: 2.0 / (1.0 + (math.pi * xi) ** 2),
                             2.0 * math.pi, spec)
    exact = math.cosh(1.0) / math.sinh(1.0)  # 1.3130352854993313
    total = 1.0 + val
    assert abs(total - exact) <= err
    assert abs(total - exact) < 1e-5


def test_matsubara_nonconvergence():
    with pytest.raises(NonConvergenceError):
        matsubara_sum(lambda xi: 1.0 / xi, 2.0 * math.pi,
                      QuadratureSpec(max_panels=1000))


def test_matsubara_nan():
    def g(xi):
        return float("nan") if xi > 3.0 else math.exp(-xi)

    with pytest.raises(NaNIntegrandError):
        matsubara_sum(g, 2.0 * math.pi, SPEC)


def test_matsubara_beta_validation():
    with pytest.raises(ValueError):
        matsubara_sum(lambda xi: 0.0, -1.0, SPEC)


def test_band_switch_on_integrand():
    # an integrand that is zero on a few leading panels must not trigger
    # the tail criterion prematurely (minimum-march guard) ...
    f = lambda k: math.exp(-(k - 5.0)) if k >= 5.0 else 0.0
    val, err = integrate_semiinfinite(f, SPEC)
    assert val == pytest.approx(1.0, rel=1e-8)
    # ... while a far-away switch-on needs an explicit lower bound, which is
    # how the force module handles band-limited excess integrands
    g = lambda k: math.exp(-(k - 30.0)) if k >= 30.0 else 0.0
    val2, err2 = integrate_semiinfinite(g, SPEC, lower=30.0)
    assert val2 == pytest.approx(1.0, rel=1e-8)
