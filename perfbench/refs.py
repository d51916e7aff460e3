"""Reference values the benchmark checks the timed forces against.

Every reference is evaluated outside the timed region.  Temperature-free
parts are committed in ``reference.json`` (regenerate them with
``make_reference.py``); the temperature-dependent parts are exponentially
convergent finite-interval integrals computed here at tight tolerance, so a
seed that moves the temperatures still has a reference:

* equal temperatures: ``forces.equilibrium_matsubara`` at tight tolerance;
* the nonequilibrium pair: the zero-temperature total plus the thermal
  state excess and the bath excess (Antezza, Pitaevskii, Stringari and
  Svetovoy, PRA 77, 022901 (2008)) -- the force is linear in the occupation
  weights, and coth(beta k / 2) - 1 decays exponentially;
* the sweep: committed vacuum state force and band excesses, plus the
  Matsubara total and the thermal state excess at the run's temperature.

Each function returns ``(value, error_estimate)``.
"""

import json
import math
import os

from casimir1d import forces
from casimir1d.kernels import core
from casimir1d.quadrature import QuadratureSpec, integrate_interval

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
EXCESS = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
# Past beta*k = 120 the occupation excess is below e^-120 of the integrand.
_CUTOFF = 120.0


def load():
    """The committed temperature-free reference values."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _response_points(cfg, hi):
    pts = set()
    for m in (cfg.left, cfg.right):
        for x in (m.omega0 - m.gamma0, m.omega0, m.omega0 + m.gamma0):
            if 0.0 < x < hi:
                pts.add(x)
    return tuple(sorted(pts))


def matsubara(cfg, beta):
    """Equal-temperature total force as a Matsubara pole sum."""
    return forces.equilibrium_matsubara(cfg, beta, TIGHT)


def state_excess(cfg, beta):
    """Thermal-minus-vacuum state force: the integral of
    k * 2/(e^{beta k} - 1) * ic_bracket(k) over k > 0."""
    a, d = cfg.gap, cfg.width
    tl, tr = cfg.left.as_tuple(), cfg.right.as_tuple()

    def g(k):
        x = beta * k
        if x > _CUTOFF:
            return 0.0
        return k * (2.0 / math.expm1(x)) * core.ic_bracket(k, a, d, tl, tr)

    hi = _CUTOFF / beta
    return integrate_interval(g, 0.0, hi, EXCESS,
                              breakpoints=_response_points(cfg, hi))


def bath_excess(cfg, beta_left, beta_right):
    """Bath force at (beta_left, beta_right) minus the zero-temperature one."""
    a, d = cfg.gap, cfg.width
    tl, tr = cfg.left.as_tuple(), cfg.right.as_tuple()
    inf = math.inf

    def g(k):
        return (core.bath_integrand(k, a, d, tl, tr, beta_left, beta_right)
                - core.bath_integrand(k, a, d, tl, tr, inf, inf))

    hi = _CUTOFF / min(beta_left, beta_right)
    return integrate_interval(g, 0.0, hi, EXCESS,
                              breakpoints=_response_points(cfg, hi))


def noneq_total(zero_t, cfg, beta_state, beta_left, beta_right):
    """Total force from the committed zero-temperature total ``zero_t``
    (a ``[value, err]`` pair) and the two thermal excesses."""
    s, es = state_excess(cfg, beta_state)
    b, eb = bath_excess(cfg, beta_left, beta_right)
    return zero_t[0] + s + b, zero_t[1] + es + eb


def sweep_ratios(f_vac, excesses, cfg, beta):
    """Reference ``(ratio_ic, ratio_total)`` rows of the sigma sweep.

    ``f_vac`` is the committed vacuum state force and ``excesses`` the
    committed band excesses, both ``[value, err]`` pairs.  With the thermal
    state force f_th = f_vac + S and the bath force f_b = M - f_th (M the
    Matsubara total):  ratio_ic = f_th / (f_vac + X) and
    ratio_total = M / (M + X - S).  Each ratio comes with its propagated
    error estimate: ``[(r_ic, e_ic, r_tot, e_tot), ...]``.
    """
    m, em = matsubara(cfg, beta)
    s, es = state_excess(cfg, beta)
    v, ev = f_vac
    rows = []
    for x, ex in excesses:
        num, den = v + s, v + x
        r_ic = num / den
        e_ic = abs(r_ic) * ((ev + es) / abs(num) + (ev + ex) / abs(den))
        den_t = m + x - s
        r_tot = m / den_t
        e_tot = abs(r_tot) * (em / abs(m) + (em + ex + es) / abs(den_t))
        rows.append((r_ic, e_ic, r_tot, e_tot))
    return rows
