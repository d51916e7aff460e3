"""Pointwise stress-tensor integrands: the slow route to the force.

Evaluates, at a single point x in one of the vacuum regions, the spectral
integrands of the steady energy-momentum expectation value: the bath-driven
part (slab sources with per-slab temperatures) and the state-driven part
(initial field spectrum carried by the two scattering modes).  The
exterior-minus-gap difference of these pointwise values must reproduce the
closed-form force integrands of the kernel module; the tests use this as a
cross-check, so this module deliberately assembles everything from the
scattering amplitudes and the Green-function rows rather than from the
pre-reduced kernel formulas.

The slab source integrals (over the source coordinate inside each slab) are
done in closed form by pairing exponentials (slab_mod_integral), over the
two anchored waves that ``ScatteringSet.profile`` gives in each slab: the
left-incident mode for a point in the left exterior, the Green function's
source profile for a point in the gap.  Only the set's public fields and
that method are read.  Within a homogeneous vacuum region the xx integrands
are position independent: the oscillatory cross terms of |d_x G|^2 and
omega^2 |G|^2 cancel identically.  The bath integrand reads a point in the
right exterior as its mirror image in the reflected cavity.

Components: "xx" (pressure) is the primary output; "tt" (energy density,
pointwise equal to "xx" for this conformal field) and "tx" (energy flux,
positive toward +x) ride on the same bracket evaluator.
"""

import math

from ._value import Frozen
from .errors import RegionUnsupportedError
from .kernels import core
from .material import fd_weight
from .modes import (
    EXT_LEFT,
    EXT_RIGHT,
    GAP,
    PHI_GREATER,
    PHI_LESS,
    ModeFunction,
    cavity_coefficients,
    classify_region,
    mode_deriv,
    mode_eval,
)
from .states import weight

_SUPPORTED = (EXT_LEFT, GAP, EXT_RIGHT)
_COMPONENTS = ("xx", "tt", "tx")


class RegionPoint(Frozen):
    """Evaluation point with its region label.

    The label must agree with the cavity layout; the integrand functions
    validate it against classify_region and reject points inside a slab.
    """

    __slots__ = ("x", "region")

    def __init__(self, x, region):
        self._assign(x, region)

    @classmethod
    def locate(cls, cfg, x):
        """Build a RegionPoint with the label inferred from the layout."""
        return cls(x, classify_region(cfg, x))


def _check_point(cfg, p):
    actual = classify_region(cfg, p.x)
    if actual != p.region:
        raise RegionUnsupportedError(
            "RegionPoint label %r does not match the layout (x = %g lies in"
            " %r)" % (p.region, p.x, actual))
    if p.region not in _SUPPORTED:
        raise RegionUnsupportedError(
            "stress evaluation inside a slab is unsupported (x = %g)" % p.x)


def slab_mod_integral(P, Q, n, d, omega):
    """int_0^d |P e^{-s n u} + Q e^{s n (u - 2d)}|^2 du at s = -i omega.

    Both exponentials are bounded by 1 on the slab (the backward amplitude Q
    is anchored at the far face), so the closed form stays finite for
    arbitrarily opaque slabs.  Handles the transparent (Im n -> 0) and
    stop-band (Re n -> 0) limits explicitly.
    """
    gam = omega * n.imag
    x = 2.0 * gam * d
    if x > 1400.0:
        em, em1 = 0.0, 1.0
    else:
        em = math.exp(-x)
        em1 = -math.expm1(-x)
    decay = d * (em1 / x) if x > 0.0 else d  # == em1 / (2 gam)
    total = (abs(P) ** 2 + abs(Q) ** 2 * em) * decay
    if em > 0.0:
        pq = P * complex(Q).conjugate()
        re_n = n.real
        if re_n == 0.0:
            total += 2.0 * d * em * pq.real
        else:
            th = 2.0 * omega * re_n * d
            e2it = complex(math.cos(th), math.sin(th))
            total += (em * (pq * (1.0 - e2it.conjugate())).imag
                      / (omega * re_n))
    return total


def _bath_terms(sset, region, component):
    """[(side, x_profile_factor, source_integral)] rows for a point in the
    left exterior or the gap.

    The x-profile factor is sum_j sigma_j |c_j|^2 over the two plane-wave
    coefficients of the Green function's x dependence (sigma = +1, +1 for
    xx/tt; +1 for the rightward and -1 for the leftward wave for tx): e^{sx}
    in the left exterior, and in the gap (e^{-sx} + rR e^{s(x-a)})/Delta
    for a source left of x, (e^{sx} + rL e^{-s(x+a)})/Delta for one right of
    it.  The source integral is the closed-form slab integral of the
    squared x'-profile, the set's anchored profile of that slab.
    """
    d, w = sset.cfg.width, abs(sset.omega)
    sign = -1.0 if component == "tx" else 1.0
    gap = region == GAP
    if gap:
        scale = abs(sset.delta) ** -2
        moduli = ((1.0, abs(sset.rR) ** 2), (abs(sset.rL) ** 2, 1.0))
    else:
        scale, moduli = 1.0, ((0.0, 1.0), (0.0, 1.0))
    rows = []
    for side, (fwd, bwd) in zip("LR", moduli):
        pre, a, b, n = sset.profile(side, gap)
        rows.append((side, (fwd + sign * bwd) * scale,
                     abs(pre) ** 2 * slab_mod_integral(a, b, n, d, w)))
    return rows


def txx_bath_integrand(cfg, temps, p, omega, component="xx"):
    """Frequency integrand of the steady bath-driven stress at point p.

    temps is the pair (betaL, betaR) of inverse slab temperatures; each
    slab's source strength carries its own coth(beta omega / 2).  Returns a
    real value; integrating over omega > 0 gives the component's expectation
    value up to the overall constant shared with the closed-form force
    integrands (their exterior-minus-gap identity is exact).
    """
    if component not in _COMPONENTS:
        raise ValueError("unknown component %r" % component)
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    _check_point(cfg, p)
    if p.region == EXT_RIGHT:
        q = RegionPoint(-p.x, EXT_LEFT)
        val = txx_bath_integrand(cfg.mirrored(), (temps[1], temps[0]), q,
                                 omega, component)
        return -val if component == "tx" else val
    betaL, betaR = temps
    sset = cavity_coefficients(cfg, omega)
    total = 0.0
    for side, cfac, integ in _bath_terms(sset, p.region, component):
        mat = cfg.left if side == "L" else cfg.right
        beta = betaL if side == "L" else betaR
        fw = fd_weight(mat, omega)
        if fw == 0.0:
            continue
        total += (core.coth_half(beta, omega) * omega * omega * fw
                  * cfac * integ)
    return total


def txx_ic_integrand(cfg, state, p, k, component="xx"):
    """Wavenumber integrand of the state-driven stress at point p.

    Sums the two scattering modes pointwise: for each mode Phi the xx/tt
    bracket is (k^2 |Phi|^2 + |Phi'|^2)/2 and the tx bracket is
    k Im[conj(Phi) Phi']; the total carries the state weight over the mode
    frequency, weight(state, k)/k.
    """
    if component not in _COMPONENTS:
        raise ValueError("unknown component %r" % component)
    if not k > 0.0:
        raise ValueError("k must be positive")
    _check_point(cfg, p)
    sset = cavity_coefficients(cfg, k)
    total = 0.0
    for kind in (PHI_GREATER, PHI_LESS):
        mode = ModeFunction(kind, sset)
        v = mode_eval(mode, p.x)
        dv = mode_deriv(mode, p.x)
        if component == "tx":
            total += k * (v.conjugate() * dv).imag
        else:
            total += 0.5 * (k * k * abs(v) ** 2 + abs(dv) ** 2)
    return weight(state, k) * total / k


def pressure_difference(cfg, temps, state, omega_grid):
    """Cross-check [exterior - gap] pointwise stress against closed forms.

    For every grid value the state-driven difference is compared with
    k * weight(state, k) * ic_bracket and the bath-driven difference with
    bath_integrand.  Returns (ic_check, bath_check): the maximum relative
    deviations, each scaled by the largest of the three quantities compared
    so that identically-zero pairs report exactly 0.0.
    """
    grid = list(omega_grid)
    if not grid:
        raise ValueError("omega_grid must not be empty")
    a, d = cfg.gap, cfg.width
    matL, matR = cfg.left.as_tuple(), cfg.right.as_tuple()
    betaL, betaR = temps
    p_ext = RegionPoint(cfg.interfaces[0] - 0.37 * a, EXT_LEFT)
    p_gap = RegionPoint(0.11 * a, GAP)
    dev_ic = 0.0
    dev_bath = 0.0
    for w in grid:
        s_ext = txx_ic_integrand(cfg, state, p_ext, w)
        s_gap = txx_ic_integrand(cfg, state, p_gap, w)
        closed = w * weight(state, w) * core.ic_bracket(w, a, d, matL, matR)
        scale = max(abs(closed), abs(s_ext), abs(s_gap), 1e-300)
        dev_ic = max(dev_ic, abs(s_ext - s_gap - closed) / scale)
        b_ext = txx_bath_integrand(cfg, temps, p_ext, w)
        b_gap = txx_bath_integrand(cfg, temps, p_gap, w)
        closed_b = core.bath_integrand(w, a, d, matL, matR, betaL, betaR)
        scale_b = max(abs(closed_b), abs(b_ext), abs(b_gap), 1e-300)
        dev_bath = max(dev_bath, abs(b_ext - b_gap - closed_b) / scale_b)
    return dev_ic, dev_bath
