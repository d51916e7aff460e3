"""Adaptive Gauss-Kronrod quadrature over semi-infinite spectra, plus
convergent summation over thermal (Matsubara-type) frequencies.

The integrator marches fixed-width panels until three consecutive panel
contributions are negligible, then refines the worst panels (global heap)
until the accumulated error estimate meets the tolerance.  Panel width is
chosen by the caller so the fastest integrand oscillation completes at most
a quarter period per panel.  All reductions happen in a fixed deterministic
order; identical inputs give bit-identical results.
"""

import heapq
import math

from ._value import Frozen
from .errors import NaNIntegrandError, NonConvergenceError

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (standard QUADPACK dqk15 constants).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16
# A marched panel or a summed term counts as negligible below this fraction
# of the accumulated value (abs_tol floor); three in a row end the march.
_TAIL_THRESHOLD = 1e-12


class QuadratureSpec(Frozen):
    """Tolerances and panel layout of the adaptive integrator.

    ``panel_width`` is in inverse-gap units: choose pi/(2*a) so the gap
    round-trip phase advances at most a quarter period per panel (the default
    value assumes a = 1).
    """

    __slots__ = ("rel_tol", "abs_tol", "panel_width", "max_panels")

    def __init__(self, rel_tol=1e-9, abs_tol=1e-12, panel_width=math.pi / 2.0,
                 max_panels=100000):
        self._assign(rel_tol, abs_tol, panel_width, max_panels)

    def _check(self):
        for name in ("rel_tol", "abs_tol", "panel_width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))
        if self.max_panels < 1:
            raise ValueError("max_panels must be at least 1")


def _panel(f, lo, hi):
    """One Gauss-Kronrod pass over [lo, hi] -> (value, err_estimate).

    The error estimate follows the QUADPACK recipe: the Gauss/Kronrod
    difference, sharpened against the scaled deviation integral resasc so
    rough integrands are not underestimated.
    """
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = f(c)
    if not math.isfinite(fc):
        raise NaNIntegrandError(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fv = []
    for j in range(7):
        x = h * _XGK[j]
        f1 = f(c - x)
        if not math.isfinite(f1):
            raise NaNIntegrandError(c - x)
        f2 = f(c + x)
        if not math.isfinite(f2):
            raise NaNIntegrandError(c + x)
        fv.append((f1, f2))
        ss = f1 + f2
        resk += _WGK[j] * ss
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * ss
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j][0] - reskh) + abs(fv[j][1] - reskh))
    value = resk * h
    resabs *= abs(h)
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 2.2250738585072014e-308 / (50.0 * _EPS):
        err = max(_EPS * 50.0 * resabs, err)
    return value, err


def _refine(heap, acc, err_sum, f, spec, n_panels, trunc=0.0):
    """Split the worst panels until err_sum meets the tolerance
    max(abs_tol, rel_tol |acc|) -> (value, err_sum + trunc).

    ``trunc`` is an error the panels do not hold (a truncated tail); it
    joins the result but not the stopping test.

    Raises
    ------
    NonConvergenceError
        If the heap empties or max_panels is reached first; carries the
        partial value and error.
    """
    while err_sum > max(spec.abs_tol, spec.rel_tol * abs(acc)):
        if not heap or n_panels >= spec.max_panels:
            raise NonConvergenceError(
                "tolerance not reached after %d panels (err %.3e)"
                % (n_panels, err_sum + trunc),
                partial=acc, error=err_sum + trunc, panels=n_panels)
        neg_err, lo, hi, val, perr = heapq.heappop(heap)
        if perr <= 0.0 or hi - lo <= 16.0 * _EPS * max(abs(lo), 1.0):
            # nothing left to gain by splitting this panel
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        acc += (v1 + v2) - val
        err_sum += (e1 + e2) - perr
        n_panels += 1
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
    return acc, err_sum + trunc


def integrate_semiinfinite(f, spec, lower=0.0):
    """Integrate f over (lower, infinity) -> (value, err_estimate).

    Marches panels of spec.panel_width from ``lower`` until three consecutive
    panel contributions fall below _TAIL_THRESHOLD * |accumulated| (with an
    abs_tol floor so the identically-zero integrand terminates), estimates
    the discarded tail from the last panels, then refines the worst panels
    until their error meets the tolerances; the tail joins the estimate.

    Raises
    ------
    NonConvergenceError
        If max_panels is exhausted before the tail criterion or before the
        tolerance is met; carries the partial value/error.
    NaNIntegrandError
        If the integrand returns a non-finite value; carries the abscissa.
    """
    w = spec.panel_width
    heap = []
    acc = 0.0
    err_sum = 0.0
    n_panels = 0
    small_run = 0
    last3 = [0.0, 0.0, 0.0]
    x = lower
    # Minimum number of marched panels before the tail criterion may fire;
    # guards against integrands that switch on away from the endpoint.
    min_march = 8
    while True:
        if n_panels >= spec.max_panels:
            raise NonConvergenceError(
                "tail criterion not met after %d panels" % n_panels,
                partial=acc, error=err_sum, panels=n_panels)
        val, perr = _panel(f, x, x + w)
        heapq.heappush(heap, (-perr, x, x + w, val, perr))
        acc += val
        err_sum += perr
        n_panels += 1
        last3[n_panels % 3] = abs(val)
        if abs(val) <= _TAIL_THRESHOLD * max(abs(acc), spec.abs_tol):
            small_run += 1
        else:
            small_run = 0
        x += w
        if small_run >= 3 and n_panels >= min_march:
            break
    return _refine(heap, acc, err_sum, f, spec, n_panels,
                   last3[0] + last3[1] + last3[2])


def integrate_interval(f, lo, hi, spec, breakpoints=()):
    """Integrate f over the finite interval [lo, hi] -> (value, err_estimate).

    ``breakpoints`` are interior abscissae (band edges, switch points) that
    become panel boundaries so discontinuities never sit inside a panel.
    Panels wider than spec.panel_width are subdivided uniformly first, then
    refined adaptively.  Internal helper shared by the force integrals; same
    error conventions as integrate_semiinfinite.

    The estimate is optimistic on a narrow spike that no panel resolves and
    whose peak sits on a breakpoint: on a Lorentzian Re[A / (k - k_p)] of
    half width 1.66e-7 over 1e4 half widths on each side, split at its peak,
    with panels 1e-4 wide and rel_tol 1e-12, the error is 2.3e-8 against
    an estimate of 4.7e-11, 477 times too small.  The force integrals
    subtract such spikes as pole terms first (see ``forces._pole_window``);
    other callers should do the same or keep breakpoints off the peak.
    """
    if not hi > lo:
        return 0.0, 0.0
    edges = [lo]
    for b in sorted(set(breakpoints)):
        if lo < b < hi:
            edges.append(b)
    edges.append(hi)
    heap = []
    acc = 0.0
    err_sum = 0.0
    n_panels = 0
    for left, right in zip(edges[:-1], edges[1:]):
        m = max(1, int(math.ceil((right - left) / spec.panel_width)))
        step = (right - left) / m
        for i in range(m):
            p_lo = left + i * step
            p_hi = right if i == m - 1 else left + (i + 1) * step
            val, perr = _panel(f, p_lo, p_hi)
            heapq.heappush(heap, (-perr, p_lo, p_hi, val, perr))
            acc += val
            err_sum += perr
            n_panels += 1
            if n_panels > spec.max_panels:
                raise NonConvergenceError(
                    "interval layout exceeds max_panels",
                    partial=acc, error=err_sum, panels=n_panels)
    return _refine(heap, acc, err_sum, f, spec, n_panels)


def matsubara_sum(g, beta, spec):
    """Sum g over xi_l = 2*pi*l/beta, l = 1, 2, ... -> (value, err_estimate).

    Stops once |term| <= _TAIL_THRESHOLD * |accumulated| (abs_tol floor) for
    three consecutive terms; the reported error l_stop * |last term| is an
    integral-test bound that stays honest even for slowly (power-law)
    decaying summands.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    acc = 0.0
    small_run = 0
    l = 0
    t = 0.0
    step = 2.0 * math.pi / beta
    while small_run < 3:
        l += 1
        if l > spec.max_panels:
            raise NonConvergenceError(
                "summation tail not reached after %d terms" % (l - 1),
                partial=acc, error=abs(t) * l, panels=l - 1)
        xi = step * l
        t = g(xi)
        if not math.isfinite(t):
            raise NaNIntegrandError(xi)
        acc += t
        if abs(t) <= max(spec.abs_tol, _TAIL_THRESHOLD * abs(acc)):
            small_run += 1
        else:
            small_run = 0
    return acc, abs(t) * l
