"""Independent routes to the forces, loaded only by ``casimir1d verify``
and the tests.

Each route here shares as little as it can with the production route it
checks: ``real_axis_ic`` integrates the state force's vacuum-weight part
directly on the real axis, ``band_dual`` and ``tail_dual`` integrate a
slab band or the tail past the switch point by raw quadrature on panels of
half a slab period beside the mean or phase average that ``forces`` uses,
and ``verify_checks`` runs them, the stress-tensor oracle and the limit
cases on canned configurations.  ``import casimir1d`` and the other CLI
commands never load this module or ``casimir1d.stress``.
"""

import math

from . import forces, limits
from .kernels import core
from .material import Material
from .quadrature import QuadratureSpec, integrate_interval
from .scattering import CavityConfig
from .states import FieldState
from .stress import pressure_difference


def bath_integrand(cfg, beta_left, beta_right):
    """Bath integrand ``f(k, offsets)`` of a cavity at the given inverse
    bath temperatures, from the bath side: the bath kernel's parts
    (``core.bath_factors_of``, bound to the cavity once) at each offset
    triple, weighed at coth(beta k/2).  At zero temperature it is the
    independent check of Z's integrand (``forces._zero_bath_integrand``),
    which is assembled from the state side."""
    factors = core.bath_factors_of(*forces._args(cfg))

    def f(k, offsets):
        occL = core.coth_half(beta_left, k)
        occR = core.coth_half(beta_right, k)
        return [core.bath_weigh(factors(k, *o), occL, occR) for o in offsets]
    return f


def _raw(f):
    """The integrand ``f(k, offsets)`` at the one unshifted offset."""
    return lambda k: f(k, core.grid((1,)))[0]


def band_dual(cfg, f, lo, hi, spec, window=None):
    """Integral of ``f(k, offsets)`` over the window (x0, x1), [lo, hi] by
    default, of a dense or shallow band [lo, hi] of identical slabs, by the
    slab-phase mean plus the band's edge terms ``edges(x0, x1)``, as Z and
    ``band_excess_curve`` take them, and by raw quadrature on panels of half
    a slab period.

    Returns ``(deviation, estimate)``: the two routes' difference and the
    sum of their error estimates, the mean's including the edge terms'
    error and its convergence allowance.  An independent check of the band
    route, its mean as production sizes it, and its edge terms.
    """
    tol = forces._mean_tol(spec.abs_tol, ((lo, hi),))
    mean, _, edges = forces._band_bounds(f, cfg, lo, hi)
    x0, x1 = window or (lo, hi)
    v_mean, e_mean = integrate_interval(lambda k: mean(k, tol), x0, x1, spec)
    dv, de = edges(x0, x1)
    e_mean += de + tol * (x1 - x0)
    fine = spec.replace(
        panel_width=math.pi / forces._slab_rate(cfg.left, cfg.width, x0))
    v_raw, e_raw = integrate_interval(_raw(f), x0, x1, fine)
    return abs(v_mean + dv - v_raw), e_mean + e_raw


def tail_dual(cfg, f, k1, spec):
    """Integral of ``f(k, offsets)`` over [K, k1], K the switch point of
    its real-axis integral (for a cavity without dense bands), by the phase
    average on the tail grid sized there plus the signed edge terms
    S(k1) - S(K) of the harmonics it drops, and by raw quadrature on panels
    of half the shortest slab period.

    Returns ``(deviation, estimate)``: the two routes' difference and the
    sum of their error estimates, the first's including the edge terms'
    (both ends' and their last order's variation between them).  An
    independent check of the tail past the switch point.
    """
    K, _, _, _, edges, dims = forces._switch(
        f, spec, cfg, forces._phase_axes(cfg), _raw(f),
        forces._breakpoints(cfg.left, cfg.right))
    dv, de = edges(K, k1)[:2]
    v_avg, e_avg = integrate_interval(
        lambda k: forces._phase_average(f, k, dims), K, k1,
        spec.replace(panel_width=k1 - K))
    fine = spec.replace(panel_width=min(
        [spec.panel_width] + [math.pi / forces._slab_rate(m, cfg.width, K)
                              for m in (cfg.left, cfg.right)]),
        max_panels=10 * spec.max_panels)
    v_raw, e_raw = integrate_interval(_raw(f), K, k1, fine)
    return abs(v_avg + dv - v_raw), e_avg + de + e_raw


def real_axis_ic(cfg, state, spec):
    """State force of an absorbing pair with its vacuum-weight part
    integrated directly on the real axis.

    Shares no rotation and no zero-temperature bath integral with
    ``force_ic``.  With ``forces._oscillatory_integral`` of the bath
    integrand it is the two-integral route whose parts nearly cancel in the
    total, so it is slow and loses accuracy there; both are kept as
    independent checks of ``force_ic`` and ``force_total``.
    """
    scale, eff = forces._effective_state(state)
    bracket = forces._bracket(cfg)
    v, ev = forces._oscillatory_integral(lambda k: k * bracket(k),
                                         forces._state_integrand(cfg), spec,
                                         cfg)
    x, ex = forces._cavity_excess(cfg, eff, spec)
    return scale * (v + x), scale * (ev + ex)


def verify_checks():
    """Canned invariant suite: (name, measured, threshold) triples."""
    mild_l = Material(3.0, 2.0, 0.5)
    mild_r = Material(2.5, 1.5, 1.0)
    stat_l = Material(10.0, 10.0, model="static_nd")
    stat_r = Material(4.0, 3.0, model="static_nd")
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-12)
    checks = []

    cfg_nd = CavityConfig(1.0, 0.7, stat_l, stat_r)
    fb = forces.force_bath(cfg_nd, 9.0, 9.0, spec)
    dev_ic_nd, dev_b_nd = pressure_difference(
        cfg_nd, (9.0, 9.0), FieldState.thermal(4.0), (0.31, 1.72, 6.13))
    checks.append(("bath_dissipationless_zero",
                   max(abs(fb[0]), abs(fb[1]), dev_b_nd), 0.0))
    checks.append(("stress_oracle_dissipationless_ic", dev_ic_nd, 1e-8))

    # both routes share R; the thermal excess integrates the full state
    # bracket in force_ic and the unitarity-reduced one in
    # force_dissipationless
    th = FieldState.thermal(4.0)
    f_red, _ = limits.force_dissipationless(cfg_nd, th, spec)
    f_full, _ = forces.force_ic(cfg_nd, th, spec)
    checks.append(("ic_dual_route_dissipationless",
                   abs(f_full - f_red) / abs(f_red), 1e-8))

    # gap 0.5 keeps the state/bath cancellation amplification of the
    # real-axis route near 7e2, so the 1e-6 agreements with it are honestly
    # reachable at rel_tol 1e-8
    cfg = CavityConfig(0.5, 0.4, mild_l, mild_r)
    beta = 5.0
    f_ic, _ = forces.force_ic(cfg, FieldState.thermal(beta), spec)
    f_b, _ = forces.force_bath(cfg, beta, beta, spec)
    canary, _ = forces.equilibrium_matsubara(cfg, beta, spec)
    checks.append(("equilibrium_dual_pipeline",
                   abs(f_ic + f_b - canary) / abs(canary), 1e-6))

    # the two-integral real-axis route shares no rotation and no
    # zero-temperature bath integral with force_ic and force_total
    osc_vac, _ = real_axis_ic(cfg, FieldState.vacuum(), spec)
    f_vac, _ = forces.force_ic(cfg, FieldState.vacuum(), spec)
    checks.append(("real_axis_dual_pipeline",
                   abs(osc_vac - f_vac) / abs(f_vac), 1e-6))
    osc_ic, _ = real_axis_ic(cfg, FieldState.thermal(beta), spec)
    hot = bath_integrand(cfg, 3.0, 8.0)
    osc_b, _ = forces._oscillatory_integral(_raw(hot), hot, spec, cfg)
    noneq = forces.force_total(cfg, FieldState.thermal(beta), 3.0, 8.0, spec)
    checks.append(("nonequilibrium_dual_pipeline",
                   abs(osc_ic + osc_b - noneq.total) / abs(noneq.total),
                   1e-6))

    dev_ic, dev_b = pressure_difference(
        CavityConfig(1.0, 0.4, mild_l, mild_r), (3.7, 5.2),
        FieldState.thermal(4.1),
        (0.21, 0.72, 1.31, 2.10, 3.33, 5.27, 8.10, 12.9))
    checks.append(("stress_oracle_ic", dev_ic, 1e-8))
    checks.append(("stress_oracle_bath", dev_b, 1e-8))

    hs_ic, _hs_b = limits.halfspace_forces(mild_l, mild_r, 1.0, 10.0, 10.0,
                                           10.0, spec)
    lif, _ = limits.lifshitz_matsubara(mild_l, mild_r, 1.0, 10.0, spec)
    checks.append(("lifshitz_dual_pipeline",
                   abs(hs_ic - lif) / abs(lif), 1e-6))

    # the slab-phase mean plus its edge terms against raw quadrature on
    # half-slab-period panels inside the dense band of the weakly damped
    # pair, where the band counts the absolute terms at both of its ends,
    # in units of the combined error estimate
    weak = Material(10.0, 10.0, 1e-6)
    cfg_weak = CavityConfig(1.0, 100.0, weak, weak)
    dev, est = band_dual(
        cfg_weak, forces._zero_bath_integrand(cfg_weak),
        9.4, 9.6, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9))
    checks.append(("dense_band_dual_pipeline", dev / est, 1.0))

    # the slab-phase mean plus its edge terms against raw quadrature on
    # half-slab-period panels, in the shallow bands of the docs cavity, for
    # the bath and the state integrands: above the stop band from the high
    # band's opaque lower edge and inside it, below it over the whole low
    # band and from k -> 0 into its clear comb.  Each band's end takes the
    # signed terms S, or the absolute terms its grid holds there where
    # those are no larger than its variation (the opaque edges, and k -> 0
    # for the bath integrand), as in Z; the worst ratio to the combined
    # estimate
    fig = Material(10.0, 10.0, 0.1)
    cfg_fig = CavityConfig(1.0, 100.0, fig, fig)
    spec_fig = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-10)
    (low_lo, low_hi), (start, _) = forces._bands(cfg_fig, 30.0)[1]
    worst = 0.0
    for f in (forces._zero_bath_integrand(cfg_fig),
              forces._state_integrand(cfg_fig)):
        for lo, hi in ((start, 30.0), (25.3, 27.9), (low_lo, low_hi),
                       (low_lo, 3.0)):
            dev, est = band_dual(cfg_fig, f, lo, hi, spec_fig)
            worst = max(worst, dev / est)
    checks.append(("shallow_band_dual_pipeline", worst, 1.0))

    # the slab-phase mean plus the band's edge terms against raw
    # quadrature on half-slab-period panels, for the state integrand on
    # windows that end inside the clear comb of either shallow band, where
    # they take the signed terms S(x1) - S(x0), as the sigma ladder's
    # windows do (at k = 0 the state integrand's absolute terms exceed the
    # band's variation, so it takes S there too); the worst ratio to the
    # combined estimate
    low, high = forces._bands(cfg_fig, 55.0)[1]
    worst = 0.0
    for band, window in ((low, (4.875, 5.125)), (low, (2.0, 3.0)),
                         (low, (0.0, 3.0)), (high, (30.0, 55.0))):
        dev, est = band_dual(cfg_fig, forces._state_integrand(cfg_fig),
                                     *band, spec_fig, window=window)
        worst = max(worst, dev / est)
    checks.append(("ladder_edge_dual_pipeline", worst, 1.0))

    # the phase average plus the signed edge terms S(k1) - S(K) against raw
    # quadrature on half-slab-period panels, from the switch point K to the
    # one the retired probe march reached (106.5 on the docs cavity, 213.2
    # on the mild pair), for the bath and the state integrands; the worst
    # ratio to the combined estimate
    worst = 0.0
    for cav, k1, sp in ((cfg_fig, 106.5, spec_fig), (cfg, 213.2, spec)):
        for f in (forces._zero_bath_integrand(cav),
                  forces._state_integrand(cav)):
            dev, est = tail_dual(cav, f, k1, sp)
            worst = max(worst, dev / est)
    checks.append(("tail_edge_dual_pipeline", worst, 1.0))
    return checks
