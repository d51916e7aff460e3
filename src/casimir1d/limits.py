"""The closed-form limit cases, loaded by ``casimir1d limits``, the oracles
and the tests, and by ``import casimir1d`` only when one of its names is
first used.

* ``force_dissipationless``: lossless static pairs, R shared with
  ``forces.force_ic`` and the state excess integrated with the
  unitarity-reduced bracket, an independent check of the full one;
* ``force_delta_squeezed``: the delta-band state's force density at its
  center mode;
* ``lifshitz_matsubara`` and ``halfspace_forces``: half-spaces, slabs of
  infinite width, whose bare state and bath integrals diverge; their
  grouped force is R plus the thermal excesses, with no real-axis
  oscillatory integral;
* ``_bound_modes``: the area of each bound gap mode whose pole term Z
  subtracts (the ``bound_mode@`` rows of ``casimir1d limits``).

Every route here is assembled from the pieces of ``casimir1d.forces``,
looked up there at each call, so a memo or a wrapper installed on
``forces`` reaches them too.
"""

import math

from . import forces
from .errors import NonConvergenceError
from .kernels import core
from .scattering import CavityConfig


def force_dissipationless(cfg, state, spec):
    """State force for non-dispersive lossless slabs, by a separate excess.

    Shares the rotated zero-temperature total R with ``forces.force_ic``
    and integrates the state excess with the unitarity-reduced bracket
    (transmitted-plus-reflected flux equals one) instead of the full state
    bracket.  Must agree with ``force_ic`` on the same configuration and a
    non-vacuum state; the two brackets are the regression check on each
    other.
    """
    L, R = cfg.left, cfg.right
    if not (L.static and R.static):
        raise ValueError(
            "dissipationless route requires static non-dispersive slabs")
    scale, eff = forces._effective_state(state)
    if L.omega_pl == 0.0 and R.omega_pl == 0.0:
        return 0.0, 0.0
    a, d, tl, tr = forces._args(cfg)
    vac, evac = forces._rotated_vacuum(cfg, spec)
    exc, eexc = forces._state_excess(
        lambda k: core.nodiss_bracket(k, a, d, tl, tr), eff, spec, ())
    return scale * (vac + exc), scale * (evac + eexc)


def force_delta_squeezed(cfg, omega_center):
    """Force density of the delta-band squeezed state at its center mode.

    The delta-band limit concentrates all excess weight on the single mode
    ``omega_center``; what survives the normalization is the bare integrand
    value k * [state bracket] at k = omega_center, a force per unit
    wavenumber rather than an integrated inverse-square-gap force.  The
    finite-band state at small width does not reduce to this value because
    its in-band weight grows faster than the window shrinks; the two
    normalizations are intentionally different.  The evaluation is
    pointwise, so it takes no quadrature spec.
    """
    if not omega_center > 0.0:
        raise ValueError("omega_center must be positive")
    return omega_center * forces._bracket(cfg)(omega_center)


def lifshitz_matsubara(matL, matR, a, beta, spec):
    """Equilibrium half-space force as a rotated-axis pole sum: the
    half-space case of ``forces.equilibrium_matsubara``, whose slabs of
    infinite width reflect like their surfaces, so w(xi) is the product of
    the two surface reflections at imaginary frequency times
    exp(-2 xi a).
    Cross-checked numerically by the half-space equal-temperature route
    (``halfspace_forces``).

    Returns
    -------
    value, err : float
    """
    return forces.equilibrium_matsubara(
        CavityConfig(a, math.inf, matL, matR), beta, spec)


def halfspace_forces(matL, matR, a, beta_left, beta_right, beta_phi, spec):
    """Two-temperature force parts in the thick-slab (half-space) limit.

    Parameters
    ----------
    matL, matR : Material
        Both must absorb: without absorption on both sides the free-field
        pressure term is uncompensated and the state integral diverges.
    a : float
        Gap between the two half-space faces.
    beta_left, beta_right : float
        Inverse bath temperatures.
    beta_phi : float
        Inverse field-state temperature.
    spec : QuadratureSpec

    Returns
    -------
    f_ic, f_b : float
        Neither the bare state integral nor the bare bath integral exists
        for half-spaces: the state pressure grows linearly in k, and an
        infinitely thick body radiates at every frequency, so its emission
        integral diverges the same way with the opposite sign.  Only the
        grouped combination decays.  The finite split reported here keeps
        each convergent grouping with its driving temperature: ``f_ic`` is
        the field-state group, the force with every temperature at
        ``beta_phi``, and ``f_b`` is the bath-mismatch group, the excess
        of the bath integral at the bath temperatures over its value at
        ``beta_phi``.  The half-spaces are slabs of infinite width, so
        ``f_ic`` is the rotated zero-temperature total R plus the thermal
        state excess and the bath excess at ``beta_phi``; every excess
        decays exponentially and is integrated over a finite interval.  At
        equal temperatures ``f_b`` is exactly zero and ``f_ic`` alone is
        the equilibrium force.
    """
    (f_ic, _), (f_b, _) = _halfspace_parts(matL, matR, a, beta_left,
                                           beta_right, beta_phi, spec)
    return f_ic, f_b


def _halfspace_parts(matL, matR, a, beta_left, beta_right, beta_phi, spec):
    """The field-state and bath-mismatch groups of ``halfspace_forces``,
    each a ``(value, err)`` pair."""
    for m, side in ((matL, "left"), (matR, "right")):
        if not forces._absorbing(m):
            raise NonConvergenceError(
                "half-space %s material does not absorb; the free-field "
                "pressure term is uncompensated and the state integral "
                "diverges" % side, partial=None, error=math.inf, panels=0)
    for b in (beta_left, beta_right, beta_phi):
        if not b > 0.0:
            raise ValueError("inverse temperatures must be positive")
    cfg = CavityConfig(a, math.inf, matL, matR)
    r, er = forces._rotated_vacuum(cfg, spec)
    x, ex = forces._thermal_excess(forces._bracket(cfg), beta_phi, spec,
                                   forces._breakpoints(matL, matR))
    y, ey = forces._bath_excess(cfg, beta_phi, beta_phi, spec)
    state = (r + x + y, er + ex + ey)
    if beta_left == beta_right == beta_phi:
        return state, forces._ZERO
    return state, forces._bath_excess(cfg, beta_left, beta_right, spec,
                                      beta_phi)


def _bound_modes(cfg, spec):
    """``(k_m, area, err)`` of each bound gap mode whose pole term Z
    subtracts: the area pi Im A = pi w f(k_m) under the term fitted to Z's
    integrand f (see ``forces._pole_window``), and its change when Im A is
    fitted as w (f(k_m - w) + f(k_m + w)) instead, which measures the
    remainder under the spike."""
    f = core.vacuum_bath_of(*forces._args(cfg))
    out = []
    for kp, _, _ in forces._pole_terms(cfg, spec.panel_width):
        km, w = kp.real, -kp.imag
        below, at, above = (w * f(k) for k in (km - w, km, km + w))
        out.append((km, math.pi * at, math.pi * abs(below + above - at)))
    return out
