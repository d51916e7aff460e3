"""Scalar kernels: slab response, cavity scattering and force integrands.

Plain Python on the standard library only; ``casimir1d.kernels`` binds
this module as ``core`` for every caller.

Conventions: natural units with the gap-crossing time as the base scale;
the Laplace variable is s (s = -i*omega on the real frequency axis, s = kappa
real and positive on the imaginary axis).  All slabs share one thickness d,
the gap is a, interfaces sit at +-a/2 and +-(a/2+d).
"""

import cmath
from math import cos, exp, expm1, inf, sin, sqrt

from .errors import CavityResonanceError, SingularEvaluationError

DELTA_FLOOR = 1e-14


def coth_half(beta, omega):
    """coth(beta*omega/2) evaluated as 1 + 2/(e^{beta*omega} - 1); inf at
    beta*omega = 0, where the occupation diverges."""
    x = beta * omega
    if x > 700.0:
        return 1.0
    if x == 0.0:
        return inf
    return 1.0 + 2.0 / expm1(x)


def g2_transform(s, omega0, gamma0):
    """Damped-oscillator response kernel 1/(s^2 + omega0^2 + s*gamma0).

    Raises
    ------
    SingularEvaluationError
        If the denominator is below a machine-scaled threshold, i.e. the
        evaluation point sits on (or numerically at) the response pole.
    """
    den = s * s + omega0 * omega0 + s * gamma0
    scale = max(abs(s) ** 2, omega0 * omega0, abs(s) * gamma0)
    if abs(den) <= 1e-12 * scale:
        raise SingularEvaluationError(
            "damping kernel evaluated at its pole (s = %r)" % (s,))
    return 1.0 / den


def permittivity_at(s, omega0, omega_pl, gamma0, static):
    """Relative permittivity at Laplace variable s.

    ``static`` selects the non-dispersive model (the zero-frequency value of
    the dispersive one, with no absorption anywhere).
    """
    if static:
        q = omega_pl / omega0
        return complex(1.0 + q * q, 0.0)
    if omega_pl == 0.0:
        # zero oscillator strength: vacuum at every frequency, even on the
        # (weightless) kernel pole
        return complex(1.0, 0.0)
    return 1.0 + omega_pl * omega_pl * g2_transform(s, omega0, gamma0)


def refractive_at(s, omega0, omega_pl, gamma0, static):
    """Refractive index sqrt(permittivity), principal branch (Re >= 0).

    On the real frequency axis (s = -i*omega, omega > 0) the permittivity has
    a non-negative imaginary part, so the principal square root also carries
    Im(n) >= 0; for real negative permittivity (undamped stop band) it returns
    +i|n|.  Negative frequencies are handled by conjugation in the caller.
    """
    return cmath.sqrt(permittivity_at(s, omega0, omega_pl, gamma0, static))


# ---------------------------------------------------------------------------
# Slab and cavity building blocks on the real frequency axis.
#
# slab_parts returns, for one slab of index n and thickness d at frequency
# omega (s = -i*omega):
#   rn    surface reflection (1-n)/(1+n)
#   E     internal round-trip factor exp(-2 s n d), optionally phase shifted
#   F     1 - rn^2 E
#   r     slab reflection  rn (1-E)/F
#   t     slab transmission 4n/(1+n)^2 exp(-s n d)/F
#   tau   t exp(s d) (standoff-free transmission, |tau| = |t|)
#   tl2   t^2 written as (4n/(1+n)^2)^2 E/F^2 (no squaring of t needed)
#   t2a   |t|^2 = g*em
#   g     |t|^2 e^{2 omega Im n d} = 16|n|^2/(|1+n|^4 |F|^2)
#   em    e^- = exp(-2 omega Im(n) d)      (|E|)
#   em1   1 - e^-, computed via expm1 for small exponents
#   e2it  E/|E| = exp(2 i omega Re(n) d + i shift), unit modulus
# The optional ``shift`` rotates the internal slab phase; it is used by the
# fast-phase averaging of the large-k tails and must default to zero.
# ---------------------------------------------------------------------------

def slab_parts(omega, n, d, shift=0.0):
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * n.imag * d
    if x > 1400.0:
        em = 0.0
        em1 = 1.0
    else:
        em = exp(-x)
        em1 = -expm1(-x)
    th = 2.0 * omega * n.real * d + shift
    e2it = complex(cos(th), sin(th))
    E = em * e2it
    F = 1.0 - rn * rn * E
    r = rn * (1.0 - E) / F
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    tl2 = q * q * E / (F * F)
    t = q * cmath.exp(1j * omega * d * n) / F
    tau = q * cmath.exp(-1j * omega * d * (1.0 - n)) / F
    g = abs(q) ** 2 / abs(F) ** 2
    t2a = g * em
    return rn, E, F, r, t, tau, tl2, t2a, g, em, em1, e2it


def gap_phase(omega, a, shift=0.0):
    """Round-trip gap factor exp(-2 s a) = exp(2 i omega a) at s = -i omega."""
    th = 2.0 * omega * a + shift
    return complex(cos(th), sin(th))


def cavity_delta(rL, rR, gap):
    w = rL * rR * gap
    delta = 1.0 - w
    if abs(delta) < DELTA_FLOOR:
        raise CavityResonanceError(
            "cavity round-trip denominator |1 - rL rR e^{2 i omega a}| < %g"
            % DELTA_FLOOR)
    return w, delta


def ic_bracket(omega, a, d, matL, matR, sL=0.0, sR=0.0, sG=0.0):
    """Spectral bracket of the initial-condition (field-state) force integrand.

    Equals 1 + |R|^2 + |T|^2 - (|C>|^2+|D>|^2+|C<|^2+|D<|^2) with the cavity
    coefficients of the two-slab geometry; assembled from paired quantities so
    it stays finite for opaque slabs.  ``matL``/``matR`` are 4-tuples
    (omega0, omega_pl, gamma0, static).

    Parameters
    ----------
    omega : float
        Positive real frequency (= field wavenumber).
    a, d : float
        Gap width and slab thickness.
    sL, sR, sG : float
        Phase offsets of the two internal slab phases and of the gap
        round-trip phase (used only by tail averaging).
    """
    s = -1j * omega
    nL = refractive_at(s, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_at(s, matR[0], matR[1], matR[2], matR[3])
    _, _, _, rL, _, _, tl2L, t2aL, _, _, _, _ = slab_parts(omega, nL, d, sL)
    _, _, _, rR, _, _, _, t2aR, _, _, _, _ = slab_parts(omega, nR, d, sR)
    gap = gap_phase(omega, a, sG)
    _, delta = cavity_delta(rL, rR, gap)
    d2 = abs(delta) ** 2
    rho = rL + rR * tl2L * gap / delta
    aL2 = abs(rL) ** 2
    aR2 = abs(rR) ** 2
    return (1.0 + abs(rho) ** 2 + t2aL * t2aR / d2
            - (t2aL * (1.0 + aR2) + t2aR * (1.0 + aL2)) / d2)


def bath_integrand(omega, a, d, matL, matR, betaL, betaR,
                   sL=0.0, sR=0.0, sG=0.0):
    """Bath-driven pressure-difference integrand (exterior minus gap).

    Closed-form frequency integrand of the dissipative-slab contribution for
    per-slab inverse temperatures betaL/betaR; both slab source integrals are
    folded in analytically.  Vanishes identically when neither slab absorbs.
    """
    s = -1j * omega
    nL = refractive_at(s, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_at(s, matR[0], matR[1], matR[2], matR[3])
    pL = slab_parts(omega, nL, d, sL)
    pR = slab_parts(omega, nR, d, sR)
    rnL, _, FL, rL, _, _, tl2L, t2aL, gL, emL, em1L, e2itL = pL
    rnR, _, FR, rR, _, _, tl2R, t2aR, gR, emR, em1R, e2itR = pR
    wL = 2.0 * nL.real * nL.imag
    wR = 2.0 * nR.real * nR.imag
    if wL == 0.0 and wR == 0.0:
        return 0.0
    gap = gap_phase(omega, a, sG)
    _, delta = cavity_delta(rL, rR, gap)
    d2 = abs(delta) ** 2
    qL = 4.0 * nL / ((1.0 + nL) * (1.0 + nL))
    feedL = rR * gap * qL * qL / (FL * FL * delta)
    rho = rL + tl2L * rR * gap / delta
    out = 0.0
    if wL != 0.0:
        P = 1.0 - rnL * rho
        Qt = rnL * (rnL * rnL - 1.0) / FL + feedL
        renL = nL.real
        imnL = nL.imag
        near = renL * (abs(P) ** 2 * em1L + abs(Qt) ** 2 * emL * em1L)
        if emL > 0.0:
            near += 2.0 * imnL * emL * (P * Qt.conjugate()
                                        * (1.0 - e2itL.conjugate())).imag
        near -= ((1.0 + abs(rR) ** 2) / d2) * (
            renL * (gL * em1L + t2aL * abs(rnL) ** 2 * em1L)
            - 2.0 * imnL * t2aL * (rnL * (e2itL - 1.0)).imag)
        pref = abs(1.0 + nL) ** 2 / abs(nL) ** 2
        out += 0.25 * omega * pref * coth_half(betaL, omega) * near
    if wR != 0.0:
        mL = t2aL - 1.0 - abs(rL) ** 2
        renR = nR.real
        imnR = nR.imag
        far = renR * gR * em1R + t2aR * (
            renR * abs(rnR) ** 2 * em1R
            - 2.0 * imnR * (rnR * (e2itR - 1.0)).imag)
        pref = abs(1.0 + nR) ** 2 / abs(nR) ** 2
        out += 0.25 * omega * pref * coth_half(betaR, omega) * (mL / d2) * far
    return out


# ---------------------------------------------------------------------------
# Imaginary-axis (rotated) helpers for dissipationless equilibrium integrals.
# ---------------------------------------------------------------------------

def refractive_rot(kappa, omega0, omega_pl, gamma0, static):
    """Refractive index on the imaginary frequency axis (real, >= 1)."""
    if static:
        q = omega_pl / omega0
        return sqrt(1.0 + q * q)
    den = kappa * kappa + omega0 * omega0 + kappa * gamma0
    return sqrt(1.0 + omega_pl * omega_pl / den)


def slab_rt_rot(kappa, n, d):
    """Slab reflection/transmission pair at s = kappa (both real).

    Returns (r, tau) with tau = t*exp(kappa d); |E| <= 1 and n >= 1 keep all
    exponents non-positive, so the evaluation never overflows.
    """
    rn = (1.0 - n) / (1.0 + n)
    E = exp(-2.0 * kappa * n * d)
    F = 1.0 - rn * rn * E
    r = rn * (1.0 - E) / F
    tau = (4.0 * n / ((1.0 + n) * (1.0 + n))) * exp(kappa * d * (1.0 - n)) / F
    return r, tau


def roundtrip_rot_direct(kappa, a, d, matL, matR):
    """Cavity round-trip factor w = rL rR e^{-2 kappa a} from slab formulas."""
    nL = refractive_rot(kappa, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_rot(kappa, matR[0], matR[1], matR[2], matR[3])
    rL, _ = slab_rt_rot(kappa, nL, d)
    rR, _ = slab_rt_rot(kappa, nR, d)
    return rL * rR * exp(-2.0 * kappa * a)


def roundtrip_rot_cavity(kappa, a, d, matL, matR):
    """Round-trip factor extracted from assembled cavity coefficients.

    Builds the gap coefficients C>, D>, C<, D< at s = kappa and returns
    (D>/C>)(D</C<); algebraically equal to roundtrip_rot_direct but follows
    the full coefficient-assembly arithmetic path.
    """
    nL = refractive_rot(kappa, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_rot(kappa, matR[0], matR[1], matR[2], matR[3])
    rL, tauL = slab_rt_rot(kappa, nL, d)
    rR, tauR = slab_rt_rot(kappa, nR, d)
    gap = exp(-2.0 * kappa * a)
    w = rL * rR * gap
    delta = 1.0 - w
    if abs(delta) < DELTA_FLOOR:
        raise CavityResonanceError("rotated round-trip denominator vanished")
    eha = exp(-kappa * a)
    if tauL < 1e-280 or tauR < 1e-280:
        # numerically opaque slab: the transmission cancels from the
        # coefficient ratios, which limit to the bare reflection product;
        # below this threshold tau is subnormal-bound and the ratio
        # arithmetic would round to garbage
        return (rR * eha) * (rL * eha)
    cg = tauL / delta
    dg = rR * eha * tauL / delta
    cl = tauR / delta
    dl = rL * eha * tauR / delta
    return (dg / cg) * (dl / cl)


def nodiss_bracket(omega, a, d, matL, matR):
    """Unitarity-reduced force bracket 2 - (|tL|^2(1+|rR|^2)+|tR|^2(1+|rL|^2))/|Delta|^2.

    Valid (equal to ic_bracket) only for dissipationless slabs.
    """
    s = -1j * omega
    nL = refractive_at(s, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_at(s, matR[0], matR[1], matR[2], matR[3])
    _, _, _, rL, _, _, _, t2aL, _, _, _, _ = slab_parts(omega, nL, d)
    _, _, _, rR, _, _, _, t2aR, _, _, _, _ = slab_parts(omega, nR, d)
    gap = gap_phase(omega, a)
    _, delta = cavity_delta(rL, rR, gap)
    d2 = abs(delta) ** 2
    return 2.0 - (t2aL * (1.0 + abs(rR) ** 2) + t2aR * (1.0 + abs(rL) ** 2)) / d2


# ---------------------------------------------------------------------------
# Half-space (thick slab) integrands.
# ---------------------------------------------------------------------------

def _surface_refl(omega, mat):
    s = -1j * omega
    n = refractive_at(s, mat[0], mat[1], mat[2], mat[3])
    return (1.0 - n) / (1.0 + n)


def halfspace_combined_integrand(k, a, matL, matR, betaL, betaR, beta_phi,
                                 sG=0.0):
    """Summed (state + bath) half-space integrand, stable at large k.

    Algebraically equal to k coth(beta_phi k/2)(1+|rnL|^2) plus the bath
    integrand, but grouped so the large-k cancellation is explicit:
    4 k coth_phi [|w|^2 - Re w]/|Delta|^2 plus exponentially small
    coth-difference terms.
    """
    rnL = _surface_refl(k, matL)
    rnR = _surface_refl(k, matR)
    pL = abs(rnL) ** 2
    pR = abs(rnR) ** 2
    gap = gap_phase(k, a, sG)
    w, delta = cavity_delta(rnL, rnR, gap)
    d2 = abs(delta) ** 2
    cphi = coth_half(beta_phi, k)
    out = 4.0 * k * cphi * (abs(w) ** 2 - w.real) / d2
    return out + _halfspace_mismatch(k, pL, pR, d2, betaL, betaR, cphi)


def _halfspace_mismatch(k, pL, pR, d2, betaL, betaR, cphi):
    """Coth-difference terms of the half-space integrand: the baths' excess
    over the field-state weight cphi."""
    out = 0.0
    dL = coth_half(betaL, k) - cphi
    if dL != 0.0:
        out += k * dL * (1.0 - pL) * (1.0 - (1.0 + pR) / d2)
    dR = coth_half(betaR, k) - cphi
    if dR != 0.0:
        out -= k * dR * (1.0 - pR) * (1.0 + pL) / d2
    return out


def halfspace_mismatch_integrand(k, a, matL, matR, betaL, betaR, beta_phi):
    """Bath-mismatch group of halfspace_combined_integrand: its terms with
    coth(beta k/2) - coth(beta_phi k/2), which decay exponentially."""
    rnL = _surface_refl(k, matL)
    rnR = _surface_refl(k, matR)
    _, delta = cavity_delta(rnL, rnR, gap_phase(k, a))
    return _halfspace_mismatch(k, abs(rnL) ** 2, abs(rnR) ** 2,
                               abs(delta) ** 2, betaL, betaR,
                               coth_half(beta_phi, k))
