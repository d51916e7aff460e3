"""Scalar kernels: slab response, cavity scattering and force integrands.

Plain Python on the standard library only; ``casimir1d.kernels`` binds
this module as ``core`` for every caller.

Conventions: natural units with the gap-crossing time as the base scale;
the Laplace variable is s (s = -i*omega on the real frequency axis, s = kappa
real and positive on the imaginary axis).  All slabs share one thickness d,
the gap is a, interfaces sit at +-a/2 and +-(a/2+d).
"""

import cmath
import functools
from math import cos, exp, expm1, inf, pi, sin, sqrt

from .errors import CavityResonanceError, SingularEvaluationError

DELTA_FLOOR = 1e-14


def occupation_excess(beta, omega):
    """coth(beta*omega/2) - 1 = 2/(e^{beta*omega} - 1), exact also where it
    is below the rounding of coth; 0 past beta*omega = 700, inf at 0."""
    x = beta * omega
    if x > 700.0:
        return 0.0
    if x == 0.0:
        return inf
    return 2.0 / expm1(x)


def coth_half(beta, omega):
    """coth(beta*omega/2) evaluated as 1 + 2/(e^{beta*omega} - 1); inf at
    beta*omega = 0, where the occupation diverges."""
    return 1.0 + occupation_excess(beta, omega)


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

    A damped or undamped oscillator's index is formed here in one step,
    with the operations and the pole test of ``permittivity_at`` and
    ``g2_transform``; the static and empty models, and the pole, where
    ``g2_transform`` raises, go through them.
    """
    den = s * s + omega0 * omega0 + s * gamma0
    if static or omega_pl == 0.0 or abs(den) <= 1e-12 * max(
            abs(s) ** 2, omega0 * omega0, abs(s) * gamma0):
        return cmath.sqrt(permittivity_at(s, omega0, omega_pl, gamma0, static))
    return cmath.sqrt(1.0 + omega_pl * omega_pl * (1.0 / den))


# ---------------------------------------------------------------------------
# Slab and cavity building blocks on the real frequency axis.
#
# slab_parts returns, for one slab of index n and thickness d at frequency
# omega (s = -i*omega):
#   rn    surface reflection (1-n)/(1+n)
#   E     internal round-trip factor exp(-2 s n d)
#   F     1 - rn^2 E
#   r     slab reflection  rn (1-E)/F
#   t     slab transmission 4n/(1+n)^2 exp(-s n d)/F
#   tau   t exp(s d) (standoff-free transmission, |tau| = |t|)
#   tl2   t^2 written as (4n/(1+n)^2)^2 E/F^2 (no squaring of t needed)
#   t2a   |t|^2 = g*em
#   g     |t|^2 e^{2 omega Im n d} = 16|n|^2/(|1+n|^4 |F|^2)
#   em    e^- = exp(-2 omega Im(n) d)      (|E|)
#   em1   1 - e^-, computed via expm1 for small exponents
#   e2it  E/|E| = exp(2 i omega Re(n) d), unit modulus
#
# slab_parts is the composition, at shift 0, of two helpers: slab_fixed
# holds what does not depend on a rotation ``shift`` of the internal slab
# phase (rn, q and their squares, em, em1 and the unshifted phase), and
# slab_offset the shifted parts (e2it, E, F, r, tl2, t2a, g).  The
# transmissions t and tau need two complex exponentials that no force
# integrand reads, so only slab_parts forms them.
#
# The phase averages of the force integrands (tail means, slab-phase means,
# band grids and edge-term stencils) sample product grids of phase offsets
# (``grid``), and each integrand has one grid kernel for them: ic_brackets
# for the state bracket and vacuum_baths for Z's integrand (below).  A grid
# kernel forms each slab's index once, then one list of slab parts per
# offset slot in one loop (_bracket_parts, _absorbing_parts), with the
# shift-free parts formed once before it, and one list of gap factors, and
# combines them in the grid's order through its layout.  The one-triple
# forms further below form the same parts for one triple, one call per
# slab, with the same operations in the same order, so a grid kernel's
# value at a triple is the one-triple form's to the bit.
#
# The bath kernel has one form, bath_factors_of: the parts of one triple
# that do not depend on the occupation weights, which bath_weigh weighs,
# multiplying each weight into its slab's prefactor before the near or far
# term.  The bath excess keeps the factors of each k and weighs them afresh
# at every temperature; bath_integrand weighs them at coth(beta omega/2).
# ---------------------------------------------------------------------------

def slab_fixed(omega, n, d):
    """Shift-free parts of one slab: ``(rn, rn^2, q, q^2, |q|^2, em, em1,
    th0)`` with q = 4n/(1+n)^2 and th0 = 2 omega Re(n) d, or 0 for an
    absorbing slab of infinite width (a half-space), where em = 0 leaves
    the phase no weight."""
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * n.imag * d
    em, em1 = (0.0, 1.0) if x > 1400.0 else (exp(-x), -expm1(-x))
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    return rn, rn * rn, q, q * q, abs(q) ** 2, em, em1, \
        2.0 * omega * n.real * d if d < inf else 0.0


def slab_offset(fixed, shift):
    """Parts of one slab at internal phase offset ``shift``, from its
    ``slab_fixed`` parts: ``(e2it, E, F, r, tl2, t2a, g)``."""
    rn, rn2, _, q2, aq2, em, _, th0 = fixed
    e2it = complex(cos(th0 + shift), sin(th0 + shift))
    E = em * e2it
    F = 1.0 - rn2 * E
    g = aq2 / abs(F) ** 2
    return e2it, E, F, rn * (1.0 - E) / F, q2 * E / (F * F), g * em, g


def slab_parts(omega, n, d):
    fixed = slab_fixed(omega, n, d)
    rn, _, q, _, _, em, em1, _ = fixed
    e2it, E, F, r, tl2, t2a, g = slab_offset(fixed, 0.0)
    t = q * cmath.exp(1j * omega * d * n) / F
    tau = q * cmath.exp(-1j * omega * d * (1.0 - n)) / F
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


# Offset slots (sL, sR, sG) of each oscillation phase, outermost first, for
# ``naxes`` phases: two different slabs have three phases; identical slabs
# two, whose one slab phase shifts both slab slots (the diagonal sL = sR);
# the slab bands of identical slabs offset that diagonal alone.
SLOTS = {1: ((0, 1),), 2: ((2,), (0, 1)), 3: ((0,), (1,), (2,))}


class _Grid(tuple):
    """The offset triples of a product grid (see ``grid``) with their
    ``layout``, ``(left, right, gaps, shared, index)``: the distinct
    offsets of the left-slab, right-slab and gap slots, whether both slab
    slots take one phase's offsets, and the indices of each triple's three
    offsets in those."""


@functools.lru_cache(maxsize=None)
def grid(dims):
    """Offset triples (sL, sR, sG) of the product grid of ``dims[a]``
    equidistant offsets on the offset slots of phase a
    (``SLOTS[len(dims)]``), first phase outermost, with their layout (see
    ``_Grid``); every grid leads with the unshifted triple (0, 0, 0)."""
    triples = [(0.0, 0.0, 0.0)]
    for places, n in zip(SLOTS[len(dims)], dims):
        left, right, gap = (i in places for i in range(3))
        even = [2.0 * pi * i / n for i in range(n)]
        triples = [(s if left else t[0], s if right else t[1],
                    s if gap else t[2]) for t in triples for s in even]
    out = _Grid(triples)
    slots = [tuple(dict.fromkeys(t[i] for t in triples)) for i in range(3)]
    where = [{s: i for i, s in enumerate(offs)} for offs in slots]
    out.layout = (*slots, len(dims) < 3, tuple(
        (where[0][sL], where[1][sR], where[2][sG]) for sL, sR, sG in triples))
    return out


def _grid_parts(omega, a, d, matL, matR, offsets, parts):
    """``(left, right, gaps, index)`` of the grid ``offsets``: each slab's
    ``parts(omega, n, d, shifts)`` at the distinct offsets of its slot,
    from its index formed once (an identical right slab on the left slab's
    phase takes the left slab's), the gap factors at the gap slot's
    offsets, and each triple's indices into these three lists (see
    ``_Grid``)."""
    left, right, gaps, shared, index = offsets.layout
    s = -1j * omega
    nL = refractive_at(s, *matL)
    left = parts(omega, nL, d, left)
    if matR == matL and shared:
        right = left
    else:
        right = parts(omega, nL if matR == matL else refractive_at(s, *matR),
                      d, right)
    return left, right, [gap_phase(omega, a, sG) for sG in gaps], index


def _bracket_parts(omega, n, d, shifts):
    """``[(r, tl2, t2a)]`` of one slab of index n at each of ``shifts``,
    with the operations of ``slab_fixed`` and ``slab_offset``."""
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * n.imag * d
    em = 0.0 if x > 1400.0 else exp(-x)
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    rn2, q2, aq2 = rn * rn, q * q, abs(q) ** 2
    th0 = 2.0 * omega * n.real * d if d < inf else 0.0
    out = []
    for shift in shifts:
        E = em * complex(cos(th0 + shift), sin(th0 + shift))
        F = 1.0 - rn2 * E
        out.append((rn * (1.0 - E) / F, q2 * E / (F * F),
                    aq2 / abs(F) ** 2 * em))
    return out


def ic_brackets(omega, a, d, matL, matR, offsets):
    """``ic_bracket`` at omega for each triple of the grid ``offsets``
    (see ``grid``), as a list; the slab and gap work is shared across the
    triples."""
    left, right, gaps, index = _grid_parts(omega, a, d, matL, matR, offsets,
                                           _bracket_parts)
    out = []
    for iL, iR, iG in index:
        rL, tl2L, t2aL = left[iL]
        rR, _, t2aR = right[iR]
        gap = gaps[iG]
        delta = 1.0 - rL * rR * gap
        if abs(delta) < DELTA_FLOOR:
            cavity_delta(rL, rR, gap)
        d2 = abs(delta) ** 2
        rho = rL + rR * tl2L * gap / delta
        out.append(1.0 + abs(rho) ** 2 + t2aL * t2aR / d2
                   - (t2aL * (1.0 + abs(rR) ** 2)
                      + t2aR * (1.0 + abs(rL) ** 2)) / d2)
    return out


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
        round-trip phase.  The tests check the grid kernel
        ``ic_brackets``, which the phase averages call, against them.
    """
    return ic_bracket_of(a, d, matL, matR)(omega, sL, sR, sG)


def _bath_prefactors(omega, nL, nR):
    """``(cL, cR)``: each slab's prefactor 0.25 omega |1 + n|^2/|n|^2, or
    None for a slab that does not absorb (2 Re(n) Im(n) = 0)."""
    cL = cR = None
    if 2.0 * nL.real * nL.imag != 0.0:
        cL = 0.25 * omega * (abs(1.0 + nL) ** 2 / abs(nL) ** 2)
    if 2.0 * nR.real * nR.imag != 0.0:
        cR = 0.25 * omega * (abs(1.0 + nR) ** 2 / abs(nR) ** 2)
    return cL, cR


def _bath_terms(nL, nR, fL, fR, left, right, gap, absorbsL, absorbsR):
    """``(near, m, far)`` of one offset triple, from the slabs' indices,
    their ``slab_fixed`` parts, their ``slab_offset`` parts at the triple's
    slab offsets and its gap factor; the near term is None unless the left
    slab absorbs, m and far unless the right one does."""
    rnL, _, qL, _, _, emL, em1L, _ = fL
    rnR, _, _, _, _, _, em1R, _ = fR
    e2itL, _, FL, rL, tl2L, t2aL, gL = left
    e2itR, _, _, rR, _, t2aR, gR = right
    _, delta = cavity_delta(rL, rR, gap)
    d2 = abs(delta) ** 2
    feedL = rR * gap * qL * qL / (FL * FL * delta)
    rho = rL + tl2L * rR * gap / delta
    near = m = far = None
    if absorbsL:
        renL, imnL = nL.real, nL.imag
        P = 1.0 - rnL * rho
        Qt = rnL * (rnL * rnL - 1.0) / FL + feedL
        near = renL * (abs(P) ** 2 * em1L + abs(Qt) ** 2 * emL * em1L)
        if emL > 0.0:
            near += 2.0 * imnL * emL * (P * Qt.conjugate()
                                        * (1.0 - e2itL.conjugate())).imag
        near -= ((1.0 + abs(rR) ** 2) / d2) * (
            renL * (gL * em1L + t2aL * abs(rnL) ** 2 * em1L)
            - 2.0 * imnL * t2aL * (rnL * (e2itL - 1.0)).imag)
    if absorbsR:
        renR, imnR = nR.real, nR.imag
        m = (t2aL - 1.0 - abs(rL) ** 2) / d2
        far = renR * gR * em1R + t2aR * (
            renR * abs(rnR) ** 2 * em1R
            - 2.0 * imnR * (rnR * (e2itR - 1.0)).imag)
    return near, m, far


def bath_weigh(factors, occL, occR):
    """The bath integrand from one triple's ``bath_factors_of`` parts and
    the occupation weights, each weight multiplying its slab's prefactor
    before the near or far term."""
    cL, cR, (near, m, far) = factors
    v = 0.0
    if near is not None:
        v += cL * occL * near
    if far is not None:
        v += cR * occR * m * far
    return v


def bath_integrand(omega, a, d, matL, matR, betaL, betaR,
                   sL=0.0, sR=0.0, sG=0.0):
    """Bath-driven pressure-difference integrand (exterior minus gap).

    Closed-form frequency integrand of the dissipative-slab contribution for
    per-slab inverse temperatures betaL/betaR; both slab source integrals are
    folded in analytically.  Vanishes identically when neither slab absorbs.
    """
    return bath_weigh(bath_factors_of(a, d, matL, matR)(omega, sL, sR, sG),
                      coth_half(betaL, omega), coth_half(betaR, omega))


# ---------------------------------------------------------------------------
# The zero-temperature bath integrand from the state side.
#
# At zero temperature the state and bath integrands add up pointwise to the
# round-trip term: omega ic_bracket + bath_integrand(inf, inf) =
# -4 Re[omega w / Delta], with w = rL rR e^{2 i omega a} and Delta = 1 - w.
# So the bath integrand is -4 Re[omega w / Delta] - omega B, B the state
# bracket.  ic_brackets assembles B as 1 + |rho|^2 + ..., whose O(1) terms
# cancel to a remainder of order omega^-4 at large omega.  Here B is written
# in absorption form instead: each slab has |r|^2 + |t|^2 + A = 1, and with
# a = |rL|^2, b = |rR|^2 and tl2L the left slab's t^2,
#
#   |Delta|^2 B = |rL Delta + rR tl2L e^{2 i omega a}|^2 - 2 Re w + 4 a b
#                 - a - b + 2 a A_R + 2 b A_L + A_L A_R,
#
# whose terms are all as small as the reflections (a lossless slab, whose
# |r| stays O(1), keeps them O(1)).  With rn, E and F of slab_parts (E phase
# shifted), e^- = |E|, e1 = 1 - e^- and N = 1 + n, one slab absorbs
#
#   A = ([16 Re(n)^2 e1 - 16 Im(n)^2 e^- + 4 Re(n) |1 - n|^2 e1 (1 + e^-)]
#        / |N|^4 - 8 Im(n) Im(rn E) / |N|^2) / |F|^2,
#
# exactly 0 for a slab with real n; only Im(rn E) and F depend on the shift.
# ---------------------------------------------------------------------------

def _absorbing_parts(omega, n, d, shifts):
    """``[(r, tl2, |r|^2, A)]`` of one slab of index n at each of
    ``shifts``: r and tl2 with the operations of ``slab_fixed`` and
    ``slab_offset`` (without the |t|^2 and g that Z does not read), and
    its absorption A |F|^2 = A0 - A1 Im(rn E), A0 and A1 formed once."""
    re, im = n.real, n.imag
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * im * d
    em, em1 = (0.0, 1.0) if x > 1400.0 else (exp(-x), -expm1(-x))
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    rn2, q2 = rn * rn, q * q
    th0 = 2.0 * omega * re * d if d < inf else 0.0
    p = (1.0 + re) ** 2 + im * im
    a0 = (16.0 * (re * re * em1 - im * im * em)
          + 4.0 * re * ((1.0 - re) ** 2 + im * im) * em1 * (1.0 + em)) \
        / (p * p)
    a1 = 8.0 * im / p
    out = []
    for shift in shifts:
        E = em * complex(cos(th0 + shift), sin(th0 + shift))
        F = 1.0 - rn2 * E
        r = rn * (1.0 - E) / F
        out.append((r, q2 * E / (F * F), abs(r) ** 2,
                    (a0 - a1 * (rn * E).imag) / abs(F) ** 2))
    return out


def vacuum_baths(omega, a, d, matL, matR, offsets):
    """Zero-temperature bath integrand at omega for each triple of the grid
    ``offsets`` (see ``grid``), as a list: ``bath_integrand(omega, ...,
    inf, inf, sL, sR, sG)`` in value, as -4 Re[omega w / Delta] - omega B
    with the state bracket B in absorption form (see above)."""
    left, right, gaps, index = _grid_parts(omega, a, d, matL, matR, offsets,
                                           _absorbing_parts)
    out = []
    for iL, iR, iG in index:
        rL, tl2L, aL, AL = left[iL]
        rR, _, aR, AR = right[iR]
        gap = gaps[iG]
        w = rL * rR * gap
        delta = 1.0 - w
        if abs(delta) < DELTA_FLOOR:
            cavity_delta(rL, rR, gap)
        # 4 Re[w / Delta] |Delta|^2 = 4 Re w - 4 a b, merged into |Delta|^2 B
        out.append(-omega * (abs(rL * delta + rR * tl2L * gap) ** 2
                             + 2.0 * w.real - aL - aR + AL * (2.0 * aR + AR)
                             + 2.0 * aL * AR) / abs(delta) ** 2)
    return out


# ---------------------------------------------------------------------------
# One-triple forms: the integrands at one offset triple, unshifted unless
# offsets are given, which the force routines evaluate one frequency at a
# time.
#
# vacuum_bath_of, ic_bracket_of and bath_factors_of bind a cavity once and
# return its integrand at one frequency: both indices from the slabs'
# _index_of, each slab's parts from one call (_absorbing_slab for Z,
# _bracket_slab for the state bracket, slab_fixed and slab_offset for the
# bath factors), the gap phase, cavity_delta and the integrand.  Z's and
# the state bracket's forms take the arithmetic of their grid kernels in
# its order, so each returns their bits at that triple and raises their
# errors; ic_bracket_of also takes any offsets, and bath_factors_of, the
# bath kernel's only form, takes them as ic_bracket_of does.  No list of
# parts or offsets is built, and the material tuples are unpacked and
# compared once per cavity.
# ---------------------------------------------------------------------------

def _index_of(mat):
    """``index(s)``: ``refractive_at(s, *mat)`` to the bit, with the
    oscillator's constants bound once; the static and empty models and the
    pole, where it raises, go through ``refractive_at``."""
    omega0, omega_pl, gamma0, static = mat
    if static or omega_pl == 0.0:
        return lambda s: refractive_at(s, *mat)
    w2, p2 = omega0 * omega0, omega_pl * omega_pl

    def index(s):
        den = s * s + w2 + s * gamma0
        if abs(den) <= 1e-12 * max(abs(s) ** 2, w2, abs(s) * gamma0):
            return refractive_at(s, *mat)
        return cmath.sqrt(1.0 + p2 * (1.0 / den))
    return index


def _absorbing_slab(omega, n, d):
    """``_absorbing_parts`` of one slab at shift 0, ``(r, tl2, |r|^2,
    A)``, from its index in one step, with the same operations."""
    re, im = n.real, n.imag
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * im * d
    em, em1 = (0.0, 1.0) if x > 1400.0 else (exp(-x), -expm1(-x))
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    th = 2.0 * omega * re * d if d < inf else 0.0
    E = em * complex(cos(th), sin(th))
    F = 1.0 - rn * rn * E
    r = rn * (1.0 - E) / F
    p = (1.0 + re) ** 2 + im * im
    A = ((16.0 * (re * re * em1 - im * im * em)
          + 4.0 * re * ((1.0 - re) ** 2 + im * im) * em1 * (1.0 + em))
         / (p * p) - 8.0 * im / p * (rn * E).imag) / abs(F) ** 2
    return r, q * q * E / (F * F), abs(r) ** 2, A


def vacuum_bath_of(a, d, matL, matR):
    """Z's integrand ``f(omega)`` of the cavity: ``vacuum_baths(omega, a,
    d, matL, matR, grid((1,)))[0]`` to the bit (see above)."""
    same = matR == matL
    indexL, indexR = _index_of(matL), _index_of(matR)

    def f(omega):
        s = -1j * omega
        rL, tl2L, aL, AL = _absorbing_slab(omega, indexL(s), d)
        if same:
            rR, aR, AR = rL, aL, AL
        else:
            rR, _, aR, AR = _absorbing_slab(omega, indexR(s), d)
        gap = gap_phase(omega, a)
        w, delta = cavity_delta(rL, rR, gap)
        return -omega * (abs(rL * delta + rR * tl2L * gap) ** 2
                         + 2.0 * w.real - aL - aR + AL * (2.0 * aR + AR)
                         + 2.0 * aL * AR) / abs(delta) ** 2
    return f


def _bracket_slab(omega, n, d, shift):
    """``(r, tl2, t2a)`` of one slab at ``shift`` from its index in one
    step, with the operations of ``slab_fixed`` and ``slab_offset``."""
    rn = (1.0 - n) / (1.0 + n)
    x = 2.0 * omega * n.imag * d
    em = 0.0 if x > 1400.0 else exp(-x)
    q = 4.0 * n / ((1.0 + n) * (1.0 + n))
    th = (2.0 * omega * n.real * d if d < inf else 0.0) + shift
    E = em * complex(cos(th), sin(th))
    F = 1.0 - rn * rn * E
    return (rn * (1.0 - E) / F, q * q * E / (F * F),
            abs(q) ** 2 / abs(F) ** 2 * em)


def ic_bracket_of(a, d, matL, matR):
    """The state bracket ``bracket(omega, sL=0, sR=0, sG=0)`` of the
    cavity: at a triple (sL, sR, sG) of a grid, the value that
    ``ic_brackets(omega, a, d, matL, matR, offsets)`` takes there, to the
    bit (see above)."""
    same = matR == matL
    indexL, indexR = _index_of(matL), _index_of(matR)

    def bracket(omega, sL=0.0, sR=0.0, sG=0.0):
        s = -1j * omega
        nL = indexL(s)
        rL, tl2L, t2aL = _bracket_slab(omega, nL, d, sL)
        if same and sR == sL:
            rR, t2aR = rL, t2aL
        else:
            rR, _, t2aR = _bracket_slab(omega, nL if same else indexR(s), d,
                                        sR)
        gap = gap_phase(omega, a, sG)
        _, delta = cavity_delta(rL, rR, gap)
        d2 = abs(delta) ** 2
        rho = rL + rR * tl2L * gap / delta
        return (1.0 + abs(rho) ** 2 + t2aL * t2aR / d2
                - (t2aL * (1.0 + abs(rR) ** 2) + t2aR * (1.0 + abs(rL) ** 2))
                / d2)
    return bracket


def bath_factors_of(a, d, matL, matR):
    """The bath kernel's weight-free parts ``factors(omega, sL=0, sR=0,
    sG=0)`` of the cavity at one offset triple: ``(cL, cR, (near, m,
    far))``, cL and cR the slabs' prefactors 0.25 omega |1 + n|^2/|n|^2,
    near the left slab's near term, m = mL/|Delta|^2 and far the right
    slab's far term, which ``bath_weigh`` weighs by the occupations.  A
    slab that does not absorb has None for its prefactor and its terms."""
    same = matR == matL
    indexL, indexR = _index_of(matL), _index_of(matR)

    def factors(omega, sL=0.0, sR=0.0, sG=0.0):
        s = -1j * omega
        nL = indexL(s)
        nR = nL if same else indexR(s)
        cL, cR = _bath_prefactors(omega, nL, nR)
        if cL is None and cR is None:
            return cL, cR, (None, None, None)
        fL = slab_fixed(omega, nL, d)
        fR = fL if same else slab_fixed(omega, nR, d)
        left = slab_offset(fL, sL)
        right = left if same and sR == sL else slab_offset(fR, sR)
        return cL, cR, _bath_terms(nL, nR, fL, fR, left, right,
                                   gap_phase(omega, a, sG), cL is not None,
                                   cR is not None)
    return factors


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


def slab_r_rot(kappa, n, d):
    """Slab reflection at s = kappa (real); |E| <= 1 and n >= 1 keep the
    exponent non-positive, so the evaluation never overflows."""
    rn = (1.0 - n) / (1.0 + n)
    E = exp(-2.0 * kappa * n * d)
    return rn * (1.0 - E) / (1.0 - rn * rn * E)


def roundtrip_rot_direct(kappa, a, d, matL, matR):
    """Cavity round-trip factor w = rL rR e^{-2 kappa a} from slab formulas."""
    nL = refractive_rot(kappa, matL[0], matL[1], matL[2], matL[3])
    nR = refractive_rot(kappa, matR[0], matR[1], matR[2], matR[3])
    return slab_r_rot(kappa, nL, d) * slab_r_rot(kappa, nR, d) * exp(
        -2.0 * kappa * a)


def nodiss_bracket(omega, a, d, matL, matR):
    """Unitarity-reduced force bracket 2 - (|tL|^2(1+|rR|^2)+|tR|^2(1+|rL|^2))/|Delta|^2.

    Valid (equal to ic_bracket) only for dissipationless slabs.
    """
    left, right, gaps, _ = _grid_parts(omega, a, d, matL, matR, grid((1,)),
                                       _bracket_parts)
    (rL, _, t2aL), (rR, _, t2aR) = left[0], right[0]
    _, delta = cavity_delta(rL, rR, gaps[0])
    d2 = abs(delta) ** 2
    return 2.0 - (t2aL * (1.0 + abs(rR) ** 2) + t2aR * (1.0 + abs(rL) ** 2)) / d2
