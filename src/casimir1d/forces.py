"""Net pressure on the cavity slabs, split into state and bath parts.

The force on either slab is the difference of the radiation pressure on its
outer and inner faces.  It separates exactly into two additive integrals:

* a state part (``force_ic``): the initial field state weighs every mode k
  of the free field, and the slab scattering redistributes that pressure;
* a bath part (``force_bath``): the dissipative slabs radiate thermally at
  their own temperatures, independently of the field state.

Both integrands are linear in their occupation weights (the state weight
and the two baths' coth(beta k / 2)), so each part is assembled from
zero-temperature pieces plus thermal or squeezing excesses over the vacuum
weight.  The excess weights decay exponentially or live on a band window,
so the excesses are finite-interval integrals.  At zero temperature the
state and bath integrands add up to one analytic round-trip integrand whose
integral R, rotated onto the imaginary frequency axis, decays like
exp(-2 kappa gap) (Antezza, Pitaevskii, Stringari and Svetovoy, PRA 77,
022901 (2008)).  With Z the zero-temperature bath integral,

    force_ic   = R - Z + state excess,
    force_bath = Z + bath excess,

so Z cancels from the total in value and only its rounding remains there.
Z is the one real-axis oscillatory integral per cavity and spec; it is
memoized per process.  Lossless pairs have no bath (Z = 0), so their state
force is R alone.  Half-spaces are slabs of infinite width, whose bare
state and bath integrals both diverge; their grouped force is R plus the
thermal excesses, with no real-axis oscillatory integral
(``halfspace_forces``).

The real-axis oscillatory integrals (Z and the two-integral route kept as
an independent check) oscillate under three linear phases (one per slab
thickness and one for the gap round trip) on top of slowly decaying
absorption envelopes.  Each is evaluated in two stages: adaptive
quadrature up to a switch point K, then quadrature of the phase-averaged
integrand on t = (K/k)^2 in (0, 1] less the signed edge terms S(K) of the
oscillation it drops.  S sums, over every harmonic j of
the phase grid that the average drops, three integrations by parts of
h_j e^{i j . phi} at rate j . phi', with derivatives from a seven-point
stencil (Iserles and Norsett's asymptotic method); harmonics too slow for
it are left out of S and bounded in the error.  K is the first point of
a ladder from the first candidate k0, past the slabs' response features,
where the measured error of S fits the tail's share of the budget.  The
walk starts where closed-form decay ratios of the harmonics (the slab pole
radius and the gap round trip |rL rR|), scaling the harmonics sampled at
k0, predict that it fits.  The error of S (its stencil error, the
variation of its last order along the ladder past K, the harmonics past
the grid and the slow ones), the tail's quadrature error and its
evaluation noise are folded into the returned estimate.
Below K two adaptive passes run: a coarse one over [0, k0] that fixes the
absolute error budget, then the direct one over [0, K] to that budget.
They share most of their panels, so within one integral every raw value
and every sized band mean (keyed on k and its offset count) is computed
once, and the direct pass calls the kernel only at points the coarse pass
did not sample.
Two identical slabs share one slab phase, so their phase average runs over
the diagonal of common slab offsets times the gap offsets.

Below the switch point three layout features keep the adaptive passes off
structure they would otherwise chase blindly:

* slab bands: one scan sorts the k of an identical pair into three kinds.
  Where the slab round-trip phase 2 k Re(n) d runs far faster than the gap
  phase, a dense band has a sharp slab comb, its slabs neither opaque nor
  weakly reflecting (below a weakly damped resonance, sharp slab resonances
  pile up), and a shallow band has a shallow comb (|rn^2 E| below the dense
  band's) while its slabs are not opaque (e^{-2 k Im(n) d} >= 1e-6).  There
  the passes integrate the mean over the common slab phase, while
  quadrature still resolves the gap phase, and the band edges are
  breakpoints.  The coarse pass takes the dense bands, the direct pass both
  kinds.  A shallow band is used only when the slab is opaque just past
  each of its edges inside the scan, where the dropped oscillation
  vanishes: on the docs cavity one below the stop band, from k -> 0 to
  where the slab turns opaque under the resonance, and one above it, from
  where the slab clears to the switch point.  The strips of
  ``band_excess_curve`` use both; their windows end inside the clear comb,
  so each adds the signed edge terms of the dropped oscillation there;
* bound gap modes: inside each absorbing slab's stop band the cavity
  denominator D(k) = 1 - rL rR e^{2ika} dips at the bound modes, each a
  complex zero k_p = k_m - i w that Newton's method finds from a scan
  minimum of |D|.  A mode far narrower than a panel is a Lorentzian spike
  that refinement would chase; the passes subtract its pole term
  Re[A / (k - k_p)], fitted to the integrand at k_m and k_m + w, over a
  window of 1e4 w on each side, and add back the term's exact integral
  there, so the smooth remainder is all they integrate.

Across both kinds of band one bound on the dropped slab oscillation joins
the error estimate: each slab harmonic h_j e^{i j phi} is integrated by
parts three times, leaving edge terms at orders 1/j, 1/j^2 and 1/j^3 plus
the variation of the last, counted for both signs of j, from the harmonics
sampled once on a grid across the band that resolves the gap phase.  The
harmonics fall like rho^j, with rho the closed-form radius of the
integrand's poles in e^{i phi}.  A grid point where rho is small (all of
the shallow bands of the docs cavity) samples the harmonics until rho^j
falls to 1e-12 and bounds the rest by a geometric tail; one where rho is
large (every dense-band point) takes 32 samples and sums j <= 15.  In every
band each mean takes, in one call, the offsets that hold its aliased
harmonics to its tolerance, and both passes share one bound and mean per
band.  The sigma ladder adds the signed edge terms instead, with
derivatives by finite differences at each window end, and keeps only the
variation of the last order, the stencil error and the tail in its error;
past the switch point its windows take the mean over every phase and the
edge terms of every harmonic, as the tail does.

Undamped slabs leave the real-axis tail undamped, so no classical improper
integral exists there; only the rotated R and the absolutely convergent
excesses are used for them.  R has one route, the direct slab product on
the imaginary axis, which ``equilibrium_matsubara`` samples too.  The
dissipationless entry point shares it and integrates the state excess with
the unitarity-reduced bracket instead of the full one, so its excess
remains an independent check of ``force_ic`` at every non-vacuum state.
"""

import cmath
import functools
import math
import operator
import sys

from ._value import Frozen
from .errors import (DeltaStateWeightError, NaNIntegrandError,
                     NonConvergenceError)
from .kernels import core
from .quadrature import integrate_interval, integrate_semiinfinite, matsubara_sum
from .scattering import CavityConfig
from .states import FieldState, band_edges, weight

__all__ = [
    "ForceBreakdown",
    "band_excess_curve",
    "equilibrium_matsubara",
    "force_bath",
    "force_delta_squeezed",
    "force_dissipationless",
    "force_ic",
    "force_total",
    "halfspace_forces",
    "lifshitz_matsubara",
]

# Offsets per oscillation phase in the tail average.  Four equidistant
# offsets cancel every Fourier harmonic of a phase up to third order; the
# surviving fourth harmonic carries at least the fourth power of a slab
# round-trip factor, far below the tail budget wherever the average is used.
_SHIFTS = 4
# The one offset triple (sL, sR, sG) of the unshifted integrand.
_RAW = ((0.0, 0.0, 0.0),)
# Slab bands of identical slabs (see ``_kind``): where the slab round-trip
# phase runs at least _DENSE_RATE times faster than the gap phase, the passes
# below the switch point integrate the mean over the common slab phase
# instead of resolving each slab period.  A dense band's internal round trip
# |rn^2 E| lies in [_SHARP_MIN, _SHARP_MAX], where the slab resonances are
# sharp; the upper limit keeps the geometric convergence of the mean fast.
_DENSE_RATE = 100.0
_SHARP_MIN = 0.25
_SHARP_MAX = 0.9
# Rounding floor of the slab-phase mean tolerance, in units of the
# evaluation noise _NOISE_EPS * k at the bands' top: two means of a shallow
# comb differ only by rounding once their harmonics are gone (up to 2.1 units
# on the docs cavity, where k times the state bracket cancels to 1e-4 of its
# terms), so a tolerance below that buys offsets and no accuracy.  The same
# floor keeps the rounding of the sampled harmonics out of their amplitude.
_MEAN_NOISE = 8.0
# A shallow band's comb is shallower (|rn^2 E| < _SHARP_MIN) while the slab
# is not opaque (e^{-2 k Im(n) d} >= _CLEAR_MIN).  One scan finds both kinds
# (see ``_bands``); a shallow run is used only when the slab is opaque just
# past each of its edges inside the scan.
_CLEAR_MIN = 1e-6
# The band bound samples the slab harmonics at _HARM_GRID points per gap
# period pi/a.  Each point takes the harmonics until their pole radius rho
# raised to the j falls to _HARM_DROP, from at most _HARM_OFFSETS diagonal
# samples, and each mean the offsets it needs (see ``_band_bounds``).  A
# point with rho at most _RHO_MAX adds a geometric tail past its last
# harmonic; one above it (every dense-band point, where rho^15 stays large)
# has none.
_HARM_OFFSETS = 32
_HARM_GRID = 8
_HARM_DROP = 1e-12
_RHO_MAX = 0.25
# The signed edge sum takes the derivatives of the harmonics at a window end
# x from seven samples _FD_STEP apart, centred on x, or starting at x where
# x < 3 _FD_STEP (k = 0); the five inner (or first) samples give a
# lower-order sum, whose difference from it is the sum's stencil error.
# _STENCIL_NODES holds the central and the one-sided nodes, in that order.
_FD_STEP = 2e-3
_STENCIL_NODES = (tuple(range(-3, 4)), tuple(range(7)))
# Bisection steps placing a band edge between two scan points.
_EDGE_STEPS = 40
# Bound gap modes narrower than this fraction of the panel width are
# subtracted as pole terms over a window of _POLE_WINDOW half widths on each
# side, or half the distance to the stop band's nearer edge where that is
# smaller (see ``_pole_terms``).
_MODE_NARROW = 1e-3
_POLE_WINDOW = 1e4
# Least number of scan points bracketing the modes of one stop band, and
# the most Newton steps from a scan minimum to the mode's complex zero.
_MODE_SCAN = 64
_NEWTON_STEPS = 30
# Past the switch point K the tail integrates the phase average and
# subtracts the signed edge terms of the harmonics at K.  K is the first
# point of the ladder k0 _LADDER^i, from the one predicted in closed form,
# whose measured edge-term error fits the tail's share of the budget.  The
# variation of the edge terms' last order is summed along the same ladder,
# up to where the harmonics whose last order still rises hold at most
# _AXIS_DROP of it.  Harmonics whose
# logarithmic slope exceeds _SLOW times their rate (the mild pair's
# (-1, 1, 0) runs at 7e-4) are left out of the edge terms and bounded in
# their error.  Each phase of the grid takes the samples whose last
# harmonic is _AXIS_DROP of its first.  Where a slab reflects without
# absorbing, harmonics falling slower than k^-_PERSISTENT (like 1/k) have
# no absolutely convergent tail and are refused.  The mapped averaged tail
# takes at most _MAX_TAIL_PANELS panels.
_LADDER = 2.0 ** 0.125
_SLOW = 0.5
_AXIS_DROP = 1e-3
_PERSISTENT = 1.5
_MAX_TAIL_PANELS = 240
# Absolute rounding noise of one bracket evaluation is a few ulps of its
# O(1) intermediates; the force integrands carry an extra factor k.  The
# passes must not chase structure below this floor, and the floor, summed
# over the k the averaged tail samples, belongs in the reported error.
_NOISE_EPS = 2e-16
# Zero-temperature bath integrals memoized per process.  A sweep or a
# nonequilibrium study needs one entry; the bound keeps a long-running
# caller from growing.
_VACUUM_CACHE_SIZE = 32
# Relative rounding allowance for the zero-temperature bath integral Z that
# cancels from the total: a few ulps of |Z|, since it enters and leaves
# through a handful of additions of that magnitude.
_CANCEL_ROUNDING = 4.0 * sys.float_info.epsilon
_ZERO = (0.0, 0.0)


class ForceBreakdown(Frozen):
    """State part, bath part, their exact sum, and their error estimates.

    ``total`` is always ``ic + bath`` by construction.  ``err_ic`` and
    ``err_bath`` are honest for each part on its own, so each carries the
    error of the zero-temperature bath integral Z; Z cancels from the total,
    so ``err_total`` carries only its rounding.  The inputs are the
    caller's: the breakdown holds only the six numbers.
    """

    __slots__ = ("ic", "bath", "total", "err_ic", "err_bath", "err_total")

    def __init__(self, ic, bath, total, err_ic, err_bath, err_total):
        self._assign(ic, bath, total, err_ic, err_bath, err_total)


def _absorbing(mat):
    """True when the material actually dissipates (finite damped response)."""
    return (not mat.static) and mat.omega_pl > 0.0 and mat.gamma0 > 0.0


def _undamped_dispersive(mat):
    """Dispersive but lossless: real poles and bound cavity modes."""
    return (not mat.static) and mat.omega_pl > 0.0 and mat.gamma0 == 0.0


def _breakpoints(matL, matR):
    """Panel edges seeded at the oscillator response features of both slabs.

    Placing the resonance and its damping-width neighborhood on panel
    boundaries keeps the open quadrature nodes off the sharp core and lets
    the local refinement concentrate where the response actually varies.
    """
    pts = set()
    for m in (matL, matR):
        if m.static or m.omega_pl == 0.0:
            continue
        w0 = m.omega0
        pts.add(w0)
        widths = [0.05 * w0]
        g = m.gamma0
        if g > 0.0:
            widths += [g, 10.0 * g, 100.0 * g]
        for h in widths:
            if w0 - h > 0.0:
                pts.add(w0 - h)
            pts.add(w0 + h)
        # upper edge of the reflective band of the undamped response
        pts.add(math.sqrt(w0 * w0 + m.omega_pl * m.omega_pl))
    return tuple(sorted(pts))


def _endpoint_check(f, k_min=1e-8):
    """Evaluate the integrand just above k = 0 and reject non-finite values."""
    v = f(k_min)
    if not math.isfinite(v):
        raise NaNIntegrandError(k_min)


def _diagonal(offsets):
    """Offset triples with one common offset on both slab phases and none
    on the gap phase."""
    return [(s, s, 0.0) for s in offsets]


# Offset slots (sL, sR, sG) of each oscillation phase, outermost first, for
# ``naxes`` phases: two different slabs have three phases; identical slabs
# two, whose one slab phase shifts both slab slots (the diagonal sL = sR).
_SLOTS = {2: ((2,), (0, 1)), 3: ((0,), (1,), (2,))}


def _even(n):
    """n equidistant offsets from 0."""
    return [2.0 * math.pi * i / n for i in range(n)]


def _grid(slots, dims):
    """Offset triples of the product grid of ``dims[a]`` equidistant
    offsets on the offset slots ``slots[a]`` of each phase, first phase
    outermost; every grid leads with the unshifted triple (0, 0, 0)."""
    grid = [(0.0, 0.0, 0.0)]
    for places, n in zip(slots, dims):
        grid = [tuple(s if i in places else t[i] for i in range(3))
                for t in grid for s in _even(n)]
    return tuple(grid)


def _phase_grid(naxes):
    """Offset triples (sL, sR, sG) of the phase average over ``naxes``
    phases (see ``_SLOTS``), ``_SHIFTS`` offsets per phase."""
    return _grid(_SLOTS[naxes], (_SHIFTS,) * naxes)


_PHASE_GRIDS = {n: _phase_grid(n) for n in _SLOTS}


def _phase_average(shifted, k, naxes):
    """Discrete mean of the integrand over offsets of its oscillation phases.

    ``shifted(k, offsets)`` evaluates the integrand at k once per additive
    offset triple (sL, sR, sG) on the left-slab, right-slab and gap phases;
    ``naxes`` is as in ``_phase_grid``.
    """
    vals = shifted(k, _PHASE_GRIDS[naxes])
    return sum(vals) / len(vals)


def _harmonics(shifted, comb, k, n, index=None):
    """Slab harmonics h_j(k), j = 0 .. n / 2 - 1, at k, from n samples.

    With phi the slab round-trip phase of the identical slabs of ``comb``,
    the integrand is the sum over j of h_j(k) e^{i j phi(k)}, where h_j
    varies only with the gap phase; h_0 is the slab-phase mean.  The DFT of
    the diagonal samples gives h_j e^{i j phi}; the Nyquist harmonic, whose
    size is the pole radius to the power n / 2, is left out.  ``index`` is
    the slab's refractive index at k, when the caller has it.
    """
    c = _dft(shifted(k, _diagonal(_even(n))), (n,))
    phi = _slab_phase(comb.left, comb.width, k, index)
    return [c[j, ] * cmath.exp(-1j * j * phi) for j in range(n // 2)]


def _args(cfg):
    """``(a, d, left, right)``: the gap, the width and the two slabs'
    material tuples of the cavity ``cfg``, as the kernels take them."""
    return cfg.gap, cfg.width, cfg.left.as_tuple(), cfg.right.as_tuple()


def _rotated(cfg, c):
    """``g(xi)`` = c xi w / (1 - w) of the cavity ``cfg`` at imaginary
    frequency xi, with w the real rotated round-trip factor
    rL rR e^{-2 xi gap}."""
    a, d, tl, tr = _args(cfg)

    def g(xi):
        w = core.roundtrip_rot_direct(xi, a, d, tl, tr)
        return c * xi * w / (1.0 - w)
    return g


def _index(mat, k):
    """Refractive index of ``mat`` at real frequency k."""
    return core.refractive_at(-1j * k, *mat.as_tuple())


def _surface(mat, d, k, n=None):
    """``(n, rn, E0)`` of a slab of ``mat`` and width d at real k: its
    refractive index n (computed when not given), its surface reflection
    rn = (1 - n) / (1 + n) and its internal transmission
    E0 = e^{-2 k Im(n) d}, 0 past the exponent 700."""
    if n is None:
        n = _index(mat, k)
    x = 2.0 * k * n.imag * d
    return n, (1.0 - n) / (1.0 + n), math.exp(-x) if x < 700.0 else 0.0


def _pole_radius(cfg, k, n=None):
    """Decay ratio rho of the slab harmonics of identical slabs at k, from
    their refractive index n there (computed when not given).

    On the diagonal the integrand is rational in z = e^{i phi}.  With rn the
    surface reflection, E0 = e^{-2 k Im(n) d} and u = e^{i k a}, the cavity
    denominator factors as (F - rn u (1 - E))(F + rn u (1 - E)) with
    E = E0 z and F = 1 - rn^2 E, and the integrands also divide by F.  Their
    poles lie at |z| = 1 / rho_p with rho_p = E0 |rn| |rn -+ u| / |1 -+ rn u|
    and E0 |rn|^2, so the harmonics fall like the largest, rho^j.
    """
    _, rn, e0 = _surface(cfg.left, cfg.width, k, n)
    u = cmath.exp(1j * k * cfg.gap)
    return e0 * abs(rn) * max(
        abs(rn - u) / abs(1.0 - rn * u), abs(rn + u) / abs(1.0 + rn * u),
        abs(rn))


def _sized_harmonics(shifted, comb, k, rho, index=None):
    """``(h0, harmonics, C)`` at k, where the pole radius is ``rho``: the
    mean h_0, h_j for 1 <= j <= J, J the least with rho^J <= _HARM_DROP but
    at most _HARM_OFFSETS / 2 - 1, from 2J + 2 samples, and the amplitude
    C = max |h_j| / (j rho^j) over h_1 and the harmonics above the rounding
    floor.  ``index`` is as in ``_harmonics``.

    The model |h_j| <= C j rho^j allows for a pair of near-coincident poles
    of opposite residue, whose harmonics rise before they decay.
    """
    J = 1
    while J < _HARM_OFFSETS // 2 - 1 and rho ** J > _HARM_DROP:
        J += 1
    h0, *harm = _harmonics(shifted, comb, k, 2 * J + 2, index)
    floor = _MEAN_NOISE * _NOISE_EPS * k
    return h0, harm, max(abs(h) / (j * rho ** j)
                         for j, h in enumerate(harm, 1)
                         if j == 1 or abs(h) > floor)


@functools.lru_cache(maxsize=None)
def _roots(n):
    """``(j, e^{-2 pi i j l / n} for l < n)`` for every |j| < n / 2."""
    return tuple((j, tuple(cmath.exp(-2j * math.pi * j * i / n)
                           for i in range(n)))
                 for j in range(1 - n // 2, n // 2))


def _dft(vals, dims, lead=True):
    """``{j: c_j}``: the DFT coefficients of ``vals``, sampled on the
    product grid of ``dims`` (see ``_grid``), for every index vector j
    with |j_a| < dims[a] / 2 and, with ``lead``, j_0 >= 0, which keeps one
    of each pair +-j with j_0 != 0 (c_-j is the conjugate of c_j for a
    real integrand).  The integrand is the sum over j of c_j e^{i j . s} in
    the offsets s."""
    if not dims:
        return {(): vals[0]}
    n = dims[0]
    m = len(vals) // n
    out = {}
    for j, tw in _roots(n):
        if lead and j < 0:
            continue
        row = [sum(t * vals[i * m + r] for i, t in enumerate(tw)) / n
               for r in range(m)]
        for rest, c in _dft(row, dims[1:], False).items():
            out[(j,) + rest] = c
    return out


def _leads(j):
    """True for the one of each pair of harmonics +-j (j != 0) whose first
    nonzero index is positive; h_-j is the conjugate of h_j."""
    return next((x for x in j if x), 0) > 0


def _first_switch(spec, cfg):
    """First switch point candidate k0 of the cavity ``cfg``: four gap
    periods, eight panels and 1.3 times the top of the slabs' response
    features (see ``_response_top``)."""
    return max(8.0 * spec.panel_width, 4.0 * math.pi / cfg.gap,
               1.3 * _response_top(cfg))


def _coarse(spec):
    """The cheap pass that fixes the absolute error budget."""
    return spec.replace(rel_tol=1e-2, abs_tol=max(spec.abs_tol, 1e-8),
                   max_panels=max(2000, spec.max_panels // 10))


def _response_top(cfg):
    """Top of the response features of the slabs of ``cfg``: the upper
    edge sqrt(omega0^2 + omega_pl^2) of each dispersive slab's stop band, or
    omega0 + gamma0 where that is higher.  Past it the index approaches
    its asymptote 1 - omega_pl^2 / (2 k^2) monotonically."""
    return max([0.0] + [max(math.hypot(m.omega0, m.omega_pl),
                            m.omega0 + m.gamma0)
                        for m in (cfg.left, cfg.right)
                        if not m.static and m.omega_pl > 0.0])


def _phase_axes(cfg):
    """``(slots, mat)`` of each oscillation phase of the cavity ``cfg``, as
    in ``_SLOTS``: its offset slots and its slab, None for the gap phase.
    Identical slabs have one common slab phase besides the gap phase,
    different slabs one each."""
    naxes = 2 if cfg.left == cfg.right else 3
    mats = {(2,): None, (0, 1): cfg.left, (0,): cfg.left, (1,): cfg.right}
    return tuple((slots, mats[slots]) for slots in _SLOTS[naxes])


def _phases(cfg, axes, k):
    """``(phases, rates)`` at k of the phases ``axes``: the slab round-trip
    phase 2 k Re(n) d of each slab axis and the gap round-trip phase 2 k a,
    and their rates."""
    phases, rates = [], []
    for slots, mat in axes:
        if slots == (2,):
            phases.append(2.0 * cfg.gap * k)
            rates.append(2.0 * cfg.gap)
        else:
            phases.append(_slab_phase(mat, cfg.width, k))
            rates.append(_slab_rate(mat, cfg.width, k))
    return phases, rates


def _decay_ratios(cfg, axes, k):
    """Closed-form ratio of successive harmonics of each phase of ``axes``
    at k.

    With rn the surface reflection and E0 = e^{-2 k Im(n) d} of a slab, its
    reflection reaches at most rbar = |rn| (1 + E0) / (1 - |rn|^2 E0) over
    its slab phase, and the cavity denominator 1 - rL rR e^{2ika} makes the
    gap harmonics fall like rbarL rbarR.  The slab phase of identical slabs
    falls like their pole radius (``_pole_radius``); that of one of two
    different slabs like E0 |rn| (|rn| + rbar') / (1 - |rn| rbar'), rbar'
    the other slab's.
    """
    surf = []
    for mat in (cfg.left, cfg.right):
        n, rn, e0 = _surface(mat, cfg.width, k)
        rn = abs(rn)
        surf.append((n, rn, e0, rn * (1.0 + e0) / (1.0 - rn * rn * e0)))
    out = []
    for slots, _ in axes:
        if slots == (2,):
            out.append(surf[0][3] * surf[1][3])
        elif slots == (0, 1):
            out.append(_pole_radius(cfg, k, surf[0][0]))
        else:
            _, rn, e0, _ = surf[slots[0]]
            other = surf[1 - slots[0]][3]
            out.append(e0 * rn * (rn + other) / (1.0 - rn * other))
    return out


def _predicted(cfg, axes, k0, harm, share, k_max):
    """The first point k0 _LADDER^i up to ``k_max`` where the variation of
    the last order of the signed edge terms, predicted from the harmonics
    ``harm`` ({j: h_j} at k0), fits ``share``; the first point past
    ``k_max`` where none does.

    Harmonic j of modulus |h_j| at k0 is predicted to fall with the
    product of its phases' closed-form decay ratios rho_a (see
    ``_decay_ratios``) to the power |j_a|, its logarithmic slope g_j being
    the sum of |j_a| d ln rho_a / dk between neighbouring ladder points.  A
    harmonic of rate w_j = j . phi' leaves, after three integrations by
    parts, the variation 2 |h_j| g_j^2 / |w_j|^3 past k.  Harmonics at the
    rounding floor or whose ratios vanish at k0, and the slow ones
    (g_j > _SLOW |w_j|, which the edge terms leave out), are left to the
    terms measured at K.
    """
    floor = _MEAN_NOISE * _NOISE_EPS * k0
    r0 = _decay_ratios(cfg, axes, k0)
    live = [(j, abs(h)) for j, h in harm.items()
            if _leads(j) and abs(h) > floor
            and all(r0[a] > 0.0 for a, x in enumerate(j) if x)]
    k, r = k0, r0
    while k <= k_max:
        k1 = k * _LADDER
        r1 = _decay_ratios(cfg, axes, k1)
        rates = _phases(cfg, axes, k)[1]
        err = 0.0
        for j, h in live:
            amp, slope = h, 0.0
            for a, x in enumerate(j):
                if x and r[a] > 0.0 and r1[a] > 0.0:
                    amp *= (r[a] / r0[a]) ** abs(x)
                    slope += abs(x) * math.log(r1[a] / r[a]) / (k1 - k)
                elif x:
                    amp = 0.0
            rate = abs(sum(map(operator.mul, j, rates)))
            if abs(slope) <= _SLOW * rate:
                err += 2.0 * amp * slope * slope / rate ** 3
        if err <= share:
            return k
        k, r = k1, r1
    return k


def _switch(f, spec, cfg, axes, edges, below=None, breakpoints=()):
    """``(K, -S(K), err, budget)``: the switch point of the integrand
    ``f(k, offsets)`` with phases ``axes``, minus the signed edge terms
    there (``edges``, see ``_above_edges``) and their error, and the
    absolute error budget, rel_tol times the scale max(|c0|, k0 |mean(k0)|,
    abs_tol), mean the phase average and c0 the coarse pass of
    ``below(k)`` over [0, k0] with ``breakpoints`` (0 without ``below``).
    The tail's share is a quarter of the budget.  ``_oscillatory_integral``
    passes a ``below`` that keeps its raw values and band means, so its
    direct pass reuses every point of this coarse pass.

    The phase average at k0 comes with the harmonics on its grid.  Where
    the first order of each, 2 |h_j / w_j| with w_j = j . phi', doubled for
    its variation past k0 and raised by rho_a / (1 - rho_a) for the
    harmonics past the grid on each of its phases, fits the share in sum,
    K = k0 and that sum is the error, with no edge terms.  Otherwise the
    harmonics at k0 predict a first point of the ladder k0 _LADDER^i
    (``_predicted``, to half the share), and K is the first point from
    there on whose measured edge terms have an error that fits the share.
    NonConvergenceError where none does within the reach of max_panels
    (half of its panels, or k0).  Where a slab reflects without absorbing,
    a harmonic whose first order exceeds the share and that falls slower
    than k^-_PERSISTENT has no absolutely convergent tail and is refused.
    """
    k0 = _first_switch(spec, cfg)
    c0 = 0.0
    if below is not None:
        try:
            c0 = integrate_interval(below, 0.0, k0, _coarse(spec),
                                    breakpoints=breakpoints)[0]
        except NonConvergenceError as exc:
            c0 = exc.partial if exc.partial is not None else 0.0
    vals = f(k0, _PHASE_GRIDS[len(axes)])
    scale = max(abs(c0), abs(sum(vals) / len(vals)) * k0, spec.abs_tol)
    budget = max(spec.abs_tol, spec.rel_tol * scale)
    share = 0.25 * budget
    harm = _dft(vals, (_SHIFTS,) * len(axes))
    rates = _phases(cfg, axes, k0)[1]
    ratios = _decay_ratios(cfg, axes, k0)
    first = 0.0
    for j, h in harm.items():
        if _leads(j):
            w = abs(sum(map(operator.mul, j, rates)))
            first += (4.0 * abs(h) / w if w > 0.0 else math.inf) * (
                1.0 + sum(r / (1.0 - r) if r < 1.0 else math.inf
                          for r, x in zip(ratios, j) if x))
    if first <= share:
        return k0, 0.0, first, budget
    mirror = any(m.omega_pl > 0.0 and not _absorbing(m)
                 for m in (cfg.left, cfg.right))
    k_max = max(k0, 0.5 * spec.max_panels * spec.panel_width)
    K = _predicted(cfg, axes, k0, harm, 0.5 * share, k_max)
    while K <= k_max:
        s, err, terms = edges(K)
        for h, dh, w, _ in terms.values():
            if not mirror or 2.0 * abs(h / w) <= share:
                continue
            p = -K * (dh / h).real
            if p < _PERSISTENT:
                raise NonConvergenceError(
                    "oscillation amplitude decays like 1/k (a persistent "
                    "reflection): at k = %.3e a harmonic of first order "
                    "%.3e falls like k^-%.2f" % (K, 2.0 * abs(h / w), p),
                    partial=None, error=2.0 * abs(h / w), panels=0)
        if err <= share:
            return K, s, err, budget
        K *= _LADDER
    raise NonConvergenceError(
        "no switch point within the reach of max_panels (k <= %.3e): the "
        "edge terms from k = %.3e stay above %.3e" % (k_max, k0, share),
        partial=None, error=math.inf, panels=0)


def _axis_size(rho):
    """Samples of a phase whose harmonics fall like ``rho``: the least even
    count, from _SHIFTS, whose last harmonic is _AXIS_DROP of the first,
    but at most _HARM_OFFSETS."""
    n = _SHIFTS
    while n < _HARM_OFFSETS and rho ** (n // 2 - 1) > _AXIS_DROP:
        n += 2
    return n


def _edge_terms(hs, rates, phases, nodes, step, floor, slow):
    """``(S, err, terms)``: the signed edge sum at the centre x of the
    stencil ``nodes`` (unit ``step``).

    ``hs`` holds, per node, the harmonics {j: h_j} of the integrand (one
    of each pair +-j), ``rates`` the rates of its phases, and ``phases``
    the phases at x.  S is the sum over j of
    2 Re[(sigma_0 - sigma_1 + sigma_2) e^{i j . phi(x)}], with
    sigma_0 = h_j / (i w_j), w_j = j . phi' and
    sigma_{m+1} = sigma_m' / (i w_j), the derivatives by the stencil; err
    is its stencil error, the difference from the sum with the lower-order
    stencil of the inner (or first) five nodes.  Harmonics at or below
    ``floor`` are left out, and so are the slow ones, whose logarithmic
    slope |h_j' / h_j| exceeds ``slow`` times |w_j|.  ``terms`` maps every
    other j to (h_j, h_j', w_j, sigma_2) at x, sigma_2 None where slow.
    """
    at = nodes.index(0)
    fits = []
    for part in (slice(0, 7), slice(0, 5) if at == 0 else slice(1, 6)):
        fits.append((part, _stencil(nodes[part], 1), _stencil(nodes[part], 2)))
    sums = [0.0, 0.0]
    terms = {}
    for j, h in hs[at].items():
        if floor and abs(h) <= floor:
            continue
        ws = [sum(map(operator.mul, j, r)) for r in rates]
        dh = sum(map(operator.mul, fits[0][1], [g[j] for g in hs])) / step
        if abs(dh) > slow * abs(ws[at] * h):
            terms[j] = (h, dh, ws[at], None)
            continue
        s0 = [g[j] / (1j * w) for g, w in zip(hs, ws)]
        iw = 1j * ws[at]
        turn = cmath.exp(1j * sum(map(operator.mul, j, phases)))
        for n, (part, w1, w2) in enumerate(fits):
            d1 = sum(map(operator.mul, w1, s0[part])) / step
            d2 = sum(map(operator.mul, w2, s0[part])) / step ** 2
            w1r = sum(map(operator.mul, w1, ws[part])) / step
            s2 = (d2 - d1 * w1r / ws[at]) / iw ** 2
            if n == 0:
                terms[j] = (h, dh, ws[at], s2)
            sums[n] += 2.0 * ((s0[at] - d1 / iw + s2) * turn).real
    return sums[0], abs(sums[0] - sums[1]), terms


def _above_edges(shifted, cfg, axes):
    """``edges(x0, x1=inf)``: ``(S(x1) - S(x0), err, terms)`` past the
    switch point, S the signed edge terms (``_edge_terms``, ``terms`` at
    x0) of the harmonics of the integrand that its phase average on the
    grid of ``axes`` drops, and S(inf) = 0: the raw integral over [x0, x1]
    is the average's plus S(x1) - S(x0).  The average on _SHIFTS offsets
    per phase keeps the harmonics whose indices are all multiples of
    _SHIFTS, so S leaves them out.

    At each end x the harmonics are sampled on a stencil of step
    _FD_STEP x, over a grid whose phases take ``_axis_size`` samples of
    their decay ratio at x.  The end's error adds to the stencil error, for
    a slow harmonic, the lesser of its first order 2 |h / w| doubled for
    its variation and, where it decays like k^-p with p > 1, the integral
    2 |h| x / (p - 1) of its modulus (the slope of a small harmonic reads
    its grid's aliasing, so it may look slow); and on each phase, the first
    order of its outermost harmonics times rho / (1 - rho), for the
    harmonics past the grid.  err adds the variation of the last order
    sigma_2 over [x0, x1]: its chords, 2 |sigma_2(y') - sigma_2(y)| per
    harmonic, along the ladder y = x0 _LADDER^i up to x1 or, sooner, up to
    the first y where the harmonics whose |sigma_2| rose over the step
    hold at most _AXIS_DROP of the sum of |sigma_2(y)|, with 2 |sigma_2(y)|
    for the fall past it.
    """
    slots = tuple(s for s, _ in axes)

    @functools.lru_cache(maxsize=None)
    def edge_sum(x):
        ratios = _decay_ratios(cfg, axes, x)
        dims = tuple(map(_axis_size, ratios))
        grid = _grid(slots, dims)
        nodes = _STENCIL_NODES[0]
        step = _FD_STEP * x
        hs, rates = [], []
        for z in nodes:
            t = x + step * z
            phases, rt = _phases(cfg, axes, t)
            hs.append({j: c * cmath.exp(-1j * sum(map(operator.mul, j,
                                                      phases)))
                       for j, c in _dft(shifted(t, grid), dims).items()
                       if _leads(j)})
            rates.append(rt)
            if z == 0:
                at, mid, rate = phases, hs[-1], rt
        s, err, terms = _edge_terms(
            [{j: h for j, h in g.items() if any(i % _SHIFTS for i in j)}
             for g in hs], rates, at, nodes, step,
            _MEAN_NOISE * _NOISE_EPS * x, _SLOW)
        for h, dh, w, s2 in terms.values():
            if s2 is None:
                p = -x * (dh / h).real
                err += min(4.0 * abs(h / w) if w else math.inf,
                           2.0 * abs(h) * x / (p - 1.0) if p > 1.0
                           else math.inf)
        # the first orders of the outermost harmonics of each phase, those
        # the average keeps included, stand for the harmonics past the grid
        firsts = {}
        for j, h in mid.items():
            w = sum(map(operator.mul, j, rate))
            if w and (j not in terms or terms[j][3] is not None):
                firsts[j] = 2.0 * abs(h / w)
        for a, (n, rho) in enumerate(zip(dims, ratios)):
            outer = sum(v for j, v in firsts.items()
                        if abs(j[a]) == n // 2 - 1)
            err += outer * rho / (1.0 - rho) if rho < 1.0 else math.inf
        return s, err, terms, {j: t[3] for j, t in terms.items()
                               if t[3] is not None}

    def edges(x0, x1=math.inf):
        s0, e0, terms, prev = edge_sum(x0)
        s1, e1 = edge_sum(x1)[:2] if x1 < math.inf else (0.0, 0.0)
        y, var = x0 * _LADDER, 0.0
        while y < x1:
            last = edge_sum(y)[3]
            var += _chord(prev, last)
            if sum(abs(v) for j, v in last.items()
                   if abs(v) > abs(prev.get(j, 0.0))) <= _AXIS_DROP * sum(
                       map(abs, last.values())):
                return s1 - s0, e0 + e1 + var + _chord(last, {}), terms
            y, prev = y * _LADDER, last
        return s1 - s0, e0 + e1 + var + _chord(prev, edge_sum(x1)[3]), terms
    return edges


def _derivative(ys, h):
    """Derivative of samples spaced h, by second-order differences."""
    out = [(4.0 * ys[1] - 3.0 * ys[0] - ys[2]) / (2.0 * h)]
    out += [(ys[i + 1] - ys[i - 1]) / (2.0 * h) for i in range(1, len(ys) - 1)]
    out.append((3.0 * ys[-1] - 4.0 * ys[-2] + ys[-3]) / (2.0 * h))
    return out


@functools.lru_cache(maxsize=None)
def _stencil(nodes, m):
    """Weights of the m-th derivative at 0 from samples at ``nodes`` (unit
    step), from the derivatives of the Lagrange basis."""
    out = []
    for i, zi in enumerate(nodes):
        poly, den = [1.0], 1.0
        for zk in nodes[:i] + nodes[i + 1:]:
            poly = [b - zk * a for a, b in zip(poly + [0.0], [0.0] + poly)]
            den *= zi - zk
        out.append(math.factorial(m) * poly[m] / den)
    return tuple(out)


def _tail(c, rho, J):
    """2 C times the sum over j > J of j rho^j where rho <= _RHO_MAX, else
    0: the harmonics past the last sampled one."""
    if rho > _RHO_MAX:
        return 0.0
    return 2.0 * c * rho ** (J + 1) * (J + 1 - J * rho) / (1.0 - rho) ** 2


def _band_bounds(shifted, comb, lo, hi):
    """The bound on the slab oscillation dropped by integrating the mean
    over a dense or shallow band [lo, hi] of the identical slabs of
    ``comb``, the mean itself, its size and the signed edge terms over parts
    of the band: returns ``(bound, mean, size, edges)``, where ``bound`` is
    a number for the whole band, ``mean(k, tol)`` is the slab-phase mean at
    k inside the band, within ``tol``, ``size`` is the integral of its
    modulus over the band by the trapezoid rule on the grid, and ``edges``
    is described below.

    Three integrations by parts of each harmonic integral of h_j e^{i j phi}
    leave the edge terms of u = h_j / phi', u' / phi' and (u' / phi')' / phi'
    over j, j^2 and j^3, plus the variation of the last over j^3 (Iserles
    and Norsett, Proc. R. Soc. A 461, 1383 (2005)).  h_-j is the conjugate
    of h_j, so each |j| counts twice.  The harmonics are sampled once on a
    grid of ``_HARM_GRID`` points per gap period across the band, which
    resolves their gap-phase variation: the bound takes the edge terms at
    the band's ends and the variation over every grid step.

    Each grid point takes its harmonics and their amplitude C from
    ``_sized_harmonics``.  Where its pole radius is at most ``_RHO_MAX``,
    the tail sum over j > J of 2 C j rho^j joins its edge terms and the
    variation of its grid steps; above that J reaches its cap and the bound
    sums j <= J only.  The mean at k takes the least number n of
    equidistant offsets whose aliased harmonics, at most
    2 C n rho^n / (1 - rho^n)^2 with C the larger amplitude of k's grid
    step, fit tol / 2.  Each mean is kept, keyed on (k, n), for the life
    of the closure: a pass that asks again at the same k and a tolerance
    that sizes the same n (the direct pass at the coarse pass's nodes)
    makes no kernel call.

    A fourth function, ``edges(x0, x1)``, returns ``(S(x1) - S(x0),
    err)``: the signed edge sum S(x) = sum over j != 0 and m < 3 of
    (-1)^m sigma_m(x) e^{i j phi(x)}, with sigma_0 = h_j / (i j phi') and
    sigma_{m+1} = sigma_m' / (i j phi'), which the raw integral over
    [x0, x1] adds to the mean's.  Its derivatives come from the harmonics
    sampled on a stencil at x (see ``_FD_STEP``); err adds each end's
    stencil error and its tail past the last harmonic to the variation of
    the last order over [x0, x1]: inside one grid step the change of the
    last order between x0 and x1, else its changes from x0 to the next grid
    point and from the last grid point to x1 plus the whole steps between.
    """
    m = max(2, int(math.ceil(_HARM_GRID * (hi - lo) * comb.gap / math.pi)))
    step = (hi - lo) / m
    ks = [lo + step * i for i in range(m)] + [hi]
    rates = [_slab_rate(comb.left, comb.width, k) for k in ks]
    ns = [_index(comb.left, k) for k in ks]
    rhos = [_pole_radius(comb, k, n) for k, n in zip(ks, ns)]
    h0s, harm, amps = zip(*(_sized_harmonics(shifted, comb, k, rho, n)
                            for k, rho, n in zip(ks, rhos, ns)))
    size = step * (sum(map(abs, h0s)) - 0.5 * (abs(h0s[0]) + abs(h0s[-1])))
    tails = [_tail(c, rho, len(h)) for h, c, rho in zip(harm, amps, rhos)]
    ends = [tails[0], tails[m]]
    jumps = [a + b for a, b in zip(tails, tails[1:])]
    # the last order sigma_2 = w / (i j)^3 of each harmonic at each point
    last = [{} for _ in ks]
    for j in range(1, max(map(len, harm)) + 1):
        u = [(h[j - 1] if j <= len(h) else 0.0) / r
             for h, r in zip(harm, rates)]
        v = [x / r for x, r in zip(_derivative(u, step), rates)]
        w = [x / r for x, r in zip(_derivative(v, step), rates)]
        for e, i in enumerate((0, m)):
            ends[e] += 2.0 * (abs(u[i]) / j + abs(v[i]) / j ** 2
                              + abs(w[i]) / j ** 3)
        for i in range(m + 1):
            last[i][j,] = w[i] / (1j * j) ** 3
        for i in range(m):
            jumps[i] += 2.0 * abs(w[i + 1] - w[i]) / j ** 3
    variation = [0.0]
    for x in jumps:
        variation.append(variation[-1] + x)

    def cell(x):
        """Grid steps (i, i') around x: i == i' on a grid point."""
        t = min(max((x - lo) / step, 0.0), float(m))
        i = int(round(t))
        if abs(t - i) <= 1e-9:
            return i, i
        return int(t), int(t) + 1

    @functools.lru_cache(maxsize=None)
    def sized(k, n):
        return sum(shifted(k, _diagonal(_even(n)))) / n

    def mean(k, tol):
        i, i1 = cell(k)
        c = max(amps[i], amps[i1])
        rho = _pole_radius(comb, k)
        n = 1
        while 4.0 * c * n * rho ** n > tol * (1.0 - rho ** n) ** 2:
            n += 1
        return sized(k, n)

    @functools.lru_cache(maxsize=None)
    def edge_sum(x):
        """``(S(x), err, last)``: err is the stencil error plus the tail
        past the last harmonic, last the last order of each harmonic."""
        nodes = _STENCIL_NODES[x < 3.0 * _FD_STEP]
        ts = [x + _FD_STEP * z for z in nodes]
        ns = [_index(comb.left, t) for t in ts]
        rho = max(_pole_radius(comb, t, n) for t, n in zip(ts, ns))
        _, hs, cs = zip(*(_sized_harmonics(shifted, comb, t, rho, n)
                          for t, n in zip(ts, ns)))
        at = nodes.index(0)
        s, err, terms = _edge_terms(
            [{(j,): h for j, h in enumerate(hj, 1)} for hj in hs],
            [[_slab_rate(comb.left, comb.width, t)] for t in ts],
            [_slab_phase(comb.left, comb.width, x, ns[at])], nodes,
            _FD_STEP, 0.0, math.inf)
        return s, err + _tail(cs[at], rho, len(hs[0])), {
            j: t[3] for j, t in terms.items()}

    def edges(x0, x1):
        """Within a grid step the variation is the chord of the last
        order between the window ends, else the chords to the grid points
        next inside plus the whole steps between them."""
        (s0, e0, w0), (s1, e1, w1) = edge_sum(x0), edge_sum(x1)
        i0, i1 = cell(x0)[1], cell(x1)[0]
        if i0 > i1:
            var = _chord(w0, w1)
        else:
            var = (_chord(w0, last[i0]) + variation[i1] - variation[i0]
                   + _chord(last[i1], w1))
        return s1 - s0, var + e0 + e1
    return ends[0] + ends[1] + variation[m], mean, size, edges


def _chord(a, b):
    """Sum over the harmonics j of 2 |a_j - b_j|, for maps from j to the
    last order of the edge terms at two points."""
    return sum(2.0 * abs(a.get(j, 0.0) - b.get(j, 0.0))
               for j in set(a) | set(b))


def _mean_tol(abs_tol, bands):
    """Tolerance of the slab-phase means across ``bands``: their integrated
    error held to a hundredth of ``abs_tol``, or the rounding floor at the
    bands' top where that is larger; 0 without bands."""
    if not bands:
        return 0.0
    return max(0.01 * abs_tol / sum(hi - lo for lo, hi in bands),
               _MEAN_NOISE * _NOISE_EPS * max(hi for _, hi in bands))


def _banded(raw, means, tol):
    """The pass integrand: ``mean(k, tol)`` inside each band ``(lo, hi,
    mean)`` of ``means`` (whose edges are breakpoints, so no panel
    straddles one), raw elsewhere."""
    if not means:
        return raw

    def f(k):
        for lo, hi, mean in means:
            if lo < k < hi:
                return mean(k, tol)
        return raw(k)
    return f


def _oscillatory_integral(shifted, spec, breakpoints, cfg, poles=()):
    """Integrate a decaying oscillatory force integrand over [0, inf).

    Parameters
    ----------
    shifted : callable
        ``shifted(k, offsets)`` evaluates the integrand at k once per
        additive offset triple (sL, sR, sG) on the left-slab, right-slab
        and gap phases, as a list; the integrand itself is the one-triple
        call ``shifted(k, _RAW)[0]``.
    spec : QuadratureSpec
        Tolerances; ``rel_tol`` is interpreted against the integral scale.
    breakpoints : tuple
        Sorted material response features, passed to the direct quadrature.
    cfg : CavityConfig
        The cavity, of finite width.  It sets the first switch point
        candidate, the phases the tail averages, the decay ratios of their
        harmonics and, for identical absorbing slabs, the dense and shallow
        bands.
    poles : sequence
        ``(k_p, lo, hi)`` of each bound gap mode to subtract as a pole term
        over its window [lo, hi], whose ends join the breakpoints (see
        ``_pole_window``).  The passes integrate the remainder plus the
        term's exact integral spread across the window, so every relative
        test sees the whole integral, not the remainder alone.

    Returns
    -------
    value, err : float
        The integral and a conservative error estimate combining the
        quadrature errors, the bound on the slab oscillation dropped across
        the dense and shallow bands, the error of the signed edge terms
        S(K) of the oscillation dropped past the switch point K (the
        variation of their last order along the ladder past K, their
        stencil error, the harmonics past the grid and the slow harmonics
        left out of them), the tail's quadrature error and
        evaluation-noise allowance, and the rounding of each pole term's
        subtraction.

    The coarse pass over [0, k0] that fixes the budget and the direct pass
    over [0, K] share one store of raw values keyed on k, and the band
    means keep theirs (see ``_band_bounds``), so the direct pass calls the
    kernel only at points the coarse pass did not sample.  Both stores
    live only as long as this call.
    """
    @functools.lru_cache(maxsize=None)
    def plain(k):
        return shifted(k, _RAW)[0]

    windows = [_pole_window(plain, *p) for p in poles]
    breakpoints += tuple(x for lo, hi, _, _ in windows for x in (lo, hi))
    raw = _banded(plain, [w[:3] for w in windows], None)

    k0 = _first_switch(spec, cfg)
    axes = _phase_axes(cfg)
    kinds = {}
    bands, shallow = _bands(cfg, k0, kinds)
    # each dense band's bound and mean, built once for both passes
    bounds = [_band_bounds(shifted, cfg, lo, hi) for lo, hi in bands]

    def averaged(k):
        return _phase_average(shifted, k, len(axes))

    def banded(tol):
        return _banded(raw, [(lo, hi, mean) for (lo, hi), (_, mean, _, _)
                             in zip(bands, bounds)], tol)

    _endpoint_check(raw)

    # The switch point and the signed edge terms of the oscillation there;
    # the coarse pass below k0 that fixes the absolute error budget sizes
    # its means to its own target, rel_tol of the bands' size.
    coarse = _coarse(spec)
    size = sum(s for _, _, s, _ in bounds)
    K, s_K, e_K, budget = _switch(
        shifted, spec, cfg, axes, _above_edges(shifted, cfg, axes),
        banded(_mean_tol(max(coarse.abs_tol, coarse.rel_tol * size), bands)),
        breakpoints + sum(bands, ()))

    # Direct adaptive pass below the switch point, reusing the coarse
    # pass's raw values and means at the nodes they share; the shallow
    # bands, found again up to K where it passed k0 (classifying only the
    # points the k0 scan did not), join the dense bands there, and each
    # band adds the bound on the slab oscillation it drops plus its means'
    # allowance; each pole window adds the rounding of its subtraction.
    if K > k0:
        shallow = _bands(cfg, K, kinds)[1]
    bands += shallow
    bounds += [_band_bounds(shifted, cfg, lo, hi) for lo, hi in shallow]
    direct = spec.replace(abs_tol=max(spec.abs_tol, 0.25 * budget,
                                       0.5 * _NOISE_EPS * K * K))
    tol = _mean_tol(direct.abs_tol, bands)
    val, err = integrate_interval(
        banded(tol), 0.0, K, direct, breakpoints=breakpoints + sum(bands, ()))
    err += e_K + sum(w[3] for w in windows)
    for (lo, hi), (dropped, _, _, _) in zip(bands, bounds):
        err += dropped + tol * (hi - lo)

    # Phase-averaged tail less the signed edge terms at K; a failure
    # carries the integral below K
    try:
        v, e = _averaged_tail(averaged, K, spec.replace(
            abs_tol=max(spec.abs_tol, 0.25 * budget)))
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            "averaged tail past K = %.6g: %s" % (K, exc), partial=val,
            error=err, panels=exc.panels)
    return val + v + s_K, err + e


def _averaged_tail(averaged, K, spec):
    """Integral of ``averaged(k)`` over [K, inf) and its error, on
    t = (K/k)^2 in (0, 1] as QUADPACK's qagi maps an infinite range: a mean
    falling like k^-3 (c0 + c2 k^-2 + ...) becomes a polynomial in t, which
    one Gauss-Kronrod panel resolves.  The error adds the noise
    _NOISE_EPS * k summed from K to the deepest k sampled (15 K for one
    panel)."""
    deep = K

    def mapped(t):
        nonlocal deep
        k = K / math.sqrt(t)
        deep = max(deep, k)
        return averaged(k) * K / (2.0 * t * math.sqrt(t))

    v, e = integrate_interval(mapped, 0.0, 1.0, spec.replace(
        panel_width=1.0, max_panels=_MAX_TAIL_PANELS))
    return v, e + 0.5 * _NOISE_EPS * (deep * deep - K * K)


def _rotated_vacuum(cfg, spec):
    """Zero-temperature total force by rotation onto the imaginary axis.

    Equals 4 * integral over kappa of kappa * w / (1 - w) with w the real
    rotated round-trip factor rL rR e^{-2 kappa gap}; the integrand decays
    like exp(-2 kappa gap), so the standard marching quadrature terminates
    on its own.  On this axis 0 <= w < 1 (w(0) = 0), so 1 - w never
    vanishes.  For lossless pairs there is no bath and this is the vacuum
    state force itself.
    """
    s = spec.replace(panel_width=min(spec.panel_width, 0.5 / cfg.gap))
    return integrate_semiinfinite(_rotated(cfg, 4.0), s)


def _slab_phase(mat, d, k, n=None):
    """Slab round-trip phase 2 k Re(n) d at real frequency k, from the
    slab's refractive index n there (computed when not given)."""
    if n is None:
        n = _index(mat, k)
    return 2.0 * k * n.real * d


def _slab_rate(mat, d, k):
    """Rate of the slab round-trip phase, d/dk of 2 k Re(n) d."""
    h = 1e-6 * max(k, 1.0)
    return (_slab_phase(mat, d, k + h) - _slab_phase(mat, d, k - h)) / (
        2.0 * h)


def _comb(cfg, k):
    """``(clear, depth)`` of the slab comb at k: the slab's internal
    transmission e^{-2 k Im(n) d} and its internal round trip
    |rn^2 E| = |rn|^2 e^{-2 k Im(n) d}."""
    _, rn, clear = _surface(cfg.left, cfg.width, k)
    return clear, abs(rn) ** 2 * clear


def _half_period(cfg, k):
    """Half a slab period, pi over the slab rate, at k."""
    return math.pi / _slab_rate(cfg.left, cfg.width, k)


def _kind(cfg, k):
    """Band kind of the identical slabs of ``cfg`` at k: 2 in a dense band,
    1 in a shallow band, 0 elsewhere.

    Both kinds need the slab phase to run ``_DENSE_RATE`` times faster than
    the gap phase.  A dense band's internal round trip |rn^2 E| makes the
    slab resonances sharp, neither opaque nor weakly reflecting; a shallow
    band's comb is shallower while the slab is not opaque.
    """
    clear, depth = _comb(cfg, k)
    if depth > _SHARP_MAX or (depth < _SHARP_MIN and clear < _CLEAR_MIN):
        return 0
    if _slab_rate(cfg.left, cfg.width, k) < _DENSE_RATE * 2.0 * cfg.gap:
        return 0
    return 2 if depth >= _SHARP_MIN else 1


def _bands(cfg, k_end, kinds=None):
    """``(dense, shallow)``: the dense and the shallow bands in (0, k_end]
    of identical absorbing slabs (both slab phases are then one phase),
    each sorted; empty otherwise.

    One scan classifies the points j pi / (16 a) below k_end, and k_end
    itself, by ``_kind``; each change of kind between neighbouring points is
    bisected once, and a run holding at the first or last point runs to 0
    or k_end.  Every dense run is a band.  A shallow run is one when the
    slab is opaque just past each of its edges inside (0, k_end), of which
    it has at least one, so the dropped slab oscillation vanishes there (a
    run that abuts a dense band, where the comb is still deep, does not
    qualify).  A band narrower than the scan step that ends before k_end
    is missed.

    ``kinds``, a dict from k to its kind, carries the points classified by
    an earlier scan of the same cavity: every scan uses the same grid and
    bisects the same neighbours, so a scan to a larger k_end classifies
    only the points it adds.
    """
    if cfg.left != cfg.right or not _absorbing(cfg.left):
        return (), ()
    if kinds is None:
        kinds = {}

    def kind(k):
        if k not in kinds:
            kinds[k] = _kind(cfg, k)
        return kinds[k]

    step = math.pi / (16.0 * cfg.gap)
    ks = [step * i for i in range(1, int(math.ceil(k_end / step)))] + [k_end]
    got = [kind(k) for k in ks]

    def edge(lo, hi, held):
        """``(x, y)``, 2^-_EDGE_STEPS of [lo, hi] apart, where the kind
        ``held`` holds at x and not at y."""
        for _ in range(_EDGE_STEPS):
            mid = 0.5 * (lo + hi)
            if kind(mid) == held:
                lo = mid
            else:
                hi = mid
        return lo, hi

    # runs (kind, lo, hi, past): past holds the points just outside the
    # run's edges inside (0, k_end)
    runs, lo, past = [], 0.0, []
    for i in range(1, len(ks)):
        if got[i] != got[i - 1]:
            hi, after = edge(ks[i - 1], ks[i], got[i - 1])
            runs.append((got[i - 1], lo, hi, past + [after]))
            lo, past = after, [hi]
    runs.append((got[-1], lo, k_end, past))
    dense = tuple((lo, hi) for kind, lo, hi, _ in runs if kind == 2)
    shallow = tuple(
        (lo, hi) for kind, lo, hi, past in runs
        if kind == 1 and past
        and all(_comb(cfg, x)[0] < _CLEAR_MIN for x in past))
    return dense, shallow


def _slab_refl(k, mat, d):
    """Reflection rn (1 - E) / (1 - rn^2 E) of one slab of material tuple
    ``mat`` at complex k, with E = e^{2 i k n d} and n = sqrt(eps) on the
    branch continuous with the real axis (Im n >= 0)."""
    n = cmath.sqrt(core.permittivity_at(-1j * k, *mat))
    n = -n if n.imag < 0.0 else n
    rn = (1.0 - n) / (1.0 + n)
    e = cmath.exp(2j * k * n * d)
    return rn * (1.0 - e) / (1.0 - rn * rn * e)


def _gap_modes(cfg):
    """Bound gap modes in the stop bands of the absorbing dispersive slabs.

    In a stop band [omega0, sqrt(omega0^2 + omega_pl^2)] the slabs reflect
    almost totally, and the cavity denominator D(k) = 1 - rL rR e^{2ika}
    dips towards zero at each bound mode.  A scan of the slow phase
    brackets each local minimum of |D| on the real axis, and Newton's
    method from it finds the complex zero k_m - i w of D, a pole of the
    force integrands.  The zero is taken when it lies below the real axis
    within a scan step of its minimum, which is the scan point nearest to
    it; two minima lie two steps apart at least, so no zero is taken twice.
    A minimum from which Newton's method does not converge within
    ``_NEWTON_STEPS`` steps holds no mode.  Returns sorted
    ``(k_m, w, lo, hi)``: each zero, its half width w and the stop band
    [lo, hi] holding it.
    """
    a, d, tl, tr = _args(cfg)

    def delta(k):
        return 1.0 - _slab_refl(k, tl, d) * _slab_refl(k, tr, d) \
            * cmath.exp(2j * k * a)

    modes = []
    # each stop band once: identical slabs share theirs
    for mat in dict.fromkeys((cfg.left, cfg.right)):
        if not (_absorbing(mat) and mat.omega0 > 0.0):
            continue
        lo, hi = mat.omega0, math.hypot(mat.omega0, mat.omega_pl)
        m = max(_MODE_SCAN, int(math.ceil(16.0 * (hi - lo) * a / math.pi)))
        ks = [lo + (hi - lo) * (i + 0.5) / m for i in range(m)]
        ds = [abs(delta(k)) for k in ks]
        for i in range(1, m - 1):
            if not ds[i] < min(ds[i - 1], ds[i + 1]):
                continue
            k = complex(ks[i])
            try:
                for _ in range(_NEWTON_STEPS):
                    h = 1e-6 * abs(k)
                    step = 2.0 * h * delta(k) / (delta(k + h) - delta(k - h))
                    k -= step
                    if abs(step) <= 1e-14 * abs(k):
                        break
                else:
                    continue
            except ArithmeticError:
                # a step into the lower half-plane far enough to overflow
                # the slab exponential, or a flat difference: no mode here
                continue
            if abs(k.real - ks[i]) < (hi - lo) / m and k.imag < 0.0:
                modes.append((k.real, -k.imag, lo, hi))
    return sorted(modes)


def _pole_terms(cfg, panel_width):
    """``(k_p, lo, hi)``: the complex zero k_p = k_m - i w of each bound
    gap mode of the cavity ``cfg`` narrower than ``_MODE_NARROW`` panel
    widths (w below it), and the window [lo, hi] over which Z subtracts its
    pole term, ``_POLE_WINDOW`` w or half the distance to the stop band's
    nearer edge on each side of k_m."""
    terms = []
    for km, w, lo, hi in _gap_modes(cfg):
        if w < _MODE_NARROW * panel_width:
            half = min(_POLE_WINDOW * w, 0.5 * min(km - lo, hi - km))
            terms.append((complex(km, -w), km - half, km + half))
    return terms


def _pole_window(f, kp, lo, hi):
    """``(lo, hi, g, rounding)``: the integrand ``g(k, tol)`` that the
    passes take in place of ``f(k)`` inside the window [lo, hi] of the pole
    k_p, as ``_banded`` takes a band's mean (tol unused), and the rounding
    of the subtraction there.

    g is f less the pole term Re[A / (k - k_p)] plus the term's exact
    integral over the window, Re[A (Log(hi - k_p) - Log(lo - k_p))],
    spread evenly across it: k - k_p stays in the upper half-plane, so the
    logarithm is continuous.  With k_p = k_m - i w, A is fitted to f at
    k_m, where the term is Im A / w, and at k_m + w, where it is
    (Re A + Im A) / (2 w).  The rounding is a few ulps of the integral of
    |A / (k - k_p)| over the window, which is symmetric about k_m.
    """
    km, w = kp.real, -kp.imag
    im = w * f(km)
    amp = complex(2.0 * w * f(km + w) - im, im)
    mean = (amp * (cmath.log(hi - kp) - cmath.log(lo - kp))).real / (hi - lo)
    return (lo, hi, lambda k, _: f(k) + (mean - (amp / (k - kp)).real),
            _CANCEL_ROUNDING * 2.0 * abs(amp) * math.asinh((hi - km) / w))


def _bound_modes(cfg, spec):
    """``(k_m, area, err)`` of each bound gap mode whose pole term Z
    subtracts: the area pi Im A = pi w f(k_m) under the term fitted to Z's
    integrand f (see ``_pole_window``), and its change when Im A is fitted
    as w (f(k_m - w) + f(k_m + w)) instead, which measures the remainder
    under the spike."""
    f = _bath_integrand(cfg, math.inf, math.inf)
    out = []
    for kp, _, _ in _pole_terms(cfg, spec.panel_width):
        km, w = kp.real, -kp.imag
        below, at, above = (w * f(k, _RAW)[0] for k in (km - w, km, km + w))
        out.append((km, math.pi * at, math.pi * abs(below + above - at)))
    return out


def _real_axis(cfg, spec, f):
    """``_oscillatory_integral`` of the cavity integrand ``f(k, offsets)``
    with each narrow bound gap mode subtracted as a pole term over its
    window."""
    return _oscillatory_integral(f, spec, _breakpoints(cfg.left, cfg.right),
                                 cfg, _pole_terms(cfg, spec.panel_width))


def _thermal_excess(bracket, beta, spec, breakpoints):
    """State force excess of a thermal weight over the vacuum weight.

    The excess weight coth(beta k / 2) - 1 = 2 / (e^{beta k} - 1) decays
    exponentially, so the integral lives on a finite interval regardless of
    the material's absorption.
    """
    def g(k):
        return k * core.occupation_excess(beta, k) * bracket(k)

    _endpoint_check(g)
    return integrate_interval(g, 0.0, 120.0 / beta, spec,
                              breakpoints=breakpoints)


def _band_excess(bracket, state, spec, breakpoints):
    """State force excess of a band-squeezed weight over the vacuum weight."""
    lo, hi = band_edges(state)
    if hi <= lo:
        return 0.0, 0.0
    fac = _band_factor(state.sigma)

    def g(k):
        return k * bracket(k)

    v, e = integrate_interval(g, lo, hi, spec, breakpoints=breakpoints)
    return fac * v, fac * e


def _band_factor(sigma):
    """Excess cosh(2/sigma) - 1 of the band weight over the vacuum weight;
    NonConvergenceError naming sigma where cosh overflows."""
    try:
        return math.cosh(2.0 / sigma) - 1.0
    except OverflowError:
        raise NonConvergenceError(
            "band weight cosh(2/sigma) overflows at sigma = %r; widen the "
            "band" % sigma, partial=None, error=math.inf, panels=0)


def _state_excess(bracket, state, spec, breakpoints):
    """Excess of the state's weight over the vacuum weight, (0, 0) for the
    vacuum itself."""
    if state.variant == "thermal":
        return _thermal_excess(bracket, state.beta, spec, breakpoints)
    if state.variant == "squeezed_band":
        return _band_excess(bracket, state, spec, breakpoints)
    return _ZERO


def _effective_state(state):
    """``(scale, state)``: constant squeezing is a pure rescaling of the
    vacuum; the delta-band state has no pointwise weight and is refused."""
    if state.variant == "squeezed_delta":
        raise DeltaStateWeightError(
            "the delta-band state has no pointwise spectral weight; "
            "use force_delta_squeezed")
    if state.variant == "squeezed_const":
        return weight(state, 1.0), FieldState.vacuum()
    return 1.0, state


@functools.lru_cache(maxsize=_VACUUM_CACHE_SIZE)
def _vacuum_bath(cfg, spec):
    """Zero-temperature bath integral Z of an absorbing cavity, memoized
    per process.

    Z enters the state force with a minus sign and the bath force with a
    plus sign at every temperature and state, and it depends only on the
    cavity and the spec (both frozen, so they key the cache).  It is the
    one real-axis oscillatory integral per cavity.  A raised error is not
    memoized.
    """
    return _real_axis(cfg, spec, _bath_integrand(cfg, math.inf, math.inf))


def _bath_integrand(cfg, beta_left, beta_right):
    """Bath integrand ``f(k, offsets)`` of a cavity at the given inverse
    bath temperatures (both infinite for zero temperature)."""
    a, d, tl, tr = _args(cfg)

    def f(k, offsets):
        return core.bath_integrands(k, a, d, tl, tr, beta_left, beta_right,
                                    offsets)
    return f


def _bracket(cfg):
    """State bracket ``bracket(k)`` of a cavity, without phase offsets."""
    a, d, tl, tr = _args(cfg)

    def bracket(k):
        return core.ic_bracket(k, a, d, tl, tr)
    return bracket


def _state_integrand(cfg):
    """Vacuum-weight state integrand ``f(k, offsets)``, k times the state
    bracket, of a cavity."""
    a, d, tl, tr = _args(cfg)

    def f(k, offsets):
        return [k * b for b in core.ic_brackets(k, a, d, tl, tr, offsets)]
    return f


def _finite(cfg):
    """Refuse a cavity of infinite width: the bare state and bath integrals
    of half-spaces diverge, and only ``halfspace_forces`` groups them."""
    if cfg.width == math.inf:
        raise NonConvergenceError(
            "slabs of infinite width (half-spaces) have divergent bare state "
            "and bath integrals; use halfspace_forces", error=math.inf)


def _ic_parts(cfg, state, spec):
    """The state force as ``scale * (R - Z + X)``.

    Returns ``(scale, R, Z, X)``: R the rotated zero-temperature total, Z
    the zero-temperature bath integral (zero for lossless pairs) and X the
    state excess over the vacuum weight, each a ``(value, err)`` pair.
    """
    _finite(cfg)
    scale, eff = _effective_state(state)
    L, R = cfg.left, cfg.right
    if L.omega_pl == 0.0 and R.omega_pl == 0.0:
        return scale, _ZERO, _ZERO, _ZERO
    absorbing = _absorbing(L) or _absorbing(R)
    rot = _rotated_vacuum(cfg, spec)
    if not absorbing and eff.variant != "vacuum" and (
            _undamped_dispersive(L) or _undamped_dispersive(R)):
        raise NonConvergenceError(
            "undamped dispersive slabs have bound cavity modes on the "
            "real axis; the non-vacuum excess integral is singular",
            partial=scale * rot[0], error=None, panels=0)
    zt = _vacuum_bath(cfg, spec) if absorbing else _ZERO
    exc = _state_excess(_bracket(cfg), eff, spec, _breakpoints(L, R))
    return scale, rot, zt, exc


def _bath_parts(cfg, beta_left, beta_right, spec):
    """The bath force as ``Z + Y``.

    Returns ``(Z, Y)``: the zero-temperature bath integral and the excess
    of the bath integrand at (beta_left, beta_right) over its
    zero-temperature value, both ``(value, err)`` pairs and both zero when
    neither slab absorbs.
    """
    _finite(cfg)
    if not (beta_left > 0.0 and beta_right > 0.0):
        raise ValueError("bath inverse temperatures must be positive")
    if not (_absorbing(cfg.left) or _absorbing(cfg.right)):
        return _ZERO, _ZERO
    return _vacuum_bath(cfg, spec), _bath_excess(cfg, beta_left, beta_right,
                                                 spec)


def _bath_excess(cfg, beta_left, beta_right, spec, beta_phi=math.inf):
    """Excess of the bath integral with the baths at (beta_left,
    beta_right) over its value with both at beta_phi (zero temperature by
    default), as ``(value, err)``.

    The integrand is linear in the occupations, so the excess is one kernel
    pass weighted by the differences of the occupation excesses
    coth(beta k/2) - 1, which fall below 1e-52 past beta k = 120.
    """
    a, d, tl, tr = _args(cfg)

    def g(k):
        ref = core.occupation_excess(beta_phi, k)
        return core.bath_weighted(
            k, a, d, tl, tr, core.occupation_excess(beta_left, k) - ref,
            core.occupation_excess(beta_right, k) - ref, _RAW)[0]

    _endpoint_check(g)
    return integrate_interval(
        g, 0.0, 120.0 / min(beta_left, beta_right, beta_phi), spec,
        breakpoints=_breakpoints(cfg.left, cfg.right))


def force_ic(cfg, state, spec):
    """State-driven force on the cavity for a given initial field state.

    Computed as R - Z + X: the rotated zero-temperature total R minus the
    zero-temperature bath integral Z, plus the state excess X over the
    vacuum weight.  Z, the only oscillatory real-axis integral, is memoized
    per process for each cavity and spec, so forces for several states and
    bath temperatures of one cavity compute it once.

    Parameters
    ----------
    cfg : CavityConfig
    state : FieldState
        Any variant except the delta-band limit, which has no pointwise
        spectral weight (use ``force_delta_squeezed``).
    spec : QuadratureSpec

    Returns
    -------
    value, err : float
        Force in inverse-square-gap units and its error estimate.  Positive
        values push the slabs apart.
    """
    scale, (r, er), (z, ez), (x, ex) = _ic_parts(cfg, state, spec)
    return scale * (r - z + x), scale * (er + ez + ex)


def force_bath(cfg, beta_left, beta_right, spec):
    """Bath-driven force from the slabs' own thermal radiation.

    Computed as Z + Y: the memoized zero-temperature bath integral plus the
    excess of the bath integrand at the given temperatures over its
    zero-temperature value, which decays exponentially.

    Parameters
    ----------
    cfg : CavityConfig
    beta_left, beta_right : float
        Inverse temperatures of the two slab baths; both must be positive.
    spec : QuadratureSpec

    Returns
    -------
    value, err : float
        Exactly (0.0, 0.0) when neither slab absorbs: without absorption the
        fluctuation weights vanish identically and no bath radiates.
    """
    (z, ez), (y, ey) = _bath_parts(cfg, beta_left, beta_right, spec)
    return z + y, ez + ey


def force_total(cfg, state, beta_left, beta_right, spec):
    """Both force parts, their exact sum and its own error estimate.

    Returns
    -------
    ForceBreakdown
        ``total`` is ``ic + bath`` with no re-evaluation, so additivity is
        exact by construction.  Z cancels from the total unless constant
        squeezing rescales the state part, so ``err_total`` counts Z's
        error only for the uncancelled fraction, plus a few ulps of |Z| of
        rounding.
    """
    scale, (r, er), (z, ez), (x, ex) = _ic_parts(cfg, state, spec)
    (zb, ezb), (y, ey) = _bath_parts(cfg, beta_left, beta_right, spec)
    f_ic = scale * (r - z + x)
    f_b = zb + y
    err_total = (scale * (er + ex) + ey + abs(1.0 - scale) * ezb
                 + _CANCEL_ROUNDING * scale * abs(zb))
    return ForceBreakdown(f_ic, f_b, f_ic + f_b, scale * (er + ez + ex),
                          ezb + ey, err_total)


def force_dissipationless(cfg, state, spec):
    """State force for non-dispersive lossless slabs, by a separate excess.

    Shares the rotated zero-temperature total R with ``force_ic`` and
    integrates the state excess with the unitarity-reduced bracket
    (transmitted-plus-reflected flux equals one) instead of the full state
    bracket.  Must agree with ``force_ic`` on the same configuration and a
    non-vacuum state; the two brackets are the regression check on each
    other.
    """
    L, R = cfg.left, cfg.right
    if not (L.static and R.static):
        raise ValueError(
            "dissipationless route requires static non-dispersive slabs")
    scale, eff = _effective_state(state)
    if L.omega_pl == 0.0 and R.omega_pl == 0.0:
        return 0.0, 0.0
    a, d, tl, tr = _args(cfg)
    vac, evac = _rotated_vacuum(cfg, spec)
    exc, eexc = _state_excess(lambda k: core.nodiss_bracket(k, a, d, tl, tr),
                              eff, spec, ())
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
    return omega_center * _bracket(cfg)(omega_center)


def lifshitz_matsubara(matL, matR, a, beta, spec):
    """Equilibrium half-space force as a rotated-axis pole sum: the
    half-space case of ``equilibrium_matsubara``, whose slabs of infinite
    width reflect like their surfaces, so w(xi) is the product of the two
    surface reflections at imaginary frequency times exp(-2 xi a).
    Cross-checked numerically by the half-space equal-temperature route
    (``halfspace_forces``).

    Returns
    -------
    value, err : float
    """
    return equilibrium_matsubara(CavityConfig(a, math.inf, matL, matR), beta,
                                 spec)


def equilibrium_matsubara(cfg, beta, spec):
    """Equal-temperature total force on the slabs as a pole sum.

    Evaluates (8 pi / beta) * sum over l >= 1 of xi_l * w / (1 - w) at the
    thermal frequencies xi_l = 2 pi l / beta, with w(xi) the product of the
    two slab reflections at imaginary frequency times exp(-2 xi a).  The
    normalization follows from closing the equal-temperature real-axis
    integral in the upper half plane (each pole of coth contributes 2/beta
    twice, once per sign of k); it is anchored independently by the
    perfect-mirror zero-temperature limit.  At equilibrium (field and both
    baths at the same temperature) this must match
    ``force_ic + force_bath``; it serves as an independent cross-check of
    the real-axis machinery, since it shares none of its quadrature.
    """
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if cfg.left.omega_pl == 0.0 and cfg.right.omega_pl == 0.0:
        return 0.0, 0.0
    s, err = matsubara_sum(_rotated(cfg, 1.0), beta, spec)
    pref = 8.0 * math.pi / beta
    return pref * s, pref * err


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
        if not _absorbing(m):
            raise NonConvergenceError(
                "half-space %s material does not absorb; the free-field "
                "pressure term is uncompensated and the state integral "
                "diverges" % side, partial=None, error=math.inf, panels=0)
    for b in (beta_left, beta_right, beta_phi):
        if not b > 0.0:
            raise ValueError("inverse temperatures must be positive")
    cfg = CavityConfig(a, math.inf, matL, matR)
    r, er = _rotated_vacuum(cfg, spec)
    x, ex = _thermal_excess(_bracket(cfg), beta_phi, spec,
                            _breakpoints(matL, matR))
    y, ey = _bath_excess(cfg, beta_phi, beta_phi, spec)
    state = (r + x + y, er + ex + ey)
    if beta_left == beta_right == beta_phi:
        return state, _ZERO
    return state, _bath_excess(cfg, beta_left, beta_right, spec, beta_phi)


def band_excess_curve(cfg, omega_center, sigmas, spec):
    """Band-state force excesses for a ladder of band widths.

    For each width sigma the excess over the vacuum-weight force equals
    (cosh(2/sigma) - 1) times the window integral of k * [state bracket]
    over |k - omega_center| <= sigma/2.  The window integrals are nested,
    so they are assembled incrementally from non-overlapping strips and a
    full ladder costs a single pass over the widest window.  Where a strip
    crosses a shallow band of identical absorbing slabs, on either side of
    the stop band, it integrates the slab-phase mean there; past the switch
    point K of the state integrand (``_switch``: the first point of its
    ladder whose measured edge terms fit a quarter of the budget of its
    phase average at k0) it integrates the mean over every phase.  Each
    window adds, for its part of each band and its part past K, the signed
    edge terms of the dropped oscillation at the part's two ends, and its
    error carries their stencil error and the variation of their last order
    over the part.

    Returns
    -------
    list of (excess, err)
        One pair per input sigma, in input order.
    """
    facs = [_band_factor(sg) for sg in sigmas]
    bks = _breakpoints(cfg.left, cfg.right)
    f = _state_integrand(cfg)
    windows = [band_edges(FieldState.squeezed_band(sg, omega_center))
               for sg in sigmas]
    top = max([hi for _, hi in windows] + [0.0])
    axes = _phase_axes(cfg)
    above = _above_edges(f, cfg, axes)
    K = top
    if top > _first_switch(spec, cfg):
        try:
            K = min(top, _switch(f, spec, cfg, axes, above)[0])
        except NonConvergenceError:
            # no switch point (a slab reflecting without loss): the finite
            # windows stay on the raw integrand
            pass

    # the shallow bands are found once, up to K; every strip that overlaps
    # one integrates the mean there, and each window adds the signed edge
    # terms at the ends of its own part of each band and past K
    bands = _bands(cfg, K)[1] if windows else ()
    tol = _mean_tol(spec.abs_tol, bands)
    built = [_band_bounds(f, cfg, lo, hi) for lo, hi in bands]

    def g(k):
        return f(k, _RAW)[0]

    def parts(lo, hi):
        """``(x0, x1, mean, edges)``: each band's part of [lo, hi], with
        the band's mean and signed edge terms, and the part past K."""
        out = [(max(b0, lo), min(b1, hi), mean, edges)
               for (b0, b1), (_, mean, _, edges) in zip(bands, built)
               if lo < b1 and b0 < hi]
        if hi > K:
            out.append((max(K, lo), hi, None, above))
        return out

    def strip(lo, hi):
        if hi <= lo:
            return 0.0, 0.0
        own = [p[:3] for p in parts(lo, min(hi, K))]
        v, e = integrate_interval(_banded(g, own, tol), lo, min(hi, K), spec,
                                  breakpoints=bks + sum((p[:2] for p in own),
                                                        ()))
        e += tol * sum(x1 - x0 for x0, x1, _ in own)
        if hi > K:
            x0 = max(lo, K)
            va, ea = integrate_interval(
                lambda k: _phase_average(f, k, len(axes)), x0, hi,
                spec.replace(panel_width=hi - x0))
            v, e = v + va, e + ea
        return v, e

    order = sorted(range(len(sigmas)), key=lambda i: sigmas[i])
    out = [None] * len(sigmas)
    acc, eacc = 0.0, 0.0
    prev_lo = prev_hi = omega_center
    for i in order:
        lo, hi = windows[i]
        v1, e1 = strip(lo, min(prev_lo, hi))
        v2, e2 = strip(max(prev_hi, lo), hi)
        acc += v1 + v2
        eacc += e1 + e2
        prev_lo, prev_hi = lo, hi
        v, e = acc, eacc
        for x0, x1, _, edges in parts(lo, hi):
            dv, de = edges(x0, x1)[:2]
            v, e = v + dv, e + de
        out[i] = (facs[i] * v, facs[i] * e)
    return out
