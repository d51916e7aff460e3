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
Z is the one real-axis oscillatory integral per cavity and spec.  Its
integrand comes from the state side, as the round-trip term
-4 Re[k w / (1 - w)] less k times the state bracket (``core.vacuum_baths``
on phase grids, ``core.vacuum_bath_of`` at single points).  There the
bracket is written in absorption form, each slab's |r|^2 + |t|^2 + A = 1,
so its O(1) terms cancel by algebra rather than in rounding and it stays
accurate far past the switch point; the bath kernel at zero temperature
is kept as its independent check (``oracles.bath_integrand``).  Most
kernel calls of Z, of the two excesses and of the sigma ladder's raw
strips are single points, each through a one-triple form that binds the
cavity once per integral (``core.vacuum_bath_of``, ``core.ic_bracket_of``,
``core.bath_factors_of``).  Every phase average (the band means, the
band grids, the edge-term stencils and the tail means) samples a product
grid of offsets (``core.grid``), and each of the two grid integrands has
one kernel for every such grid (``core.vacuum_baths``,
``core.ic_brackets``), which forms each slab's parts once per offset of
its phase and returns the one-triple form's bits at every triple.  Z and
R are memoized per
process for each cavity and spec, and the state excess for each cavity,
state and spec, so forces at several bath temperatures compute each once;
the bath excess weighs the bath kernel's weight-free parts, memoized per
cavity and k, so it calls the kernel only at k that no earlier bath
excess on the cavity sampled; and the slab-band scans read the band kind
of each k, memoized per cavity, so the sigma ladder's scan classifies only
the points that Z's scan of the same cavity did not.  A raised error is
not memoized.  Lossless
pairs have no bath (Z = 0), so their state force is R alone.  Half-spaces
are slabs of infinite width, whose bare state and bath integrals both
diverge; their grouped force is R plus the thermal excesses, with no
real-axis oscillatory integral (``limits.halfspace_forces``).

The real-axis oscillatory integrals (Z and the two-integral route kept as
an independent check) oscillate under three linear phases (one per slab
thickness and one for the gap round trip) on top of slowly decaying
absorption envelopes.  Each is evaluated in two stages: adaptive
quadrature up to a switch point K, then quadrature of the phase-averaged
integrand on t = (K/k)^2 in (0, 1] less the signed edge terms S(K) of the
oscillation it drops.  S sums, over every harmonic j that the average
drops, three integrations by parts of h_j e^{i j . phi} at rate j . phi',
with derivatives from a seven-point stencil (Iserles and Norsett's
asymptotic method); harmonics too slow for it are left out of S and
bounded in the error.  The probe at the first candidate k0 reads one grid,
the least that reads the head of every phase's harmonics.  One rule sizes
every other phase grid past k0 (the stencils of S and the tail average):
each phase takes the fewest offsets whose left harmonics, bounded by its
closed-form decay ratio rho_a and its measured first harmonics, hold at
most a thousandth of the tail's share (``_axis_size``).  The tail average
keeps the harmonics whose indices are multiples of its offset counts n_a,
about rho_a^(n_a - 1) |h_1| each, integrated over the tail without
cancellation; the stencils read 2 J + 1 offsets, and leave out harmonic
J + 1, whose first order they hold to the same allowance.  On
a slab phase the first gap order's harmonics keep their size up to the
number of slab reflections on it (two on the common phase of identical
slabs) before they fall.  S drops exactly the harmonics the tail grid does
not keep.  On the mild pair, where every ratio past K is below 1e-5, the
tail takes 2 offsets per phase and S 3; on the docs cavity the tail takes
4 on each phase.  K is the first point of
a ladder from the first candidate k0, past the slabs' response features,
where the measured error of S fits the tail's share of the budget.  The
walk starts where closed-form decay ratios of the harmonics (the slab pole
radius and the gap round trip |rL rR|), scaling the harmonics sampled at
k0, predict that it fits.  The error of S (its stencil error, the
variation of its last order along the ladder past K, the harmonics past
the grid and the slow ones), the tail's quadrature error and its
evaluation noise are folded into the returned estimate.
Below K two adaptive passes run: a coarse one over [0, k0] that fixes the
absolute error budget, then the direct one over [0, K] with an absolute
tolerance of a quarter of that budget.  Like every adaptive pass it stops
once its error meets the larger of its absolute tolerance and rel_tol
times the modulus of its own running value; on the docs cavity the latter
governs (2.2e-4 against 8.6e-5 for Z).
They share most of their panels (k0 is a breakpoint of the direct pass
unless a band holds it, so its panels below k0 are the coarse pass's), so
within one integral every raw value and every sized band mean (keyed on k
and its offset count) is computed once, and the direct pass calls the
kernel only at points the coarse pass did not sample.
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
  each of its edges inside the scan: on the docs cavity one below the stop
  band, from k -> 0 to where the slab turns opaque under the resonance,
  and one above it, from where the slab clears to the switch point.  The
  strips of ``band_excess_curve`` use the shallow bands too;
* bound gap modes: inside each absorbing slab's stop band the cavity
  denominator D(k) = 1 - rL rR e^{2ika} dips at the bound modes, each a
  complex zero k_p = k_m - i w that Newton's method finds from a scan
  minimum of |D|.  A mode far narrower than a panel is a Lorentzian spike
  that refinement would chase; the passes subtract its pole term
  Re[A / (k - k_p)], fitted to the integrand at k_m and k_m + w, over a
  window of 1e4 w on each side, and add back the term's exact integral
  there, so the smooth remainder is all they integrate.

Every caller of a band (Z, the sigma ladder and the band oracle) adds, for
each part [x0, x1] of the band it covers, the band's edge terms of the
slab oscillation the mean drops, and one rule inside the band decides how
each end is counted (``_band_bounds``).  Each slab harmonic h_j e^{i j phi}
is integrated by parts three times, leaving edge terms at orders 1/j,
1/j^2 and 1/j^3 plus the variation of the last, counted for both signs of
j.  The harmonics are sampled once on a grid across the band that
resolves the gap phase, which gives the variation between the ends and
the absolute edge terms at the band's own ends.  On the diagonal of the
identical slabs the integrand is rational in e^{i phi}, with the two zeros
of the cavity denominator for poles (each slab's Airy sum of round trips),
so six samples give its mean and every harmonic exactly: h_j is a sum of
two geometric terms in j, falling like rho^j with rho the larger pole
ratio (``_pole_form``, whose step past the samples reads P's three
coefficients with fixed twiddles).  Each grid point and stencil node takes
those six samples and sums j up to where the closed-form remainder falls
below rounding, at most 15, and charges the first order of the rest.  Where
every grid point has rho <= 0.25, an end takes the signed edge terms,
with derivatives from a five-node stencil at the end, whose three inner
nodes give its stencil error, unless it is the band's own
end and the absolute terms the grid holds there are no larger than the
band's variation; a dense band takes the absolute terms at both of its
ends.  Each pass holds its means' integrated error to a hundredth of its
own tolerance (``_mean_tol``): Z's passes over all their bands, and each
strip of the sigma ladder over its own parts of the bands, its tolerance
max(abs_tol, rel_tol times the means' modulus over those parts), spread
over their width; the rounding floor at their top bounds it below.  In
every band each mean takes, in one call, the fewest offsets, up
to five, whose aliased harmonics fit its tolerance, or else the six
samples' exact mean from the poles where the rounding that its division
by the poles amplifies fits too, or else the plain mean of more offsets;
only a mean computes that rounding charge.
Past the switch point the ladder's windows take the mean over every phase
and the edge terms of every harmonic, as the tail does.

Undamped slabs leave the real-axis tail undamped, so no classical improper
integral exists there; only the rotated R and the absolutely convergent
excesses are used for them.  R has one route, the direct slab product on
the imaginary axis, which ``equilibrium_matsubara`` samples too.  The
dissipationless entry point (``limits.force_dissipationless``) shares it
and integrates the state excess with the unitarity-reduced bracket instead
of the full one, so its excess remains an independent check of
``force_ic`` at every non-vacuum state.  The limit routes live in
``casimir1d.limits``, so an import that computes forces does not compile
them.
"""

import cmath
import functools
import itertools
import math
import operator
import sys

from ._value import Frozen
from .errors import (DeltaStateWeightError, NaNIntegrandError,
                     NonConvergenceError)
from .kernels import core
from .quadrature import integrate_interval, integrate_semiinfinite, matsubara_sum
from .states import FieldState, band_edges, weight

__all__ = [
    "ForceBreakdown",
    "band_excess_curve",
    "equilibrium_matsubara",
    "force_bath",
    "force_ic",
    "force_total",
]

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
# floor ends the harmonics a band point sums (see ``_band_points``).
_MEAN_NOISE = 8.0
# A shallow band's comb is shallower (|rn^2 E| < _SHARP_MIN) while the slab
# is not opaque (e^{-2 k Im(n) d} >= _CLEAR_MIN).  One scan finds both kinds
# (see ``_bands``); a shallow run is used only when the slab is opaque just
# past each of its edges inside the scan.
_CLEAR_MIN = 1e-6
# The band grid samples the slab harmonics at _HARM_GRID points per gap
# period pi/a.  Each grid point and stencil node reads the slab-phase mean
# and every harmonic from six diagonal samples and the two cavity poles
# (``_pole_form``), and sums the harmonics up to the least order whose
# closed-form remainder falls below the rounding floor, at most _HARM_TOP,
# the most any phase grid reads.  A band whose grid holds a pole radius
# above _RHO_MAX (every dense band) counts the absolute edge terms at both
# of its ends.
_HARM_GRID = 8
_HARM_TOP = 15
_RHO_MAX = 0.25
# The signed edge sum takes the derivatives of the harmonics at a window end
# x from samples _FD_STEP x apart past the switch point, seven of them
# centred on x, and _FD_STEP apart at a band end, five of them centred on x,
# or starting at x where x < 2 _FD_STEP (k = 0); the samples less the outer
# two (or the last two) give a lower-order sum, whose difference from it is
# the sum's stencil error.  _STENCIL_NODES and _BAND_END_NODES hold the
# central and the one-sided nodes, in that order.  The ends past the switch
# point keep seven nodes: their error at K, e_K, is 77% of Z's estimate on
# the mild pair.
_FD_STEP = 2e-3
_STENCIL_NODES = (tuple(range(-3, 4)), tuple(range(7)))
_BAND_END_NODES = (tuple(range(-2, 3)), tuple(range(5)))
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
# _AXIS_DROP of it.  Harmonics whose logarithmic slope exceeds _SLOW times
# their rate (the mild pair's (-1, 1, 0) runs at 7e-4) are left out of the
# edge terms and bounded in their error.  Past k0 the edge terms' stencils
# and the tail average give each phase the fewest offsets, at most
# 2 _HARM_TOP + 1, whose left harmonics hold at most _AXIS_DROP of the
# tail's share (see ``_axis_size``).  Where a slab reflects without
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
# Entries of each per-process memo: the zero-temperature bath integral Z
# and the rotated total R per cavity and spec, the state excess X per
# cavity, state and spec, and the bath kernel's weight-free parts and the
# band scans' kinds per cavity (each holding one entry per k sampled).  A
# sweep or a nonequilibrium study needs one or two entries; the bound keeps a
# long-running caller from growing.
_VACUUM_CACHE_SIZE = 32
# Relative rounding allowance for the zero-temperature bath integral Z that
# cancels from the total: a few ulps of |Z|, since it enters and leaves
# through a handful of additions of that magnitude.
_CANCEL_ROUNDING = 4.0 * sys.float_info.epsilon
# The thermal excesses integrate over [0, 120 / beta], where the excess
# weight 2 / (e^{beta k} - 1) falls to 1e-52, but their integrands return
# 0 without calling the kernel past beta k = _WEIGHT_CUT.  Past x = beta k
# the k-weighted weight leaves the tail int_x^inf 2 t e^{-t} dt =
# 2 (x + 1) e^{-x} (to rounding), of its whole int_0^inf 2 t / (e^t - 1) dt
# = pi^2 / 3.  At x = 40 that share is 1.06e-16, below one unit roundoff
# 2^-53 = 1.11e-16; at x = 39 it is 2.8e-16.
_WEIGHT_CUT = 40.0
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


def _endpoint_check(f):
    """Evaluate the integrand just above k = 0 and reject non-finite values."""
    k = 1e-8
    if not math.isfinite(f(k)):
        raise NaNIntegrandError(k)


def _phase_average(shifted, k, dims):
    """Discrete mean of the integrand at k over the grid of ``dims``
    offsets per oscillation phase (see ``core.grid``).

    ``shifted(k, offsets)`` evaluates the integrand at k once per additive
    offset triple (sL, sR, sG) on the left-slab, right-slab and gap phases.
    """
    vals = shifted(k, core.grid(dims))
    return sum(vals) / len(vals)


def _sampler(shifted):
    """``sample(k, dims)``: the integrand ``shifted`` at k on the grid of
    ``dims`` offsets per phase (see ``core.grid``), each (k, dims)
    evaluated once for the life of the returned function."""
    @functools.lru_cache(maxsize=None)
    def sample(k, dims):
        return shifted(k, core.grid(dims))
    return sample


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
    n = _index(mat, k) if n is None else n
    x = 2.0 * k * n.imag * d
    return n, (1.0 - n) / (1.0 + n), math.exp(-x) if x < 700.0 else 0.0


def _pole_parts(cfg, k, n=None):
    """``(n, rn, E0, v, rho)`` at k of the identical slabs of ``cfg``: the
    slab's refractive index n (computed when not given), its surface
    reflection rn and internal transmission E0 (``_surface``), the gap
    phasor v = e^{i k a} and the pole radius rho, the decay ratio of the
    slab harmonics.

    On the diagonal the integrand is rational in z = e^{i phi}.  With rn the
    surface reflection, E0 = e^{-2 k Im(n) d} and v = e^{i k a}, the cavity
    denominator factors as (F - rn v (1 - E))(F + rn v (1 - E)) with
    E = E0 z and F = 1 - rn^2 E.  Its zeros lie at |z| = 1 / rho_p with
    rho_p = E0 |rn| |rn -+ v| / |1 -+ rn v|, so the harmonics fall like the
    larger, rho^j (see ``_pole_form``).  The integrands also divide by F,
    but the pole of F has no residue, and its ratio E0 |rn|^2 is below
    rho anyway: |rn - v|^2 + |rn + v|^2 = |1 - rn v|^2 + |1 + rn v|^2, so
    one of the two ratios over E0 |rn| is at least 1 > |rn|.
    """
    n, rn, e0 = _surface(cfg.left, cfg.width, k, n)
    v = cmath.exp(1j * k * cfg.gap)
    return n, rn, e0, v, e0 * abs(rn) * max(abs(rn - v) / abs(1.0 - rn * v),
                                            abs(rn + v) / abs(1.0 + rn * v))


def _pole_form(vals, width, k, parts, charge=False):
    """``(h0, poles, err)`` at k: the slab-phase mean h_0 of an integrand of
    identical slabs of width ``width``, for each of the two cavity poles
    ``(a, y)`` such that the slab harmonic h_j (see ``_band_bounds``) is
    the sum over the poles of a y^(j - 1) for every j >= 1, and, with
    ``charge``, the rounding h0 carries (else 0), read from the six
    diagonal samples ``vals`` at k (``sample(k, (6,))``, see ``_sampler``)
    and the pole pair that the slab's index, surface and gap phasor at k
    give (``parts``, see ``_pole_parts``).

    With x_p = e^{i phi} y_p and y_+- = E0 rn (rn -+ v) / (1 -+ rn v) (see
    ``_pole_parts``), the integrand R(s) at the slab offset s times
    Q(s) = prod_p |1 - e^{is} x_p|^2 is a trigonometric polynomial P of
    degree 2, which six samples read exactly.  R = P / Q is then the sum
    of its residue terms: for j >= 1 its coefficient c_j = h_j e^{i j phi}
    is the sum of A_p x_p^j, with
    A_p = P(1 / x_p) / [(1 - |x_p|^2) (1 - x_q / x_p) (1 - conj(x_q) x_p)],
    q the other pole, and the six-sample average holds c_0 plus
    2 Re sum A_p x_p^6 / (1 - x_p^6).  x^2 P(1 / x) is evaluated as a
    polynomial in x, and A_p x_p in place of A_p, so that a small pole
    ratio cannot overflow; h_j = A_p x_p^j e^{-i j phi} then gives
    a = A_p x_p e^{-i phi}.

    h_0 is linear in the samples, sum_l w_l R(s_l), so it carries at most
    sum_l |w_l| times their noise: 1 for the plain average, more where the
    division by Q amplifies it (a pole ratio near 1, or two poles close
    together).  ``err`` is a bound on that gain from the pole ratios times
    the larger of the evaluation noise _NOISE_EPS * k and the least noise
    that explains the Nyquist term c_3 of P's samples, which is zero for
    exact samples of R.  A slab with E0 = 0 has no slab harmonics: both of
    its poles are (0, 0), and h_0 is the plain average, with ``err`` 0.
    """
    n, rn, e0, v, _ = parts
    if e0 == 0.0:
        return sum(vals) / 6.0, [(0j, 0j)] * 2, 0.0
    turn = cmath.exp(2j * k * n.real * width)
    xs = [turn * e0 * rn * (rn - s * v) / (1.0 - s * rn * v) for s in (1, -1)]
    x1, x2 = xs
    # e^{is} at the six offsets s: the twiddles of j = -1
    qs = [abs((1.0 - z * x1) * (1.0 - z * x2)) ** 2 for z in _roots(6)[1][1]]
    ps = list(map(operator.mul, vals, qs))
    # P's coefficients c_0, c_1 and c_2
    p0, p1, p2 = _dft(ps, (6,)).values()
    amps = [(p2 + x * (p1 + x * (p0 + x * (p1.conjugate()
                                           + x * p2.conjugate()))))
            / ((1.0 - abs(x) ** 2) * (x - q) * (1.0 - q.conjugate() * x))
            for x, q in ((x1, x2), (x2, x1))]
    h0 = sum(vals) / 6.0 - 2.0 * sum((a * x ** 5 / (1.0 - x ** 6)).real
                                     for a, x in zip(amps, xs))
    poles = [(a / turn, x / turn) for a, x in zip(amps, xs)]
    if not charge:
        return h0, poles, 0.0
    # h_0 = sum_l w_l R(s_l) with, at the offset s, w_l = (1 - 2 Re sum_p
    # g_p Q(s) e^{-2is} sum_{m < 5} (x_p e^{is})^m) / 6 and g_p = x_p^5 /
    # (d_p (1 - x_p^6)), d_p the divisor of A_p x_p above.  With r = |x|,
    # |g_p| <= r_p^5 / ((1 - r_p^2) |x_p - x_q| |1 - conj(x_q) x_p|
    # (1 - r_p^6)) and |Q(s) sum_m| <= (1 + r_p) (1 + r_q)^2 (1 + r_p^5),
    # which bound sum_l |w_l|
    r1, r2 = abs(x1), abs(x2)
    gain = 1.0 + 2.0 * (1.0 + r1) * (1.0 + r2) / (
        abs(x1 - x2) * abs(1.0 - x2.conjugate() * x1)) * sum(
        r ** 5 * (1.0 + s) * (1.0 + r ** 5) / ((1.0 - r * r) * (1.0 - r ** 6))
        for r, s in ((r1, r2), (r2, r1)))
    noise = max(_NOISE_EPS * k, abs(sum(ps[::2]) - sum(ps[1::2])) / sum(qs))
    return h0, poles, gain * noise


def _band_points(form, comb, ks):
    """``(ns, rates, h0s, poles, harm, tails)`` at the points ``ks`` of a
    band of the identical slabs of ``comb``, with ``form(k, parts)`` the
    uncharged pole form at k (``_pole_form``): at each point the slab's
    refractive index n, the rate phi' of its phase (``_slab_rate``), the
    slab-phase mean, the poles of the slab harmonics, the harmonics
    {(j,): h_j} for j <= J, and 2 rest / phi', the first order of the edge
    terms of the harmonics past J, where rest is the closed-form bound on
    the sum over j > J of |h_j| / j.  J is the least, at most _HARM_TOP, at
    which every point's rest is at most the rounding floor
    _MEAN_NOISE * _NOISE_EPS * k."""
    parts = [_pole_parts(comb, k) for k in ks]
    ns = [p[0] for p in parts]
    h0s, poles, _ = zip(*map(form, ks, parts))
    mods = [[(abs(a), abs(y)) for a, y in p] for p in poles]

    def rest(m, J):
        return sum(a * y ** J / ((J + 1) * (1.0 - y)) for a, y in m)
    J = 1
    for m, k in zip(mods, ks):
        while J < _HARM_TOP and rest(m, J) > _MEAN_NOISE * _NOISE_EPS * k:
            J += 1
    harm = [{(j + 1,): a1 * y1 ** j + a2 * y2 ** j for j in range(J)}
            for (a1, y1), (a2, y2) in poles]
    rates = [_slab_rate(comb.left, comb.width, k, n) for k, n in zip(ks, ns)]
    return ns, rates, h0s, poles, harm, [2.0 * rest(m, J) / r
                                         for m, r in zip(mods, rates)]


@functools.lru_cache(maxsize=None)
def _roots(n):
    """``(j, e^{-2 pi i j l / n} for l < n)`` for every |j| < n / 2, in
    increasing j, each twiddle read at j l mod n from one ring of the n
    roots e^{-2 pi i l / n}."""
    ring = [cmath.exp(-2j * math.pi * l / n) for l in range(n)]
    top = (n - 1) // 2
    return tuple((j, tuple(ring[j * l % n] for l in range(n)))
                 for j in range(-top, top + 1))


def _dft(vals, dims, lead=True):
    """``{j: c_j}``: the DFT coefficients of ``vals``, sampled on the
    product grid of ``dims`` (see ``core.grid``), for every index vector j
    with |j_a| < dims[a] / 2 and, with ``lead``, j_0 >= 0, which keeps one
    of each pair +-j with j_0 != 0 (c_-j is the conjugate of c_j for a
    real integrand).  The integrand is the sum over j of c_j e^{i j . s} in
    the offsets s.  The first phase is summed over each column of the
    rest, which are transformed in turn."""
    n = dims[0]
    roots = _roots(n)[(n - 1) // 2:] if lead else _roots(n)
    if len(dims) == 1:
        return {(j,): sum(map(operator.mul, tw, vals)) / n for j, tw in roots}
    m = len(vals) // n
    cols = [vals[r::m] for r in range(m)]
    out = {}
    for j, tw in roots:
        row = [sum(map(operator.mul, tw, col)) / n for col in cols]
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
    in ``core.SLOTS``: its offset slots and its slab, None for the gap
    phase.  Identical slabs have one common slab phase besides the gap
    phase, different slabs one each."""
    naxes = 2 if cfg.left == cfg.right else 3
    mats = {(2,): None, (0, 1): cfg.left, (0,): cfg.left, (1,): cfg.right}
    return tuple((slots, mats[slots]) for slots in core.SLOTS[naxes])


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
            n = _index(mat, k)
            phases.append(2.0 * k * n.real * cfg.width)
            rates.append(_slab_rate(mat, cfg.width, k, n))
    return phases, rates


def _decay_ratios(cfg, axes, k):
    """Closed-form ratio of successive harmonics of each phase of ``axes``
    at k.

    With rn the surface reflection and E0 = e^{-2 k Im(n) d} of a slab, its
    reflection reaches at most rbar = |rn| (1 + E0) / (1 - |rn|^2 E0) over
    its slab phase, and the cavity denominator 1 - rL rR e^{2ika} makes the
    gap harmonics fall like rbarL rbarR.  The slab phase of identical slabs
    falls like their pole radius (``_pole_parts``); that of one of two
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
            out.append(_pole_parts(cfg, k, surf[0][0])[4])
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
    parts, the variation 2 |h_j| g_j^2 / |w_j|^3 past k.  Harmonics whose
    ratios vanish at k0, and the slow ones (g_j > _SLOW |w_j|, which the
    edge terms leave out), are left to the terms measured at K.
    """
    r0 = _decay_ratios(cfg, axes, k0)
    live = [(j, abs(h)) for j, h in harm.items()
            if _leads(j) and all(r0[a] > 0.0 for a, x in enumerate(j) if x)]
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


def _switch(f, spec, cfg, axes, below=None, breakpoints=()):
    """``(K, -S(K), err, budget, edges, dims)``: the switch point of the
    integrand ``f(k, offsets)`` with phases ``axes``, minus the signed edge
    terms there and their error, the absolute error budget, rel_tol times
    the scale max(|c0|, k0 |mean(k0)|, abs_tol), ``edges(x0, x1)`` past K
    (see ``_above_edges``) and the tail grid ``dims`` whose average they
    complete.  mean is the phase average and c0 the coarse pass of
    ``below(k)`` over [0, k0] with ``breakpoints`` (0 without ``below``).
    The tail's share is a quarter of the budget.  ``_oscillatory_integral``
    passes a ``below`` that keeps its raw values and band means, so its
    direct pass reuses every point of this coarse pass.

    The probe at k0 reads the phase average and the harmonics once, on the
    least grid that reads every phase's head (see ``_axis_size``).  Where
    the first order of each harmonic, 2 |h_j / w_j| with w_j = j . phi',
    doubled for its variation past k0 and raised by rho_a / (1 - rho_a) for
    the harmonics past the grid on each of its phases, fits the share in
    sum, K = k0 and that sum is the error, with no edge terms, and the tail
    grid is sized from the probe.  Otherwise the harmonics at k0 predict a
    first point of the ladder k0 _LADDER^i (``_predicted``, to half the
    share), and K is the first point from there on whose measured edge
    terms have an error that fits the share.  NonConvergenceError where
    none does within the reach of max_panels (half of its panels, or k0).
    Where a slab reflects without absorbing, a harmonic whose first order
    exceeds the share and that falls slower than k^-_PERSISTENT has no
    absolutely convergent tail and is refused.
    """
    k0 = _first_switch(spec, cfg)
    c0 = 0.0
    if below is not None:
        try:
            c0 = integrate_interval(below, 0.0, k0, _coarse(spec),
                                    breakpoints=breakpoints)[0]
        except NonConvergenceError as exc:
            c0 = exc.partial if exc.partial is not None else 0.0
    sample = _sampler(f)
    ratios = _decay_ratios(cfg, axes, k0)
    rates = _phases(cfg, axes, k0)[1]
    dims = tuple(2 * len(slots) + 1 for slots, _ in axes)
    vals = sample(k0, dims)
    scale = max(abs(c0), abs(sum(vals) / len(vals)) * k0, spec.abs_tol)
    budget = max(spec.abs_tol, spec.rel_tol * scale)
    harm = _dft(vals, dims)
    first = 0.0
    for j, h in harm.items():
        if _leads(j):
            w = abs(sum(map(operator.mul, j, rates)))
            first += (4.0 * abs(h) / w if w > 0.0 else math.inf) * (
                1.0 + sum(r / (1.0 - r) if r < 1.0 else math.inf
                          for r, x in zip(ratios, j) if x))
    share = 0.25 * budget
    edges = _above_edges(sample, cfg, axes, share)
    if first <= share:
        keep = _axis_size(ratios, harm, _AXIS_DROP * share, k0)
        return (k0, 0.0, first, budget, functools.partial(edges, keep=keep),
                keep)
    mirror = any(m.omega_pl > 0.0 and not _absorbing(m)
                 for m in (cfg.left, cfg.right))
    k_max = max(k0, 0.5 * spec.max_panels * spec.panel_width)
    K = _predicted(cfg, axes, k0, harm, 0.5 * share, k_max)
    while K <= k_max:
        # the terms at K alone (edges(K, K)) decide persistence, before the
        # variation walk past K, which a harmonic that does not fall drags
        # along the whole ladder
        for h, dh, w, _ in edges(K, K)[2].values():
            if not mirror or 2.0 * abs(h / w) <= share:
                continue
            p = -K * (dh / h).real
            if p < _PERSISTENT:
                raise NonConvergenceError(
                    "oscillation amplitude falls slower than k^-%.1f (a "
                    "persistent reflection): at k = %.3e a harmonic of "
                    "first order %.3e goes like k^%.2f"
                    % (_PERSISTENT, K, 2.0 * abs(h / w), 0.0 - p),
                    partial=None, error=2.0 * abs(h / w), panels=0)
        s, err, _, keep = edges(K)
        if err <= share:
            return (K, s, err, budget, functools.partial(edges, keep=keep),
                    keep)
        K *= _LADDER
    raise NonConvergenceError(
        "no switch point within the reach of max_panels (k <= %.3e): the "
        "edge terms from k = %.3e stay above %.3e" % (k_max, k0, share),
        partial=None, error=math.inf, panels=0)


def _axis_size(ratios, harm, allow, x=0.0, rates=None, heads=None):
    """Offsets of each phase a of the harmonics ``harm`` ({j: h_j}), which
    fall like ``ratios[a]`` past their head: the fewest, at most
    2 _HARM_TOP + 1, whose grid leaves no harmonic whose error exceeds
    ``allow``, for the tail average past ``x`` or, with the phases'
    ``rates`` and ``heads``, for a grid read for its harmonics.

    The gap round trip enters the integrand as powers of rL rR e^{2ika},
    and each reflection r = rn (1 - E) / (1 - rn^2 E) of a slab adds the
    powers 0 and 1 of its E ~ e^{i phi}.  So the slab harmonics of the
    first gap order hold a head of comparable size up to |j_a| = H_a, the
    number of reflections on the phase (``heads``: 2 on the common phase of
    identical slabs, else 1), before they fall like rho_a.  The amplitude
    |h_H| of a phase bounds its harmonics at the head's end: the largest of
    |h_j| rho_a^(H_a - |j_a|) over its head, 0 < |j_a| <= H_a (a mixed
    harmonic, such as a slab's with the gap's, can exceed the phase's own,
    and a head that ends low is taken to fall like rho_a from its largest).

    n equidistant offsets fold harmonic m onto m - n.  The tail average
    (H = 1) keeps harmonic n, at most rho^(n - 1) |h_1|, which one mapped
    panel integrates without cancellation, about x / 2 times that; it takes
    two offsets or more.  A grid read for its harmonics (the edge terms'
    stencils) takes n = 2 J + 1, which reads every |j_a| <= J, J >= H,
    and leaves harmonic J + 1 out of the edge terms and folded onto -J, at
    most rho^(J + 1 - H) |h_H|; its error is its first order, 2 |h| over
    (J + 1) times the phase's rate.
    """
    out = []
    for a, rho in enumerate(ratios):
        head = heads[a] if heads else 1
        amp = max([abs(h) * rho ** (head - abs(j[a]))
                   for j, h in harm.items() if 0 < abs(j[a]) <= head],
                  default=0.0)
        n = 2 * head + 1 if heads else 2
        while n < 2 * _HARM_TOP + 1:
            if heads:
                m = n // 2 + 1
                err = 2.0 * amp * rho ** (m - head) / (m * abs(rates[a]))
            else:
                err = 0.5 * x * amp * rho ** (n - 1)
            if err <= allow:
                break
            n += 2 if heads else 1
        out.append(n)
    return tuple(out)


def _phase_dims(sample, cfg, axes, x, allow):
    """``(dims, ratios)``: the grid of the phases ``axes`` read for its
    harmonics at x and the decay ratios there (``_decay_ratios``).  Each
    phase takes ``_axis_size`` of its ratio and its head, read from
    ``sample(x, dims)`` on the least grid that reads every head, so that
    what it leaves holds at most ``allow``."""
    ratios = _decay_ratios(cfg, axes, x)
    heads = tuple(len(slots) for slots, _ in axes)
    low = tuple(2 * h + 1 for h in heads)
    return _axis_size(ratios, _dft(sample(x, low), low), allow,
                      rates=_phases(cfg, axes, x)[1], heads=heads), ratios


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
    stencil of the nodes less the outer two (or the last two).  Harmonics
    at or below ``floor`` are left out, and so are the slow ones, whose
    logarithmic slope |h_j' / h_j| exceeds ``slow`` times |w_j|.  ``terms``
    maps every other j to (h_j, h_j', w_j, sigma_2) at x, sigma_2 None
    where slow.
    """
    at, m = nodes.index(0), len(nodes)
    fits = []
    for part in (slice(0, m),
                 slice(0, m - 2) if at == 0 else slice(1, m - 1)):
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


def _above_edges(sample, cfg, axes, share):
    """``edges(x0, x1=inf, keep=None)``: ``(S(x1) - S(x0), err, terms,
    keep)`` past the switch point, S the signed edge terms (``_edge_terms``,
    ``terms`` at x0) of the harmonics of the integrand that its phase
    average on the tail grid ``keep`` (offsets per phase) drops, and
    S(inf) = 0: the raw integral over [x0, x1] is the average's plus
    S(x1) - S(x0).  The average keeps the harmonics whose every index j_a is
    a multiple of keep[a], so S leaves exactly those out.  Without ``keep``
    the tail grid is sized at x0 (``_axis_size``).  ``sample(k, dims)`` is
    the integrand on a phase grid (``_sampler``); ``share`` is the
    tail's share of the budget.

    At each end x the harmonics are sampled on a stencil of step
    _FD_STEP x, over the grid ``_phase_dims`` sizes at x to _AXIS_DROP of
    the share.  The end's error adds to the stencil error, for a slow
    harmonic, the lesser of its first order 2 |h / w| doubled for its
    variation and, where it decays like k^-p with p > 1, the integral
    2 |h| x / (p - 1) of its modulus (the slope of a small harmonic reads
    its grid's aliasing, so it may look slow); and on each phase, the first
    order of its outermost harmonics, |j_a| = (n_a - 1) // 2, times
    rho / (1 - rho), for the harmonics past the grid.  err adds the
    variation of the last order sigma_2 over [x0, x1]: its chords,
    2 |sigma_2(y') - sigma_2(y)| per harmonic, along the ladder
    y = x0 _LADDER^i up to x1 or, sooner, up to the first y where the
    harmonics whose |sigma_2| rose over the step hold at most _AXIS_DROP of
    the sum of |sigma_2(y)|, with 2 |sigma_2(y)| for the fall past it.
    """
    nodes = _STENCIL_NODES[0]

    @functools.lru_cache(maxsize=None)
    def measured(x):
        """The harmonics on the stencil at x, their phases' rates, the
        phases at x, the grid and the tail grid sized there."""
        dims, ratios = _phase_dims(sample, cfg, axes, x, _AXIS_DROP * share)
        hs, rates = [], []
        for z in nodes:
            t = x + _FD_STEP * x * z
            phases, rt = _phases(cfg, axes, t)
            hs.append({j: c * cmath.exp(-1j * sum(map(operator.mul, j,
                                                      phases)))
                       for j, c in _dft(sample(t, dims), dims).items()
                       if _leads(j)})
            rates.append(rt)
            if z == 0:
                at, mid = phases, hs[-1]
        return hs, rates, at, dims, ratios, _axis_size(
            ratios, mid, _AXIS_DROP * share, x)

    @functools.lru_cache(maxsize=None)
    def edge_sum(x, keep):
        hs, rates, at, dims, ratios, _ = measured(x)
        s, err, terms = _edge_terms(
            [{j: h for j, h in g.items()
              if any(i % n for i, n in zip(j, keep))} for g in hs],
            rates, at, nodes, _FD_STEP * x, _MEAN_NOISE * _NOISE_EPS * x,
            _SLOW)
        for h, dh, w, s2 in terms.values():
            if s2 is None:
                p = -x * (dh / h).real
                err += min(4.0 * abs(h / w) if w else math.inf,
                           2.0 * abs(h) * x / (p - 1.0) if p > 1.0
                           else math.inf)
        # the first orders of the outermost harmonics of each phase, those
        # the average keeps included, stand for the harmonics past the grid
        mid, rate = hs[nodes.index(0)], rates[nodes.index(0)]
        firsts = {}
        for j, h in mid.items():
            w = sum(map(operator.mul, j, rate))
            if w and (j not in terms or terms[j][3] is not None):
                firsts[j] = 2.0 * abs(h / w)
        for a, (n, rho) in enumerate(zip(dims, ratios)):
            outer = sum(v for j, v in firsts.items()
                        if abs(j[a]) == (n - 1) // 2)
            err += outer * rho / (1.0 - rho) if rho < 1.0 else math.inf
        return s, err, terms, {j: t[3] for j, t in terms.items()
                               if t[3] is not None}

    def edges(x0, x1=math.inf, keep=None):
        if keep is None:
            keep = measured(x0)[5]
        s0, e0, terms, prev = edge_sum(x0, keep)
        s1, e1 = edge_sum(x1, keep)[:2] if x1 < math.inf else (0.0, 0.0)
        y, var = x0 * _LADDER, 0.0
        while y < x1:
            last = edge_sum(y, keep)[3]
            var += _chord(prev, last)
            if sum(abs(v) for j, v in last.items()
                   if abs(v) > abs(prev.get(j, 0.0))) <= _AXIS_DROP * sum(
                       map(abs, last.values())):
                return (s1 - s0, e0 + e1 + var + _chord(last, {}), terms,
                        keep)
            y, prev = y * _LADDER, last
        return (s1 - s0, e0 + e1 + var + _chord(prev, edge_sum(x1, keep)[3]),
                terms, keep)
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


def _band_bounds(shifted, comb, lo, hi):
    """The slab-phase mean over a dense or shallow band [lo, hi] of the
    identical slabs of ``comb``, its size, and the edge terms of the slab
    oscillation the mean drops: returns ``(mean, size, edges)``, where
    ``mean(k, tol)`` is the slab-phase mean at k inside the band, within
    ``tol``, ``size(x0, x1)`` is the integral of its modulus over the part
    [x0, x1] of the band by the trapezoid rule on the grid (linear inside a
    grid step), and ``edges(x0, x1)`` is described below.

    Three integrations by parts of each harmonic integral of h_j e^{i j phi}
    leave the edge terms of u = h_j / phi', u' / phi' and (u' / phi')' / phi'
    over j, j^2 and j^3, plus the variation of the last over j^3 (Iserles
    and Norsett, Proc. R. Soc. A 461, 1383 (2005)).  h_-j is the conjugate
    of h_j, so each |j| counts twice.  The harmonics are sampled once on a
    grid of ``_HARM_GRID`` points per gap period across the band, which
    resolves their gap-phase variation; the grid gives the absolute edge
    terms at the band's ends and the variation over every grid step.

    Each grid point reads its mean and its harmonics from six samples and
    the two cavity poles and sums j <= J (``_band_points``); the first
    order of the rest, 2 rest / phi', joins its edge terms and the
    variation of its grid steps.  The mean at k takes the least number
    n <= 5 of equidistant offsets whose aliased harmonics, at most
    2 sum_p |A_p| rho^n / (1 - rho^n) with rho the pole radius at k and
    sum_p |A_p| rho_p the larger of k's grid step, fit tol / 2, and else
    the six samples' mean from the poles (``_pole_form``) where its charged
    rounding fits tol / 2 as well, and else the least n > 5 whose aliased
    harmonics fit; its amplitude bound comes from a list built once per
    band, and the index, surface and gap phasor it computes for rho serve
    its pole form too (``_pole_parts``).  Only the means' pole forms
    compute the rounding charge; the grid's and the stencils' need none.
    The grid, the stencils of ``edges`` and the means draw on one store of
    diagonal samples keyed on k and the offset count n (``_sampler``) and
    one of pole forms keyed on k and whether they are charged, for the life
    of the closure: a pass that asks again at the same k and a tolerance
    that sizes the same n (the direct pass at the coarse pass's nodes), or
    a stencil centred on a grid point, makes no kernel call and reads no
    pole form again.

    ``edges(x0, x1)`` returns ``(value, err)``: what the raw integral over
    [x0, x1] adds to the mean's, and its error.  Each end x takes one of
    two counts.  The signed edge sum S(x) = sum over j != 0 and m < 3 of
    (-1)^m sigma_m(x) e^{i j phi(x)}, with sigma_0 = h_j / (i j phi') and
    sigma_{m+1} = sigma_m' / (i j phi'), enters the value (S(x1) - S(x0)),
    with its derivatives from the harmonics sampled on a five-node stencil
    at x (see ``_FD_STEP``) and its stencil error, the difference from the
    three-node sum, and the first order of the
    harmonics past the last in the error.  The absolute edge terms that
    the grid holds at the band's own ends enter the error alone.  A band
    whose grid points all have rho <= _RHO_MAX takes S, except at its own
    ends lo and hi where the absolute terms are no larger than the grid's
    variation over the band, which the band charges anyway; a band with a
    larger rho (a dense band) takes the absolute terms at both of its
    ends.  The error adds the variation of the last order over [x0, x1]:
    inside one grid step the change of the last order between x0 and x1,
    else its changes from x0 to the next grid point and from the last grid
    point to x1 plus the whole steps between.
    """
    sample = _sampler(shifted)

    @functools.lru_cache(maxsize=None)
    def form(k, parts, charge=False):
        return _pole_form(sample(k, (6,)), comb.width, k, parts, charge)
    m = max(2, int(math.ceil(_HARM_GRID * (hi - lo) * comb.gap / math.pi)))
    step = (hi - lo) / m
    ks = [lo + step * i for i in range(m)] + [hi]
    _, rates, h0s, poles, harm, tails = _band_points(form, comb, ks)
    # the trapezoid integral of |h0| from lo to each grid point
    cum = list(itertools.accumulate(
        (0.5 * step * (abs(a) + abs(b)) for a, b in zip(h0s, h0s[1:])),
        initial=0.0))
    ends = [tails[0], tails[m]]
    jumps = [a + b for a, b in zip(tails, tails[1:])]
    # the last order sigma_2 = w / (i j)^3 of each harmonic at each point
    last = [{} for _ in ks]
    for j in range(1, len(harm[0]) + 1):
        u = [h[j, ] / r for h, r in zip(harm, rates)]
        v = [x / r for x, r in zip(_derivative(u, step), rates)]
        w = [x / r for x, r in zip(_derivative(v, step), rates)]
        for e, i in enumerate((0, m)):
            ends[e] += 2.0 * (abs(u[i]) / j + abs(v[i]) / j ** 2
                              + abs(w[i]) / j ** 3)
        for i in range(m + 1):
            last[i][j,] = w[i] / (1j * j) ** 3
        for i in range(m):
            jumps[i] += 2.0 * abs(w[i + 1] - w[i]) / j ** 3
    variation = list(itertools.accumulate(jumps, initial=0.0))
    amp = [sum(abs(a) for a, _ in p) for p in poles]
    # the band's own ends that take the absolute terms the grid holds there
    dense = max(abs(y) for p in poles for _, y in p) > _RHO_MAX
    kept = {x: (0.0, e, last[i]) for x, e, i in ((lo, ends[0], 0),
                                                 (hi, ends[1], m))
            if dense or e <= variation[m]}

    def size(x0, x1):
        def at(x):
            t = min(max((x - lo) / step, 0.0), float(m))
            i = min(int(t), m - 1)
            return cum[i] + (t - i) * (cum[i + 1] - cum[i])
        return at(x1) - at(x0)

    def cell(x):
        """Grid steps (i, i') around x: i == i' on a grid point."""
        t = min(max((x - lo) / step, 0.0), float(m))
        i = int(round(t))
        if abs(t - i) <= 1e-9:
            return i, i
        return int(t), int(t) + 1

    def mean(k, tol):
        c = max(amp[i] for i in cell(k))
        parts = _pole_parts(comb, k)
        rho = parts[4]

        def fits(n):
            return 4.0 * c * rho ** (n - 1) <= tol * (1.0 - rho ** n)
        n = next((n for n in range(1, 6) if fits(n)), 6)
        if n == 6:
            h0, _, err = form(k, parts, True)
            if err <= 0.5 * tol:
                return h0
            n = next(n for n in itertools.count(6) if fits(n))
        return sum(sample(k, (n,))) / n

    @functools.lru_cache(maxsize=None)
    def end(x):
        """``(value, err, last)`` of the end x: S(x) and its stencil error
        plus the first order of the harmonics past the last, or the
        absolute terms kept there, and the last order of each harmonic."""
        if x in kept:
            return kept[x]
        nodes = _BAND_END_NODES[x < 2.0 * _FD_STEP]
        ts = [x + _FD_STEP * z for z in nodes]
        ns, rs, _, _, hs, tails = _band_points(form, comb, ts)
        at = nodes.index(0)
        s, err, terms = _edge_terms(
            hs, [[r] for r in rs], [2.0 * x * ns[at].real * comb.width],
            nodes, _FD_STEP, 0.0, math.inf)
        return s, err + tails[at], {j: t[3] for j, t in terms.items()}

    def edges(x0, x1):
        """Within a grid step the variation is the chord of the last
        order between the window ends, else the chords to the grid points
        next inside plus the whole steps between them."""
        (s0, e0, w0), (s1, e1, w1) = end(x0), end(x1)
        i0, i1 = cell(x0)[1], cell(x1)[0]
        if i0 > i1:
            var = _chord(w0, w1)
        else:
            var = (_chord(w0, last[i0]) + variation[i1] - variation[i0]
                   + _chord(last[i1], w1))
        return s1 - s0, e0 + e1 + var
    return mean, size, edges


def _chord(a, b):
    """Sum over the harmonics j of 2 |a_j - b_j|, for maps from j to the
    last order of the edge terms at two points."""
    return sum(2.0 * abs(a.get(j, 0.0) - b.get(j, 0.0))
               for j in set(a) | set(b))


def _mean_tol(target, bands):
    """Tolerance of the slab-phase means across ``bands`` (the bands, or
    their parts, one pass integrates): their integrated error held to a
    hundredth of the pass's tolerance ``target``, or the rounding floor at
    the top of ``bands`` where that is larger; 0 without bands."""
    if not bands:
        return 0.0
    return max(0.01 * target / sum(hi - lo for lo, hi in bands),
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


def _oscillatory_integral(point, shifted, spec, cfg):
    """Integrate a decaying oscillatory force integrand over [0, inf).

    Parameters
    ----------
    point : callable
        ``point(k)``, the integrand at k: ``shifted(k, offsets)`` in value
        at the one unshifted triple (0, 0, 0), from a one-triple form.
    shifted : callable
        ``shifted(k, offsets)`` evaluates the integrand at k once per
        additive offset triple (sL, sR, sG) on the left-slab, right-slab
        and gap phases of the grid ``offsets`` (``core.grid``), as a
        list.
    spec : QuadratureSpec
        Tolerances; ``rel_tol`` is interpreted against the integral scale.
    cfg : CavityConfig
        The cavity, of finite width.  It sets the breakpoints of the direct
        quadrature (its slabs' response features, ``_breakpoints``), the
        first switch point candidate, the phases the tail averages, the
        decay ratios of their harmonics and, for identical absorbing slabs,
        the dense and shallow bands.  Each of its narrow bound gap modes
        (``_pole_terms``) is subtracted as a pole term over its window
        [lo, hi], whose ends join the breakpoints (see ``_pole_window``).
        The passes integrate the remainder plus the term's exact integral
        spread across the window, so every relative test sees the whole
        integral, not the remainder alone.

    Returns
    -------
    value, err : float
        The integral and a conservative error estimate combining the
        quadrature errors, the error of the edge terms of the slab
        oscillation dropped across the dense and shallow bands (each
        band's ``edges(lo, hi)``, whose value joins the integral), the
        error of the signed edge terms S(K) of the oscillation dropped
        past the switch point K (the variation of their last order along
        the ladder past K, their stencil error, the harmonics past the grid
        and the slow harmonics left out of them), the tail's quadrature
        error and evaluation-noise allowance, and the rounding of each pole
        term's subtraction.

    The coarse pass over [0, k0] that fixes the budget and the direct pass
    over [0, K] share one store of raw values keyed on k, and the band
    means keep theirs (see ``_band_bounds``), so the direct pass calls the
    kernel only at points the coarse pass did not sample.  Both stores
    live only as long as this call.
    """
    plain = functools.lru_cache(maxsize=None)(point)
    windows = [_pole_window(plain, *p)
               for p in _pole_terms(cfg, spec.panel_width)]
    breakpoints = _breakpoints(cfg.left, cfg.right) + tuple(
        x for lo, hi, _, _ in windows for x in (lo, hi))
    raw = _banded(plain, [w[:3] for w in windows], None)

    k0 = _first_switch(spec, cfg)
    axes = _phase_axes(cfg)
    bands = _bands(cfg, k0)[0]
    # each dense band's mean and edge terms, built once for both passes
    built = [_band_bounds(shifted, cfg, lo, hi) for lo, hi in bands]

    def banded(tol):
        return _banded(raw, [(lo, hi, mean) for (lo, hi), (mean, _, _)
                             in zip(bands, built)], tol)

    _endpoint_check(raw)

    # The switch point and the signed edge terms of the oscillation there;
    # the coarse pass below k0 that fixes the absolute error budget sizes
    # its means to its own target, rel_tol of the bands' size.
    coarse = _coarse(spec)
    size = sum(s(lo, hi) for (lo, hi), (_, s, _) in zip(bands, built))
    K, s_K, e_K, budget, _, dims = _switch(
        shifted, spec, cfg, axes,
        banded(_mean_tol(max(coarse.abs_tol, coarse.rel_tol * size), bands)),
        breakpoints + sum(bands, ()))

    # Direct adaptive pass below the switch point, reusing the coarse
    # pass's raw values and means at the nodes they share; k0, where the
    # coarse pass ended its last panel, is a breakpoint unless a band holds
    # it, so those panels recur; the shallow bands, found again up to K
    # (classifying only the points the k0 scan did not), join the dense
    # bands there, and each band adds the edge terms of the slab
    # oscillation it drops plus its means' allowance; each pole window adds
    # the rounding of its subtraction.
    shallow = _bands(cfg, K)[1]
    bands += shallow
    built += [_band_bounds(shifted, cfg, lo, hi) for lo, hi in shallow]
    direct = spec.replace(abs_tol=max(spec.abs_tol, 0.25 * budget,
                                       0.5 * _NOISE_EPS * K * K))
    tol = _mean_tol(direct.abs_tol, bands)
    if not any(lo < k0 < hi for lo, hi in bands):
        breakpoints += (k0,)
    val, err = integrate_interval(
        banded(tol), 0.0, K, direct, breakpoints=breakpoints + sum(bands, ()))
    err += e_K + sum(w[3] for w in windows)
    for (lo, hi), (_, _, edges) in zip(bands, built):
        dv, de = edges(lo, hi)
        val += dv
        err += de + tol * (hi - lo)

    # Phase-averaged tail less the signed edge terms at K; a failure
    # carries the integral below K
    try:
        v, e = _averaged_tail(lambda k: _phase_average(shifted, k, dims), K,
                              spec.replace(abs_tol=max(spec.abs_tol,
                                                       0.25 * budget)))
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


@functools.lru_cache(maxsize=_VACUUM_CACHE_SIZE)
def _rotated_vacuum(cfg, spec):
    """Zero-temperature total force by rotation onto the imaginary axis,
    memoized per process like Z (``_vacuum_bath``).

    Equals 4 * integral over kappa of kappa * w / (1 - w) with w the real
    rotated round-trip factor rL rR e^{-2 kappa gap}; the integrand decays
    like exp(-2 kappa gap), so the standard marching quadrature terminates
    on its own.  On this axis 0 <= w < 1 (w(0) = 0), so 1 - w never
    vanishes.  For lossless pairs there is no bath and this is the vacuum
    state force itself.
    """
    s = spec.replace(panel_width=min(spec.panel_width, 0.5 / cfg.gap))
    return integrate_semiinfinite(_rotated(cfg, 4.0), s)


def _slab_rate(mat, d, k, n=None):
    """Rate of the slab round-trip phase, d/dk of 2 k Re(n) d, from the
    slab's refractive index n at k (computed when not given), in closed
    form: 2 d (Re n + k Re n'), where eps = n^2 and
    n' = eps' / (2 n) = omega_pl^2 (2 k + i gamma0)
    / (2 n (omega0^2 - k^2 - i gamma0 k)^2); 2 d Re n for a static slab or
    omega_pl = 0, whose eps does not vary."""
    n = _index(mat, k) if n is None else n
    w0, wp, g0, static = mat.as_tuple()
    if static or wp == 0.0:
        return 2.0 * d * n.real
    den = w0 * w0 - k * k - 1j * g0 * k
    dn = wp * wp * (2.0 * k + 1j * g0) / (2.0 * n * den * den)
    return 2.0 * d * (n.real + k * dn.real)


def _kind(cfg, k):
    """Band kind of the identical slabs of ``cfg`` at k: 2 in a dense band,
    1 in a shallow band, 0 elsewhere.

    Both kinds need the slab phase to run ``_DENSE_RATE`` times faster than
    the gap phase.  A dense band's internal round trip
    |rn^2 E| = |rn|^2 e^{-2 k Im(n) d} makes the slab resonances sharp,
    neither opaque nor weakly reflecting; a shallow band's comb is
    shallower while the slab is not opaque (its internal transmission
    e^{-2 k Im(n) d} is ``clear``).
    """
    n, rn, clear = _surface(cfg.left, cfg.width, k)
    depth = abs(rn) ** 2 * clear
    if depth > _SHARP_MAX or (depth < _SHARP_MIN and clear < _CLEAR_MIN):
        return 0
    if _slab_rate(cfg.left, cfg.width, k, n) < _DENSE_RATE * 2.0 * cfg.gap:
        return 0
    return 2 if depth >= _SHARP_MIN else 1


@functools.lru_cache(maxsize=_VACUUM_CACHE_SIZE)
def _kinds(cfg):
    """``{k: kind}``: the band kind (``_kind``) of every k of the cavity
    ``cfg`` that a scan of ``_bands`` has classified in this process."""
    return {}


def _bands(cfg, k_end):
    """``(dense, shallow)``: the dense and the shallow bands in (0, k_end]
    of identical absorbing slabs (both slab phases are then one phase),
    each sorted; empty otherwise.

    One scan classifies the points j pi / (16 a) below k_end, and k_end
    itself, by ``_kind``; each change of kind between neighbouring points is
    bisected once, and a run holding at the first or last point runs to 0
    or k_end.  Every dense run is a band.  A shallow run is one when the
    slab is opaque just past each of its edges inside (0, k_end), of which
    it has at least one (a run that abuts a dense band, where the comb is
    still deep, does not qualify).  The edge terms of ``_band_bounds`` would
    count a shallow run that ends anywhere, so this filter is kept for
    cost: without it weak Z's shallow runs become bands and its kernel
    points rise from 3,404 to 6,789.  A band narrower than the scan step
    that ends before k_end is missed.

    Every scan of a cavity uses the same grid and bisects the same
    neighbours, and reads the points an earlier scan classified from one
    memo per cavity (``_kinds``), so it classifies only the points it adds:
    the direct pass's scan to K after the coarse pass's to k0, and the
    sigma ladder's after Z's.
    """
    if cfg.left != cfg.right or not _absorbing(cfg.left):
        return (), ()
    kinds = _kinds(cfg)

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
        and all(_surface(cfg.left, cfg.width, x)[2] < _CLEAR_MIN
                for x in past))
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


def _thermal_window(g, beta, spec, breakpoints):
    """Integral of ``g(k)``, weighted by thermal occupation excesses of
    inverse temperature beta or more, and its error.

    The excess weight coth(beta k / 2) - 1 = 2 / (e^{beta k} - 1) decays
    exponentially, so the integral lives on a finite interval regardless of
    the material's absorption: the panels span [0, 120 / beta], where the
    weight falls to 1e-52, and the integrand is 0 without a call to g past
    beta k = _WEIGHT_CUT, where the weight's tail is below rounding.
    """
    def cut(k):
        return 0.0 if beta * k > _WEIGHT_CUT else g(k)

    _endpoint_check(cut)
    return integrate_interval(cut, 0.0, 120.0 / beta, spec,
                              breakpoints=breakpoints)


def _thermal_excess(bracket, beta, spec, breakpoints):
    """State force excess of a thermal weight over the vacuum weight."""
    return _thermal_window(
        lambda k: k * core.occupation_excess(beta, k) * bracket(k), beta,
        spec, breakpoints)


def _band_excess(bracket, state, spec, breakpoints):
    """State force excess of a band-squeezed weight over the vacuum weight,
    by raw quadrature over the whole window: the route of
    ``limits.force_dissipationless``'s bracket and the tests' reference for the
    ladder (``band_excess_curve``), from which ``force_ic`` takes it."""
    lo, hi = band_edges(state)
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


@functools.lru_cache(maxsize=_VACUUM_CACHE_SIZE)
def _cavity_excess(cfg, state, spec):
    """State excess X of the cavity ``cfg`` over the vacuum weight, for a
    state with a pointwise weight (see ``_effective_state``), memoized per
    process like Z (``_vacuum_bath``): forces at one field state and
    several bath temperatures compute it once.  A band state's excess is
    the one-width ladder of ``band_excess_curve``."""
    if state.variant == "squeezed_band":
        return band_excess_curve(cfg, state.omega_center, (state.sigma,),
                                 spec)[0]
    return _state_excess(_bracket(cfg), state, spec,
                         _breakpoints(cfg.left, cfg.right))


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
    return _oscillatory_integral(core.vacuum_bath_of(*_args(cfg)),
                                 _zero_bath_integrand(cfg), spec, cfg)


def _zero_bath_integrand(cfg):
    """Zero-temperature bath integrand ``f(k, offsets)`` of a cavity on a
    grid of offsets (``core.grid``), Z's integrand: the round-trip term
    less k times the state bracket in absorption form, from Z's grid
    kernel ``core.vacuum_baths``."""
    a, d, tl, tr = _args(cfg)

    def f(k, offsets):
        return core.vacuum_baths(k, a, d, tl, tr, offsets)
    return f


def _bracket(cfg):
    """State bracket ``bracket(k)`` of a cavity, without phase offsets."""
    return core.ic_bracket_of(*_args(cfg))


def _state_integrand(cfg):
    """Vacuum-weight state integrand ``f(k, offsets)``, k times the state
    bracket, of a cavity on a grid of offsets (``core.grid``), from the
    state bracket's grid kernel ``core.ic_brackets``."""
    a, d, tl, tr = _args(cfg)

    def f(k, offsets):
        return [k * b for b in core.ic_brackets(k, a, d, tl, tr, offsets)]
    return f


def _finite(cfg):
    """Refuse a cavity of infinite width: the bare state and bath integrals
    of half-spaces diverge, and only ``limits.halfspace_forces`` groups
    them."""
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
    return scale, rot, zt, _cavity_excess(cfg, eff, spec)


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

    The integrand is linear in the occupations, so the excess weighs the
    kernel's weight-free parts (``_bath_factors``, one kernel call per k
    not sampled before on the cavity) by the differences of the occupation
    excesses coth(beta k/2) - 1, over the thermal window
    (``_thermal_window``) of beta, the smallest of the three.
    """
    factors = _bath_factors(cfg)

    def g(k):
        ref = core.occupation_excess(beta_phi, k)
        return core.bath_weigh(
            factors(k), core.occupation_excess(beta_left, k) - ref,
            core.occupation_excess(beta_right, k) - ref)

    return _thermal_window(g, min(beta_left, beta_right, beta_phi), spec,
                           _breakpoints(cfg.left, cfg.right))


@functools.lru_cache(maxsize=_VACUUM_CACHE_SIZE)
def _bath_factors(cfg):
    """The bath kernel's weight-free parts ``factors(k)`` on a cavity
    (``core.bath_factors_of`` at the unshifted triple), memoized per
    process for each cavity and k, so a bath excess at any temperatures
    calls the kernel only at k that no earlier excess on the cavity
    sampled.  A raised error is not memoized."""
    return functools.lru_cache(maxsize=None)(
        core.bath_factors_of(*_args(cfg)))


def force_ic(cfg, state, spec):
    """State-driven force on the cavity for a given initial field state.

    Computed as R - Z + X: the rotated zero-temperature total R minus the
    zero-temperature bath integral Z, plus the state excess X over the
    vacuum weight.  Z, the only oscillatory real-axis integral, integrates
    the round-trip term less k times the state bracket in absorption form
    (``core.vacuum_baths``), so R - Z is the state integral at the vacuum
    weight.  Z and R are memoized per process for each cavity and spec,
    and X for each cavity, state and spec, so forces for several states
    and bath temperatures of one cavity compute each once.  A band state's
    X is the ladder of ``band_excess_curve`` at its one width, as in
    ``sweep-sigma``.

    Parameters
    ----------
    cfg : CavityConfig
    state : FieldState
        Any variant except the delta-band limit, which has no pointwise
        spectral weight (use ``limits.force_delta_squeezed``).
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
    zero-temperature value, which decays exponentially.  Z's integrand is
    the zero-temperature bath integrand taken from the state side, the
    round-trip term less k times the state bracket (``core.vacuum_baths``);
    the excess weighs the bath kernel's weight-free parts
    (``core.bath_factors_of``, memoized per cavity and k) by the
    occupations.

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
        exact by construction.  R, Z and the state excess X come from the
        per-process memos (see ``force_ic``), so calls that share the
        cavity, the field state and the spec recompute only the bath
        excess, from the memoized kernel parts (see ``force_bath``).  Z
        cancels from the total unless constant squeezing rescales the state
        part, so ``err_total`` counts Z's error only for the uncancelled
        fraction, plus a few ulps of |Z| of rounding.
    """
    scale, (r, er), (z, ez), (x, ex) = _ic_parts(cfg, state, spec)
    (zb, ezb), (y, ey) = _bath_parts(cfg, beta_left, beta_right, spec)
    f_ic = scale * (r - z + x)
    f_b = zb + y
    err_total = (scale * (er + ex) + ey + abs(1.0 - scale) * ezb
                 + _CANCEL_ROUNDING * scale * abs(zb))
    return ForceBreakdown(f_ic, f_b, f_ic + f_b, scale * (er + ez + ex),
                          ezb + ey, err_total)


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


def band_excess_curve(cfg, omega_center, sigmas, spec):
    """Band-state force excesses for a ladder of band widths.

    For each width sigma the excess over the vacuum-weight force equals
    (cosh(2/sigma) - 1) times the window integral of k * [state bracket]
    over |k - omega_center| <= sigma/2.  The window integrals are nested,
    so they are assembled incrementally from non-overlapping strips and a
    full ladder costs a single pass over the widest window; a window no
    wider than one panel (``spec.panel_width``) is one strip over the whole
    window, one panel where the two strips past the narrower window would
    take two.  Where a strip crosses a shallow band of identical absorbing
    slabs, on either side of the stop band, it integrates the slab-phase
    mean there, holding the means' integrated error to a hundredth of its
    own tolerance, max(abs_tol, rel_tol times the band grid's integral of
    the mean's modulus over its parts of the bands), spread over their
    width, or to the rounding floor at their top (``_mean_tol``), and
    charges that allowance in its error; past the switch
    point K of the state integrand (``_switch``: the first point of its
    ladder whose measured edge terms fit a quarter of the budget of its
    phase average at k0) it integrates the mean over every phase.  Each
    window adds, for its part [x0, x1] of each band, the band's
    ``edges(x0, x1)`` (see ``_band_bounds``), and for its part past K the
    signed edge terms of the dropped oscillation at the part's two ends,
    whose error carries their stencil error and the variation of their last
    order over the part.

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
    K, k0 = top, _first_switch(spec, cfg)
    if top > k0:
        try:
            K, _, _, _, above, dims = _switch(f, spec, cfg, axes)
            K = min(top, K)
        except NonConvergenceError:
            # no switch point (a slab reflecting without loss): the finite
            # windows stay on the raw integrand
            pass

    # the shallow bands are found once, up to K or k0, whichever is higher,
    # so a band that holds the top of every window still ends inside the
    # scan; only the bands some window overlaps are built.  Every strip that
    # overlaps one integrates the mean there, and each window adds the edge
    # terms of its own part of each band and past K
    bands = [(b0, b1) for b0, b1 in _bands(cfg, max(K, k0))[1]
             if any(lo < b1 and b0 < hi for lo, hi in windows)]
    built = [_band_bounds(f, cfg, lo, hi) for lo, hi in bands]
    bracket = _bracket(cfg)

    def g(k):
        return k * bracket(k)

    def parts(lo, hi):
        """``(x0, x1, mean, size, edges)``: each band's part of [lo, hi],
        with the band's mean, size and signed edge terms, and the part past
        K (without a mean or a size)."""
        out = [(max(b0, lo), min(b1, hi)) + bound
               for (b0, b1), bound in zip(bands, built)
               if lo < b1 and b0 < hi]
        if hi > K:
            out.append((max(K, lo), hi, None, None, above))
        return out

    def strip(lo, hi):
        if hi <= lo:
            return 0.0, 0.0
        own = parts(lo, min(hi, K))
        # the means hold their integrated error to a hundredth of the
        # strip's own tolerance, sized by the means' modulus over it
        tol = _mean_tol(max(spec.abs_tol, spec.rel_tol * sum(
            size(x0, x1) for x0, x1, _, size, _ in own)),
            [p[:2] for p in own])
        v, e = integrate_interval(_banded(g, [p[:3] for p in own], tol), lo,
                                  min(hi, K), spec,
                                  breakpoints=bks + sum((p[:2] for p in own),
                                                        ()))
        e += tol * sum(x1 - x0 for x0, x1, *_ in own)
        if hi > K:
            x0 = max(lo, K)
            va, ea = integrate_interval(
                lambda k: _phase_average(f, k, dims), x0, hi,
                spec.replace(panel_width=hi - x0))
            v, e = v + va, e + ea
        return v, e

    order = sorted(range(len(sigmas)), key=lambda i: sigmas[i])
    out = [None] * len(sigmas)
    acc, eacc = 0.0, 0.0
    prev_lo = prev_hi = omega_center
    for i in order:
        lo, hi = windows[i]
        if hi - lo <= spec.panel_width:
            # a window within one panel is one strip: one panel, where the
            # two strips past the narrower window take two
            acc, eacc = strip(lo, hi)
        else:
            v1, e1 = strip(lo, min(prev_lo, hi))
            v2, e2 = strip(max(prev_hi, lo), hi)
            acc += v1 + v2
            eacc += e1 + e2
        prev_lo, prev_hi = lo, hi
        v, e = acc, eacc
        for x0, x1, _, _, edges in parts(lo, hi):
            dv, de = edges(x0, x1)[:2]
            v, e = v + dv, e + de
        out[i] = (facs[i] * v, facs[i] * e)
    return out
