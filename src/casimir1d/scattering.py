"""Two-slab scattering: coefficients, piecewise modes, Green function.

Geometry (all lengths in units of the gap): slabs of thickness d occupy
[-a/2-d, -a/2] and [a/2, a/2+d], the gap is (-a/2, a/2), both exteriors are
vacuum.  The Laplace variable is s = -i*omega on the real frequency axis.

Internally every in-slab exponential is paired so its real exponent is
non-positive (anchored amplitudes), so the mode and Green evaluations stay
finite for strongly opaque slabs; the textbook in-slab coefficients that
reference the global origin, which may overflow there, are not formed.
"""

import cmath
import math

from ._value import Frozen
from .errors import RegionUnsupportedError
from .kernels import core
from .material import Material, refractive_index

EXT_LEFT = "exterior_left"
SLAB_LEFT = "slab_left"
GAP = "gap"
SLAB_RIGHT = "slab_right"
EXT_RIGHT = "exterior_right"

PHI_GREATER = "phi_greater"
PHI_LESS = "phi_less"


class CavityConfig(Frozen):
    """Two slabs of common width facing each other across a vacuum gap.

    The gap is positive and finite; the width is positive, and infinite
    for half-spaces.
    """

    __slots__ = ("gap", "width", "left", "right")

    def __init__(self, gap, width, left, right):
        self._assign(gap, width, left, right)

    def _check(self):
        if not 0.0 < self.gap < math.inf:
            raise ValueError("gap must be positive and finite, got %r"
                             % self.gap)
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        if not isinstance(self.left, Material) or not isinstance(
                self.right, Material):
            raise TypeError("left/right must be Material instances")

    @property
    def interfaces(self):
        """(x1, x2, x3, x4): slab edges from left to right."""
        a, d = self.gap, self.width
        return (-a / 2.0 - d, -a / 2.0, a / 2.0, a / 2.0 + d)

    def mirrored(self):
        """The spatially reflected configuration (materials swapped)."""
        return CavityConfig(self.gap, self.width, self.right, self.left)


def classify_region(cfg, x):
    """Region name at position x.

    Interface tie-breaks: the inner interfaces +-a/2 count as gap, the outer
    interfaces +-(a/2+d) count as exterior (continuity makes the choice
    immaterial for mode values).
    """
    x1, x2, x3, x4 = cfg.interfaces
    if x <= x1:
        return EXT_LEFT
    if x < x2:
        return SLAB_LEFT
    if x <= x3:
        return GAP
    if x < x4:
        return SLAB_RIGHT
    return EXT_RIGHT


def slab_coefficients(material, d, omega):
    """Single-slab reflection/transmission (r, t) at real frequency omega.

    r = r_n (1 - e^{-2snd}) / (1 - r_n^2 e^{-2snd}),
    t = [4n/(n+1)^2] e^{-snd} / (1 - r_n^2 e^{-2snd}),  s = -i omega.
    Negative omega returns the conjugate pair.
    """
    if omega < 0.0:
        r, t = slab_coefficients(material, d, -omega)
        return r.conjugate(), t.conjugate()
    if d == 0.0:
        return 0.0 + 0.0j, 1.0 + 0.0j
    n = refractive_index(material, omega)
    parts = core.slab_parts(omega, n, d)
    return parts[3], parts[4]


class ScatteringSet:
    """All scattering amplitudes of the two-slab cavity at one frequency.

    Fields: rL, tL, rR, tR (single slab), Rgt, T (cavity), Cgt, Dgt,
    Clt, Dlt (gap amplitudes of the two modes), at (the Laplace variable
    s = -i omega).  Inside the slabs the modes use anchored amplitudes
    (``mode_eval``, ``mode_deriv``).

    Construct through cavity_coefficients().
    """

    __slots__ = ("cfg", "omega", "at", "nL", "nR", "rnL", "rnR", "FL", "FR",
                 "rL", "tL", "rR", "tR", "tauL", "tauR", "gapf", "delta",
                 "rho", "T", "Rgt", "Cgt", "Dgt", "Clt", "Dlt", "_mirror")

    def __init__(self, cfg, omega):
        a, d = cfg.gap, cfg.width
        self.cfg = cfg
        self.omega = omega
        w = abs(omega)
        s = -1j * w
        nL = refractive_index(cfg.left, w)
        nR = refractive_index(cfg.right, w)
        pL = core.slab_parts(w, nL, d)
        pR = core.slab_parts(w, nR, d)
        rnL, _, FL, rL, tL, tauL, tl2L, _, _, _, _, _ = pL
        rnR, _, FR, rR, tR, tauR, _, _, _, _, _, _ = pR
        gapf = core.gap_phase(w, a)
        _, delta = core.cavity_delta(rL, rR, gapf)
        rho = rL + rR * tl2L * gapf / delta
        T = tauL * tauR / delta
        eha = cmath.exp(-s * a)
        vals = {
            "nL": nL, "nR": nR, "rnL": rnL, "rnR": rnR, "FL": FL, "FR": FR,
            "rL": rL, "tL": tL, "rR": rR, "tR": tR, "tauL": tauL,
            "tauR": tauR, "gapf": gapf, "delta": delta, "rho": rho, "T": T,
            "Rgt": rho * cmath.exp(s * (a + 2.0 * d)),
            "Cgt": tauL / delta,
            "Dgt": rR * eha * tauL / delta,
            "Clt": tauR / delta,
            "Dlt": rL * eha * tauR / delta,
            "at": s,
        }
        if omega < 0.0:
            for key, v in vals.items():
                vals[key] = v.conjugate()
        for key, v in vals.items():
            object.__setattr__(self, key, v)
        object.__setattr__(self, "_mirror", None)

    # -- anchored internals -------------------------------------------------

    @property
    def _prefL(self):
        return (self.nL + 1.0) / (2.0 * self.nL)

    @property
    def _prefR(self):
        return (self.nR + 1.0) / (2.0 * self.nR)

    @property
    def _qL(self):
        return 4.0 * self.nL / ((1.0 + self.nL) * (1.0 + self.nL))

    @property
    def _qR(self):
        return 4.0 * self.nR / ((1.0 + self.nR) * (1.0 + self.nR))

    @property
    def _P_red(self):
        """Anchored forward amplitude in the left slab, 1 - r_nL * rho."""
        return 1.0 - self.rnL * self.rho

    @property
    def _Q_red(self):
        """Anchored backward amplitude (rho - r_nL)/E_L, assembled without
        dividing by the round-trip factor so it survives opaque slabs."""
        rn = self.rnL
        feed = (self.rR * self.gapf * self._qL * self._qL
                / (self.FL * self.FL * self.delta))
        return rn * (rn * rn - 1.0) / self.FL + feed

    @property
    def _TP_R(self):
        """Anchored transmitted amplitude in the right slab, T e^{s nR d}."""
        s = self.at
        return (self.tauL * self._qR * cmath.exp(s * self.cfg.width)
                / (self.FR * self.delta))

    def mirror(self):
        """ScatteringSet of the reflected geometry at the same frequency."""
        if self._mirror is None:
            object.__setattr__(self, "_mirror",
                               ScatteringSet(self.cfg.mirrored(), self.omega))
        return self._mirror

    # -- piecewise mode evaluation (left-incident mode) ---------------------

    def _greater(self, x, deriv):
        s = self.at
        x1, x2, x3, x4 = self.cfg.interfaces
        d = self.cfg.width
        region = classify_region(self.cfg, x)
        if region == EXT_LEFT:
            if deriv:
                return (-s * cmath.exp(-s * x)
                        + s * self.Rgt * cmath.exp(s * x))
            return cmath.exp(-s * x) + self.Rgt * cmath.exp(s * x)
        if region == SLAB_LEFT:
            u = x - x1
            pre = self._prefL * cmath.exp(s * (-x1))
            cfwd = self._P_red
            cbwd = self._Q_red
            efwd = cmath.exp(-s * self.nL * u)
            ebwd = cmath.exp(s * self.nL * (u - 2.0 * d))
            if deriv:
                return pre * (-s * self.nL * cfwd * efwd
                              + s * self.nL * cbwd * ebwd)
            return pre * (cfwd * efwd + cbwd * ebwd)
        if region == GAP:
            if deriv:
                return (-s * self.Cgt * cmath.exp(-s * x)
                        + s * self.Dgt * cmath.exp(s * x))
            return self.Cgt * cmath.exp(-s * x) + self.Dgt * cmath.exp(s * x)
        if region == SLAB_RIGHT:
            u = x - x3
            pre = self._prefR * cmath.exp(-s * x4) * self._TP_R
            efwd = cmath.exp(-s * self.nR * u)
            ebwd = cmath.exp(s * self.nR * (u - 2.0 * d))
            if deriv:
                return pre * (-s * self.nR) * (efwd + self.rnR * ebwd)
            return pre * (efwd - self.rnR * ebwd)
        if deriv:
            return -s * self.T * cmath.exp(-s * x)
        return self.T * cmath.exp(-s * x)


class ModeFunction(Frozen):
    """One of the two scattering modes, tied to a coefficient set."""

    __slots__ = ("kind", "coefficients")

    def __init__(self, kind, coefficients):
        self._assign(kind, coefficients)

    def _check(self):
        if self.kind not in (PHI_GREATER, PHI_LESS):
            raise ValueError("kind must be phi_greater or phi_less")


def cavity_coefficients(cfg, omega):
    """Build the full ScatteringSet at real frequency omega.

    Negative omega yields the conjugate set (mode reality).  Raises
    CavityResonanceError if the gap round-trip denominator vanishes, which
    cannot happen for absorbing slabs.
    """
    return ScatteringSet(cfg, omega)


def mode_eval(mode, x):
    """Value of the mode at position x (any region)."""
    if mode.kind == PHI_GREATER:
        return mode.coefficients._greater(x, False)
    return mode.coefficients.mirror()._greater(-x, False)


def mode_deriv(mode, x):
    """Spatial derivative of the mode at x."""
    if mode.kind == PHI_GREATER:
        return mode.coefficients._greater(x, True)
    return -mode.coefficients.mirror()._greater(-x, True)


# ---------------------------------------------------------------------------
# Green function (frequency domain), x restricted to exterior/gap regions.
# ---------------------------------------------------------------------------

def _gap_profile_right(sset, y):
    """e^{-sy} + rR e^{s(y-a)}: rightward-closed gap profile."""
    s = sset.at
    a = sset.cfg.gap
    return cmath.exp(-s * y) + sset.rR * cmath.exp(s * (y - a))


def _gap_profile_left(sset, y):
    """e^{sy} + rL e^{-s(y+a)}: leftward-closed gap profile."""
    s = sset.at
    a = sset.cfg.gap
    return cmath.exp(s * y) + sset.rL * cmath.exp(-s * (y + a))


def _hat_left(sset, y):
    """Left-side source profile for x in the gap (region of y <= gap).

    Continues the leftward-closed gap profile through the left slab and
    into the left exterior, with all exponents anchored.
    """
    s = sset.at
    x1, x2, _, _ = sset.cfg.interfaces
    d = sset.cfg.width
    region = classify_region(sset.cfg, y)
    if region == GAP:
        return _gap_profile_left(sset, y)
    if region == SLAB_LEFT:
        v = x2 - y  # distance from the gap-side face, in (0, d)
        pre = (sset._prefL * cmath.exp(s * (x2 - d)) * sset._qL
               * cmath.exp(s * d) / sset.FL)
        return pre * (cmath.exp(-s * sset.nL * v)
                      - sset.rnL * cmath.exp(-s * sset.nL * (2.0 * d - v)))
    if region == EXT_LEFT:
        return sset.tauL * cmath.exp(s * y)
    raise RegionUnsupportedError(
        "left-side profile requested right of the gap")


def green_function(cfg, x, xp, omega):
    """Frequency-domain Green function G(x, x'; s = -i omega).

    x must lie in an exterior region or the gap (RegionUnsupportedError
    otherwise); x' may lie anywhere, including inside the slabs.  Symmetric
    in (x, x') whenever both orderings are supported.
    """
    region = classify_region(cfg, x)
    if region in (SLAB_LEFT, SLAB_RIGHT):
        raise RegionUnsupportedError(
            "Green function evaluation points inside a slab are unsupported")
    if region == EXT_RIGHT or (region == GAP and xp > x):
        return green_function(cfg.mirrored(), -x, -xp, omega)
    sset = cavity_coefficients(cfg, omega)
    s = sset.at
    pref = -1.0 / (2.0 * s)
    if region == EXT_LEFT:
        if xp <= x:
            phi_here = cmath.exp(-s * x) + sset.Rgt * cmath.exp(s * x)
            return pref * cmath.exp(s * xp) * phi_here
        return pref * cmath.exp(s * x) * sset._greater(xp, False)
    # x in the gap, x' <= x
    return (pref * _hat_left(sset, xp) * _gap_profile_right(sset, x)
            / sset.delta)
