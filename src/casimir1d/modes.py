"""Two-slab scattering modes: coefficients, piecewise modes, Green function.

Geometry (all lengths in units of the gap; see ``scattering.CavityConfig``):
slabs of thickness d occupy [-a/2-d, -a/2] and [a/2, a/2+d], the gap is
(-a/2, a/2), both exteriors are vacuum.  The Laplace variable is
s = -i*omega on the real frequency axis.

Every region of a mode and of the Green function holds two
counter-propagating waves, a e^{-qu} + b e^{qv}, which one evaluator
(``_waves``) gives with its derivative: q = s and u = v = x in the vacuum
regions, q = s n inside a slab.  There ``ScatteringSet.profile`` anchors
both waves at the slab's faces, so that neither exponential exceeds 1 and
the mode and Green evaluations stay finite for strongly opaque slabs; the
textbook in-slab coefficients that reference the global origin, which may
overflow there, are not formed.

The force routes never evaluate a mode: this module serves the
stress-tensor oracle (``casimir1d.stress``) and the tests, and
``import casimir1d`` loads it only when one of its names is first used.
"""

import cmath
import math

from ._value import Frozen
from .errors import RegionUnsupportedError
from .kernels import core
from .material import refractive_index

EXT_LEFT = "exterior_left"
SLAB_LEFT = "slab_left"
GAP = "gap"
SLAB_RIGHT = "slab_right"
EXT_RIGHT = "exterior_right"

PHI_GREATER = "phi_greater"
PHI_LESS = "phi_less"


def classify_region(cfg, x):
    """Region name at position x; a non-finite x raises ValueError.

    Interface tie-breaks: the inner interfaces +-a/2 count as gap, the outer
    interfaces +-(a/2+d) count as exterior (continuity makes the choice
    immaterial for mode values).
    """
    if not math.isfinite(x):
        raise ValueError("classify_region: x must be finite, got %r" % (x,))
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


def _waves(a, b, q, u, v, deriv):
    """a e^{-qu} + b e^{qv}, or with ``deriv`` its derivative in x, where
    u and v both grow as x does."""
    fwd = a * cmath.exp(-q * u)
    bwd = b * cmath.exp(q * v)
    return q * (bwd - fwd) if deriv else fwd + bwd


class ScatteringSet:
    """All scattering amplitudes of the two-slab cavity at one frequency.

    Fields: rL, tL, rR, tR (single slab), Rgt, T (cavity), Cgt, Dgt,
    Clt, Dlt (gap amplitudes of the two modes), at (the Laplace variable
    s = -i omega), and the slab parts nL, nR, rnL, rnR, FL, FR, tauL, tauR,
    gapf, delta and rho that ``profile`` anchors the in-slab waves with.

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

    def mirror(self):
        """ScatteringSet of the reflected geometry at the same frequency."""
        if self._mirror is None:
            object.__setattr__(self, "_mirror",
                               ScatteringSet(self.cfg.mirrored(), self.omega))
        return self._mirror

    def profile(self, side, source=False):
        """Anchored profile ``(pre, a, b, n)`` of the slab on ``side``
        ("L" or "R").

        In that slab the left-incident mode, or with ``source`` the Green
        function's source profile for a point in the gap, is
        pre (a e^{-snu} + b e^{sn(u-2d)}) at depth u in (0, d), counted
        from the face the waves enter by: the left face for the mode, the
        gap face for a source profile.  In the right slab the two differ by
        the factor tauL/delta alone.
        """
        s = self.at
        if side == "L":
            n, rn, F = self.nL, self.rnL, self.FL
        else:
            n, rn, F = self.nR, self.rnR, self.FR
        if side == "L" and not source:
            q = 4.0 * n / ((1.0 + n) * (1.0 + n))
            # (rho - rn)/E, assembled without dividing by the round trip E
            # so that it survives opaque slabs
            b = (rn * (rn * rn - 1.0) / F
                 + self.rR * self.gapf * q * q / (F * F * self.delta))
            x1 = self.cfg.interfaces[0]
            pre = (n + 1.0) / (2.0 * n) * cmath.exp(-s * x1)
            return pre, 1.0 - rn * self.rho, b, n
        pre = 2.0 * cmath.exp(-0.5 * s * self.cfg.gap) / ((1.0 + n) * F)
        if not source:
            pre *= self.tauL / self.delta
        return pre, 1.0, -rn, n

    def _field(self, x, deriv=False, source=None):
        """The left-incident mode at x (its derivative with ``deriv``), or
        with ``source`` ("L" or "R") the Green function's source profile at
        x that closes on that side of a point in the gap (x then lies on
        that side of the gap's far face)."""
        s = self.at
        x1, x2, x3, _ = self.cfg.interfaces
        region = classify_region(self.cfg, x)
        if region in (SLAB_LEFT, SLAB_RIGHT):
            left = region == SLAB_LEFT
            pre, a, b, n = self.profile("L" if left else "R", bool(source))
            u = (x2 - x if source else x - x1) if left else x - x3
            return pre * _waves(a, b, s * n, u, u - 2.0 * self.cfg.width,
                                deriv)
        if source == "L":
            a, b = ((0.0, self.tauL) if region == EXT_LEFT else
                    (self.rL * cmath.exp(-s * self.cfg.gap), 1.0))
        elif source == "R":
            a, b = ((self.tauR, 0.0) if region == EXT_RIGHT else
                    (1.0, self.rR * cmath.exp(-s * self.cfg.gap)))
        else:
            a, b = {EXT_LEFT: (1.0, self.Rgt), GAP: (self.Cgt, self.Dgt),
                    EXT_RIGHT: (self.T, 0.0)}[region]
        return _waves(a, b, s, x, x, deriv)


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
        return mode.coefficients._field(x)
    return mode.coefficients.mirror()._field(-x)


def mode_deriv(mode, x):
    """Spatial derivative of the mode at x."""
    if mode.kind == PHI_GREATER:
        return mode.coefficients._field(x, True)
    return -mode.coefficients.mirror()._field(-x, True)


def green_function(cfg, x, xp, omega):
    """Frequency-domain Green function G(x, x'; s = -i omega).

    x must lie in an exterior region or the gap (RegionUnsupportedError
    otherwise); x' may lie anywhere, including inside the slabs.  Symmetric
    in (x, x') whenever both orderings are supported.  A non-finite x or x'
    raises ValueError.
    """
    for name, v in (("x", x), ("xp", xp)):
        if not math.isfinite(v):
            raise ValueError("green_function: %s must be finite, got %r"
                             % (name, v))
    region = classify_region(cfg, x)
    if region in (SLAB_LEFT, SLAB_RIGHT):
        raise RegionUnsupportedError(
            "Green function evaluation points inside a slab are unsupported")
    if region == EXT_RIGHT:
        return green_function(cfg.mirrored(), -x, -xp, omega)
    sset = cavity_coefficients(cfg, omega)
    pref = -1.0 / (2.0 * sset.at)
    lo, hi = min(x, xp), max(x, xp)
    if region == EXT_LEFT:
        return pref * cmath.exp(sset.at * lo) * sset._field(hi)
    return (pref * sset._field(lo, source="L") * sset._field(hi, source="R")
            / sset.delta)
