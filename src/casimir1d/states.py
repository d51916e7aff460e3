"""Initial field states and their spectral weights.

Each state assigns a weight to every field mode k; the weight multiplies the
mode's vacuum pressure contribution in the state-driven force integral.  The
band-squeezed state carries squeezing magnitude 1/sigma uniformly inside a
band of width sigma around a center frequency and is unsqueezed outside;
the delta-squeezed limit has no pointwise weight and is handled by a
dedicated force path instead.
"""

import math

from ._core import coth_half
from ._value import Frozen
from .errors import DeltaStateWeightError

_VARIANTS = ("vacuum", "thermal", "squeezed_band", "squeezed_delta",
             "squeezed_const")


class FieldState(Frozen):
    """One of: vacuum, thermal(beta), squeezed_band(sigma, omega_center),
    squeezed_delta(omega_center), squeezed_const(xi).

    beta is the inverse field temperature; sigma and omega_center are
    frequencies in inverse-gap units; xi is a constant squeezing magnitude.
    sigma, omega_center and xi are finite.
    Use the classmethod constructors rather than filling fields by hand.
    """

    __slots__ = ("variant", "beta", "sigma", "omega_center", "xi")

    def __init__(self, variant, beta=0.0, sigma=0.0, omega_center=0.0,
                 xi=0.0):
        self._assign(variant, beta, sigma, omega_center, xi)

    def _check(self):
        if self.variant not in _VARIANTS:
            raise ValueError("unknown state variant %r" % (self.variant,))
        for name in ("sigma", "omega_center", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r"
                                 % (name, getattr(self, name)))
        if self.variant == "thermal" and not self.beta > 0.0:
            raise ValueError("thermal state needs beta > 0")
        if self.variant == "squeezed_band":
            if not self.sigma > 0.0:
                raise ValueError("squeezed_band needs sigma > 0")
            if not self.omega_center > 0.0:
                raise ValueError("squeezed_band needs omega_center > 0")
        if self.variant == "squeezed_delta" and not self.omega_center > 0.0:
            raise ValueError("squeezed_delta needs omega_center > 0")

    @classmethod
    def vacuum(cls):
        return cls("vacuum")

    @classmethod
    def thermal(cls, beta):
        return cls("thermal", beta=float(beta))

    @classmethod
    def squeezed_band(cls, sigma, omega_center):
        return cls("squeezed_band", sigma=float(sigma),
                   omega_center=float(omega_center))

    @classmethod
    def squeezed_delta(cls, omega_center):
        return cls("squeezed_delta", omega_center=float(omega_center))

    @classmethod
    def squeezed_const(cls, xi):
        return cls("squeezed_const", xi=float(xi))


def weight(state, k):
    """Spectral weight of mode k for the given state (depends on |k| only).

    vacuum -> 1; thermal -> coth(beta k/2); squeezed_band -> cosh(2/sigma)
    inside the band |k - omega_center| <= sigma/2, else 1; squeezed_const ->
    cosh(2|xi|).  The delta-squeezed state has no pointwise weight and raises
    DeltaStateWeightError.
    """
    k = abs(k)
    v = state.variant
    if v == "vacuum":
        return 1.0
    if v == "thermal":
        return coth_half(state.beta, k)
    if v == "squeezed_band":
        if abs(k - state.omega_center) <= 0.5 * state.sigma:
            return math.cosh(2.0 / state.sigma)
        return 1.0
    if v == "squeezed_const":
        return math.cosh(2.0 * abs(state.xi))
    raise DeltaStateWeightError(
        "the delta-squeezed state has no pointwise spectral weight; "
        "use the dedicated delta force path")


def band_edges(state):
    """(lower, upper) edge of the squeezed band, clipped at zero."""
    lo = state.omega_center - 0.5 * state.sigma
    hi = state.omega_center + 0.5 * state.sigma
    return max(lo, 0.0), hi

