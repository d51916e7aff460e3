"""Dielectric slab material: damped-oscillator dispersion and derived optics.

The dispersive model is a single-resonance dielectric with absorption,

    eps(omega) = 1 + omega_pl^2 / (omega0^2 - omega^2 - i gamma0 omega),

written internally through the Laplace-domain kernel 1/(s^2+omega0^2+s gamma0)
at s = -i omega.  The ``static_nd`` model freezes eps at its zero-frequency
value 1 + (omega_pl/omega0)^2 with no absorption at any frequency.
"""

import math

from ._value import Frozen
from .errors import ResonanceSingularityError
from .kernels import core

_MODELS = ("drude_lorentz", "static_nd")


class Material(Frozen):
    """Single-resonance slab material.

    Parameters
    ----------
    omega0 : float
        Resonance frequency, > 0 and finite.
    omega_pl : float
        Coupling (plasma-like) frequency, >= 0 and finite; 0 gives vacuum.
    gamma0 : float
        Damping rate, >= 0 and finite.
    model : str
        "drude_lorentz" (default) or "static_nd".
    """

    __slots__ = ("omega0", "omega_pl", "gamma0", "model")

    def __init__(self, omega0, omega_pl, gamma0=0.0, model="drude_lorentz"):
        self._assign(omega0, omega_pl, gamma0, model)

    def _check(self):
        if self.model not in _MODELS:
            raise ValueError("unknown material model %r (expected one of %s)"
                             % (self.model, ", ".join(_MODELS)))
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be positive and finite, got %r"
                             % self.omega0)
        for name in ("omega_pl", "gamma0"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError("%s must be non-negative and finite, got %r"
                                 % (name, getattr(self, name)))

    @property
    def static(self):
        return self.model == "static_nd"

    def as_tuple(self):
        """Kernel-facing parameter tuple (omega0, omega_pl, gamma0, static)."""
        return (self.omega0, self.omega_pl, self.gamma0, self.static)


def _check_resonance(material, omega):
    if (not material.static and material.omega_pl > 0.0
            and material.gamma0 == 0.0
            and abs(abs(omega) - material.omega0) == 0.0):
        raise ResonanceSingularityError(
            "undamped material is singular at |omega| = omega0 = %g"
            % material.omega0)


def permittivity(material, omega):
    """Relative permittivity at real frequency omega (either sign).

    Satisfies the reality condition eps(-omega) = conj(eps(omega)); for the
    undamped dispersive material the points omega = +-omega0 raise
    ResonanceSingularityError.
    """
    _check_resonance(material, omega)
    w0, wp, g0, static = material.as_tuple()
    return core.permittivity_at(-1j * omega, w0, wp, g0, static)


def refractive_index(material, omega):
    """Complex index n(omega) = sqrt(eps(omega)), principal branch.

    For omega >= 0 the branch has Re(n) >= 0 and Im(n) >= 0; negative
    frequencies return the conjugate, n(-omega) = conj(n(omega)), which for
    undamped stop bands differs from naively rooting eps(-omega).
    """
    _check_resonance(material, omega)
    w0, wp, g0, static = material.as_tuple()
    if omega >= 0.0:
        return core.refractive_at(-1j * omega, w0, wp, g0, static)
    return core.refractive_at(-1j * (-omega), w0, wp, g0, static).conjugate()


def fd_weight(material, omega):
    """Spectral absorption weight 2 Re(n) Im(n) = Im(eps).

    This is the weight that multiplies the thermal occupation of the slab
    bath in the source-driven pressure integrands; it vanishes identically
    for the static_nd model and for omega_pl = 0.
    """
    if material.static or material.omega_pl == 0.0:
        return 0.0
    n = refractive_index(material, omega)
    return 2.0 * n.real * n.imag
