"""casimir1d: steady-state Casimir forces between two dissipative dielectric
slabs for a 1+1 dimensional massless scalar field.

Two finite-thickness slabs face each other across a vacuum gap; each slab is
a single-resonance dielectric damped by its own thermal bath, and the field
starts in a vacuum, thermal or squeezed state.  The package evaluates the
long-time force on the slabs as the sum of a state-driven part (carried by
the initial field spectrum) and a bath-driven part (radiated by the slab
baths), together with the classic limit cases: dissipationless slabs,
half-space (thick slab) geometry and the equilibrium Matsubara sum.
"""

from .errors import (
    CavityResonanceError,
    DeltaStateWeightError,
    NaNIntegrandError,
    NonConvergenceError,
    RegionUnsupportedError,
    ResonanceSingularityError,
    SingularEvaluationError,
)
from .forces import (
    ForceBreakdown,
    band_excess_curve,
    equilibrium_matsubara,
    force_bath,
    force_ic,
    force_total,
)
from .material import (
    Material,
    fd_weight,
    permittivity,
    refractive_index,
)
from .quadrature import (
    QuadratureSpec,
    integrate_interval,
    integrate_semiinfinite,
    matsubara_sum,
)
from .scattering import CavityConfig
from .states import FieldState, weight

__version__ = "0.1.0"

# The scattering modes and the limit routes serve the stress oracle, the
# limits command and the tests; they load on first use, so an import that
# computes forces does not compile them.
_LAZY = {
    "ModeFunction": "modes",
    "ScatteringSet": "modes",
    "cavity_coefficients": "modes",
    "classify_region": "modes",
    "green_function": "modes",
    "mode_deriv": "modes",
    "mode_eval": "modes",
    "slab_coefficients": "modes",
    "force_delta_squeezed": "limits",
    "force_dissipationless": "limits",
    "halfspace_forces": "limits",
    "lifshitz_matsubara": "limits",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    value = getattr(import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "CavityConfig",
    "CavityResonanceError",
    "DeltaStateWeightError",
    "FieldState",
    "ForceBreakdown",
    "Material",
    "ModeFunction",
    "NaNIntegrandError",
    "NonConvergenceError",
    "QuadratureSpec",
    "RegionUnsupportedError",
    "ResonanceSingularityError",
    "ScatteringSet",
    "SingularEvaluationError",
    "band_excess_curve",
    "cavity_coefficients",
    "classify_region",
    "equilibrium_matsubara",
    "fd_weight",
    "force_bath",
    "force_delta_squeezed",
    "force_dissipationless",
    "force_ic",
    "force_total",
    "green_function",
    "halfspace_forces",
    "integrate_interval",
    "integrate_semiinfinite",
    "lifshitz_matsubara",
    "matsubara_sum",
    "mode_deriv",
    "mode_eval",
    "permittivity",
    "refractive_index",
    "slab_coefficients",
    "weight",
    "__version__",
]
