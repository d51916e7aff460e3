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
    force_delta_squeezed,
    force_dissipationless,
    force_ic,
    force_total,
    halfspace_forces,
    lifshitz_matsubara,
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
from .scattering import (
    CavityConfig,
    ModeFunction,
    ScatteringSet,
    cavity_coefficients,
    classify_region,
    green_function,
    mode_deriv,
    mode_eval,
    slab_coefficients,
)
from .states import FieldState, weight

__version__ = "0.1.0"

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
