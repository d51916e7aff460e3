"""Two-slab cavity geometry.

Geometry (all lengths in units of the gap): slabs of thickness d occupy
[-a/2-d, -a/2] and [a/2, a/2+d], the gap is (-a/2, a/2), both exteriors are
vacuum.  The scattering modes and the Green function of this geometry are
in ``casimir1d.modes``.
"""

import math

from ._value import Frozen
from .material import Material


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

