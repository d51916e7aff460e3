"""The scalar kernel module ``core`` (``casimir1d._core``): the one binding
through which the force, material, scattering and stress routines look up
every kernel, so wrapping one of its attributes reaches every caller."""

from . import _core as core

__all__ = ["core"]
