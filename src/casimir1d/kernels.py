"""The scalar kernel module ``core`` (``casimir1d._core``): the one binding
through which the force, material, scattering and stress routines look up
every kernel, so wrapping one of its attributes reaches every caller.

The offset kernels (``vacuum_baths``, ``ic_brackets``) and their diagonal
loops (``diagonal_vacuum_baths``, ``diagonal_ic_brackets``) are looked up
at each call.  The one-triple forms (``vacuum_bath_of``,
``ic_bracket_of``, ``bath_factors_of``) are looked up once per integral,
where they bind the cavity and return its integrand at one frequency, so
a wrapper that wraps the function they return reaches every single point
of an integral begun after it is installed."""

from . import _core as core

__all__ = ["core"]
