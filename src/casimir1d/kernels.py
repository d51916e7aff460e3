"""The scalar kernel module ``core`` (``casimir1d._core``): the one binding
through which the force, limit, material, mode and stress routines look up
every kernel, so wrapping one of its attributes reaches every caller.

The grid kernels (``vacuum_baths``, ``ic_brackets``), which take a product
grid of phase offsets (``grid``), are looked up at each call.  The
one-triple forms (``vacuum_bath_of``, ``ic_bracket_of``,
``bath_factors_of``) are looked up once per integral, where they bind the
cavity and return its integrand at one frequency, so a wrapper that wraps
the function they return reaches every single point of an integral begun
after it is installed."""

from . import _core as core

__all__ = ["core"]
