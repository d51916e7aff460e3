"""Immutable value classes: the semantics of frozen dataclasses without the
``dataclasses`` module, whose import (it loads ``inspect``) and per-class
code generation would dominate a cold start of the package.

A value class lists its fields in ``__slots__``, in the order of its
``__init__`` parameters; its ``__init__`` hands the values to ``_assign``,
which stores them and runs the class's ``_check``.
"""


class _Fields:
    """``__dataclass_fields__`` of a value class, built on first access, so
    ``dataclasses.replace``, ``fields`` and ``asdict`` keep accepting the
    value classes while the package itself never imports ``dataclasses``."""

    def __get__(self, obj, cls):
        import dataclasses
        out = {}
        for name in cls.__slots__:
            f = dataclasses.field()
            f.name = name
            f._field_type = dataclasses._FIELD
            out[name] = f
        return out


class Frozen:
    """Base of the package's value classes: fields are set once by
    ``__init__``, compare and hash as their tuple within one class, and
    print as ``Name(field=value, ...)``."""

    __slots__ = ()
    __dataclass_fields__ = _Fields()

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self):
        """Refuse invalid field values (none by default)."""

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def replace(self, **changes):
        """A copy with the named fields changed, validated as a new
        instance is."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._values()
