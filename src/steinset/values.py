"""Base of the immutable value classes, and of the errors the CLI reports as results.

A subclass lists its fields in ``__slots__`` (plus ``"__weakref__"`` if it
must be weakly referenceable) and sets them in its own ``__init__`` with
``set_field``.  The base supplies what a frozen dataclass would:
assignment and deletion raise, ``__eq__``, ``__hash__`` and ``__repr__``
work field by field, in slot order, and pickle and copy work.  It exists so that importing the
package does not import ``dataclasses`` (and ``inspect`` with it), which
every CLI process would otherwise pay for.
"""

from __future__ import annotations

from operator import attrgetter

# sets a field inside __init__, where Value.__setattr__ would refuse it
set_field = object.__setattr__


class SteinsetError(Exception):
    """A verification failure or a refusal: ``cli.main`` prints ``f"{prefix}: {exc}"``
    to stderr and exits ``exit_status``.  Each subclass is also a ValueError or RuntimeError."""

    exit_status = 1
    prefix = "verification failure"


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if s != "__weakref__")
        cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    # pickle and copy: the (None, {field: value}) state of a slots object,
    # restored with set_field because setattr is refused
    def __getstate__(self):
        return None, {f: getattr(self, f) for f in self._fields}

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            set_field(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
