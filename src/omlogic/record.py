"""The one base of every immutable node and result class.

A :class:`Record` behaves as a frozen dataclass over the field names in its
``__slots__``: ``repr`` lists the fields in order, two records are equal when
they are of the same class and their field tuples are equal, the hash is the
hash of the field tuple, and fields can be neither assigned nor deleted.  It
costs no code generation at import, which matters because every ``omlogic``
command starts a fresh interpreter.

The classes built on hot paths (formula nodes, derivation nodes and kernel
verdicts) write ``__init__``, ``__eq__`` and ``__hash__`` out with their fields
named, which does what the generic versions here do without the loop.
"""

from __future__ import annotations

__all__ = ["Record"]

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Copy and pickle through the constructor, which frozen fields need."""
        return type(self), self._values()
