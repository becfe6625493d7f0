"""Value records: plain classes compared by the fields their constructor takes.

A record class's hand-written `__init__` validates its parameters and
assigns each to the attribute of the same name. Those names, in order, are
the class's `_fields`, read from the code of its `__init__`. Equality, and
`repr`, read those attributes only, so what `__init__` derives from them
(a resolved default, a table) is never compared. A `Frozen` record is also
hashed by them, and each of its attributes can be assigned once, which
its `__init__` does.

The package builds its records this way, not with `dataclasses`, because
building a dataclass and importing `dataclasses` (and the `inspect` it
imports) took a large share of a short CLI command's start-up.
"""

from __future__ import annotations


class Record:
    """A record equal to another of its class whose fields are equal; not hashable."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """A record whose attributes are assigned once, in `__init__`, and hashed by value."""

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())
