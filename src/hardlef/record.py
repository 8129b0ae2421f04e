"""Frozen value records: the part of the standard library's frozen data
classes that the engine uses.

A subclass of `Record` lists its fields as class annotations, in order,
after those of the Record it extends.  Instances are built positionally or
by keyword, compare equal only to instances of the same class with equal
fields, hash as the tuple of their fields (the value a frozen data class
gives) and refuse assignment.  Nothing is generated per class, so defining
one compiles no code at import.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._fields = cls._fields + tuple(
            cls.__dict__.get("__annotations__", ()))
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = (attrgetter(*names) if len(names) > 1 else staticmethod(
            lambda r: tuple(getattr(r, name) for name in names)))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in names or name in values:
                raise TypeError(f"{type(self).__name__}() got an unexpected "
                                f"or repeated argument {name!r}")
        values.update(kwargs)
        if len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__}() takes the arguments "
                            f"({', '.join(names)}), got {len(args)} "
                            f"positional and {len(kwargs)} keyword")
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        # taken once: a memo key hashes its record on every lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._values(self))
        return h

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value
            in zip(self._fields, self._values(self))) + ")"
