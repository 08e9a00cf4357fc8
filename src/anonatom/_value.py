"""``Value``, the base of the package's immutable value classes."""

from operator import attrgetter

# Stores a field from a value class's ``__init__``, past the closed
# ``__setattr__``; for slotted classes it goes through the slot.
_set = object.__setattr__


class Value:
    """An immutable value over the attributes named in ``_fields``.

    Two values are equal when they are of one class and their fields are
    equal; the hash is the hash of the tuple of fields; the repr is
    ``Class(field=value, ...)``; assignment and deletion raise
    ``AttributeError``.  A subclass sets ``_fields`` and writes its own
    ``__init__``, which stores each field with ``_set``.  Other attributes
    (indexes, caches) take no part in equality, hash or repr.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # ``_values(value)`` is the tuple of fields.  An attrgetter does not
        # bind to instances, so it sits on the class as it is; it returns a
        # lone field bare, so for one field it is wrapped.
        get = attrgetter(*cls._fields)
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda value: (get(value),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
