"""Value classes whose behaviour comes from a tuple of field names.

A subclass names its fields in `_fields`, in constructor order, and sets
each one in a written __init__. Two records are equal when they are of the
same class and their field tuples are equal, and repr prints
Name(field=value, ...): what a dataclass with eq=True gives. A Record is
mutable and unhashable. A FrozenRecord hashes its field tuple, and each of
its fields can be assigned once, by __init__; any later assignment or
deletion raises dataclasses.FrozenInstanceError, an AttributeError.

Nothing is compiled when a subclass is created, while @dataclass compiles
up to six generated methods for each class at import.
"""

from dataclasses import FrozenInstanceError


class Record:
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        if name not in self._fields or name in vars(self):
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
