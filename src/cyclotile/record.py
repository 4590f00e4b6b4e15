"""Base class of the package's immutable value types.

A value type names its fields in __slots__, in constructor order, and its
own __init__ validates the arguments and stores each field with
object.__setattr__. Two values are equal only when they have the same
class and equal fields, the hash is that of the field tuple, repr shows
the class and every field, and assigning or deleting a field raises
AttributeError. Unlike a tuple base, a value is never equal to a plain
tuple or to a value of another type, and has no length or iteration.
"""

from __future__ import annotations


class Record:
    """Equality, hashing, repr and immutability from the fields in __slots__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as __setattr__ refuses
        return self.__class__, self._fields()
