"""Base class of the package's immutable value types.

A value type names its fields in __slots__, in constructor order. The
one constructor, Record's, takes them by position or by name, raises
TypeError on a missing, extra or unknown one and stores each; a type
that checks its arguments calls it last. The field list is read from
the __slots__ of every class in the MRO, so a subclass that adds no
slots keeps its base's fields. Two values are equal only when they have
the same class and equal fields, the hash is that of the field tuple,
repr shows the class and every field, and assigning or deleting a field
raises AttributeError. Unlike a tuple base, a value is never equal to a
plain tuple or to a value of another type, and has no length or iteration.
"""

from __future__ import annotations


class Record:
    """Construction, equality, hashing, repr and immutability from the fields in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for klass in reversed(cls.__mro__)
                           for name in klass.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._names
        if kwargs or len(args) != len(names):
            if len(args) > len(names) or set(kwargs) != set(names[len(args):]):
                raise TypeError("%s takes the fields (%s), by position or by name"
                                % (self.__class__.__qualname__, ", ".join(names)))
            args += tuple([kwargs[name] for name in names[len(args):]])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self._names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._names)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as __setattr__ refuses
        return self.__class__, self._fields()
