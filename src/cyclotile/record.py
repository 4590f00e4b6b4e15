"""Base class of the package's immutable value types.

A value type names its fields in __slots__, in constructor order. The
field list is read from the __slots__ of every class in the MRO, so a
subclass that adds no slots keeps its base's fields. When a type is
defined, Record compiles its constructor once, as collections.namedtuple
builds its __new__: a function that takes the fields as parameters, in
that order, and only stores each through its slot's setter, so Python's
own argument binding takes them by position or by name and raises
TypeError, naming the type, on a missing, extra, repeated or unknown
one. A type that checks its arguments defines __init__ and ends it with
self._store(...); any other has the compiled function as its __init__.
The tuple of field values, which equality, the hash, repr and pickling
read, is compiled the same way, on its first use. Two values are equal
only when they have the same class and equal fields, the hash is that
of the field tuple, repr shows the class and every field, and assigning
or deleting a field raises AttributeError. Unlike a tuple base, a value
is never equal to a plain tuple or to a value of another type, and has
no length or iteration.
"""


class Record:
    """Construction, equality, hashing, repr and immutability from the fields in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = tuple(name for klass in reversed(cls.__mro__)
                      for name in klass.__dict__.get("__slots__", ()))
        # for the fields (q, t, bound), with _set0 the setter of slot q and so on,
        #   def __init__(self, q, t, bound): _set0(self, q); _set1(self, t); _set2(self, bound)
        # and pass, for a type with no fields, ends the body
        source = "def __init__(self, %s):\n%s    pass\n" % (
            ", ".join(names), "".join("    _set%d(self, %s)\n" % item for item in enumerate(names)))
        namespace = {"_set%d" % i: getattr(cls, name).__set__ for i, name in enumerate(names)}
        namespace["__name__"] = cls.__module__
        exec(source, namespace)
        store = namespace["__init__"]
        store.__qualname__ = cls.__qualname__ + ".__init__"
        # the store is the type's __init__ unless the type, or the base whose __init__ it
        # inherits, checks its arguments there
        if cls.__init__ in (object.__init__, getattr(cls.__base__, "_store", None)):
            cls.__init__ = store
        cls._names, cls._store, cls._fields = names, store, Record._fields

    def _fields(self) -> tuple:
        """The field values in order. The first call on a type compiles the type's own
        reader, def _fields(self): return (self.q, self.t, self.bound, ), in its place,
        so a process that never compares, hashes, prints or pickles a value of the type,
        as a CLI run does not, compiles none."""
        cls = self.__class__
        namespace = {"__name__": cls.__module__}
        exec("def _fields(self):\n    return (%s)\n" % "".join("self.%s, " % name for name in cls._names),
             namespace)
        cls._fields = namespace["_fields"]
        return cls._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % item for item in zip(self._names, self._fields()))
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as __setattr__ refuses
        return self.__class__, self._fields()
