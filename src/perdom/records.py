"""Immutable records: plain classes with value semantics, built without the
standard library's record generator, whose import pulls in inspect and ast
and which execs six methods per class (15-25 ms in every process)."""

from operator import attrgetter

setfield = object.__setattr__


class Record:
    """A subclass sets its fields in `__init__` through `self.__dict__`, or one
    by one with `setfield` where they are read on hot paths (inline attribute
    values read faster than a dict).  The fields are the parameters of
    `__init__` unless it names them in `_fields`.  A record equals only a
    record of its own class with equal fields, hashes as the tuple of them,
    shows as Name(field=value, ...) and is immutable; values cached by `lazy`
    take no part."""

    def __init_subclass__(cls):
        if "_fields" not in vars(cls):
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda rec: (get(rec),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"record field {name!r} is read-only")

    __delattr__ = __setattr__


class lazy:
    """A record's cached value: computed on the first read and stored in the
    instance dict, whose entry then shadows this descriptor.  Unlike
    `functools.cached_property` before Python 3.12 it takes no lock, which
    cost more than building a flag on the first reads of its rows."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value
