"""Immutable value records, the base of the package's small exact objects.

A record class lists its fields, in positional order, in ``__slots__``, and
its ``__init__`` stores each one with ``_set``; ``_compared`` names the
fields that equality and hashing read, all of them unless the class says
otherwise.  An instance equals only an instance of the same class whose
compared fields are equal, hashes like those fields (their tuple, or the
value of a lone field), and refuses assignment.  Each record class derives from Record itself, never
from another record class.  Nothing is generated when a record class is
defined, so importing the package stays cheap.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the compared fields in one C call: a tuple, or the value of a lone field
        cls._values = attrgetter(*cls.__dict__.get("_compared", cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
