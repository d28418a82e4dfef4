"""The base of the records that do more than hold fields.

Plain records are typing.NamedTuple classes.  A record that validates or
normalises its fields, or keeps cached_property values, is a subclass of
Record and of a collections.namedtuple: its __new__ does the checking,
and a subclass without __slots__ = () gets a __dict__ for its caches.
Equality, hashing and repr are those of the field tuple, and no
attribute can be assigned.  BernsteinPoly, which must not be a tuple,
is a Record with __slots__ that its __init__ sets once.
"""

from __future__ import annotations


class Record:
    """Immutable instances.  For a namedtuple subclass, _make, and with it
    _replace, builds through the class, so a validating __new__ runs for
    every instance and a copy starts with empty caches.  cached_property
    writes the instance __dict__ directly, so it works under the
    __setattr__ that refuses every other assignment."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
