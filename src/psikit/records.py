"""Record classes written by hand: the equality and repr that ``@dataclass``
would generate, without importing ``dataclasses`` (which pulls in ``inspect``
and ``ast``) on every start of the command line.

A record lists its fields in ``__slots__``, in order, and sets them in
``__init__``.  Records that neither validate nor change are
``collections.namedtuple`` subclasses in their own modules instead.
"""

from __future__ import annotations


class Record:
    """A mutable record: equal to an instance of the same class with equal
    fields, and unhashable."""

    __slots__ = ()
    __hash__ = None

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

