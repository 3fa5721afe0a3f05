"""The immutable value records of the package.

A record is a frozen tuple of two or more named fields, _fields, which
the class's own __init__ checks and sets once with _setfield.
Equality holds only between two records of the same class with equal
fields; the hash is the hash of the field tuple; repr is
Name(field=value, ...); assigning or deleting any attribute raises
AttributeError.  As the __dict__ stays, a class may cache derived data
there (see words.DirectiveSequence), and copy and pickle work on it
directly.  A record class costs one class statement: no code is
generated or exec'd per class, and nothing is imported but operator.
"""

from operator import attrgetter

# object.__setattr__ under a module-level name, which a call looks up
# faster.  Writing to self.__dict__ instead would build a dict object
# per record (CPython 3.11+ otherwise keeps the fields inline), about
# 64 more bytes each.
_setfield = object.__setattr__


class _Record:
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields
        # a plain callable on the class, not a method: call it with self
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
