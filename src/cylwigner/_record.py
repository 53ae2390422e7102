"""Immutable records: the package's point, grid, rule, state and spec types.

A record's ``__init__`` checks its arguments and stores the fields named in
``_fields`` with ``_store``; after that, assignment and deletion raise
AttributeError.  Fields are plain instance attributes, so
``functools.cached_property`` still works on a record.  A ``Record`` compares
and hashes by identity, a ``ValueRecord`` by its field values.  Plain classes,
not ``dataclasses``: a generated class costs import time on every CLI run.
The arrays that records and cached tables hold are made read-only with ``read_only``.
"""


def read_only(*arrays):
    """The given numpy arrays, each with its write flag cleared, as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


class Record:
    _fields = ()

    def _store(self, *values):
        # object.__setattr__, not self.__dict__: reading __dict__ materializes it, and
        # attribute reads, which the kernels make per point, get about 20 ns slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable "
                             f"{type(self).__name__}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """A record equal to another of its own type with equal fields, and hashed by them."""

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
