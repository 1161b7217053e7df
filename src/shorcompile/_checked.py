"""The base of the records that check their fields when built."""

from collections import namedtuple


def checked_record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record whose own ``__new__`` checks the fields.

    Its ``_make``, and ``_replace`` through it, call that ``__new__``, which a
    plain named tuple's skip; pickle and ``copy`` call it already.
    """
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
