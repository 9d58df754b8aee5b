"""Shared exception types for the finite-model kernel, its one input rule
(`require_index`, with `require_int` for a carrier size or a cap) and the
one way past a record's check (`trusted`)."""

from collections.abc import Sequence


class FuzztopError(Exception):
    """Base class for all kernel errors."""


class Degenerate(FuzztopError):
    """The carrier has fewer than two elements."""


class NotAPartialOrder(FuzztopError):
    """The input relation is not a partial order; for a list of pairs,
    their reflexive-transitive closure violates antisymmetry."""


class NotALattice(FuzztopError):
    """Some pair of elements lacks a least upper or greatest lower bound."""


class SizeLimit(FuzztopError):
    """An exhaustive sweep would exceed the configured cap."""


class AdjunctionFailure(FuzztopError):
    """A residuation table computed by formula violates its adjunction."""


class NotAChain(FuzztopError):
    """The given filters do not form a chain in the filter order."""


class NotSurjective(FuzztopError):
    """A point map required to be surjective is not."""


class PreconditionViolated(FuzztopError):
    """An operation was called on input that fails its stated precondition."""


def require_sequence(value, name):
    """Raise PreconditionViolated unless `value`, named `name`, is a
    sequence."""
    if type(value) not in (tuple, list) and not isinstance(value, Sequence):
        raise PreconditionViolated(f"{name} is {value!r}, not a sequence")


def require_int(value, what):
    """Raise PreconditionViolated unless `value`, named `what`, is an int,
    not a bool."""
    if type(value) is not int:
        raise PreconditionViolated(f"{what} {value!r} is not an int")


def are_indices(values, bound):
    """True iff every one of `values`, a non-empty sequence, is an int, not
    a bool, in range(bound): C-level scans of their types, their least and
    their greatest."""
    return ({int}.issuperset(map(type, values)) and 0 <= min(values)
            and max(values) < bound)


def require_index(value, bound, what, size=None):
    """Raise PreconditionViolated unless `value` is an index below `bound`:
    an int, not a bool, in range(bound).  `what` names it, as "point".

    The table form, given a `size`, takes a sequence of `size` such indices
    (of any values when `bound` is None), `what` naming the table, its
    entries and what they index, as in ("table", "grades", "sets").  A
    value that is no sequence is named as such.  The length is checked
    first, then every entry at once (`are_indices`), and the first bad
    entry is named with its position.  This is the kernel's one rule for a
    table, a point or an index given from outside."""
    if size is None:
        if not (type(value) is int and 0 <= value < bound):
            raise PreconditionViolated(f"{what} {value!r} is outside "
                                       f"0..{bound - 1}")
        return
    if type(value) not in (tuple, list):
        require_sequence(value, what[0])
    if len(value) != size:
        name, entries, index = what
        raise PreconditionViolated(f"{name} has {len(value)} {entries} for "
                                   f"{size} {index}")
    elif bound is not None and not are_indices(value, bound):
        k = next(k for k, v in enumerate(value)
                 if type(v) is not int or not 0 <= v < bound)
        raise PreconditionViolated(f"{what[0]} entry {k} is {value[k]!r}, "
                                   f"outside 0..{bound - 1}")


def trusted(cls, **fields):
    """A record of `cls` holding `fields`, built without its `__post_init__`
    check: for a table the kernel computed from validated ones, valid by
    construction.  A field may also seed a cached property, as
    `enumerate_filters` seeds what its listing knows.  A table from outside
    goes through the constructor, which checks it."""
    record = object.__new__(cls)
    vars(record).update(fields)
    return record
