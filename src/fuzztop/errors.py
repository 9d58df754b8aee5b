"""Shared exception types for the finite-model kernel, and its one input
rule (`require_index`)."""


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


def require_index(value, bound, what, size=None):
    """Raise PreconditionViolated unless `value` is an index below `bound`:
    an int, not a bool, in range(bound).  `what` names it, as "point".

    The table form, given a `size`, takes a table of `size` such indices
    (of any values when `bound` is None), `what` naming the table, its
    entries and what they index, as in ("table", "grades", "sets").  The
    length is checked first, then every entry at once by C-level scans:
    their types, their least and their greatest.  The first bad
    entry is named with its position.  This is the kernel's one rule for a
    table, a point or an index given from outside."""
    if size is None:
        if not (type(value) is int and 0 <= value < bound):
            raise PreconditionViolated(f"{what} {value!r} is outside "
                                       f"0..{bound - 1}")
    elif len(value) != size:
        name, entries, index = what
        raise PreconditionViolated(f"{name} has {len(value)} {entries} for "
                                   f"{size} {index}")
    elif bound is not None and not ({int}.issuperset(map(type, value)) and
                                    0 <= min(value) and max(value) < bound):
        k = next(k for k, v in enumerate(value)
                 if type(v) is not int or not 0 <= v < bound)
        raise PreconditionViolated(f"{what[0]} entry {k} is {value[k]!r}, "
                                   f"outside 0..{bound - 1}")
