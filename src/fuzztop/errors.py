"""Shared exception types for the finite-model kernel."""


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
