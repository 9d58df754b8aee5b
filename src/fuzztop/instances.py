"""Standard small lattices and tensors used throughout the test corpus."""

from __future__ import annotations

from .lattice import build_lattice, require_carrier
from .errors import trusted
from .residuated import Tensor


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1; PreconditionViolated unless
    k is an int, Degenerate below 2 (`require_carrier`)."""
    require_carrier(k)
    return build_lattice(k, [(i, i + 1) for i in range(k - 1)])


def boolean():
    """The two-element Boolean lattice."""
    return chain(2)


def diamond():
    """M2: bot=0 < a=1, b=2 < top=3 with a, b incomparable."""
    return build_lattice(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def pentagon():
    """N5: bot=0, top=4, chain 0<1<2<4 and 0<3<4 with 3 incomparable to 1,2."""
    return build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


def m3():
    """M3: bot=0 < three pairwise incomparable atoms 1,2,3 < top=4."""
    return build_lattice(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def meet_tensor(lat):
    """The Heyting (Goedel) tensor: the lattice meet itself."""
    return trusted(Tensor, base=lat, table=lat.meet)


def join_cotensor(lat):
    """The default cotensor: the lattice join."""
    return trusted(Tensor, base=lat, table=lat.join)


def lukasiewicz_tensor(lat):
    """The Lukasiewicz tensor on a chain 0 < 1 < ... < n-1.

    With elements read as i/(n-1), a (*) b = max(0, a + b - 1) becomes
    max(0, i + j - (n-1)) on indices.  Only meaningful on chains.
    """
    n = lat.n
    table = tuple(
        tuple(max(0, i + j - (n - 1)) for j in range(n)) for i in range(n)
    )
    return Tensor(base=lat, table=table)
