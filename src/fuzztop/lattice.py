"""Finite complete lattices: carrier, order, join/meet tables, distributivity.

Elements are dense integer indices 0..n-1; the order and the binary join/meet
are precomputed as full tables so every later sweep is a table lookup.  The
reversed order (`Lattice.geq`) is a lattice too, with join and meet, top and
bot swapped, so a law or a search on meets is the one on joins run on the
reversed order (the duality principle): `lattice_from_order` finds each meet
with the bound search that finds each join.
"Arbitrary" joins and meets are finite ones here, so a law over arbitrary
joins or meets holds iff it holds for the empty one and for pairs (induction
on the size of the family); the checkers decide such laws that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import Degenerate, NotALattice, NotAPartialOrder
from .report import Report


@dataclass(frozen=True)
class Lattice:
    """A finite lattice with precomputed order and join/meet tables."""

    n: int
    leq: tuple          # n x n booleans
    join: tuple         # n x n element indices
    meet: tuple         # n x n element indices
    top: int
    bot: int

    def elements(self):
        return range(self.n)

    @cached_property
    def downsets(self):
        """Per element a, bytes with bit b set for each b <= a; not a field."""
        return tuple(sum(1 << b for b in self.elements() if self.leq[b][a])
                     .to_bytes(self.n // 8 + 1, "little")
                     for a in self.elements())

    @cached_property
    def lower_covers(self):
        """Per element a, the elements c < a with nothing strictly between,
        whose reflexive-transitive closure is the order; not a field."""
        below = [[c for c in self.elements() if c != a and self.leq[c][a]]
                 for a in self.elements()]
        return tuple(tuple(c for c in cs
                           if not any(e != c and self.leq[c][e] for e in cs))
                     for cs in below)

    @cached_property
    def geq(self):
        """The reversed order, `leq` transposed; not a field."""
        return tuple(zip(*self.leq))

    def le(self, a, b):
        return self.leq[a][b]

    def join2(self, a, b):
        return self.join[a][b]

    def meet2(self, a, b):
        return self.meet[a][b]

    def join_set(self, elems):
        """Least upper bound of a finite subset; the empty join is bot."""
        out = self.bot
        for e in elems:
            out = self.join[out][e]
        return out

    def meet_set(self, elems):
        """Greatest lower bound of a finite subset; the empty meet is top."""
        out = self.top
        for e in elems:
            out = self.meet[out][e]
        return out

    def join_irreducibles(self):
        """Elements that are not the join of the elements strictly below
        them (so not bot, the empty join); every element is the join of the
        join-irreducibles below it."""
        return tuple(j for j in self.elements()
                     if self.join_set(e for e in self.elements()
                                      if e != j and self.le(e, j)) != j)


def lattice_from_order(leq):
    """Build a Lattice from a full order relation (n x n boolean rows).

    The relation must already be a partial order; raises NotALattice if some
    pair lacks a least upper or greatest lower bound.
    """
    n = len(leq)
    geq = tuple(zip(*leq))
    join = [[None] * n for _ in range(n)]
    meet = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for order, bound, name in ((leq, join, "least upper"),
                                       (geq, meet, "greatest lower")):
                ub = [c for c in range(n) if order[a][c] and order[b][c]]
                lub = [u for u in ub if all(order[u][c] for c in ub)]
                if len(lub) != 1:
                    raise NotALattice(f"elements {a},{b} have no {name} bound")
                bound[a][b] = lub[0]
    top = 0
    bot = 0
    for e in range(n):
        top = join[top][e]
        bot = meet[bot][e]
    return Lattice(
        n=n,
        leq=tuple(tuple(row) for row in leq),
        join=tuple(tuple(row) for row in join),
        meet=tuple(tuple(row) for row in meet),
        top=top,
        bot=bot,
    )


def build_lattice(n, leq_pairs):
    """Build a Lattice from a carrier size and a list of (lower, upper) pairs.

    The order is the reflexive-transitive closure of the pairs.  Raises
    Degenerate for n < 2, NotAPartialOrder if the closure violates
    antisymmetry, NotALattice if some pair lacks a lub or glb.
    """
    if n < 2:
        raise Degenerate(f"carrier size {n} < 2")
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"pair ({a},{b}) outside carrier 0..{n - 1}")
        leq[a][b] = True
    for k in range(n):  # Warshall closure
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for a in range(n):
        for b in range(a + 1, n):
            if leq[a][b] and leq[b][a]:
                raise NotAPartialOrder(f"antisymmetry fails on {a},{b}")
    return lattice_from_order(leq)


def check_infinite_distributivity(lat):
    """Check both infinite-distributivity laws on every pair A = {a, b} and
    element x: (join A) meet x == join {a meet x} and (meet A) join x ==
    meet {a join x}.  Both hold for the empty family in every lattice."""
    report = Report("infinite_distributivity")
    els = lat.elements()

    def undistributed(outer, inner):
        for a in els:
            for b in els:
                for x in els:
                    lhs = inner[outer[a][b]][x]
                    rhs = outer[inner[a][x]][inner[b][x]]
                    if lhs != rhs:
                        yield {"subset": (a, b), "x": x, "lhs": lhs, "rhs": rhs}

    report.sweep("join_meet_distributive", undistributed(lat.join, lat.meet))
    report.sweep("meet_join_distributive", undistributed(lat.meet, lat.join))
    return report
