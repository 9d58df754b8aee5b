"""Monoidal structure on a finite lattice and its residuation.

A Tensor is a full binary-operation table, a candidate multiplicative
structure (kind "tensor") or its order dual (kind "cotensor").  The checkers
evaluate every axiom exhaustively and report witnesses; distributivity over
arbitrary joins (meets) is its empty case plus the binary law on a finite
lattice.  The residuation tables are computed from the explicit join/meet
formulas and re-verified against their adjunctions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AdjunctionFailure
from .lattice import Lattice
from .report import Report


@dataclass(frozen=True)
class Tensor:
    base: Lattice
    table: tuple          # n x n element indices
    kind: str = "tensor"  # "tensor" or "cotensor"

    def app(self, a, b):
        return self.table[a][b]


@dataclass(frozen=True)
class Residuum:
    base: Lattice
    table: tuple

    def app(self, a, b):
        return self.table[a][b]


def check_cqm(t):
    """Isotonicity in both arguments and idempotence of top."""
    lat = t.base
    report = Report("cqm_lattice")
    els, le, tab = lat.elements(), lat.leq, t.table
    report.sweep("isotone", ((a1, a2, b1, b2)
                             for a1 in els for a2 in els if le[a1][a2]
                             for b1 in els for b2 in els
                             if le[b1][b2] and not le[tab[a1][b1]][tab[a2][b2]]))
    report.record("top_idempotent", t.app(lat.top, lat.top) == lat.top,
                  (lat.top, t.app(lat.top, lat.top)))
    return report


def _check_monoid(t, unit, zero, dist_op, dist_name, div_name, report):
    """Shared axiom battery for GL-monoids and their order duals.

    dist_op is the binary lattice operation table the operation must
    distribute over (join for tensors, meet for cotensors), whose empty
    aggregate is `zero`; divisibility asks every comparable pair for a
    gamma in the row of the operation table.
    """
    els, le, tab = t.base.elements(), t.base.leq, t.table
    tensor = t.kind == "tensor"
    report.sweep("isotone", ((a, b, c) for a in els for b in els if le[a][b]
                             for c in els if not le[tab[a][c]][tab[b][c]]))
    report.sweep("commutative", ((a, b) for a in els for b in els
                                 if tab[a][b] != tab[b][a]))
    report.sweep("associative", ((a, b, c) for a in els for b in els
                                 for c in els
                                 if tab[a][tab[b][c]] != tab[tab[a][b]][c]))
    report.sweep("integral" if tensor else "co_integral",
                 ((a, tab[a][unit]) for a in els if tab[a][unit] != a))
    report.sweep("zero" if tensor else "co_zero",
                 ((a, tab[a][zero]) for a in els if tab[a][zero] != zero))

    def undistributed():
        # a (*) join B == join {a (*) b}: the empty family B, then pairs;
        # `a` stays on the left, so a non-commutative table is judged as is
        for a in els:
            row = tab[a]
            if row[zero] != zero:
                yield {"a": a, "subset": (), "lhs": row[zero], "rhs": zero}
            for b in els:
                for c in els:
                    lhs = row[dist_op[b][c]]
                    rhs = dist_op[row[b]][row[c]]
                    if lhs != rhs:
                        yield {"a": a, "subset": (b, c), "lhs": lhs, "rhs": rhs}

    report.sweep(dist_name, undistributed())
    # divisibility: a <= b admits gamma with b (*) gamma == a for a tensor,
    # a (+) gamma == b for a cotensor
    report.sweep(div_name, ((a, b) for a in els for b in els if le[a][b]
                            and (a not in tab[b] if tensor else b not in tab[a])))


def check_gl_monoid(t):
    """The seven GL-monoid axioms, each exhaustively evaluated."""
    report = Report("gl_monoid")
    lat = t.base
    _check_monoid(t, unit=lat.top, zero=lat.bot, dist_op=lat.join,
                  dist_name="join_distributive", div_name="divisible",
                  report=report)
    return report


def check_co_gl_monoid(t):
    """The seven order-dual axioms for a cotensor."""
    report = Report("co_gl_monoid")
    lat = t.base
    _check_monoid(t, unit=lat.bot, zero=lat.top, dist_op=lat.meet,
                  dist_name="meet_distributive", div_name="co_divisible",
                  report=report)
    return report


def residuum(t):
    """The implication table res(a, b) = join{x | a (*) x <= b}.

    Verifies the adjunction a (*) b <= c iff a <= res(b, c) on all triples
    and raises AdjunctionFailure otherwise (a non-GL tensor slipped through).
    """
    lat = t.base
    table = tuple(
        tuple(lat.join_set([x for x in lat.elements() if lat.le(t.app(a, x), b)])
              for b in lat.elements())
        for a in lat.elements()
    )
    for a in lat.elements():
        for b in lat.elements():
            for c in lat.elements():
                if lat.le(t.app(a, b), c) != lat.le(a, table[b][c]):
                    raise AdjunctionFailure(f"triple ({a},{b},{c})")
    return Residuum(base=lat, table=table)


def co_implication(t):
    """The co-implication table coi(a, b) = meet{x | a <= b (+) x}.

    Verifies coi(a, b) <= c iff a <= b (+) c on all triples.
    """
    lat = t.base
    table = tuple(
        tuple(lat.meet_set([x for x in lat.elements() if lat.le(a, t.app(b, x))])
              for b in lat.elements())
        for a in lat.elements()
    )
    for a in lat.elements():
        for b in lat.elements():
            for c in lat.elements():
                if lat.le(table[a][b], c) != lat.le(a, t.app(b, c)):
                    raise AdjunctionFailure(f"triple ({a},{b},{c})")
    return Residuum(base=lat, table=table)


def classify(t, r):
    """Tag a validated GL-monoid: Heyting (tensor is meet) and/or MV
    (double implication into bot is the identity)."""
    lat = t.base
    tags = set()
    if t.table == lat.meet:
        tags.add("heyting")
    if all(r.app(r.app(a, lat.bot), lat.bot) == a for a in lat.elements()):
        tags.add("mv")
    return frozenset(tags)
