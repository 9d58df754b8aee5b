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

    def is_standard_cotensor(self):
        """True when this cotensor is the lattice join, the kernel default."""
        return self.kind == "cotensor" and self.table == self.base.join


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
    ok = True
    for a1 in lat.elements():
        for a2 in lat.elements():
            if not lat.le(a1, a2):
                continue
            for b1 in lat.elements():
                for b2 in lat.elements():
                    if lat.le(b1, b2) and not lat.le(t.app(a1, b1), t.app(a2, b2)):
                        report.record_fail("isotone", (a1, a2, b1, b2))
                        ok = False
    if ok:
        report.record_pass("isotone")
    report.record("top_idempotent", t.app(lat.top, lat.top) == lat.top,
                  (lat.top, t.app(lat.top, lat.top)))
    return report


def _check_monoid(t, unit, zero, dist_op, dist_name, div_name, report):
    """Shared axiom battery for GL-monoids and their order duals.

    dist_op is the binary lattice operation table the operation must
    distribute over (join for tensors, meet for cotensors), whose empty
    aggregate is `zero`; divisibility searches an exhaustive witness gamma
    for every comparable pair.
    """
    lat = t.base
    ok = True
    for a in lat.elements():
        for b in lat.elements():
            if not lat.le(a, b):
                continue
            for c in lat.elements():
                if not lat.le(t.app(a, c), t.app(b, c)):
                    report.record_fail("isotone", (a, b, c))
                    ok = False
    if ok:
        report.record_pass("isotone")

    ok = True
    for a in lat.elements():
        for b in lat.elements():
            if t.app(a, b) != t.app(b, a):
                report.record_fail("commutative", (a, b))
                ok = False
    if ok:
        report.record_pass("commutative")

    ok = True
    for a in lat.elements():
        for b in lat.elements():
            for c in lat.elements():
                if t.app(a, t.app(b, c)) != t.app(t.app(a, b), c):
                    report.record_fail("associative", (a, b, c))
                    ok = False
    if ok:
        report.record_pass("associative")

    unit_name = "integral" if t.kind == "tensor" else "co_integral"
    ok = True
    for a in lat.elements():
        if t.app(a, unit) != a:
            report.record_fail(unit_name, (a, t.app(a, unit)))
            ok = False
    if ok:
        report.record_pass(unit_name)

    zero_name = "zero" if t.kind == "tensor" else "co_zero"
    ok = True
    for a in lat.elements():
        if t.app(a, zero) != zero:
            report.record_fail(zero_name, (a, t.app(a, zero)))
            ok = False
    if ok:
        report.record_pass(zero_name)

    # a (*) join B == join {a (*) b}: the empty family B, then pairs;
    # `a` stays on the left, so a non-commutative table is judged as is
    ok = True
    for a in lat.elements():
        row = t.table[a]
        if row[zero] != zero:
            report.record_fail(dist_name, {"a": a, "subset": (),
                                           "lhs": row[zero], "rhs": zero})
            ok = False
        for b in lat.elements():
            for c in lat.elements():
                lhs = row[dist_op[b][c]]
                rhs = dist_op[row[b]][row[c]]
                if lhs != rhs:
                    report.record_fail(dist_name, {"a": a, "subset": (b, c),
                                                   "lhs": lhs, "rhs": rhs})
                    ok = False
    if ok:
        report.record_pass(dist_name)

    # divisibility: a <= b must admit gamma with the displayed equation
    ok = True
    witnesses = {}
    for a in lat.elements():
        for b in lat.elements():
            if not lat.le(a, b):
                continue
            found = None
            for g in lat.elements():
                if t.kind == "tensor":
                    hit = t.app(b, g) == a
                else:
                    hit = t.app(a, g) == b
                if hit:
                    found = g
                    break
            if found is None:
                report.record_fail(div_name, (a, b))
                ok = False
            else:
                witnesses[(a, b)] = found
    if ok:
        report.record_pass(div_name)
    return witnesses


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
