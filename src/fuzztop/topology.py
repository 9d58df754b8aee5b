"""Grade-valued topologies, interiors, neighborhood systems, continuity.

A topology is a total grade table over the enumerated powerset.  The least
topology above a seed is computed by a worklist closure of the pairwise
tensor and join rules; topologies are closed under pointwise meet, so they
are enumerated as that closure system from its least member (see
`closure`).  The interior operator derived from a topology, and the
per-point neighborhood system derived from that, are materialized as full
tables and validated by exhaustive axiom sweeps, turning the structural
lemmas into executable checks.  o3 and I6, axioms over arbitrary families,
are checked on pairs and the empty family: the same on finite models.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import enumerate_closed, worklist
from .errors import PreconditionViolated
from .report import Report

#: default closure cap of `enumerate_topologies`: 16- and 27-set universes
#: reach it within about 2 s, u32 needs 3,783 closures
DEFAULT_TOPOLOGY_CAP = 40_000


@dataclass(frozen=True)
class Topology:
    universe: object
    table: tuple  # grade per set index

    def grade(self, si):
        return self.table[si]


@dataclass(frozen=True)
class InteriorOp:
    universe: object
    table: tuple  # set index per graded cell

    def app(self, si, a):
        return self.table[self.universe.gidx(si, a)]


@dataclass(frozen=True)
class NbhdSystem:
    universe: object
    tables: tuple  # per point: grade per graded cell

    def at(self, p, si, a):
        return self.tables[p][self.universe.gidx(si, a)]


def check_topology(t):
    """Axioms o1 (top set graded top), o2 (tensor stability on pairs) and
    o3 (meet of grades below the grade of the join), checked on the empty
    family, which is o1', and on pairs: witness {"subset": () or (i, j)}."""
    u = t.universe
    lat = u.lattice
    report = Report("topology")
    report.record("o1", t.table[u.one_idx] == lat.top,
                  {"grade": t.table[u.one_idx]})
    report.record("o1_prime", t.table[u.zero_idx] == lat.top,
                  {"grade": t.table[u.zero_idx]})
    ok = True
    for i in range(u.n_sets):
        for j in range(u.n_sets):
            lhs = u.tensor.app(t.table[i], t.table[j])
            if not lat.le(lhs, t.table[u.pw_tensor[i][j]]):
                report.record_fail("o2", {"f": u.sets[i], "g": u.sets[j]})
                ok = False
    if ok:
        report.record_pass("o2")
    table, meet, le = t.table, lat.meet, lat.leq
    ok = table[u.zero_idx] == lat.top
    if not ok:
        report.record_fail("o3", {"subset": ()})
    for i in range(u.n_sets):
        row_j, meet_i = u.pw_join[i], meet[table[i]]
        for j in range(i + 1, u.n_sets):
            if not le[meet_i[table[j]]][table[row_j[j]]]:
                report.record_fail("o3", {"subset": (i, j)})
                ok = False
    if ok:
        report.record_pass("o3")
    return report


def order_topologies(t1, t2):
    """Pointwise comparison: one of '<=', '>=', '=', 'incomparable'."""
    lat = t1.universe.lattice
    le = all(lat.le(a, b) for a, b in zip(t1.table, t2.table))
    ge = all(lat.le(b, a) for a, b in zip(t1.table, t2.table))
    if le and ge:
        return "="
    if le:
        return "<="
    if ge:
        return ">="
    return "incomparable"


def _close(u, table, dirty, sweep=False):
    """Raise `table`, a list, in place to its least fixpoint under the
    pairwise rules grade(f tensor g) >= grade(f) tensor grade(g) and
    grade(f join g) >= grade(f) meet grade(g); `dirty` and `sweep` as in
    `closure.worklist`."""
    join, meet, ten = u.lattice.join, u.lattice.meet, u.tensor.table
    pw_tensor, pw_join = u.pw_tensor, u.pw_join

    def lift(k, w):
        table[k] = w
        dirty.append(k)

    for x, full in worklist(u.n_sets, sweep, dirty):
        v = table[x]
        row_t, row_j, ten_v, meet_v = pw_tensor[x], pw_join[x], ten[v], meet[v]
        for y in range(u.n_sets if full else x + 1):
            g = table[y]
            k = row_t[y]
            w = join[table[k]][ten_v[g]]
            if w != table[k]:
                lift(k, w)
            k = pw_tensor[y][x]
            w = join[table[k]][ten[g][v]]
            if w != table[k]:
                lift(k, w)
            k = row_j[y]
            w = join[table[k]][meet_v[g]]
            if w != table[k]:
                lift(k, w)


def generate_topology(universe, seed):
    """Least topology above a seed grading, by a worklist closure.

    Forces the top and bottom sets to grade top, then lifts grade(f tensor
    g) by grade(f) tensor grade(g) and grade(f join g) by grade(f) meet
    grade(g), from every set whose grade changed, until stable.
    """
    u = universe
    lat = u.lattice
    table = list(seed)
    table[u.one_idx] = lat.top
    table[u.zero_idx] = lat.top
    _close(u, table, [], sweep=True)
    return Topology(universe=u, table=tuple(table))


def enumerate_topologies(universe, cap=DEFAULT_TOPOLOGY_CAP):
    """All topologies on the universe, in table-lexicographic order.

    The topologies are the closed tables of `generate_topology`; they are
    enumerated from the least one by `closure.enumerate_closed`.  Raises
    SizeLimit when more than `cap` closures would be computed.
    """
    u = universe
    least = generate_topology(u, [u.lattice.bot] * u.n_sets).table

    def close(table, si):
        _close(u, table, [si])
        return True

    tables = enumerate_closed(u.lattice, least, close, range(u.n_sets), cap,
                              "topology")
    return [Topology(universe=u, table=t) for t in tables]


def is_continuous(phi, tau, eta):
    """Check eta(g) <= tau(g o phi) for every g on the codomain.

    phi maps domain point indices to codomain point indices.  Returns
    (True, None) or (False, witness set index on the codomain).
    """
    ux, uy = tau.universe, eta.universe
    lat = ux.lattice
    for gj in range(uy.n_sets):
        pulled = uy.compose(phi, gj, ux)
        if not lat.le(eta.table[gj], tau.table[pulled]):
            return False, gj
    return True, None


def interior_from_topology(t):
    """Interior table: pointwise join of all u <= f whose grade dominates
    the requested grade."""
    u = t.universe
    lat = u.lattice
    table = []
    for si in range(u.n_sets):
        for a in lat.elements():
            members = [ui for ui in range(u.n_sets)
                       if u.pw_leq[ui][si] and lat.le(a, t.table[ui])]
            table.append(u.join_sets(members))
    return InteriorOp(universe=u, table=tuple(table))


def check_interior(i):
    """Axioms I0-I6 for an interior operator table, I6 on pairs of grades."""
    u = i.universe
    lat = u.lattice
    report = Report("interior")

    ok = all(i.app(u.one_idx, a) == u.one_idx for a in lat.elements())
    report.record("I0", ok, None)

    ok = True
    for gi in u.graded_cells():
        for gj in u.graded_cells():
            if u.graded_leq(gi, gj) and not u.pw_leq[i.table[gi]][i.table[gj]]:
                report.record_fail("I1", (gi, gj))
                ok = False
    if ok:
        report.record_pass("I1")

    ok = True
    for si in range(u.n_sets):
        for a in lat.elements():
            for sj in range(u.n_sets):
                for b in lat.elements():
                    lhs = u.pw_tensor[i.app(si, a)][i.app(sj, b)]
                    rhs = i.app(u.pw_tensor[si][sj], lat.join2(a, b))
                    if not u.pw_leq[lhs][rhs]:
                        report.record_fail("I2", (si, a, sj, b))
                        ok = False
    if ok:
        report.record_pass("I2")

    ok = True
    for si in range(u.n_sets):
        for a in lat.elements():
            if not u.pw_leq[i.app(si, a)][si]:
                report.record_fail("I3", (si, a))
                ok = False
    if ok:
        report.record_pass("I3")

    # idempotence; the inner application reuses the same grade
    ok = True
    for si in range(u.n_sets):
        for a in lat.elements():
            inner = i.app(si, a)
            if not u.pw_leq[inner][i.app(inner, a)]:
                report.record_fail("I4", (si, a))
                ok = False
    if ok:
        report.record_pass("I4")

    ok = all(i.app(si, lat.bot) == si for si in range(u.n_sets))
    report.record("I5", ok, None)

    # constancy over a nonempty family of grades transfers to its join;
    # by induction on the family it is enough to check pairs
    ok = True
    for si in range(u.n_sets):
        for a in lat.elements():
            value = i.app(si, a)
            for b in range(a + 1, lat.n):
                if i.app(si, b) == value and \
                        i.app(si, lat.join2(a, b)) != value:
                    report.record_fail("I6", {"f": u.sets[si],
                                              "grades": (a, b)})
                    ok = False
    if ok:
        report.record_pass("I6")
    return report


def nbhd_from_interior(i):
    """Per-point evaluation of the interior table."""
    u = i.universe
    tables = []
    for p in u.ground.points():
        tables.append(tuple(u.sets[i.table[gi]][p] for gi in u.graded_cells()))
    return NbhdSystem(universe=u, tables=tuple(tables))


def check_nbhd(n):
    """Axioms N0-N4 per point, N4 by exhaustive candidate sweep."""
    u = n.universe
    lat = u.lattice
    report = Report("nbhd")
    for p in u.ground.points():
        tab = n.tables[p]

        ok = all(tab[u.gidx(u.one_idx, a)] == lat.top for a in lat.elements())
        if not ok:
            report.record_fail("N0", {"p": p})
        ok = True
        for gi in u.graded_cells():
            for gj in u.graded_cells():
                if u.graded_leq(gi, gj) and not lat.le(tab[gi], tab[gj]):
                    report.record_fail("N1", {"p": p, "cells": (gi, gj)})
                    ok = False

        for si in range(u.n_sets):
            for a in lat.elements():
                for sj in range(u.n_sets):
                    for b in lat.elements():
                        lhs = u.tensor.app(tab[u.gidx(si, a)], tab[u.gidx(sj, b)])
                        rhs = tab[u.gidx(u.pw_tensor[si][sj], lat.join2(a, b))]
                        if not lat.le(lhs, rhs):
                            report.record_fail("N2", {"p": p,
                                                      "cells": (si, a, sj, b)})

        for si in range(u.n_sets):
            for a in lat.elements():
                if not lat.le(tab[u.gidx(si, a)], u.sets[si][p]):
                    report.record_fail("N3", {"p": p, "cell": (si, a)})

        for si in range(u.n_sets):
            for a in lat.elements():
                gi = u.gidx(si, a)
                candidates = []
                for sj in range(u.n_sets):
                    for b in lat.elements():
                        gj = u.gidx(sj, b)
                        if not u.graded_leq(gi, gj):
                            continue
                        g = u.sets[sj]
                        if all(lat.le(g[q], n.tables[q][gi])
                               for q in u.ground.points()):
                            candidates.append(tab[gj])
                if not lat.le(tab[gi], lat.join_set(candidates)):
                    report.record_fail("N4", {"p": p, "cell": (si, a)})
    for ax in ("N0", "N1", "N2", "N3", "N4"):
        if ax not in report.verdicts:
            report.record_pass(ax)
    return report


def check_continuity_nbhd(phi, tau, eta):
    """The continuity proposition: the codomain neighborhood system at
    phi(p) sits below the pushforward of the one at p, for every point and
    every graded cell of the codomain.

    Requires phi to be continuous and surjective (PreconditionViolated
    otherwise).
    """
    ux, uy = tau.universe, eta.universe
    lat = ux.lattice
    cont, _ = is_continuous(phi, tau, eta)
    if not cont:
        raise PreconditionViolated("map is not continuous")
    if set(phi) != set(uy.ground.points()):
        raise PreconditionViolated("map is not surjective")
    nx = nbhd_from_interior(interior_from_topology(tau))
    ny = nbhd_from_interior(interior_from_topology(eta))
    report = Report("continuity_nbhd")
    ok = True
    for p in ux.ground.points():
        q = phi[p]
        for sj in range(uy.n_sets):
            for b in lat.elements():
                lhs = ny.tables[q][uy.gidx(sj, b)]
                pulled = uy.compose(phi, sj, ux)
                rhs = nx.tables[p][ux.gidx(pulled, b)]
                if not lat.le(lhs, rhs):
                    report.record_fail("nbhd_pushforward",
                                       {"p": p, "g": uy.sets[sj], "beta": b})
                    ok = False
    if ok:
        report.record_pass("nbhd_pushforward")
    return report
