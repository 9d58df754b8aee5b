"""Grade-valued topologies, interiors, neighborhood systems, continuity.

A topology is a total grade table over the enumerated powerset.  The least
topology above a seed is the least fixpoint of the pairwise tensor and join
rules under `closure.close`, which visits the sets not graded bot in value
order, so on a chain with an integral tensor each rule fires at most once
per unordered pair of them (every `Universe` tensor commutes and has bot as
its zero); topologies are closed under pointwise meet, so they are enumerated
as that closure system from its least member (see `closure`).  The interior operator derived from a topology, and the
per-point neighborhood system derived from that, are materialized as full
tables, once per `Topology`, and validated by exhaustive axiom sweeps,
turning the structural lemmas into executable checks; the interior is
built over each set's lower covers.  o3 and I6, axioms over arbitrary
families, are checked on pairs and the empty family: the same on finite
models.  Each sweep skips the cases that cannot fail (bottom values, or for
o2 and o3 values the table's floor makes safe, one of each symmetric pair,
non-covers; see `Universe`) and still names the full sweep's first failure.
A point map is checked and pulled back once per check
(`Universe.pullback`).  Each record checks its table where it is made
(`Topology`, `InteriorOp`, `NbhdSystem`), and the tables the kernel
derives from checked ones are wrapped unchecked (`errors.trusted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .closure import close, enumerate_closed
from .errors import PreconditionViolated, require_index, trusted
from .report import Report

#: what a grade table over the powerset holds, for `require_index`
GRADES_OF_SETS = ("table", "grades", "sets")
#: what an interior table over the graded carrier holds
SETS_OF_CELLS = ("table", "sets", "graded cells")

#: default cap of `enumerate_topologies` on candidate closures, refuted
#: ones included: 16- to 64-set universes reach it within about 0.15 s;
#: u32 needs 1,002 and u25 36,813
DEFAULT_TOPOLOGY_CAP = 40_000


@dataclass(frozen=True)
class Topology:
    """A grade table over the powerset, one grade of L per set, checked
    here: PreconditionViolated names the length or the first bad entry.
    The table is kept as a tuple, as in every record of a table, so
    records compare and hash by value whatever container held the table.
    `interior` and `nbhd` are kept on first use; not being fields, they
    take no part in equality or hashing."""

    universe: object
    table: tuple  # grade per set index

    def __post_init__(self):
        u = self.universe
        require_index(self.table, u.n, GRADES_OF_SETS, u.n_sets)
        object.__setattr__(self, "table", tuple(self.table))

    @cached_property
    def interior(self):
        return interior_from_topology(self)

    @cached_property
    def nbhd(self):
        return nbhd_from_interior(self.interior)


@dataclass(frozen=True)
class InteriorOp:
    """A table of one set index per graded cell, checked here and kept
    as a tuple."""

    universe: object
    table: tuple  # set index per graded cell

    def __post_init__(self):
        u = self.universe
        require_index(self.table, u.n_sets, SETS_OF_CELLS, u.graded_size)
        object.__setattr__(self, "table", tuple(self.table))

    def app(self, si, a):
        return self.table[self.universe.gidx(si, a)]


@dataclass(frozen=True)
class NbhdSystem:
    """One table per point, each of one grade of L per graded cell,
    checked here and kept as a tuple of tuples."""

    universe: object
    tables: tuple  # per point: grade per graded cell

    def __post_init__(self):
        u, tables = self.universe, self.tables
        require_index(tables, None, ("system", "tables", "points"), u.ground.m)
        for p, tab in enumerate(tables):
            require_index(tab, u.n, (f"table of point {p}", "grades",
                                     "graded cells"), u.graded_size)
        object.__setattr__(self, "tables", tuple(map(tuple, tables)))

    def at(self, p, si, a):
        return self.tables[p][self.universe.gidx(si, a)]


def check_topology(t):
    """Axioms o1 (top set graded top), o2 (tensor stability on pairs) and
    o3 (meet of grades below the grade of the join), checked on the empty
    family, which is o1', and on pairs: witness {"subset": () or (i, j)}.

    o2 and o3 are symmetric in the pair, so each sweeps unordered pairs,
    i <= j (i < j for o3, whose diagonal holds): a failing pair fails both
    ways round, so the first in index order is among them.  Both skip the
    sets in no failing pair by the floor, the meet of the grades: for o2 a
    set graded v with v (*) top <= floor, as v (*) w <= v (*) top for every
    w (the tensor is monotone), and for o3 a set at the floor.  o2 keeps
    the floor itself unless v (*) top <= floor: a tensor that is not
    integral can have v (*) top > v."""
    u = t.universe
    lat = u.lattice
    report = Report("topology")
    report.record("o1", t.table[u.one_idx] == lat.top,
                  {"grade": t.table[u.one_idx]})
    report.record("o1_prime", t.table[u.zero_idx] == lat.top,
                  {"grade": t.table[u.zero_idx]})
    table, le, ten, meet = t.table, lat.leq, u.tensor.table, lat.meet
    floor = lat.bot if lat.bot in table else lat.meet_set(set(table))
    unstable = [not le[row[lat.top]][floor] for row in ten]
    live = [i for i, v in enumerate(table) if unstable[v]]
    report.sweep("o2", ({"f": u.sets[i], "g": u.sets[j]}
                        for k, i in enumerate(live) for j in live[k:]
                        if not le[ten[table[i]][table[j]]][
                            table[u.pw_tensor[i][j]]]))

    def o3_failures():
        if table[u.zero_idx] != lat.top:
            yield {"subset": ()}
        above = [i for i, v in enumerate(table) if v != floor]
        for k, i in enumerate(above):
            row_j, meet_i = u.pw_join[i], meet[table[i]]
            for j in above[k + 1:]:
                if not le[meet_i[table[j]]][table[row_j[j]]]:
                    yield {"subset": (i, j)}

    report.sweep("o3", o3_failures())
    return report


def order_topologies(t1, t2):
    """Pointwise comparison: one of '<=', '>=', '=', 'incomparable'.
    Raises PreconditionViolated unless both are over one universe."""
    u = t1.universe
    if t2.universe is not u:
        raise PreconditionViolated("topology is over another universe")
    lat = u.lattice
    le = all(lat.le(a, b) for a, b in zip(t1.table, t2.table))
    ge = all(lat.le(b, a) for a, b in zip(t1.table, t2.table))
    if le and ge:
        return "="
    if le:
        return "<="
    if ge:
        return ">="
    return "incomparable"


def _rules(u):
    """The pairwise rules of a topology: grade(f tensor g) >= grade(f)
    tensor grade(g) and grade(f join g) >= grade(f) meet grade(g)."""
    return [(u.pw_tensor, u.tensor.table), (u.pw_join, u.lattice.meet)]


def generate_topology(universe, seed):
    """Least topology above a seed grading.

    Forces the top and bottom sets to grade top, then raises the table to
    the least fixpoint of the tensor and join rules, one `closure.close`
    sweep.  Each rule fires at most once per unordered pair of sets not
    graded bot, visited in value order, and the sweep stops once every set
    is graded top (see `closure.close`).  Raises
    PreconditionViolated unless the seed has one grade of L per set.
    """
    u = universe
    lat = u.lattice
    require_index(seed, lat.n, GRADES_OF_SETS, u.n_sets)
    table = list(seed)
    table[u.one_idx] = lat.top
    table[u.zero_idx] = lat.top
    close(table, lat, _rules(u))
    return trusted(Topology, universe=u, table=tuple(table))


def enumerate_topologies(universe, cap=DEFAULT_TOPOLOGY_CAP):
    """All topologies on the universe, in table-lexicographic order.

    The topologies are the closed tables of `generate_topology`; they are
    enumerated from the least one by `closure.enumerate_closed`.  Raises
    PreconditionViolated unless `cap` is an int, and SizeLimit when more
    than `cap` candidate closures would be met, the least topology's
    included and a refuted one counted as computed.
    """
    u = universe
    least = generate_topology(u, [u.lattice.bot] * u.n_sets).table
    tables = enumerate_closed(u.lattice, least, _rules(u), cap, "topology")
    return [trusted(Topology, universe=u, table=t) for t in tables]


def is_continuous(phi, tau, eta):
    """Check eta(g) <= tau(g o phi) for every g on the codomain.

    phi maps domain point indices to codomain point indices.  Returns
    (True, None) or (False, witness set index on the codomain).  Raises
    PreconditionViolated unless phi is a point map between their universes
    (`Universe.pullback`).
    """
    le = tau.universe.lattice.le
    pulled = eta.universe.pullback(phi, tau.universe)
    for gj, grade in enumerate(eta.table):
        if not le(grade, tau.table[pulled[gj]]):
            return False, gj
    return True, None


def require_continuous_surjection(phi, tau, eta):
    """Raise PreconditionViolated unless phi is a continuous surjection."""
    if not is_continuous(phi, tau, eta)[0]:
        raise PreconditionViolated("map is not continuous")
    if set(phi) != set(eta.universe.ground.points()):
        raise PreconditionViolated("map is not surjective")


def interior_from_topology(t):
    """Interior table: int(f, a) is the pointwise join of all u <= f whose
    grade dominates a.

    It is f itself when a <= t(f), and otherwise the join of int(g, a) over
    the lower covers g of f: every u < f lies below one of them.  So the
    sets are visited in `Universe.ascending_sets`, each after its lower
    covers, and each value is one join over those covers.  The recursion
    holds for any table, a topology or not.
    """
    u = t.universe
    n, join, geq = u.n, u.pw_join, u.lattice.geq
    covers, zero = u.lower_covers, u.zero_idx
    table = [zero] * u.graded_size
    for si in u.ascending_sets:
        below, dominated = covers[si], geq[t.table[si]]
        for a in range(n):
            if dominated[a]:
                table[si * n + a] = si
            else:
                v = zero
                for sj in below:
                    v = join[v][table[sj * n + a]]
                table[si * n + a] = v
    return trusted(InteriorOp, universe=u, table=tuple(table))


def check_interior(i):
    """Axioms I0-I6 for an interior operator table, I6 on pairs of grades.
    For a <= b, a join b = b, so "int(f, b) = int(f, a) and
    int(f, a join b) != int(f, a)" cannot hold: I6 sweeps only the
    incomparable pairs a < b (`Lattice.incomparable`), none on a chain."""
    u = i.universe
    lat = u.lattice
    report = Report("interior")
    # the cells ascend as si * n + a: row si of `rows` holds int(f_si, a)
    tab, n, pw_leq, join = i.table, u.n, u.pw_leq, lat.join
    rows = [tab[k:k + n] for k in range(0, u.graded_size, n)]
    one = u.one_idx
    report.record("I0", set(rows[one]) == {one}, None)
    report.sweep("I1", u.decreasing_cells(tab, pw_leq))
    report.sweep("I2", u.unstable_cells(tab, u.pw_tensor, pw_leq, u.zero_idx))
    report.sweep("I3", ((si, a) for si, row in enumerate(rows)
                        for a, v in enumerate(row) if not pw_leq[v][si]))
    # idempotence; the inner application reuses the same grade
    report.sweep("I4", ((si, a) for si, row in enumerate(rows)
                        for a, v in enumerate(row)
                        if not pw_leq[v][rows[v][a]]))
    report.record("I5", list(tab[lat.bot::n]) == list(range(u.n_sets)), None)
    # constancy over a nonempty family of grades transfers to its join;
    # by induction on the family it is enough to check pairs
    report.sweep("I6", ({"f": u.sets[si], "grades": (a, b)}
                        for si, row in enumerate(rows)
                        for a, b in lat.incomparable
                        if row[b] == row[a] and row[join[a][b]] != row[a]))
    return report


def nbhd_from_interior(i):
    """Per-point evaluation of the interior table: the sets it names,
    transposed whole into one table per point."""
    u = i.universe
    return trusted(NbhdSystem, universe=u, tables=tuple(
        zip(*map(u.sets.__getitem__, i.table))))


def check_nbhd(n):
    """Axioms N0-N4 per point.

    N4 asks, at each point p and cell gi = (f, a), that N_p(gi) lie below
    the join of N_p over gi's candidates: the cells at or above gi whose
    set lies pointwise below s(gi), the set p -> N_p(gi).  It is decided
    without listing them.  A candidate (g, b) lies at or above gi, so
    f <= g, and g <= s(gi); so a candidate exists iff f <= s(gi).  When one
    does, gi itself is one, and N_p(gi) lies below the join.  When none
    does, the join is empty, bot.  So N4 fails exactly at the (p, gi) with
    f not below s(gi) and N_p(gi) != bot, swept p first, then gi, as the
    candidate sweep did; s(gi) is one `set_index` lookup and the test one
    `pw_leq` read."""
    u = n.universe
    lat = u.lattice
    report = Report("nbhd")
    points, cells = u.ground.points(), u.graded_cells()
    tabs, le, grades, top = n.tables, lat.leq, u.n, lat.top
    # the cells ascend as si * grades + a
    one, starts = u.one_idx * grades, range(0, u.graded_size, grades)
    report.sweep("N0", ({"p": p} for p, tab in enumerate(tabs)
                        if set(tab[one:one + grades]) != {top}))
    report.sweep("N1", ({"p": p, "cells": pair} for p in points
                        for pair in u.decreasing_cells(tabs[p], le)))
    report.sweep("N2", ({"p": p, "cells": cell} for p in points
                        for cell in u.unstable_cells(tabs[p], u.tensor.table,
                                                     le, lat.bot)))
    report.sweep("N3", ({"p": p, "cell": (si, a)}
                        for p, tab in enumerate(tabs)
                        for si, (f, k) in enumerate(zip(u.sets, starts))
                        for a, v in enumerate(tab[k:k + grades])
                        if not le[v][f[p]]))

    pw_leq = u.pw_leq
    s = map(u.set_index.__getitem__, zip(*tabs))
    uncovered = [gi for gi, si in zip(cells, s)
                 if not pw_leq[gi // grades][si]]
    report.sweep("N4", ({"p": p, "cell": u.gpair(gi)} for p in points
                        for gi in uncovered if tabs[p][gi] != lat.bot))
    return report


def check_continuity_nbhd(phi, tau, eta):
    """The continuity proposition: the codomain neighborhood system at
    phi(p) sits below the pushforward of the one at p, for every point and
    every graded cell of the codomain.

    Requires phi to be continuous and surjective (PreconditionViolated
    otherwise).
    """
    require_continuous_surjection(phi, tau, eta)
    return nbhd_pushforward(phi, tau, eta)


def nbhd_pushforward(phi, tau, eta):
    """The sweep of `check_continuity_nbhd`, without its precondition."""
    ux, uy = tau.universe, eta.universe
    lat, pulled = ux.lattice, uy.pullback(phi, ux)
    report = Report("continuity_nbhd")
    report.sweep("nbhd_pushforward", (
        {"p": p, "g": uy.sets[sj], "beta": b}
        for p in ux.ground.points() for sj in range(uy.n_sets)
        for b in lat.elements()
        if not lat.le(eta.nbhd.at(phi[p], sj, b),
                      tau.nbhd.at(p, pulled[sj], b))))
    return report
