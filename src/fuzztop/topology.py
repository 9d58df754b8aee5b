"""Grade-valued topologies, interiors, neighborhood systems, continuity.

A topology is a total grade table over the enumerated powerset.  The least
topology above a seed is the least fixpoint of the pairwise tensor and join
rules.  Under the meet tensor it is built one join-irreducible grade at a
time, by the level lemma below.  Under any other tensor it is reached by
`closure.close`, which visits the sets not graded bot in value order, so on
a chain with an integral tensor each rule fires at most once per unordered
pair of them (every `Universe` tensor commutes and has bot as its zero).
Topologies are closed under pointwise meet, so they are enumerated as that
closure system from its least member (see `closure`).  A table with top at
the empty and full sets is a topology iff it is its own least topology
above, under every tensor, as a closure operator fixes exactly the closed
tables; so o2 and o3 are decided by one such build, and their pairs are
swept only to name a failure.  The interior operator derived from a
topology, and the per-point neighborhood system derived from that, are
materialized as full tables, once per `Topology`, and validated by
exhaustive axiom sweeps, turning the structural lemmas into executable
checks; the interior is built over each set's lower covers.  o3 and I6,
axioms over arbitrary families, are checked on pairs and the empty family:
the same on finite models.  Each other sweep skips the cases that cannot
fail (bottom values, one of each symmetric pair, non-covers; see
`Universe`) and still names the full sweep's first failure.
A point map is checked and pulled back once per check
(`Universe.pullback`).  Each record checks its table where it is made
(`Topology`, `InteriorOp`, `NbhdSystem`), and the tables the kernel
derives from checked ones are wrapped unchecked (`errors.trusted`).

Level lemma.  Let the tensor be the meet of L, and the seed top at the
empty and full sets.  For each join-irreducible j of L let the cut C_j be
the sets the seed grades at or above j, and S_j the sublattice of L^X
generated by C_j.  The least topology above the seed is
tau(f) = join{j | f in S_j}, and f in S_j is decided by one pass down and
one pass up the set covers.  Proof:
- L is distributive.  A `Universe` needs a residuum, and a meet with a
  residuum makes L a Heyting algebra, where meeting with a preserves
  joins, being the lower adjoint of res(a, -).  So L^X is distributive, and
  its join-irreducibles are the sets with one lower cover: one point at a
  join-irreducible of L, the others at bot.
- The rules split by grade.  Every element of L is the join of the
  join-irreducibles below it, so x <= y iff every join-irreducible below x
  is below y.  So tau(f meet g) >= tau(f) meet tau(g) and
  tau(f join g) >= tau(f) meet tau(g) hold for all f, g iff every cut
  {f | tau(f) >= j} is closed under the pointwise meet and join.
- The least closed table.  tau lies above the seed: seed(f) is the join of
  the j below it, and f is in each of their cuts.  tau is closed: j <= j'
  gives C_j' within C_j, so S_j' within S_j; if j <= tau(f) meet tau(g),
  then j <= j' for some j' with f in S_j', as j is join-prime in a
  distributive lattice, so f is in S_j, and so is g, and so are f meet g and
  f join g.  tau is least: the cuts of a closed table above the seed hold
  the C_j and are sublattices, so they hold the S_j.
- Birkhoff's test.  Let S be a sublattice of a finite distributive
  lattice that holds its bottom and top, as S_j holds the empty and full
  sets.  Then S holds f iff f = join{D_x | x join-irreducible, x <= f},
  D_x the least member of S above x: each D_x <= f when f is in S, and f
  is the join of the x below it, each x <= D_x; a join of members is a
  member.  For S = S_j, D_x = meet{s in C_j, or 1_X | s >= x}: a member
  of S_j is a join of meets of C_j, by distributivity, and one above x
  has one of those meets above x, x being join-prime.
- Down-set codes.  A set f is coded by the down-sets of its values, bit
  p*n + b set iff b <= f(p) (`Universe.set_codes`), so f <= g iff
  code f & ~code g == 0, and the code of a pointwise meet is the AND of
  the codes.  A join is not an OR, but an OR of codes lies below code f
  iff each of them does.
- One pass down the covers.  M(f) = meet{s in C_j, or 1_X | s >= f} is
  f when f is in C_j, and otherwise 1_X met with M(g) for every upper
  cover g of f, as each s > f lies above an upper cover of f.  So
  D_x = M(x).  On codes each meet is an AND.
- One pass up the covers.  c(f) = OR{code M(x) | x join-irreducible,
  x <= f} is 0 at the empty set, which has no lower cover; c(g) | M(f)
  when f has one lower cover g, as then f is join-irreducible and the
  others below f lie below g; and c(g) | c(h) for two lower covers g and
  h of f, as f = g join h and each x <= f lies below g or h, being
  join-prime.
- The OR test.  f is in S_j iff c(f) & ~code f == 0.  The join of the
  D_x over the join-irreducibles x <= f is at least f, as f is the join
  of those x and x <= D_x; so it equals f iff each D_x <= f, that is iff
  each code of a D_x lies below code f, iff their OR c(f) does.
Each step is one AND or OR of small ints, over `Universe.upper_covers`
descending and `lower_covers` ascending, in place of firing both rules on
every pair of sets; no pointwise table is read.
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
    `interior`, `nbhd` and `probes` are kept on first use; not being
    fields, they take no part in equality or hashing.  `probes` holds one
    int per point p, the OR over the sets u of the bit u(p) of cell
    (u, t(u)) in the layout of `FilterTable.code`, bit
    (u·n + t(u))·8w + u(p) with w bytes per cell, the width of
    `Lattice.downsets`: a filter converges to p iff its code holds every
    bit of p's probe (the probe lemma of the `compactness` docstring)."""

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

    @cached_property
    def probes(self):
        u = self.universe
        n = u.n
        width = 8 * len(u.lattice.downsets[0])
        cells = [(si * n + a) * width for si, a in enumerate(self.table)]
        return tuple(sum(1 << (cell + v) for cell, v in zip(cells, column))
                     for column in zip(*u.sets))


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

    With o1 and o1' holding, o2 and o3 both pass iff the table is its own
    least topology above (`_least_above`), under every tensor.  Only when
    that fails are the pairs swept, to name each axiom's first witness.
    o2 and o3 are symmetric in the pair, so each sweeps the unordered
    pairs i <= j in index order (i < j for o3, whose diagonal holds): a
    failing pair fails both ways round, so the first is among them."""
    u = t.universe
    lat = u.lattice
    report = Report("topology")
    table, top = t.table, lat.top
    report.record("o1", table[u.one_idx] == top, {"grade": table[u.one_idx]})
    report.record("o1_prime", table[u.zero_idx] == top,
                  {"grade": table[u.zero_idx]})
    if table[u.one_idx] == table[u.zero_idx] == top \
            and _least_above(u, list(table)) == list(table):
        report.record("o2", True)
        report.record("o3", True)
        return report
    le, ten, meet, sets = lat.leq, u.tensor.table, lat.meet, range(u.n_sets)
    report.sweep("o2", ({"f": u.sets[i], "g": u.sets[j]}
                        for i in sets for j in sets[i:]
                        if not le[ten[table[i]][table[j]]][
                            table[u.pw_tensor[i][j]]]))

    def o3_failures():
        if table[u.zero_idx] != top:
            yield {"subset": ()}
        for i in sets:
            row_j, meet_i = u.pw_join[i], meet[table[i]]
            for j in sets[i + 1:]:
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
    the least fixpoint of the tensor and join rules (`_least_above`).
    Raises PreconditionViolated unless the seed has one grade of L per
    set.
    """
    u = universe
    lat = u.lattice
    require_index(seed, lat.n, GRADES_OF_SETS, u.n_sets)
    table = list(seed)
    table[u.one_idx] = lat.top
    table[u.zero_idx] = lat.top
    return trusted(Topology, universe=u, table=tuple(_least_above(u, table)))


def _least_above(u, table):
    """The least topology above `table`, a list with top at the empty and
    full sets, which it may raise in place.  Under the meet tensor it is
    built from each join-irreducible grade's cut by two passes over the set
    covers (`_by_levels`, the level lemma of the module docstring).
    Otherwise it is one `closure.close` sweep: each rule fires at most once
    per unordered pair of sets not graded bot, visited in value order, and
    the sweep stops once every set is graded top."""
    if u.tensor.table == u.lattice.meet:
        return _by_levels(u, table)
    close(table, u.lattice, _rules(u))
    return table


def _by_levels(u, seed):
    """The least topology above `seed`, top at the empty and full sets,
    under the meet tensor, by the level lemma on down-set codes: per
    join-irreducible j, least[f] is the code of M(f), the least set of the
    cut or the full set above f, and gen[f] is c(f), the OR of the codes
    of M over the join-irreducible sets below f; f is in the level iff
    c(f) lies below code f.  Reads `set_codes` and the covers, no
    table."""
    lat, codes = u.lattice, u.set_codes
    lower, upper, ascending = u.lower_covers, u.upper_covers, u.ascending_sets
    full, grade_join = codes[u.one_idx], lat.join
    table = [lat.bot] * u.n_sets
    for j in lat.join_irreducibles():
        in_cut = lat.leq[j]
        least, gen = [0] * u.n_sets, [0] * u.n_sets
        for f in reversed(ascending):
            if in_cut[seed[f]]:
                least[f] = codes[f]  # f is the least member above f
                continue
            m = full
            for g in upper[f]:
                m &= least[g]
            least[f] = m
        for f in ascending:
            below = lower[f]
            if len(below) > 1:
                c = gen[below[0]] | gen[below[1]]
            elif below:
                c = gen[below[0]] | least[f]
            else:
                c = 0  # the empty set
            gen[f] = c
            code = codes[f]
            if c | code == code:  # c & ~code == 0, with no negative int
                table[f] = grade_join[table[f]][j]
    return table


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
