"""The sweeps that look only where a verdict can change, against the full
sweeps they replaced: the interior by lower covers against the join over
every subset, the covers of the graded order against the full order, the
stability laws o2, FF2, I2 and N2 on unordered pairs of non-bottom cells
against every ordered pair, the ultrafilter characterization by table
lookups against its per-cell definition, the element batteries and I6,
on covers and incomparable pairs, against their sweeps of every pair,
triple and quadruple, and the graded GL battery, decided on the factors
of the carrier, against the sweeps of every cell, pair and triple of the
carrier and `gimpl_sup`."""

import itertools
import random

import pytest

from fuzztop.errors import trusted
from fuzztop.filters import FilterTable, check_filter, enumerate_filters
from fuzztop.instances import join_cotensor
from fuzztop.lattice import build_lattice, check_infinite_distributivity
from fuzztop.powerset import _sup_digits, check_graded_gl
from fuzztop.report import Report
from fuzztop.residuated import (Tensor, check_co_gl_monoid, check_cqm,
                                check_gl_monoid)
from fuzztop.topology import (InteriorOp, NbhdSystem, Topology,
                              check_interior, check_nbhd, check_topology,
                              enumerate_topologies, generate_topology,
                              interior_from_topology, nbhd_from_interior)
import models
from test_order_oracles import ORDERS, covers_by_definition

# the ids these tests had before the catalogue, kept so that no id changes
PARENT_IDS = {"u35_godel": "chain3-5pt", "u28": "chain2-8pt",
              "diamond_1pt": "diamond-1pt", "diamond_2pt": "diamond-2pt",
              "u32_godel": "u32", "chain4_godel_1pt": "chain4-1pt"}


def first(witnesses):
    return next(iter(witnesses), None)


def witness(report, axiom):
    v = report.verdicts[axiom]
    return v.witness if v.status == "fail" else None


def mutants(rng, table, values, count):
    """`count` copies of `table`, each with one or two cells set at
    random."""
    for _ in range(count):
        t = list(table)
        for _ in range(rng.randint(1, 2)):
            t[rng.randrange(len(t))] = rng.randrange(values)
        yield tuple(t)


# ---- the interior ----------------------------------------------------------

def interior_by_subsets(t):
    """Oracle: int(f, a) is the join of every u <= f with a <= t(u)."""
    u = t.universe
    lat = u.lattice
    table = []
    for si in range(u.n_sets):
        for a in lat.elements():
            v = u.zero_idx
            for ui in range(u.n_sets):
                if u.pw_leq[ui][si] and lat.le(a, t.table[ui]):
                    v = u.pw_join[v][ui]
            table.append(v)
    return tuple(table)


@pytest.mark.parametrize("name", models.SWEPT)
def test_interior_by_covers_matches_the_join_over_subsets(name, request):
    # every topology, then random tables that are none: the recursion holds
    # for any table, and `validate interior` reads such tables unvalidated
    u = request.getfixturevalue(name)
    for t in enumerate_topologies(u):
        assert interior_from_topology(t).table == interior_by_subsets(t)
    rng = random.Random(name)
    for _ in range(40):
        t = Topology(universe=u, table=tuple(rng.randrange(u.n)
                                             for _ in range(u.n_sets)))
        assert interior_from_topology(t).table == interior_by_subsets(t)


@pytest.mark.parametrize("name", models.names("tiny") + models.names("small"))
def test_covers_generate_the_orders(name, request, above_by_comprehension):
    u = request.getfixturevalue(name)
    sets, leq = range(u.n_sets), u.pw_leq

    def strictly(i, j):
        return i != j and leq[i][j]

    # a lower cover lies strictly below with nothing strictly between
    for f in sets:
        assert sorted(u.lower_covers[f]) == [
            g for g in sets if strictly(g, f)
            and not any(strictly(g, h) and strictly(h, f) for h in sets)]
    # each set comes after every set below it
    place = {si: k for k, si in enumerate(u.ascending_sets)}
    assert sorted(place) == list(sets)
    assert all(place[i] < place[j] for i in sets for j in sets
               if strictly(i, j))
    # the transitive closure of the graded covers is the strict order
    above = above_by_comprehension(u)
    for gi in u.graded_cells():
        reached, stack = set(), list(u.graded_covers[gi])
        while stack:
            gj = stack.pop()
            if gj not in reached:
                reached.add(gj)
                stack.extend(u.graded_covers[gj])
        assert reached == set(above[gi])


# ---- stability on unordered live pairs -------------------------------------

def unstable_by_ordered_pairs(u, tab, op, le):
    """Oracle: every ordered pair of cells, bottoms included, in index
    order."""
    n, join, cells = u.n, u.lattice.join, range(u.n_sets)
    for si in cells:
        for a in range(n):
            for sj in cells:
                for b in range(n):
                    dst = u.pw_tensor[si][sj] * n + join[a][b]
                    if not le[op[tab[si * n + a]][tab[sj * n + b]]][tab[dst]]:
                        yield si, a, sj, b


def o2_by_ordered_pairs(t):
    u, lat = t.universe, t.universe.lattice
    sets, tab = range(u.n_sets), t.table
    return first({"f": u.sets[i], "g": u.sets[j]} for i in sets for j in sets
                 if not lat.le(u.tensor.app(tab[i], tab[j]),
                               tab[u.pw_tensor[i][j]]))


def agree(seen, axiom, got, want):
    """Assert the two witnesses agree; note whether the axiom passed."""
    assert got == want, axiom
    seen.add((axiom, want is None))


def test_live_pair_sweeps_name_the_ordered_sweeps_first_witness(request):
    # each axiom both passes and fails over the instances (o2 cannot fail on
    # a 1-point Goedel chain: f tensor g is f or g there)
    seen = set()
    for name in models.SWEPT:
        check_live_pair_sweeps(request.getfixturevalue(name), name, seen)
    assert seen == {(axiom, passed) for axiom in ("FF2", "o2", "I2", "N2")
                    for passed in (True, False)}


def check_live_pair_sweeps(u, name, seen):
    lat, rng = u.lattice, random.Random(name)
    for F in enumerate_filters(u)[:12]:
        for tab in (F.table, *mutants(rng, F.table, lat.n, 12)):
            want = first(unstable_by_ordered_pairs(u, tab, u.tensor.table,
                                                   lat.leq))
            got = witness(check_filter(FilterTable(universe=u, table=tab)),
                          "FF2")
            agree(seen, "FF2", got, want and {"cells": want})
    topologies = enumerate_topologies(u)
    # I2 and N2 fail on every topology but the discrete one, the last
    for t in topologies[:8] + topologies[-4:]:
        for tab in (t.table, *mutants(rng, t.table, lat.n, 12)):
            mut = Topology(universe=u, table=tab)
            agree(seen, "o2", witness(check_topology(mut), "o2"),
                  o2_by_ordered_pairs(mut))
        i = interior_from_topology(t)
        for tab in (i.table, *mutants(rng, i.table, u.n_sets, 12)):
            want = first(unstable_by_ordered_pairs(u, tab, u.pw_tensor,
                                                   u.pw_leq))
            got = witness(check_interior(InteriorOp(universe=u, table=tab)),
                          "I2")
            agree(seen, "I2", got, want)
        nb = nbhd_from_interior(i)
        for p in u.ground.points():
            for tab in (nb.tables[p], *mutants(rng, nb.tables[p], lat.n, 8)):
                tables = nb.tables[:p] + (tab,) + nb.tables[p + 1:]
                want = first({"p": q, "cells": cell} for q in u.ground.points()
                             for cell in unstable_by_ordered_pairs(
                                 u, tables[q], u.tensor.table, lat.leq))
                got = witness(check_nbhd(NbhdSystem(universe=u, tables=tables)),
                              "N2")
                agree(seen, "N2", got, want)


def test_a_cell_is_paired_with_itself(u32_luk):
    # Lukasiewicz: 1 (*) 1 = 0, so with the half set at grade bot graded
    # top, and every other cell bot, only that cell's pair with itself fails
    u, lat = u32_luk, u32_luk.lattice
    half = u.set_index[(1, 1)]
    tab = [lat.bot] * u.graded_size
    tab[u.gidx(half, lat.bot)] = lat.top
    want = (half, lat.bot, half, lat.bot)
    assert list(unstable_by_ordered_pairs(u, tab, u.tensor.table,
                                          lat.leq)) == [want]
    assert list(u.unstable_cells(tab, u.tensor.table, lat.leq,
                                 lat.bot)) == [want]


# ---- o2 and o3 named by the pair sweeps -------------------------------------

def o2_o3_by_live_pairs(t):
    """Oracle: the first o2 and o3 witnesses of the sweep of unordered pairs
    of sets not graded bot, i <= j for o2 and i < j for o3."""
    u = t.universe
    lat, table = u.lattice, t.table
    le, ten, meet = lat.leq, u.tensor.table, lat.meet
    live = [i for i, v in enumerate(table) if v != lat.bot]
    o2 = first({"f": u.sets[i], "g": u.sets[j]}
               for k, i in enumerate(live) for j in live[k:]
               if not le[ten[table[i]][table[j]]][table[u.pw_tensor[i][j]]])
    o3 = {"subset": ()} if table[u.zero_idx] != lat.top else first(
        {"subset": (i, j)} for k, i in enumerate(live) for j in live[k + 1:]
        if not le[meet[table[i]][table[j]]][table[u.pw_join[i][j]]])
    return o2, o3


def check_floor_pruning(topologies, rng, seen, mutants_each):
    """Verdicts and first witnesses of o2 and o3 against the oracle, on each
    topology and on single-cell mutants of it: `check_topology` decides
    both by the least topology above the table and sweeps every pair only
    on a failure, to name it.  `seen` collects which axioms failed, and
    whether the failing table grades no set bot (the sweeps once skipped
    sets by the floor, the meet of the grades)."""
    for t in topologies:
        u = t.universe
        tables = [t.table]
        for _ in range(mutants_each):
            tab = list(t.table)
            tab[rng.randrange(u.n_sets)] = rng.randrange(u.n)
            tables.append(tuple(tab))
        for tab in tables:
            mut = Topology(universe=u, table=tab)
            want = o2_o3_by_live_pairs(mut)
            got = check_topology(mut)
            for axiom, w in zip(("o2", "o3"), want):
                assert witness(got, axiom) == w, axiom
                assert got.verdicts[axiom].status == ("pass" if w is None
                                                      else "fail")
                if w is not None:
                    seen.add((axiom, min(tab) != u.lattice.bot))


def test_floor_pruning_names_the_live_pair_sweeps_first_witness(request):
    # every topology of each universe, and 3 single-cell mutants of each;
    # the failures are named by the pair sweeps, on tables with and without
    # a set graded bot; the non-associative tensor of chain4_cqm_1pt and
    # the non-integral one, where v (*) top > v, are decided by `close`
    rng, seen = random.Random(18), set()
    for name in ("u22", "u23", "u32_godel", "u32_luk", "diamond_1pt",
                 "chain4_cqm_1pt", "u32_non_integral"):
        u = request.getfixturevalue(name)
        check_floor_pruning(enumerate_topologies(u), rng, seen, 3)
    assert len(enumerate_topologies(u)) == 150  # u32_non_integral
    assert seen == {(axiom, floor_above_bot) for axiom in ("o2", "o3")
                    for floor_above_bot in (False, True)}


@pytest.mark.parametrize("name", models.names("next-tier"),
                         ids=PARENT_IDS.get)
def test_floor_pruning_on_generated_large_topologies(name, request):
    # generated topologies of 243 and 256 sets and 20 single-cell mutants
    # of each: the level test passes the first, and the pair sweeps name
    # both axioms' failures among the others
    u = request.getfixturevalue(name)
    lat = u.lattice
    rng, seen = random.Random(u.ground.m), set()
    topologies = [generate_topology(u, [rng.randrange(lat.n)
                                        if rng.random() < p else lat.bot
                                        for _ in range(u.n_sets)])
                  for p in (0.0, 0.01, 0.05, 0.3)]
    check_floor_pruning(topologies, rng, seen, 20)
    assert {axiom for axiom, _ in seen} == {"o2", "o3"}


# ---- the ultrafilter characterization --------------------------------------

def characterization_by_definition(F):
    """Oracle: the impl-into-bottom identity cell by cell, through
    `gimpl` and the residuum's `app`."""
    u = F.universe
    lat = u.lattice
    for gi in u.graded_cells():
        _, a = u.gpair(gi)
        for rho in lat.elements():
            if not lat.le(rho, a):
                continue
            val = u.res.app(F.table[u.gimpl(gi, u.gidx(u.zero_idx, rho))],
                            lat.bot)
            if val != F.table[gi]:
                return False, {"cell": u.gpair(gi), "rho": rho,
                               "expected": val, "actual": F.table[gi]}
    return True, None


# on the middle-unit models the cotensor's unit is not bot, so the rho loop
# reads cells other than (f -> 0, bot)
@pytest.mark.parametrize("name", models.TWO_OR_MORE)
def test_characterization_matches_its_definition(name, request):
    u = request.getfixturevalue(name)
    verdicts = set()
    for F in enumerate_filters(u):
        want = characterization_by_definition(F)
        assert F.characterization == want
        verdicts.add(want[0])
    assert verdicts == {True, False}


# ---- element batteries on covers and incomparable pairs ---------------------

def distributivity_by_all_pairs(lat):
    """Oracle: both infinite-distributivity laws on every ordered pair and
    element."""
    report, els = Report("infinite_distributivity"), lat.elements()
    for axiom, outer, inner in (("join_meet_distributive", lat.join, lat.meet),
                                ("meet_join_distributive", lat.meet, lat.join)):
        report.sweep(axiom, (
            {"subset": (a, b), "x": x, "lhs": inner[outer[a][b]][x],
             "rhs": outer[inner[a][x]][inner[b][x]]}
            for a in els for b in els for x in els
            if inner[outer[a][b]][x] != outer[inner[a][x]][inner[b][x]]))
    return report


def cqm_by_quadruples(t):
    """Oracle: isotonicity over every a1 <= a2 and b1 <= b2."""
    lat, report = t.base, Report("cqm_lattice")
    els, le, tab = lat.elements(), lat.leq, t.table
    report.sweep("isotone", ((a1, a2, b1, b2) for a1 in els for a2 in els
                             if le[a1][a2] for b1 in els for b2 in els
                             if le[b1][b2] and not le[tab[a1][b1]][tab[a2][b2]]))
    report.record("top_idempotent", t.app(lat.top, lat.top) == lat.top,
                  (lat.top, t.app(lat.top, lat.top)))
    return report


def monoid_by_all_pairs(tab, le, join, top, bot, name, names):
    """Oracle: the seven GL laws over the order `le`, isotonicity over every
    triple, commutativity and distributivity over every ordered pair, and
    divisibility by scanning the row."""
    report, els = Report(name), range(len(le))
    integral, zero, distributive, divisible = names
    report.sweep("isotone", ((a, b, c) for a in els for b in els if le[a][b]
                             for c in els if not le[tab[a][c]][tab[b][c]]))
    report.sweep("commutative", ((a, b) for a in els for b in els
                                 if tab[a][b] != tab[b][a]))
    report.sweep("associative", ((a, b, c) for a in els for b in els
                                 for c in els
                                 if tab[a][tab[b][c]] != tab[tab[a][b]][c]))
    report.sweep(integral, ((a, tab[a][top]) for a in els if tab[a][top] != a))
    report.sweep(zero, ((a, tab[a][bot]) for a in els if tab[a][bot] != bot))

    def undistributed():
        for a in els:
            row = tab[a]
            if row[bot] != bot:
                yield {"a": a, "subset": (), "lhs": row[bot], "rhs": bot}
            for b in els:
                for c in els:
                    lhs, rhs = row[join[b][c]], join[row[b]][row[c]]
                    if lhs != rhs:
                        yield {"a": a, "subset": (b, c), "lhs": lhs, "rhs": rhs}

    report.sweep(distributive, undistributed())
    report.sweep(divisible, ((a, b) for a in els for b in els
                             if le[a][b] and a not in tab[b]))
    return report


def gl_by_all_pairs(t):
    lat = t.base
    return monoid_by_all_pairs(t.table, lat.leq, lat.join, lat.top, lat.bot,
                               "gl_monoid", ("integral", "zero",
                                             "join_distributive", "divisible"))


def co_gl_by_all_pairs(t):
    lat = t.base
    return monoid_by_all_pairs(t.table, lat.geq, lat.meet, lat.bot, lat.top,
                               "co_gl_monoid",
                               ("co_integral", "co_zero", "meet_distributive",
                                "co_divisible"))


def lukasiewicz_by_rank(lat):
    """The Lukasiewicz tensor of a chain in any indexing: ranks r(a) and
    r(b) give the element of rank max(0, r(a) + r(b) - (n - 1))."""
    by_rank = {r: a for a, r in enumerate(lat.rank)}
    return tuple(tuple(by_rank[max(0, ra + rb - (lat.n - 1))]
                       for rb in lat.rank) for ra in lat.rank)


def tables(lat, rng):
    """The meet, the join and (on a chain) the Lukasiewicz table, each with
    one-entry and symmetric-pair mutants, then random tables."""
    n = lat.n
    bases = [lat.meet, lat.join]
    if len(set(lat.rank)) == n:
        bases.append(lukasiewicz_by_rank(lat))
    each = 12 if n <= 5 else 4
    for base in bases:
        yield base
        for symmetric in (False, True) * each:
            t = [list(row) for row in base]
            a, b, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            t[a][b] = v
            if symmetric:
                t[b][a] = v
            yield tuple(map(tuple, t))
    for _ in range(each):
        yield tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_lower_covers_match_their_definition(name):
    lat = build_lattice(*ORDERS[name])
    assert lat.lower_covers == covers_by_definition(lat)
    assert lat.incomparable == tuple(
        (a, b) for a, b in itertools.combinations(lat.elements(), 2)
        if not lat.le(a, b) and not lat.le(b, a))


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_cover_pairs_ascend_in_a_linear_extension(name):
    # the residuation joins along them, each after the pairs below it
    lat = build_lattice(*ORDERS[name])
    pairs = lat.cover_pairs
    assert sorted(pairs) == sorted(ORDERS[name][1])
    assert not any(lat.le(a2, a1) and a2 != a1
                   for k, (_, a1) in enumerate(pairs) for _, a2 in pairs[k:])


def test_element_batteries_name_the_full_sweeps_first_witness():
    rng, seen = random.Random(21), set()
    for name in sorted(ORDERS):
        lat = build_lattice(*ORDERS[name])
        assert check_infinite_distributivity(lat).to_dict() == \
            distributivity_by_all_pairs(lat).to_dict(), name
        for table in tables(lat, rng):
            t = Tensor(base=lat, table=table)
            for check, oracle in ((check_cqm, cqm_by_quadruples),
                                  (check_gl_monoid, gl_by_all_pairs),
                                  (check_co_gl_monoid, co_gl_by_all_pairs)):
                want = oracle(t).to_dict()
                assert check(t).to_dict() == want, (name, table)
                seen.update((want["name"], axiom, v["status"])
                            for axiom, v in want["verdicts"].items())
    # every law both passes and fails somewhere
    laws = {(battery, axiom) for battery, axiom, _ in seen}
    assert seen == {(*law, status) for law in laws
                    for status in ("pass", "fail")}


def test_distributivity_fails_in_an_isotone_row():
    # the meet of the pentagon is isotone in every row, so its first
    # distributivity failure is found on an incomparable pair alone
    lat = build_lattice(*ORDERS["pentagon"])
    t = Tensor(base=lat, table=lat.meet)
    got = check_gl_monoid(t)
    assert got.verdicts["isotone"].status == "pass"
    b, c = got.verdicts["join_distributive"].witness["subset"]
    assert (b, c) in lat.incomparable
    assert got.to_dict() == gl_by_all_pairs(t).to_dict()


def i6_by_all_pairs(i):
    """Oracle: I6 over every ordered pair of grades, as a verdict dict."""
    u, lat = i.universe, i.universe.lattice
    report = Report("interior")
    report.sweep("I6", ({"f": u.sets[si], "grades": (a, b)}
                        for si in range(u.n_sets) for a in lat.elements()
                        for b in lat.elements()
                        if i.app(si, b) == i.app(si, a)
                        and i.app(si, lat.join2(a, b)) != i.app(si, a)))
    return report.to_dict()["verdicts"]["I6"]


@pytest.mark.parametrize("name", ["diamond_1pt", "diamond_2pt", "u22",
                                  "u32_godel", "chain4_godel_1pt"],
                         ids=PARENT_IDS.get)
def test_i6_on_incomparable_pairs_names_the_full_sweeps_first_witness(
        name, request):
    u = request.getfixturevalue(name)
    lat = u.lattice
    rng, seen = random.Random(u.ground.m * lat.n), set()
    for _ in range(30):
        table = []
        for _ in range(u.n_sets):
            pool = (rng.randrange(u.n_sets), rng.randrange(u.n_sets))
            table.extend(rng.choice(pool) for _ in lat.elements())
        seed = [rng.randrange(lat.n) if rng.random() < 0.2 else lat.bot
                for _ in range(u.n_sets)]
        generated = list(interior_from_topology(
            generate_topology(u, seed)).table)
        mutant = list(generated)
        mutant[rng.randrange(len(mutant))] = rng.randrange(u.n_sets)
        for tab in (table, generated, mutant):
            i = InteriorOp(universe=u, table=tuple(tab))
            want = i6_by_all_pairs(i)
            assert check_interior(i).to_dict()["verdicts"]["I6"] == want
            seen.add(want["status"])
    # on a chain every pair of grades is comparable, so I6 cannot fail
    assert seen == ({"pass", "fail"} if lat.incomparable else {"pass"})


# ---- the graded GL battery on its factors ----------------------------------

#: every tiny and small model but diamond_3pt, whose 256 cells take a
#: sweep of every triple about 20 s, the quasi-monoidal tensor, which
#: fails four laws on the point factor, and the pentagon, whose grade
#: factor fails join_distributive
GRADED = [name for name in models.names("tiny") + models.names("small")
          + models.names("cqm") + models.names("non-distributive")
          if name != "diamond_3pt"]


def componentwise(u, sets, grades):
    """The table over pairs of cells of the operation that is `sets` at
    each point and `grades` on the grades, element tables, read cell by
    cell off the sets."""
    n, cells = u.n, u.graded_cells()
    return [[u.gidx(u.set_index[tuple(map(lambda x, y: sets[x][y],
                                          u.sets[i // n], u.sets[j // n]))],
                    grades[i % n][j % n]) for j in cells] for i in cells]


def graded_order(u):
    """The graded order by its definition, as a table over pairs of cells:
    (f, a) below (g, b) iff f <= g pointwise and b <= a."""
    lat, n, pw_leq = u.lattice, u.n, u.pw_leq
    cells = u.graded_cells()
    return [[pw_leq[i // n][j // n] and lat.le(j % n, i % n) for j in cells]
            for i in cells]


def cones(le):
    """Each element's up-set and down-set in the order table `le`, as bit
    masks."""
    elements = range(len(le))
    return ([sum(1 << j for j in elements if row[j]) for row in le],
            [sum(1 << i for i in elements if le[i][j]) for j in elements])


def unbounded_pairs(le, join, meet):
    """The pairs whose `join` is not their least upper bound, or whose
    `meet` is not their greatest lower bound, in the order table `le`: an
    upper bound's up-set is the meet of the pair's up-sets iff it is the
    least, and dually."""
    ups, downs = cones(le)
    elements = range(len(le))
    return ((i, j) for i in elements for j in elements
            if ups[join[i][j]] != ups[i] & ups[j]
            or downs[meet[i][j]] != downs[i] & downs[j])


def graded_gl_by_sweeps(u, gimpl_sup):
    """Oracle: `check_graded_gl` as (status, witness) per law, by the sweeps
    of the graded carrier with its order built here by its definition, (f,
    a) below (g, b) iff f <= g pointwise and b <= a, and boxtimes and the
    implication read cell by cell (`componentwise`, `Universe.gimpl`): the
    seven GL laws by `monoid_by_all_pairs` over the componentwise join;
    the bounds and that join and meet against the up-sets and down-sets
    of the order; the closed form against `gimpl_sup` on every pair of
    cells; and the adjunction and the two exchange laws on every
    triple."""
    lat, cells = u.lattice, u.graded_cells()
    le = graded_order(u)
    ups, downs = cones(le)
    box = componentwise(u, u.tensor.table, lat.join)
    join = componentwise(u, lat.join, lat.meet)
    meet = componentwise(u, lat.meet, lat.join)
    top, bot = u.gidx(u.one_idx, lat.bot), u.gidx(u.zero_idx, lat.top)
    report = monoid_by_all_pairs(box, le, join, top, bot, "graded_gl",
                                 ("integral", "zero", "join_distributive",
                                  "divisible"))
    everything = (1 << len(cells)) - 1
    report.record("top_is_one_bot", downs[top] == everything, top)
    report.record("bot_is_zero_top", ups[bot] == everything, bot)
    report.sweep("componentwise_bounds", unbounded_pairs(le, join, meet))
    impl = [[u.gimpl(i, j) for j in cells] for i in cells]
    report.sweep("impl_closed_vs_sup", (
        (i, j) for i in cells for j in cells
        if impl[i][j] != gimpl_sup(u, i, j)))
    triples = list(itertools.product(cells, repeat=3))
    report.sweep("adjunction", (
        (a, b, c) for a, b, c in triples
        if le[box[a][b]][c] != le[a][impl[b][c]]))
    report.sweep("tensor_impl_exchange", (
        (a, b, c) for a, b, c in triples
        if not le[box[a][impl[b][c]]][impl[b][box[a][c]]]))
    if all(u.tensor.app(x, x) == x for x in lat.elements()):
        report.sweep("impl_product_exchange", (
            (a, b, c) for a, b, c in triples
            if not le[box[impl[b][a]][impl[b][c]]][impl[b][box[a][c]]]))
    else:
        report.record_skip("impl_product_exchange", "tensor not idempotent")
    return verdicts(report)


def verdicts(report):
    return {law: (v.status, v.witness) for law, v in report.verdicts.items()}


def graded_gl_on(u):
    """`check_graded_gl`'s verdicts on `u`, and whether it swept the
    graded carrier: the failure path builds `box_table`, which nothing
    else in the battery reads."""
    report = check_graded_gl(u)
    return verdicts(report), "box_table" in vars(u)


@pytest.mark.parametrize("name", GRADED)
def test_graded_gl_names_the_triple_sweeps_first_witness(name, gimpl_sup):
    # on a fresh universe, which no oracle has read yet; the carrier is
    # swept exactly when a law fails on a factor, so when the battery fails
    u = models.build(name)
    got, swept = graded_gl_on(u)
    assert got == graded_gl_by_sweeps(u, gimpl_sup)
    assert swept == any(status == "fail" for status, _ in got.values())


def test_both_paths_of_the_graded_gl_battery_run():
    # the catalogue holds models on each side of the factor lemma
    swept = {name: graded_gl_on(models.build(name))[1] for name in GRADED}
    assert {name for name, graded in swept.items() if graded} == {
        "u31_godel_middle_unit", "u31_luk_middle_unit",
        "u32_godel_middle_unit", "u32_luk_middle_unit",
        "u31_godel_bounded_sum", "u32_non_integral", "chain4_cqm_1pt",
        "pentagon_constant_1pt"}


def test_the_join_fails_no_co_gl_law_but_meet_distributivity():
    # the join lemma of the `powerset` docstring, on which check_graded_gl
    # decides the grade factor: on every catalogue lattice the join passes
    # every co-GL law but `meet_distributive`, whose status is that of
    # L's `meet_join_distributive`; both statuses occur
    statuses = set()
    for make in models.LATTICES.values():
        lat = make()
        co = check_co_gl_monoid(join_cotensor(lat)).verdicts
        status = co.pop("meet_distributive").status
        assert {v.status for v in co.values()} == {"pass"}
        assert status == check_infinite_distributivity(lat).verdicts[
            "meet_join_distributive"].status
        statuses.add(status)
    assert statuses == {"pass", "fail"}


@pytest.mark.parametrize("name", GRADED)
def test_lifted_sup_form_is_gimpl_sup(name, gimpl_sup):
    # the product lemma: at a pair of cells the sup form is the element
    # sup form at each point, and its own on the grade digit
    u = models.build(name)
    sets, grades = _sup_digits(u)
    for i in u.graded_cells():
        f, a = u.gpair(i)
        for j in u.graded_cells():
            g, b = u.gpair(j)
            h = tuple(map(lambda x, y: sets[x][y], u.sets[f], u.sets[g]))
            assert gimpl_sup(u, i, j) == u.gidx(u.set_index[h], grades[a][b])


def with_tensor(u, table):
    """`u` with its tensor replaced by `table`, unchecked, and its residuum
    recomputed by the sup form, join{x | x (*) a <= c}."""
    lat = u.lattice
    els = lat.elements()
    table = tuple(map(tuple, table))
    u.tensor = trusted(Tensor, base=lat, table=table)
    u.pw_tensor = u._pointwise(table)
    u.res = trusted(Tensor, base=lat, table=tuple(
        tuple(lat.join_set(x for x in els if lat.le(table[x][a], c))
              for c in els) for a in els))
    return u


def mutant_universe(name, which, rng):
    """A fresh universe of `name` with one entry of its residuum or
    co-implication changed, or one entry of its tensor off bot, so that
    bot stays its zero, or that entry and its mirror (`with_tensor`): a
    tensor that is not commutative, associative or isotone can break the
    premises of the lemmas while the adjunction holds."""
    u = models.build(name)
    lat = u.lattice
    table = [list(row) for row in getattr(u, which).table]
    cells = [x for x in lat.elements() if which != "tensor" or x != lat.bot]
    a, b, v = rng.choice(cells), rng.choice(cells), rng.randrange(lat.n)
    table[a][b] = v
    if which == "tensor":
        if rng.random() < 0.5:
            table[b][a] = v
        return with_tensor(u, table)
    setattr(u, which, trusted(Tensor, base=lat,
                              table=tuple(map(tuple, table))))
    return u


def test_graded_gl_on_mutant_universes_names_the_sweeps_first_witness(
        gimpl_sup):
    # a law is swept on the carrier only when it fails on a factor, and
    # each law both passes and fails.  Where the adjunction holds,
    # tensor_impl_exchange fails on a tensor that is not associative, and
    # on the diamond on an associative one that does not commute, its rows
    # 0 and 1 bot and rows 2 and 3 (0, 1, 2, 2): it is isotone in its first
    # argument only, and commutativity is what makes boxtimes isotone in
    # its second
    rng, seen = random.Random(31), set()
    universes = [(name, which, mutant_universe(name, which, rng))
                 for name in ("u21", "u22", "u31_godel", "u31_luk",
                              "u32_godel", "diamond_1pt", "chain4_godel_1pt")
                 for which in ("res", "coimpl", "tensor", "tensor") * 6]
    universes.append(("diamond_1pt", "tensor", with_tensor(
        models.build("diamond_1pt"),
        [(0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 2, 2), (0, 1, 2, 2)])))
    for name, which, u in universes:
        got, swept = graded_gl_on(u)
        assert got == graded_gl_by_sweeps(u, gimpl_sup), (name, which)
        statuses = {law: status for law, (status, _) in got.items()}
        assert swept == ("fail" in statuses.values()), (name, which)
        seen.update(statuses.items())
        seen.add(("swept", swept))
        if statuses["adjunction"] == "pass" \
                and statuses["tensor_impl_exchange"] == "fail":
            seen.add(("exchange fails without", *sorted(
                law for law in ("commutative", "associative")
                if statuses[law] == "fail")))
    assert seen >= {(law, status) for law in (
        "impl_closed_vs_sup", "adjunction", "tensor_impl_exchange",
        "impl_product_exchange", "isotone", "commutative", "associative")
        for status in ("pass", "fail")}
    assert {("exchange fails without", "commutative"),
            ("exchange fails without", "associative"),
            ("swept", True), ("swept", False)} <= seen


# ---- N4 without candidate lists --------------------------------------------

def n4_by_candidates(nb, above):
    """Oracle: N4's first failure, p first, then gi, joining at p the
    grades of gi's candidates: the cells at or above gi, from `above`, the
    graded order in full, whose set lies below s(gi), the set of gi's
    grades across the points."""
    u, tabs = nb.universe, nb.tables
    lat, pw_leq = u.lattice, u.pw_leq
    s = [u.set_index[col] for col in zip(*tabs)]
    for p, tab in enumerate(tabs):
        for gi in u.graded_cells():
            join = lat.bot
            for gj in (gi, *above[gi]):
                if pw_leq[gj // u.n][s[gi]]:  # a candidate
                    join = lat.join[join][tab[gj]]
            if not lat.leq[tab[gi]][join]:
                return {"p": p, "cell": u.gpair(gi)}
    return None


@pytest.mark.parametrize("name", models.TWO_OR_MORE)
def test_n4_names_the_candidate_sweeps_first_witness(name, request,
                                                     above_by_comprehension):
    # every topology, then every system with one cell of one point changed
    # to another grade, of up to 5 sampled topologies
    u = request.getfixturevalue(name)
    above = above_by_comprehension(u)
    rng, seen = random.Random(name), set()
    topologies = enumerate_topologies(u)
    for t in topologies:
        want = n4_by_candidates(t.nbhd, above)
        seen.add(want is None)
        assert witness(check_nbhd(t.nbhd), "N4") == want
    for t in rng.sample(topologies, min(5, len(topologies))):
        tables = t.nbhd.tables
        for p, k in itertools.product(u.ground.points(), u.graded_cells()):
            for v in range(u.n):
                if v == tables[p][k]:
                    continue
                tab = tables[p][:k] + (v,) + tables[p][k + 1:]
                nb = NbhdSystem(universe=u, tables=tables[:p] + (tab,)
                                + tables[p + 1:])
                want = n4_by_candidates(nb, above)
                seen.add(want is None)
                assert witness(check_nbhd(nb), "N4") == want
    assert seen == {True, False}


def test_n4_on_the_criterion_07_tables_names_the_candidate_sweeps_witness(
        request, above_by_comprehension):
    from test_acceptance import _topology_corpus
    failing = 0
    for name in ("u22", "u31_godel", "u31_luk", "u23", "u32_godel"):
        u = request.getfixturevalue(name)
        for t in _topology_corpus(u)[0]:
            nb = nbhd_from_interior(interior_from_topology(t))
            want = n4_by_candidates(nb, above_by_comprehension(u))
            failing += want is not None
            assert witness(check_nbhd(nb), "N4") == want
    assert failing == 13  # criterion 07's N4 count
