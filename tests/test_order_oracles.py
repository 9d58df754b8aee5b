"""The order tables built by lookup, against the searches they replaced:
lattice bounds looked up by up-set against the search of every pair's upper
bounds for the least one, `build_lattice` from its closure's up-sets
against the definitions on the closure's rows, the rows of
`graded_lattice` against the comprehension over `pw_leq` and its bounds
and covers against the search and the scan, N4 decided
without candidates against the per-point `all(...)` sweep of them, the
join-irreducibles read off the lower covers against the join of each
element's strict down-set, and the cover pairs `build_lattice` picks out
of its pairs against the scan of every pair of elements.  Also that the
pointwise order is built only when something reads it, not for the
graded GL battery, and the graded order's rows not for a neighbourhood
check."""

import dataclasses
import random

import pytest

from fuzztop.errors import (Degenerate, FuzztopError, NotALattice,
                            NotAPartialOrder)
from fuzztop.instances import chain, diamond, m3, pentagon
from fuzztop.lattice import Lattice, build_lattice
from fuzztop.powerset import check_graded_gl
from fuzztop.topology import (NbhdSystem, Topology, check_nbhd,
                              check_topology, generate_topology)

import models

# ---- lattice bounds --------------------------------------------------------


def bound_search(leq):
    """Oracle: (join, meet, top, bot), each bound the one upper (lower)
    bound below (above) every other, pairs in index order and join before
    meet; raises NotALattice for the first pair without one."""
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
    top = bot = 0
    for e in range(n):
        top, bot = join[top][e], meet[bot][e]
    return tuple(map(tuple, join)), tuple(map(tuple, meet)), top, bot


def closure(n, pairs):
    """Oracle: the reflexive-transitive closure of the pairs, by relaxing
    until nothing changes."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if leq[a][b] and leq[b][c] and not leq[a][c]:
                        leq[a][c] = changed = True
    return leq


def first_antisymmetry_failure(leq):
    """Oracle: the first pair a < b, in index order, with a <= b <= a."""
    n = len(leq)
    return next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if leq[a][b] and leq[b][a]), None)


def bounds(lat):
    return lat.join, lat.meet, lat.top, lat.bot


def covers_by_definition(lat):
    """Oracle: per element a, the c < a with no element strictly between."""
    def lt(x, y):
        return x != y and lat.le(x, y)
    return tuple(tuple(c for c in lat.elements() if lt(c, a) and not any(
        lt(c, e) and lt(e, a) for e in lat.elements())) for a in lat.elements())


#: each catalogue lattice as its size and its cover pairs (c, a), c < a
ORDERS = {name: (lat.n, [(c, a) for a, covers in enumerate(
              covers_by_definition(lat)) for c in covers])
          for name, lat in ((name, make()) for name, make in
                            models.LATTICES.items())}


def cover_pairs_by_scan(lat):
    """Oracle: `Lattice.cover_pairs` by the scan of every pair (c, a), a
    cover when the interval up(c) & down(a) has two elements, a sorted by
    down-set bitmask and c in index order."""
    ups = [sum(1 << b for b in lat.elements() if lat.le(a, b))
           for a in lat.elements()]
    downs = lat.down_masks
    return tuple((c, a) for a in sorted(lat.elements(), key=downs.__getitem__)
                 for c, up in enumerate(ups)
                 if (up & downs[a]).bit_count() == 2)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_cover_pairs_match_the_scan_of_every_pair(name):
    # `build_lattice` picks the covers out of its pairs: given the covers,
    # the whole order (reflexive pairs too), or both shuffled with repeats
    n, covers = ORDERS[name]
    made = models.LATTICES[name]()
    relation = [(c, a) for c in range(n) for a in range(n) if made.le(c, a)]
    mixed = covers + relation + covers
    random.Random(name).shuffle(mixed)
    for lat in (made, *(build_lattice(n, pairs)
                        for pairs in (covers, relation, mixed))):
        assert lat.cover_pairs == cover_pairs_by_scan(lat)


def join_irreducibles_by_sweep(lat):
    """Oracle: the elements that are not the join of the elements strictly
    below them, in index order."""
    return tuple(j for j in lat.elements()
                 if lat.join_set(e for e in lat.elements()
                                 if e != j and lat.le(e, j)) != j)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_join_irreducibles_match_the_sweep(name):
    lat = build_lattice(*ORDERS[name])
    assert lat.join_irreducibles() == join_irreducibles_by_sweep(lat)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_bounds_match_the_bound_search(name):
    n, pairs = ORDERS[name]
    leq = closure(n, pairs)
    want = bound_search(leq)
    assert bounds(build_lattice(n, pairs)) == want
    assert build_lattice(n, pairs).leq == tuple(map(tuple, leq))


def build_by_rows(n, pairs):
    """Oracle: `build_lattice` by the definitions on the rows of the
    pairs' closure, after the carrier checks: its first antisymmetry
    failure, its searched bounds, and its covers by the scan of every
    pair."""
    if n < 2:
        raise Degenerate(f"carrier size {n} < 2")
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise NotAPartialOrder(f"pair ({a},{b}) outside carrier "
                                   f"0..{n - 1}")
    leq = closure(n, pairs)
    twins = first_antisymmetry_failure(leq)
    if twins:
        raise NotAPartialOrder("antisymmetry fails on {},{}".format(*twins))
    join, meet, top, bot = bound_search(leq)
    lat = Lattice(n=n, leq=tuple(map(tuple, leq)), join=join, meet=meet,
                  top=top, bot=bot, cover_pairs=None,
                  down_masks=tuple(sum(1 << b for b in range(n) if leq[b][a])
                                   for a in range(n)))
    return dataclasses.replace(lat, cover_pairs=cover_pairs_by_scan(lat))


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_build_lattice_is_the_lattice_of_the_closures_rows(name):
    lat, want = build_lattice(*ORDERS[name]), build_by_rows(*ORDERS[name])
    assert lat == want
    assert lat.geq == want.geq == tuple(zip(*want.leq))
    assert lat.down_masks == want.down_masks
    assert lat.cover_pairs == want.cover_pairs


@pytest.mark.parametrize("n, pairs", [
    (3, [(0, 1), (1, 0)]),
    (4, [(0, 1), (0, 2)]),
    (3, [(0, 1), (1, 3)]),
    (3, [(-1, 0)]),
    (1, []),
    (0, [(0, 1)]),
], ids=["2-cycle", "no-bound", "above-range", "below-range", "n1", "n0"])
def test_build_lattice_fails_as_the_closures_rows_do(n, pairs):
    with pytest.raises(FuzztopError) as want:
        build_by_rows(n, pairs)
    with pytest.raises(FuzztopError) as got:
        build_lattice(n, pairs)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_instances_are_the_searched_lattices():
    for lat in (chain(3), diamond(), pentagon(), m3()):
        assert bounds(lat) == bound_search(lat.leq)


@pytest.mark.parametrize("name", models.names("tiny"))
def test_graded_bounds_match_the_bound_search(name, request, graded_leq):
    # the closure of the graded covers, on every index order and table of
    # the tiny models, is the graded order with its searched bounds and
    # its covers by the scan of every pair
    u = request.getfixturevalue(name)
    cells = u.graded_cells()
    leq = [[graded_leq(u, i, j) for j in cells] for i in cells]
    glat = u.graded_lattice()
    assert glat.leq == tuple(map(tuple, leq))
    assert bounds(glat) == bound_search(leq)
    assert glat.cover_pairs == cover_pairs_by_scan(glat)


NON_LATTICES = {
    "two-maximal": (4, [(0, 1), (0, 2)]),
    "bowtie": (4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
}


@pytest.mark.parametrize("name", sorted(NON_LATTICES))
def test_non_lattices_raise_the_search_message(name):
    n, pairs = NON_LATTICES[name]
    leq = closure(n, pairs)
    with pytest.raises(NotALattice) as searched:
        bound_search(leq)
    with pytest.raises(NotALattice, match=f"^{searched.value}$"):
        build_lattice(n, pairs)


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 0), (1, 2)],                 # 0 and 1 equivalent
    [(0, 3), (3, 0), (1, 2), (2, 1)],         # {0, 3} first, {1, 2} met first
    [(2, 1), (1, 2), (0, 3), (3, 0), (0, 1)],
    [(0, 3), (3, 2), (2, 0)],                 # 0, 2 and 3 equivalent
])
def test_preorders_raise_the_first_antisymmetry_failure(pairs):
    leq = closure(4, pairs)
    a, b = first_antisymmetry_failure(leq)
    with pytest.raises(NotAPartialOrder,
                       match=f"^antisymmetry fails on {a},{b}$"):
        build_lattice(4, pairs)


# ---- graded up-sets ----------------------------------------------------------


# the ids these tests had before the catalogue, kept so that no id changes
PARENT_IDS = {"diamond_2pt": "diamond-2pt", "chain4_luk_2pt": "chain4-2pt"}


@pytest.mark.parametrize("name", models.names("tiny") + models.names("small"),
                         ids=PARENT_IDS.get)
def test_graded_above_matches_the_comprehension(name, request,
                                               above_by_comprehension):
    # each row of the graded lattice, less its own cell, is the cells
    # above that cell
    u = request.getfixturevalue(name)
    rows = u.graded_lattice().leq
    assert tuple(tuple(gj for gj, le in enumerate(row) if le and gj != gi)
                 for gi, row in enumerate(rows)) == above_by_comprehension(u)


# ---- N4 ------------------------------------------------------------------


def n4_by_points(nb, above):
    """Oracle: N4's first failure, each candidate's set tested against
    gi's grade point by point; `above` is the graded order in full."""
    u, tabs = nb.universe, nb.tables
    lat, points = u.lattice, u.ground.points()
    candidates = [[gj for gj in (gi, *above[gi])
                   if all(lat.le(u.sets[gj // u.n][q], tabs[q][gi])
                          for q in points)]
                  for gi in u.graded_cells()]
    for p in points:
        for gi in u.graded_cells():
            if not lat.le(tabs[p][gi], lat.join_set(tabs[p][gj]
                                                    for gj in candidates[gi])):
                return {"p": p, "cell": u.gpair(gi)}
    return None


def n4_witness(nb):
    v = check_nbhd(nb).verdicts["N4"]
    return v.witness if v.status == "fail" else None


def single_cell_mutants(rng, tables, values, count):
    """`count` systems, each `tables` with one cell of one point's table
    set to another value at random."""
    for _ in range(count):
        p = rng.randrange(len(tables))
        tab = list(tables[p])
        k = rng.randrange(len(tab))
        tab[k] = rng.choice([v for v in range(values) if v != tab[k]])
        yield tables[:p] + (tuple(tab),) + tables[p + 1:]


@pytest.mark.parametrize("name", ["u22", "u32_godel", "u32_luk",
                                  "u32_godel_reindexed", "diamond_2pt",
                                  "chain4_luk_2pt"],
                         ids=PARENT_IDS.get)
def test_n4_matches_the_per_point_sweep(name, request,
                                       above_by_comprehension):
    u = request.getfixturevalue(name)
    above = above_by_comprehension(u)
    # seeded by the test id
    rng, lat = random.Random(PARENT_IDS.get(name, name)), u.lattice
    failed = 0
    for _ in range(4):
        seed = [rng.randrange(lat.n) if rng.random() < 0.3 else lat.bot
                for _ in range(u.n_sets)]
        nb = generate_topology(u, seed).nbhd
        assert n4_witness(nb) == n4_by_points(nb, above)
        for tables in single_cell_mutants(rng, nb.tables, lat.n, 25):
            mut = NbhdSystem(universe=u, tables=tables)
            want = n4_by_points(mut, above)
            failed += want is not None
            assert n4_witness(mut) == want
    assert failed  # the mutants reach N4's failing branch


# ---- laziness --------------------------------------------------------------


def test_topology_checks_leave_the_pointwise_order_unbuilt():
    u = models.build("u28")
    lat = u.lattice
    assert u.n_sets == 256
    rng = random.Random(256)
    seed = [rng.randrange(2) if rng.random() < 0.3 else 0
            for _ in range(u.n_sets)]
    assert check_topology(generate_topology(u, seed)).passed
    assert "pw_leq" not in u.__dict__


def test_graded_gl_leaves_the_pointwise_order_unbuilt():
    # the graded lattice is the closure of the graded covers, so the
    # battery reads no row of `pw_leq`
    u = models.build("u23")
    assert check_graded_gl(u).passed
    assert "pw_leq" not in u.__dict__


def test_nbhd_check_leaves_the_graded_up_sets_unbuilt(monkeypatch):
    # N4 needs no candidate list and N1 holds on the covers, so a passing
    # check_nbhd builds no row of the graded order: it keeps the graded
    # covers alone and never asks for the graded lattice
    u = models.build("u32_godel")
    lat = u.lattice
    built = []
    monkeypatch.setattr(type(u), "graded_lattice",
                        lambda self: built.append(self))
    discrete = Topology(universe=u, table=(lat.top,) * u.n_sets)
    assert check_nbhd(discrete.nbhd).passed
    assert built == []
    assert {name for name in vars(u) if name.startswith("graded")} == {
        "graded_size", "graded_covers"}
