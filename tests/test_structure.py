"""The topology census at L = 2 against a structure theorem, built apart
from the kernel's closures.

With L = 2 a graded topology on n points is a classical topology, and a
finite topology is the set of up-sets of one preorder on the points, a
different preorder for each (Alexandrov; Birkhoff, "Rings of sets", 1937).
So the topologies of u21 to u24 are the up-set families of the preorders on
1 to 4 points, counted by OEIS A000798: 1, 4, 29 and 355.  On the 2-chain
the tensor is the meet and top its one join-irreducible, so
`generate_topology` builds the least topology above a seed in one level:
the sublattice of sets the seed's top cut generates.  The least preorder
topology above the seed is the same family, found here without the
kernel's closures.  On 5 points, where a plain loop over the 2**20
relations would take minutes, the preorders are grown one point at a time
(`grown_preorders`), and u25 lists the 6,942 of A000798.
"""

import itertools

import pytest

import models
from fuzztop.topology import (Topology, check_topology, enumerate_topologies,
                              generate_topology)


def preorders(n):
    """Every reflexive and transitive relation on n points, as a set of
    pairs, by a plain loop over the relations."""
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    for bits in itertools.product((False, True), repeat=len(off)):
        rel = {(x, x) for x in range(n)} | set(itertools.compress(off, bits))
        if all((x, z) in rel for x, y in rel for w, z in rel if y == w):
            yield rel


def grown_preorders(n):
    """Every preorder on n points, as a set of pairs, grown one point at a
    time.  A preorder R on the points before k extends to k by the set U
    of points above k and the set D of points below it, and the extension
    is transitive iff U is an up-set of R, D a down-set of R and every
    point of D lies below every point of U: a chain x <= y <= z through k
    is k <= y <= z (U an up-set), x <= y <= k (D a down-set) or
    x <= k <= z (x in D, z in U), and one that misses k is R's.  Each
    preorder on k + 1 points restricts to one on k, so every one is met,
    once per (U, D)."""
    orders = [set()]
    for k in range(n):
        subsets = [set(c) for r in range(k + 1)
                   for c in itertools.combinations(range(k), r)]
        grown = []
        for rel in orders:
            ups = [s for s in subsets if all(y in s for x, y in rel if x in s)]
            downs = [s for s in subsets
                     if all(x in s for x, y in rel if y in s)]
            grown += [rel | {(k, k)} | {(k, y) for y in up}
                      | {(x, k) for x in down}
                      for up in ups for down in downs
                      if all((x, y) in rel for x in down for y in up)]
        orders = grown
    return orders


def upset_table(u, rel):
    """The grade table of the topology whose opens are the up-sets of
    `rel`: top on a set whose members (points at top) are closed upward."""
    lat = u.lattice
    return tuple(lat.top if all(f[y] == lat.top for x, y in rel
                                if f[x] == lat.top) else lat.bot
                 for f in u.sets)


@pytest.mark.parametrize("name, points, count", [("u21", 1, 1),
                                                 ("u22", 2, 4),
                                                 ("u23", 3, 29),
                                                 ("u24", 4, 355)])
def test_topologies_are_the_preorders_upsets(name, points, count, request):
    u = request.getfixturevalue(name)
    classical = {upset_table(u, rel) for rel in preorders(points)}
    assert len(classical) == count
    assert {t.table for t in enumerate_topologies(u)} == classical


@pytest.mark.parametrize("name, points", [("u22", 2), ("u23", 3),
                                          ("u24", 4)])
def test_generated_topology_is_the_least_preorder_topology(name, points,
                                                           request):
    # the least topology above a set, or a pair of sets, is the pointwise
    # meet of the preorder topologies that hold them
    u = request.getfixturevalue(name)
    lat = u.lattice
    classical = [upset_table(u, rel) for rel in preorders(points)]
    for opens in itertools.combinations_with_replacement(range(u.n_sets),
                                                         2):
        seed = [lat.top if si in opens else lat.bot
                for si in range(u.n_sets)]
        above = [t for t in classical if all(t[si] == lat.top
                                             for si in opens)]
        want = tuple(map(lat.meet_set, zip(*above)))
        assert generate_topology(u, seed).table == want


@pytest.mark.parametrize("points", [1, 2, 3, 4])
def test_grown_preorders_are_the_preorders(points):
    grown = list(map(frozenset, grown_preorders(points)))
    assert len(grown) == len(set(grown))
    assert set(grown) == set(map(frozenset, preorders(points)))


def test_topologies_on_five_points_are_the_preorders_upsets():
    # OEIS A000798 at n = 5; each up-set table passes `check_topology` on
    # the level test, which reads neither pointwise table, so it is
    # checked on a fresh universe before the listing builds them
    u = models.build("u25")
    classical = {upset_table(u, rel) for rel in grown_preorders(5)}
    assert len(classical) == 6942
    for table in classical:
        assert check_topology(Topology(universe=u, table=table)).passed
    assert not {"pw_tensor", "pw_join"} & set(vars(u))
    assert {t.table for t in enumerate_topologies(u)} == classical
