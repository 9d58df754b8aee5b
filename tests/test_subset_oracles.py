"""The subset sweeps behind the pairwise axiom checks, kept as oracles.

`fuzztop` decides each law over arbitrary joins or meets (infinite
distributivity, GL and co-GL distributivity, o3 and I6) on the empty family
and on pairs, which on a finite model is the same law.  The oracles here
decide the laws by their definition, over every subset, and the tests assert
that both give the same verdict status on lattices, on random and mutated
tensors and cotensors, and on random, generated and mutated grade and
interior tables.  The co-GL battery, which runs the GL laws on the reversed
order, is checked against all seven laws written in the lattice's own
order.  Every loop is seeded, so a failure reproduces.
"""

import itertools
import random

import pytest

from fuzztop.instances import (chain, diamond, join_cotensor,
                               lukasiewicz_tensor, meet_tensor)
from fuzztop.lattice import check_infinite_distributivity
from fuzztop.residuated import Tensor, check_co_gl_monoid, check_gl_monoid
from fuzztop.topology import (InteriorOp, Topology, check_interior,
                              check_topology, generate_topology,
                              interior_from_topology)

import models


def subsets(n):
    """All subsets of range(n) as lists, the empty set first."""
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def status(ok):
    return "pass" if ok else "fail"


def distributivity_by_subsets(lat):
    """Both infinite-distributivity laws over every subset A and element x:
    (join A) meet x == join {a meet x}, and dually."""
    return {axiom: status(all(inner(agg(A), x) == agg([inner(a, x) for a in A])
                              for A in subsets(lat.n) for x in lat.elements()))
            for axiom, agg, inner in (
                ("join_meet_distributive", lat.join_set, lat.meet2),
                ("meet_join_distributive", lat.meet_set, lat.join2))}


def monoid_distributivity_by_subsets(kind, t):
    """a (*) join B == join {a (*) b} over every a and subset B, with meets
    in place of joins for a cotensor."""
    lat = t.base
    agg = lat.join_set if kind == "tensor" else lat.meet_set
    return status(all(t.app(a, agg(B)) == agg([t.app(a, b) for b in B])
                      for a in lat.elements() for B in subsets(lat.n)))


def o3_by_subsets(t):
    """o3 over every subset of sets: the meet of the grades is below the
    grade of the join.  Subsets are visited depth-first, each extended from
    its parent by one set, so the 2**16 subsets of u24 stay cheap."""
    u, lat, table = t.universe, t.universe.lattice, t.table
    le, meet, pw_join = lat.leq, lat.meet, u.pw_join
    stack = [(0, lat.top, u.zero_idx)]
    while stack:
        k, grade, joined = stack.pop()
        if not le[grade][table[joined]]:
            return "fail"
        for si in range(k, u.n_sets):
            stack.append((si + 1, meet[grade][table[si]], pw_join[joined][si]))
    return "pass"


def i6_by_subsets(i):
    """I6 over every nonempty subset of grades: an interior constant on the
    subset takes the same value at its join."""
    u, lat = i.universe, i.universe.lattice
    for si in range(u.n_sets):
        for grades in subsets(lat.n):
            values = {i.app(si, a) for a in grades}
            if len(values) == 1 and \
                    i.app(si, lat.join_set(grades)) != values.pop():
                return "fail"
    return "pass"


#: the catalogue's lattices of at most 8 elements, each with 2**n subsets
LATTICES = [(name, lat) for name, lat in ((name, make()) for name, make in
                                          models.LATTICES.items())
            if lat.n <= 8]


def test_distributivity_matches_subset_sweep():
    seen = set()
    for name, lat in LATTICES:
        want = distributivity_by_subsets(lat)
        got = check_infinite_distributivity(lat)
        assert {k: v.status for k, v in got.verdicts.items()} == want, name
        seen.update(want.values())
    assert seen == {"pass", "fail"}


def _operations(lat, rng):
    """(kind, operation) pairs: the standard tensor and cotensor of a
    lattice (and the Lukasiewicz tensor of a chain), their single-cell
    mutants (a seeded sample on the larger carriers), and random tables of
    both kinds."""
    bases = [("tensor", meet_tensor(lat)), ("cotensor", join_cotensor(lat))]
    if lat.n > 2 and all(lat.le(a, a + 1) for a in range(lat.n - 1)):
        bases.append(("tensor", lukasiewicz_tensor(lat)))
    for kind, t in bases:
        yield kind, t
        mutants = [(a, b, v) for a in lat.elements() for b in lat.elements()
                   for v in lat.elements() if v != t.table[a][b]]
        if len(mutants) > 60:
            mutants = rng.sample(mutants, 60)
        for a, b, v in mutants:
            table = [list(row) for row in t.table]
            table[a][b] = v
            yield kind, Tensor(base=lat, table=tuple(map(tuple, table)))
    for kind in ("tensor", "cotensor"):
        for _ in range(10):
            yield kind, Tensor(base=lat, table=tuple(
                tuple(rng.randrange(lat.n) for _ in lat.elements())
                for _ in lat.elements()))


def test_monoid_distributivity_matches_subset_sweep():
    rng = random.Random(20101)
    cases = 0
    seen = set()
    for name, lat in LATTICES:
        for kind, t in _operations(lat, rng):
            if kind == "tensor":
                axiom, rep = "join_distributive", check_gl_monoid(t)
            else:
                axiom, rep = "meet_distributive", check_co_gl_monoid(t)
            want = monoid_distributivity_by_subsets(kind, t)
            assert rep.verdicts[axiom].status == want, (name, kind, t.table)
            seen.add(want)
            cases += 1
    assert cases > 1000 and seen == {"pass", "fail"}


def co_gl_by_definition(t):
    """The seven co-GL laws in the lattice's own order, by definition:
    isotone, commutative, associative, a (+) bot == a, a (+) top == top,
    a (+) meet B == meet {a (+) b} over every subset B, and a <= b admits
    some gamma with a (+) gamma == b."""
    lat, op, le, els = t.base, t.app, t.base.le, t.base.elements()
    laws = {
        "isotone": all(le(op(a, c), op(b, c)) for a in els for b in els
                       if le(a, b) for c in els),
        "commutative": all(op(a, b) == op(b, a) for a in els for b in els),
        "associative": all(op(a, op(b, c)) == op(op(a, b), c)
                           for a in els for b in els for c in els),
        "co_integral": all(op(a, lat.bot) == a for a in els),
        "co_zero": all(op(a, lat.top) == lat.top for a in els),
        "meet_distributive": all(
            op(a, lat.meet_set(B)) == lat.meet_set([op(a, b) for b in B])
            for a in els for B in subsets(lat.n)),
        "co_divisible": all(any(op(a, g) == b for g in els)
                            for a in els for b in els if le(a, b)),
    }
    return {axiom: status(ok) for axiom, ok in laws.items()}


def test_co_gl_battery_matches_the_laws_in_the_lattice_order():
    # criterion 02's cotensor corpus with every single-cell mutant, and the
    # cotensors of _operations on every lattice
    cotensors = []
    for lat in (chain(2), chain(3), diamond()):
        join = join_cotensor(lat).table
        cotensors.append(join_cotensor(lat))
        for a, b, v in itertools.product(lat.elements(), repeat=3):
            if v != join[a][b]:
                table = [list(row) for row in join]
                table[a][b] = v
                cotensors.append(Tensor(base=lat,
                                        table=tuple(map(tuple, table))))
    rng = random.Random(20101)
    for _, lat in LATTICES:
        cotensors += [t for kind, t in _operations(lat, rng)
                      if kind == "cotensor"]
    seen = {}
    for t in cotensors:
        want = co_gl_by_definition(t)
        got = check_co_gl_monoid(t).verdicts
        assert list(got) == list(want)
        assert {axiom: v.status for axiom, v in got.items()} == want, t.table
        for axiom, verdict in want.items():
            seen.setdefault(axiom, set()).add(verdict)
    assert len(cotensors) > 500
    assert all(verdicts == {"pass", "fail"} for verdicts in seen.values())


@pytest.fixture(scope="module")
def universes(request):
    """The grade and interior table families' universes; o3 over every
    subset of sets visits 2**16 subsets on the 16-set ones."""
    return {name: request.getfixturevalue(name) for name in (
        "u22", "u23", "u24", "u31_godel", "u31_luk", "u32_godel", "u32_luk",
        "diamond_1pt", "diamond_2pt", "chain4_godel_1pt", "chain4_luk_1pt")}


def _grade_tables(u, rng, count):
    """Random gradings (mostly with the empty and full sets at top),
    generated topologies, and generated topologies with one cell changed."""
    lat = u.lattice
    for _ in range(count):
        table = [rng.randrange(lat.n) if rng.random() < 0.5 else lat.bot
                 for _ in range(u.n_sets)]
        if rng.random() < 0.8:
            table[u.zero_idx] = table[u.one_idx] = lat.top
        yield table
    for _ in range(count):
        seed = [rng.randrange(lat.n) if rng.random() < 0.2 else lat.bot
                for _ in range(u.n_sets)]
        table = list(generate_topology(u, seed).table)
        yield table
        for _ in range(2):
            mutant = list(table)
            mutant[rng.randrange(u.n_sets)] = rng.randrange(lat.n)
            yield mutant


def test_o3_matches_subset_sweep(universes):
    rng = random.Random(20102)
    cases = 0
    seen = set()
    for name, u in universes.items():
        count = 3 if u.n_sets > 9 else 25
        for table in _grade_tables(u, rng, count):
            t = Topology(universe=u, table=tuple(table))
            want = o3_by_subsets(t)
            assert check_topology(t).verdicts["o3"].status == want, \
                (name, table)
            seen.add(want)
            cases += 1
    assert cases > 800 and seen == {"pass", "fail"}


def _interior_tables(u, rng, count):
    """Random interior tables, each set drawing its values from a pool of
    two sets so that constancy over grades is common, and the interiors of
    generated topologies with and without one cell changed."""
    for _ in range(count):
        table = []
        for _ in range(u.n_sets):
            pool = (rng.randrange(u.n_sets), rng.randrange(u.n_sets))
            table.extend(rng.choice(pool) for _ in range(u.lattice.n))
        yield table
    for table in _grade_tables(u, rng, count):
        derived = list(interior_from_topology(
            generate_topology(u, table)).table)
        yield derived
        derived[rng.randrange(len(derived))] = rng.randrange(u.n_sets)
        yield derived


def test_i6_matches_subset_sweep(universes):
    rng = random.Random(20103)
    cases = 0
    seen = set()
    for name, u in universes.items():
        # on a chain the join of two grades is one of them, so I6 can fail
        # only on the diamond: it gets the most tables
        count = 120 if name.startswith("diamond") else 12
        for table in _interior_tables(u, rng, count):
            i = InteriorOp(universe=u, table=tuple(table))
            want = i6_by_subsets(i)
            assert check_interior(i).verdicts["I6"].status == want, \
                (name, table)
            seen.add(want)
            cases += 1
    assert cases > 1000 and seen == {"pass", "fail"}
