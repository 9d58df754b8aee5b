"""`closure.enumerate_closed`, canonical Close-by-One with inherited
witnesses, against the engines it replaced: close every (member, cell,
join-irreducible) triple and drop the tables already seen, and plain
canonical Close-by-One, which closes every candidate.  The canonical engine
keeps no visited set, so a broken canonicity test shows up as a table listed
twice or as one missed, and a witness that refutes too much as one missed.
Also `closure.close` against the fixpoint loop over every ordered pair, on
random symmetric rules, and the stop cell it names."""

import dataclasses
import hashlib
import random
import sys
from functools import partial
from pathlib import Path

import pytest

import fuzztop
from fuzztop import closure, filters, topology
from fuzztop.closure import close
from fuzztop.errors import SizeLimit, require_int
from fuzztop.filters import enumerate_filters
from fuzztop.instances import chain, diamond
from fuzztop.topology import enumerate_topologies

import models


def enumerate_closed_visited(lattice, least, rules, cap, what, above=None,
                             stop=()):
    """Oracle: `enumerate_closed` by a visited set.  Every member is closed
    once per (cell, join-irreducible) it does not hold, and the children
    not seen before are explored."""
    if least is None:
        return []
    join, le = lattice.join, lattice.leq
    irreducibles = lattice.join_irreducibles()
    cells = [cell for cell in range(len(least)) if cell not in stop]
    seen = {least}
    stack = [least]
    closures = 1
    while stack:
        parent = stack.pop()
        for cell in cells:
            v = parent[cell]
            for j in irreducibles:
                if le[j][v]:
                    continue
                closures += 1
                if closures > cap:
                    raise SizeLimit(f"{what} enumeration exceeded cap {cap} "
                                    f"closures")
                table = list(parent)
                table[cell] = join[v][j]
                if close(table, lattice, rules, [cell], above,
                         stop) is None:
                    child = tuple(table)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return sorted(seen)


def enumerate_closed_cbo(lattice, least, rules, cap, what, above=None,
                         stop=(), counted=None):
    """Oracle: `enumerate_closed` by plain canonical Close-by-One, which
    closes every candidate and hands nothing down.  `counted`, a list when
    given, gets the number of closures computed, the least table's
    included."""
    require_int(cap, f"{what} enumeration cap")
    if cap < 1:
        raise SizeLimit(f"{what} enumeration exceeded cap {cap} closures")
    if least is None:
        return []
    join, le = lattice.join, lattice.leq
    irreducibles = lattice.join_irreducibles()
    attributes = []
    for cell in range(len(least)):
        if cell not in stop:
            guard = frozenset(range(cell)).union(stop)
            attributes += [(cell, j, irreducibles[:i], guard)
                           for i, j in enumerate(irreducibles)]
    found = [least]
    stack = [(least, 0)]
    closures = 1
    while stack:
        parent, start = stack.pop()
        for a in range(start, len(attributes)):
            cell, j, earlier, guard = attributes[a]
            v = parent[cell]
            if le[j][v]:
                continue
            closures += 1
            if closures > cap:
                raise SizeLimit(f"{what} enumeration exceeded cap {cap} "
                                f"closures")
            table = list(parent)
            table[cell] = join[v][j]
            if close(table, lattice, rules, [cell], above, guard) is not None:
                continue
            w = table[cell]
            if any(le[e][w] and not le[e][v] for e in earlier):
                continue
            child = tuple(table)
            found.append(child)
            stack.append((child, a + 1))
    if counted is not None:
        counted.append(closures)
    return sorted(found)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# the ids these tests had before the catalogue, kept so that no id changes
PARENT_IDS = {"u31_godel": "u31-goedel", "u31_luk": "u31-lukasiewicz",
              "u32_godel": "u32-goedel", "u32_luk": "u32-lukasiewicz",
              "diamond_1pt": "diamond-1pt",
              "chain4_godel_1pt": "chain4-1pt-goedel",
              "chain4_luk_1pt": "chain4-1pt-lukasiewicz"}

FAMILIES = {"filters": (filters, enumerate_filters),
            "topologies": (topology, enumerate_topologies)}


def tables(members):
    return [m.table for m in members]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", models.CENSUS, ids=PARENT_IDS.get)
def test_enumeration_matches_visited_set_oracle(name, family, request,
                                                monkeypatch):
    u = request.getfixturevalue(name)
    module, enumerate_family = FAMILIES[family]
    got = tables(enumerate_family(u))
    assert len(got) == len(set(got)), "a member is listed twice"
    monkeypatch.setattr(module, "enumerate_closed", enumerate_closed_visited)
    assert got == tables(enumerate_family(u))


def counting_closures(monkeypatch):
    """Count the `close` calls `enumerate_closed` makes, one per element of
    the returned list."""
    calls = []

    def counted(*args):
        calls.append(None)
        return close(*args)

    monkeypatch.setattr(closure, "close", counted)
    return calls


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", models.CENSUS, ids=PARENT_IDS.get)
def test_inherited_witnesses_only_skip_closures(name, family, request,
                                                monkeypatch):
    # the witnesses refute a candidate without closing it, but the kernel
    # meets the same candidates as plain Close-by-One, which closes each:
    # the same listing, the same cap, and no more closures
    u = request.getfixturevalue(name)
    module, enumerate_family = FAMILIES[family]
    counted = []
    monkeypatch.setattr(module, "enumerate_closed",
                        partial(enumerate_closed_cbo, counted=counted))
    want = tables(enumerate_family(u))
    monkeypatch.setattr(module, "enumerate_closed", closure.enumerate_closed)
    count, = counted
    calls = counting_closures(monkeypatch)
    assert tables(enumerate_family(u)) == want
    assert len(calls) + 1 <= count  # the least table's closure is the first
    with pytest.raises(SizeLimit):
        enumerate_family(u, cap=count - 1)
    assert tables(enumerate_family(u, cap=count)) == want


# the closures computed, the least table's included, and the candidates the
# cap counts, which plain Close-by-One closes each: a kernel that never
# refutes a candidate, or hands no witness down, computes more.  The filters
# close on the sets (`Universe.filter_carrier`); on the graded cells they
# took 78, 70, 914 and 971 closures of 271, 277, 5,724 and 11,661
@pytest.mark.parametrize("name, family, closures, candidates", [
    ("u32_godel", "filters", 50, 91),
    ("u32_godel", "topologies", 585, 1002),
    ("u32_luk", "filters", 42, 93),
    ("u32_luk", "topologies", 394, 832),
    ("diamond_2pt", "filters", 830, 1380),
    ("chain4_luk_2pt", "filters", 845, 2916),
], ids=["u32-goedel-filters", "u32-goedel-topologies",
        "u32-lukasiewicz-filters", "u32-lukasiewicz-topologies",
        "diamond-2pt-filters", "chain4-2pt-lukasiewicz-filters"])
def test_inherited_witnesses_pin_the_closures(name, family, closures,
                                              candidates, request,
                                              monkeypatch):
    u = request.getfixturevalue(name)
    enumerate_family = FAMILIES[family][1]
    calls = counting_closures(monkeypatch)
    assert enumerate_family(u, cap=candidates)
    assert len(calls) + 1 == closures
    with pytest.raises(SizeLimit):
        enumerate_family(u, cap=candidates - 1)


def digest(members):
    """sha256 of the repr of the sorted list of member tables."""
    return hashlib.sha256(repr(tables(members)).encode()).hexdigest()


# the sorted filter tables as the visited-set engine listed them, which
# takes 1.5 s (diamond_2pt) and 4 s (chain4_luk_2pt)
@pytest.mark.parametrize("name, count, sha256", [
    ("diamond_2pt", 225,
     "ad3eed58543d8f9505e8e826d4d70a3687362dcf3290f5ff64e75cc8a3a1aeb0"),
    ("chain4_luk_2pt", 532,
     "f8858e35d3ec737e17eda1e3ed290d28fa9ac343046bcb81483efbf5a10fc8d2"),
], ids=["diamond-2pt", "chain4-2pt-lukasiewicz"])
def test_next_tier_filters(name, count, sha256, request):
    found = enumerate_filters(request.getfixturevalue(name))
    assert len(found) == count
    assert len(set(tables(found))) == count
    assert digest(found) == sha256


# ---- close against the all-pairs fixpoint ---------------------------------

def close_by_passes(table, join, rules, above):
    """Oracle: fire the unary rule and every rule on every ordered pair of
    cells until a pass changes nothing."""
    table = list(table)
    cells = range(len(table))
    changed = True
    while changed:
        changed = False
        for x in cells:
            for k in above[x]:
                w = join[table[k]][table[x]]
                changed |= w != table[k]
                table[k] = w
            for target, op in rules:
                for y in cells:
                    k = target[x][y]
                    w = join[table[k]][op[table[x]][table[y]]]
                    changed |= w != table[k]
                    table[k] = w
    return table


def bot_zero_ops(lat):
    """Monotone symmetric operations with bot as their zero, as `close`
    requires: the meet, and one that exceeds both of its arguments when
    neither is bot (the sum capped at top on a chain, top elsewhere)."""
    n, bot = lat.n, lat.bot
    if lat.leq == chain(n).leq:
        rise = [[min(n - 1, a + b) for b in range(n)] for a in range(n)]
    else:
        rise = [[lat.top] * n for _ in range(n)]
    return [lat.meet, tuple(tuple(bot if bot in (a, b) else rise[a][b]
                                  for b in range(n)) for a in range(n))]


def random_rules(rng, lat, size):
    """One or two rules with random symmetric targets, each firing one of
    `bot_zero_ops`."""
    ops = bot_zero_ops(lat)
    rules = []
    for _ in range(rng.randint(1, 2)):
        target = [[0] * size for _ in range(size)]
        for x in range(size):
            for y in range(x + 1):
                target[x][y] = target[y][x] = rng.randrange(size)
        rules.append((target, rng.choice(ops)))
    return rules


def reclosings(seed, lat, rules, above):
    """How many times `close` from `seed` re-closes a cell it visited: the
    first sweep reads each visited cell's `above` row once, and each
    re-closing reads it again."""
    visits = []

    class Rows(list):
        def __getitem__(self, x):
            visits.append(x)
            return list.__getitem__(self, x)

    close(list(seed), lat, rules, above=Rows(above))
    return len(visits) - len(set(visits))


def test_close_reaches_the_all_pairs_fixpoint(close_by_index):
    # a cell can raise itself on its own visit here, which no filter or
    # topology rule does: its pairs with the cells before it must be fired
    # again with the raised value.  A cell can also be raised after its
    # visit: by the capped sum, and on the diamond by a cell whose value is
    # the other atom, so the first sweep must leave it dirty.  The first
    # sweep stops once every cell is at top, which a seed at top hastens, so
    # the seeds lie below top and there are 800 of them: about 70 closures
    # on the 4-chain and 110 on the diamond still re-close a cell
    for lat in (chain(4), diamond()):
        check_close_on(lat, close_by_index)


def check_close_on(lat, close_by_index):
    rng = random.Random(7)
    below_top = [a for a in lat.elements() if a != lat.top]
    raised_itself = raised_again = 0
    for _ in range(800):
        size = rng.randint(2, 7)
        rules = random_rules(rng, lat, size)
        above = [rng.sample(range(size), rng.randint(0, 2))
                 for _ in range(size)]
        seed = [rng.choice(below_top) for _ in range(size)]
        want = close_by_passes(seed, lat.join, rules, above)
        table = list(seed)
        assert close(table, lat, rules, above=above) is None
        assert table == want
        table = list(seed)
        assert close_by_index(table, lat.join, rules, above=above)
        assert table == want
        raised_itself += any(want[x] != seed[x] and target[x][y] == x
                             for target, _ in rules
                             for x in range(size) for y in range(x))
        raised_again += reclosings(seed, lat, rules, above) > 0
        # from a closed table, with the raised cells dirty
        table = list(want)
        dirty = rng.sample(range(size), rng.randint(1, size))
        for k in dirty:
            table[k] = lat.join[table[k]][rng.randrange(lat.n)]
        want = close_by_passes(table, lat.join, rules, above)
        assert close(table, lat, rules, list(dirty), above) is None
        assert table == want
    assert raised_itself > 50, lat
    assert raised_again > 50, lat


class CountingRows:
    """A join table that counts its row lookups, one per rule firing."""

    def __init__(self, join):
        self.join, self.count = join, 0

    def __getitem__(self, a):
        self.count += 1
        return self.join[a]


def counting(lat):
    """`lat` with its join table counting row lookups."""
    return dataclasses.replace(lat, join=CountingRows(lat.join))


def saturated_cells_rows(u, above, rules):
    """The join rows read by closing each single graded cell of `u`, at
    top, under the graded filter rules with the unary rule `above`."""
    lat = counting(u.lattice)
    for gi in u.graded_cells():
        table = [lat.bot] * u.graded_size
        table[gi] = lat.top
        close(table, lat, rules, above=above)
    return lat.join.count


def test_first_sweep_requeues_only_visited_cells(u32_godel,
                                                 above_by_comprehension,
                                                 graded_filters):
    # the first sweep visits the live cells, highest rank first, and a cell
    # raised before its visit is visited once, with its raised value, not
    # queued again: saturating each single cell of u32_godel at top, with
    # the whole graded order as the unary rule, fires 1,724 rules, against
    # 16,155 for the index-order sweep over every cell (`close_by_index`,
    # which does not stop at the all-top table)
    u = u32_godel
    assert saturated_cells_rows(u, above_by_comprehension(u),
                                graded_filters.rules(u)) == 1724


def test_saturation_reads_fewer_rows_on_the_covers(u32_godel, graded_filters):
    # the graded covers, the graded carrier's unary rule, reach the same
    # fixpoints (test_saturation_on_the_covers_is_the_closure_of_the_order)
    # in 1,692 rows
    u = u32_godel
    assert saturated_cells_rows(u, u.graded_covers,
                                graded_filters.rules(u)) == 1692


@pytest.mark.parametrize("name", models.names("tiny") + models.names("small"))
def test_saturation_on_the_covers_is_the_closure_of_the_order(
        name, request, above_by_comprehension, graded_filters):
    # the lemmas of the `filters` docstring: a table is monotone iff it is
    # monotone on the covers, and a unit-top tensor makes the closure
    # constant along the grades, so `saturate`, which closes over the
    # covers of its carrier, gives the fixpoint of the whole graded order,
    # feasible or not
    u = request.getfixturevalue(name)
    lat, above = u.lattice, above_by_comprehension(u)
    rng = random.Random(name)
    top_row = range(u.one_idx * u.n, (u.one_idx + 1) * u.n)
    infeasible = 0
    for density in [0.02, 0.1, 0.3] * 4:
        seed = [rng.randrange(lat.n) if rng.random() < density else lat.bot
                for _ in u.graded_cells()]
        want = [lat.top if gi in top_row else v for gi, v in enumerate(seed)]
        close(want, lat, graded_filters.rules(u), above=above)
        got = filters.saturate(u, seed)
        infeasible += isinstance(got, filters.NoFilterAbove)
        assert list(got.table) == want
    assert infeasible < 12


def check_stop_witness(lat, fresh):
    """On random rules and `stop` sets, `close` refuses exactly when the
    fixpoint raises a cell in `stop`, and then names such a cell, raised
    above its input and no higher than its fixpoint value."""
    rng = random.Random(11)
    le = lat.leq
    refused = 0
    for _ in range(400):
        size = rng.randint(2, 7)
        rules = random_rules(rng, lat, size)
        above = [rng.sample(range(size), rng.randint(0, 2))
                 for _ in range(size)]
        seed = [rng.randrange(lat.n) for _ in range(size)]
        if fresh:
            dirty = None
        else:
            # a closed table from a sparse seed, so raising it may still
            # raise a cell in `stop`
            seed = close_by_passes([v if rng.random() < 0.3 else lat.bot
                                    for v in seed],
                                   lat.join, rules, above)
            dirty = rng.sample(range(size), rng.randint(1, 2))
            for k in dirty:
                seed[k] = lat.join[seed[k]][rng.randrange(lat.n)]
        want = close_by_passes(seed, lat.join, rules, above)
        stop = set(rng.sample(range(size), rng.randint(1, size - 1)))
        table = list(seed)
        k = close(table, lat, rules, dirty, above, stop)
        if k is None:
            assert table == want
            assert all(want[c] == seed[c] for c in stop)
        else:
            refused += 1
            assert k in stop
            assert table[k] != seed[k] and le[seed[k]][table[k]]
            assert le[table[k]][want[k]]
    assert 50 < refused < 350, lat


@pytest.mark.parametrize("lat", [chain(4), diamond()],
                         ids=["chain4", "diamond"])
def test_a_fresh_closure_names_the_stop_cell_it_raised(lat):
    check_stop_witness(lat, fresh=True)


@pytest.mark.parametrize("lat", [chain(4), diamond()],
                         ids=["chain4", "diamond"])
def test_a_dirty_closure_names_the_stop_cell_it_raised(lat):
    check_stop_witness(lat, fresh=False)


def test_first_sweep_stops_at_top_after_the_stop_checks():
    # the visit of cell 0 raises cell 1 to top, so every cell is at top;
    # a raised cell in `stop` still makes the closure infeasible
    lat = chain(2)
    rules = [(((1, 1), (1, 1)), lat.meet)]
    table = [1, 0]
    assert close(table, lat, rules) is None and table == [1, 1]
    assert close([1, 0], lat, rules, stop={1}) == 1


@pytest.fixture(scope="module")
def batteries_large_seeds():
    """The seed gradings of the 243- and 256-set universes of the
    batteries benchmark at seed 1."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import batteries
        return batteries.make_inputs(fuzztop, 1)["large"]
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name, bench", [("u35_godel", "chain3-5pt"),
                                         ("u28", "chain2-8pt")],
                         ids=["chain3-5pt", "chain2-8pt"])
def test_generated_topology_by_levels_on_the_large_universes(
        name, bench, request, batteries_large_seeds):
    # the meet tensor's level pass against `close`, from the benchmark's
    # seed and from sparse random ones, whose topologies are far from
    # discrete
    u = request.getfixturevalue(name)
    lat, rng = u.lattice, random.Random(bench)
    seeds = [batteries_large_seeds[bench]] + [
        [rng.randrange(lat.n) if rng.random() < density else lat.bot
         for _ in range(u.n_sets)] for density in (0.01, 0.02, 0.05)]
    for seed in seeds:
        table = list(seed)
        table[u.one_idx] = table[u.zero_idx] = lat.top
        close(table, lat, topology._rules(u))
        assert list(topology.generate_topology(u, seed).table) == table


# each unordered pair of the live sets fires at most once per rule: every
# set of both generated topologies is live, so at most 2 * (243 * 244 / 2)
# and 2 * (256 * 257 / 2) firings, against the index-order sweep's
# re-closings.  chain3-5pt fires every pair; chain2-8pt reaches the all-top
# table, the discrete topology, after 34,410 of its 65,792 and stops.  The
# benchmark names the two universes chain3-5pt and chain2-8pt
@pytest.mark.parametrize("name, bench, pairs", [
    ("u35_godel", "chain3-5pt", 59_292),
    ("u28", "chain2-8pt", 34_410),
], ids=["chain3-5pt", "chain2-8pt"])
def test_generated_topology_fires_each_live_pair_once(
        name, bench, pairs, request, batteries_large_seeds, close_by_index):
    u = request.getfixturevalue(name)
    lat = u.lattice
    table = list(batteries_large_seeds[bench])
    table[u.one_idx] = table[u.zero_idx] = lat.top
    want = list(table)
    close_by_index(want, lat.join, topology._rules(u))
    counted = counting(lat)
    close(table, counted, topology._rules(u))
    assert table == want == list(topology.generate_topology(
        u, batteries_large_seeds[bench]).table)
    assert counted.join.count == pairs
