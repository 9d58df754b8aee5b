"""The filter carrier (`Universe.filter_carrier`) against the graded one.

When top is the tensor's unit the filter closures run on the sets, one cell
per set, and lift each result to the graded table; otherwise they run on
the graded cells.  `check_filter` decides a table that is constant along
the grades on the sets, under any tensor.  The graded closures and sweeps
of the `graded_filters` fixture are the oracle (the lemmas are in the
`filters` docstring).
"""

import functools
import hashlib
import random

import pytest

from fuzztop.filters import (FilterTable, NoFilterAbove, check_filter,
                             enumerate_filters, least_filter_above, saturate)
from fuzztop.powerset import Universe

import models

CHECKED = models.names("tiny") + models.names("small")
#: the checked models whose tensor does not have top as its unit
GRADED = {"u32_non_integral": 181, "chain4_cqm_1pt": 29}
UNIT_TOP = [name for name in CHECKED if name not in GRADED]


def unit_is_top(u):
    top = u.lattice.top
    return all(u.tensor.app(top, a) == a for a in u.lattice.elements())


def flat(u, set_values):
    """The graded table that takes each set's value at every grade."""
    return tuple(v for v in set_values for _ in range(u.n))


@functools.cache
def listing(u):
    """`enumerate_filters(u)`, listed once for the tests of this file."""
    return enumerate_filters(u)


@pytest.mark.parametrize("name", CHECKED + models.names("cqm"))
def test_the_carrier_is_the_sets_iff_top_is_the_unit(name, request):
    u = request.getfixturevalue(name)
    width, _, _, stop = u.filter_carrier
    assert (name not in GRADED) == unit_is_top(u)
    assert width == (u.n if unit_is_top(u) else 1)
    assert len(stop) == u.n // width


@pytest.mark.parametrize("name", GRADED)
def test_a_tensor_without_top_as_its_unit_keeps_the_grades(name, request,
                                                           graded_filters):
    # the graded carrier runs for real there, and some filters vary with
    # the grade, so no set carrier could list them
    u = request.getfixturevalue(name)
    assert u.filter_carrier[0] == 1
    found = enumerate_filters(u)
    assert len(found) == GRADED[name]
    assert [(F.table, F.maximal, F.maximal_above) for F in found] \
        == graded_filters.enumerate(u)
    assert any(F.table != flat(u, F.table[::u.n]) for F in found)


@pytest.mark.parametrize("name", UNIT_TOP)
def test_every_filter_is_constant_along_the_grades(name, request):
    u = request.getfixturevalue(name)
    for F in listing(u):
        assert F.table == flat(u, F.table[::u.n])


# diamond_3pt's graded listing needs more than the default cap and 2.5 s:
# its tables, and its maximal flags with the places of the tables of
# `maximal_above`, as the graded closures listed them
DIAMOND_3PT = (3969, 36,
               "ae29367023a5fb1ab0f0878e42688d9b1a5ff0a41bcfd7d07c4af45e7d2275a5",
               "8311155857c49ebc4e722f3d557b2225ea86576766b5ab216f15f56848676e11")


def sha256(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("name", UNIT_TOP)
def test_the_listing_is_the_graded_one(name, request, graded_filters):
    u = request.getfixturevalue(name)
    found = listing(u)
    if name == "diamond_3pt":
        place = {F.table: k for k, F in enumerate(found)}
        assert (len(found), sum(F.maximal for F in found),
                sha256([F.table for F in found]),
                sha256([(F.maximal, [place[T] for T in F.maximal_above])
                        for F in found])) == DIAMOND_3PT
    else:
        assert [(F.table, F.maximal, F.maximal_above) for F in found] \
            == graded_filters.enumerate(u)


def seeds(u, rng, count):
    """Random graded seeds, sparse and dense, some constant along the
    grades."""
    lat = u.lattice
    out = []
    for k in range(count):
        density = (0.02, 0.1, 0.3)[k % 3]
        if k % 2:
            out.append(flat(u, [rng.randrange(lat.n) if rng.random() < density
                                else lat.bot for _ in range(u.n_sets)]))
        else:
            out.append(tuple(rng.randrange(lat.n) if rng.random() < density
                             else lat.bot for _ in u.graded_cells()))
    return out


@pytest.mark.parametrize("name", CHECKED)
def test_the_closures_are_the_graded_ones(name, request, graded_filters):
    # saturate, NoFilterAbove's alpha and table included, least_filter_above
    # and FilterTable.maximal, on seeded random seeds and on listed filters
    u = request.getfixturevalue(name)
    rng = random.Random(name)
    tables = seeds(u, rng, 24)
    listed = listing(u)
    outcomes = set()
    for seed in tables:
        got = saturate(u, seed)
        assert got == graded_filters.saturate(u, seed)
        outcomes.add(type(got))
        F = FilterTable(universe=u, table=seed)
        for extra in seeds(u, rng, 3) + [rng.choice(listed).table]:
            assert least_filter_above(F, extra) \
                == graded_filters.least_filter_above(F, extra)
        if not isinstance(got, NoFilterAbove):
            G = FilterTable(universe=u, table=got.table)
            assert G.maximal == graded_filters.maximal(G)
    assert outcomes == {FilterTable, NoFilterAbove}
    for F in rng.sample(listed, min(len(listed), 12)):
        G = FilterTable(universe=u, table=F.table)
        assert G.maximal == graded_filters.maximal(G) == F.maximal


@pytest.mark.parametrize("name", CHECKED + models.names("cqm"))
def test_check_filter_is_the_graded_sweeps(name, request, graded_filters):
    # on every listed filter, and on seeded random tables constant along
    # the grades: listed filters with one set's value moved, random
    # monotone ones and random ones, failing FF1 and FF2 alike
    u = request.getfixturevalue(name)
    lat = u.lattice
    le = lat.leq
    rng = random.Random(name)
    listed = listing(u)
    # all of diamond_3pt's 3,969 would take the graded sweeps 2 s
    for F in listed if len(listed) < 600 else rng.sample(listed, 600):
        assert check_filter(F).to_dict() \
            == graded_filters.check_filter(F).to_dict()
    tables = []
    for _ in range(60):
        values = list(rng.choice(listed).table[::u.n])
        values[rng.randrange(u.n_sets)] = rng.randrange(lat.n)
        tables.append(values)
    for _ in range(60):
        values = [lat.bot] * u.n_sets
        for si in u.ascending_sets:
            below = [values[sj] for sj in u.lower_covers[si]]
            values[si] = lat.join_set(below + [rng.randrange(lat.n)]) \
                if rng.random() < 0.3 else lat.join_set(below)
        tables.append(values)
    tables += [[rng.randrange(lat.n) for _ in range(u.n_sets)]
               for _ in range(20)]
    failed = set()
    for values in tables:
        F = FilterTable(universe=u, table=flat(u, values))
        got = check_filter(F).to_dict()
        assert got == graded_filters.check_filter(F).to_dict()
        failed |= {k for k, v in got["verdicts"].items()
                   if v["status"] == "fail"}
    # on one point of a chain under the meet, f meet g is f or g, so no
    # table fails FF2
    chain = all(le[a][b] or le[b][a] for a in lat.elements()
                for b in lat.elements())
    meet = u.tensor.table == lat.meet
    assert failed >= ({"FF1"} if u.ground.m == 1 and chain and meet
                      else {"FF1", "FF2"})


def test_a_passing_table_constant_along_the_grades_reads_no_graded_pair(
        monkeypatch):
    # listing, saturating and checking the filters of a unit-top universe
    # builds neither the graded covers nor boxtimes, and the graded sweeps
    # run only for a table that fails on the sets
    u = models.build("u32_luk")
    sweeps = []
    for name in ("decreasing_cells", "unstable_cells"):
        def counting(self, *args, name=name, sweep=getattr(Universe, name)):
            sweeps.append(name)
            return sweep(self, *args)
        monkeypatch.setattr(Universe, name, counting)
    found = enumerate_filters(u)
    for F in found:
        assert check_filter(F).passed
        assert saturate(u, F.table) == F
    assert sweeps == []
    assert "graded_covers" not in vars(u) and "box_table" not in vars(u)
    # a listed filter with one set lowered to bot fails FF1 alone, or FF2
    # alone, and only that axiom's sweep runs
    moved = []
    for F in found:
        for si in range(u.n_sets):
            values = list(F.table[::u.n])
            values[si] = u.lattice.bot
            moved.append(FilterTable(universe=u, table=flat(u, values)))
    for axiom, sweep in (("FF1", "decreasing_cells"),
                         ("FF2", "unstable_cells")):
        G = next(G for G in moved if set(check_filter(G).failures()) == {axiom})
        sweeps.clear()
        check_filter(G)
        assert sweeps == [sweep]
