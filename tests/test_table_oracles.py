"""The Universe tables, built by prepending a leading digit per point,
against the per-pair construction they replaced: apply the one-point
operation at every point, then look the resulting tuple up in `set_index`;
and the down-set codes of the sets against their definition.
Also the order axioms FF1, I1, N1 and N4, which read the graded order,
against sweeps over every pair of cells filtered by the definition
`graded_leq`, and the cell axioms I0, I3-I6, N0 and N3, which read the
tables directly, against the `InteriorOp.app` and `NbhdSystem.at` calls
per cell they replaced."""

import random

import pytest

from fuzztop.filters import FilterTable, check_filter, enumerate_filters
from fuzztop.topology import (InteriorOp, NbhdSystem, check_interior,
                              check_nbhd, enumerate_topologies,
                              interior_from_topology, nbhd_from_interior)

import models
from test_sweep_oracles import first, witness


def by_pairs(u, op):
    """Oracle: the pointwise table of `op`, one tuple and lookup per pair."""
    pts = u.ground.points()
    return tuple(tuple(u.set_index[tuple(op(f[p], g[p]) for p in pts)]
                       for g in u.sets) for f in u.sets)


def leq_by_pairs(u):
    le = u.lattice.le
    return tuple(tuple(all(le(f[p], g[p]) for p in u.ground.points())
                       for g in u.sets) for f in u.sets)


# the ids these tests had before the catalogue, kept so that no id changes
PARENT_IDS = {"u32_luk": "u32-lukasiewicz", "diamond_3pt": "diamond-3pt",
              "chain4_luk_2pt": "chain4-lukasiewicz-2pt",
              "u32_godel_reindexed": "chain3-top-first-2pt",
              "u31_luk": "u31-lukasiewicz",
              "chain5_godel_1pt": "chain5-godel-1pt",
              "diamond_1pt": "diamond-1pt", "boolean8_1pt": "boolean8-1pt",
              "u31_luk_listed": "u31-listed-lukasiewicz",
              "u32_luk_listed": "u32-listed-lukasiewicz",
              "u35_godel": "chain3-5pt", "u28": "chain2-8pt"}


def assert_tuples(table):
    assert type(table) is tuple
    assert all(type(row) is tuple for row in table)


def check_set_tables(u):
    """Assert the set tables against the oracle; return the oracle's
    pointwise tensor table."""
    lat = u.lattice
    pw_tensor = by_pairs(u, u.tensor.app)
    assert u.pw_tensor == pw_tensor
    assert u.pw_join == by_pairs(u, lat.join2)
    assert u.pw_res == by_pairs(u, u.res.app)
    assert u.pw_leq == leq_by_pairs(u)
    for table in (u.pw_tensor, u.pw_join, u.pw_res, u.pw_leq, u.box_table):
        assert_tuples(table)
    check_set_codes(u)
    return pw_tensor


def check_set_codes(u):
    """Assert `Universe.set_codes` against its definition, bit p*n + b set
    iff b <= f(p), and its two uses: f <= g iff code f & ~code g == 0,
    and the code of the pointwise meet is the AND of the codes."""
    lat = u.lattice
    codes = []
    for f in u.sets:
        code = 0
        for p, v in enumerate(f):
            for b in lat.elements():
                if lat.le(b, v):
                    code |= 1 << (p * lat.n + b)
        codes.append(code)
    assert u.set_codes == tuple(codes)
    assert [[not c & ~d for d in codes] for c in codes] == \
        list(map(list, leq_by_pairs(u)))
    meets = by_pairs(u, lambda a, b: lat.meet[a][b])
    assert all(codes[k] == c & d for c, row in zip(codes, meets)
               for d, k in zip(codes, row))


@pytest.mark.parametrize("name", models.names("tiny") + models.names("small"),
                         ids=PARENT_IDS.get)
def test_tables_match_per_pair_construction(name, boxtimes, request):
    u = request.getfixturevalue(name)
    check_set_tables(u)
    n, cells = u.n, u.graded_cells()
    assert u.box_table == tuple(tuple(boxtimes(u, i, j) for j in cells)
                                for i in cells)
    for gi in cells:
        si, a = divmod(gi, n)
        f = u.sets[si]
        for gj in cells:
            sj, b = divmod(gj, n)
            g = u.sets[sj]
            impl = u.set_index[tuple(u.res.app(f[p], g[p])
                                     for p in u.ground.points())]
            assert u.gimpl(gi, gj) == impl * n + u.coimpl.app(b, a)


@pytest.mark.parametrize("name", models.names("next-tier"),
                         ids=PARENT_IDS.get)
def test_large_tables_match_per_pair_construction(name, request):
    u = request.getfixturevalue(name)
    assert u.n_sets in (243, 256)
    pw_tensor = check_set_tables(u)
    # boxtimes from the oracle tensor table, cell by cell
    join, n = u.lattice.join, u.n
    box = u.box_table
    for gi in u.graded_cells():
        row, t_row, join_a = box[gi], pw_tensor[gi // n], join[gi % n]
        assert row == tuple(t * n + j for t in t_row for j in join_a)


def test_top_first_chain_keeps_bot_at_index_2(u32_godel_reindexed):
    u = u32_godel_reindexed
    assert (u.lattice.bot, u.lattice.top) == (2, 0)
    assert u.sets[u.zero_idx] == (2, 2) and u.sets[u.one_idx] == (0, 0)
    assert u.pw_leq[u.zero_idx][u.one_idx]
    assert not u.pw_leq[u.one_idx][u.zero_idx]


# ---- order axioms against all-pairs sweeps ---------------------------------

def graded_pairs(u, graded_leq):
    cells = u.graded_cells()
    return [(gi, gj) for gi in cells for gj in cells
            if graded_leq(u, gi, gj)]


def ff1_by_pairs(F, pairs):
    u, le = F.universe, F.universe.lattice.leq
    return first({"cells": (u.gpair(gi), u.gpair(gj))} for gi, gj in pairs
                 if not le[F.table[gi]][F.table[gj]])


def i1_by_pairs(i, pairs):
    leq = i.universe.pw_leq
    return first((gi, gj) for gi, gj in pairs
                 if not leq[i.table[gi]][i.table[gj]])


def n1_by_pairs(nb, pairs):
    le, tabs = nb.universe.lattice.leq, nb.tables
    return first({"p": p, "cells": (gi, gj)} for p in range(len(tabs))
                 for gi, gj in pairs if not le[tabs[p][gi]][tabs[p][gj]])


def n4_by_pairs(nb, pairs):
    u, tabs = nb.universe, nb.tables
    lat, points = u.lattice, u.ground.points()
    for p in points:
        for gi in u.graded_cells():
            candidates = [tabs[p][gj] for i, gj in pairs if i == gi
                          and all(lat.le(u.sets[gj // u.n][q], tabs[q][gi])
                                  for q in points)]
            if not lat.le(tabs[p][gi], lat.join_set(candidates)):
                return {"p": p, "cell": u.gpair(gi)}
    return None


def mutants(rng, table, values, count):
    """`table` itself, then `count` copies with one cell set at random."""
    yield tuple(table)
    for _ in range(count):
        t = list(table)
        t[rng.randrange(len(t))] = rng.randrange(values)
        yield tuple(t)


@pytest.mark.parametrize("name", ["u22", "u32_luk", "u32_godel_reindexed"],
                         ids=PARENT_IDS.get)
def test_order_axioms_match_all_pairs_sweeps(name, graded_leq, request):
    u = request.getfixturevalue(name)
    # seeded by the test id
    rng, lat = random.Random(PARENT_IDS.get(name, name)), u.lattice
    pairs = graded_pairs(u, graded_leq)
    for F in enumerate_filters(u)[:6]:
        for tab in mutants(rng, F.table, lat.n, 15):
            mut = FilterTable(universe=u, table=tab)
            assert witness(check_filter(mut), "FF1") == ff1_by_pairs(mut, pairs)
    for t in enumerate_topologies(u)[:6]:
        i = interior_from_topology(t)
        for tab in mutants(rng, i.table, u.n_sets, 10):
            mut = InteriorOp(universe=u, table=tab)
            assert witness(check_interior(mut), "I1") == i1_by_pairs(mut, pairs)
        nb = nbhd_from_interior(i)
        for p in u.ground.points():
            for tab in mutants(rng, nb.tables[p], lat.n, 10):
                mut = NbhdSystem(universe=u, tables=nb.tables[:p] + (tab,)
                                 + nb.tables[p + 1:])
                rep = check_nbhd(mut)
                assert witness(rep, "N1") == n1_by_pairs(mut, pairs)
                assert witness(rep, "N4") == n4_by_pairs(mut, pairs)


# ---- cell axioms against per-cell accessor reads ---------------------------

def interior_by_accessors(i):
    """Oracle: the verdict (I0, I5) or first witness (I3, I4, I6) of each
    cell axiom, one `InteriorOp.app` call per cell read."""
    u = i.universe
    lat, sets, pw_leq = u.lattice, range(u.n_sets), u.pw_leq
    els = lat.elements()
    return {
        "I0": all(i.app(u.one_idx, a) == u.one_idx for a in els),
        "I3": first((si, a) for si in sets for a in els
                    if not pw_leq[i.app(si, a)][si]),
        "I4": first((si, a) for si in sets for a in els
                    if not pw_leq[i.app(si, a)][i.app(i.app(si, a), a)]),
        "I5": all(i.app(si, lat.bot) == si for si in sets),
        "I6": first({"f": u.sets[si], "grades": (a, b)} for si in sets
                    for a, b in lat.incomparable
                    if i.app(si, b) == i.app(si, a)
                    and i.app(si, lat.join2(a, b)) != i.app(si, a)),
    }


def nbhd_by_accessors(nb):
    """Oracle: the first witness of N0 and N3, one `NbhdSystem.at` call per
    cell read."""
    u = nb.universe
    lat, points, els = u.lattice, u.ground.points(), u.lattice.elements()
    return {
        "N0": first({"p": p} for p in points
                    if any(nb.at(p, u.one_idx, a) != lat.top for a in els)),
        "N3": first({"p": p, "cell": (si, a)} for p in points
                    for si in range(u.n_sets) for a in els
                    if not lat.le(nb.at(p, si, a), u.sets[si][p])),
    }


def verdicts(report, axioms):
    """Per axiom, its witness when it fails, else None, or, for an axiom
    recorded without a witness, whether it passed."""
    return {axiom: witness(report, axiom) if axiom in ("I3", "I4", "I6",
                                                       "N0", "N3")
            else report.verdicts[axiom].status == "pass" for axiom in axioms}


def cell_mutants(rng, table, values, u, count):
    """`mutants` of `table`, a table over u's graded cells, then one with a
    cell of the top set, and one with the bot-grade cell of a random set,
    set at random: the cells I0 and N0, and I5, read."""
    yield from mutants(rng, table, values, count)
    n = u.n
    for cell in (u.one_idx * n + rng.randrange(n),
                 rng.randrange(u.n_sets) * n + u.lattice.bot):
        t = list(table)
        t[cell] = rng.randrange(values)
        yield tuple(t)


@pytest.mark.parametrize("name", models.SWEPT, ids=PARENT_IDS.get)
def test_cell_axioms_match_per_cell_accessor_reads(name, request):
    # I0 and I3-I6 read the interior table, N0 and N3 the neighbourhood
    # tables, directly, by block: cell si * n + a is grade a of set si
    u = request.getfixturevalue(name)
    rng, lat, seen = random.Random(name), u.lattice, set()
    topologies = enumerate_topologies(u)
    for t in topologies[:6] + topologies[-2:]:
        i = interior_from_topology(t)
        for tab in cell_mutants(rng, i.table, u.n_sets, u, 12):
            mut = InteriorOp(universe=u, table=tab)
            want = interior_by_accessors(mut)
            assert verdicts(check_interior(mut), want) == want
            seen.update((axiom, v is True or v is None)
                        for axiom, v in want.items())
        nb = nbhd_from_interior(i)
        for p in u.ground.points():
            for tab in cell_mutants(rng, nb.tables[p], lat.n, u, 8):
                mut = NbhdSystem(universe=u, tables=nb.tables[:p] + (tab,)
                                 + nb.tables[p + 1:])
                want = nbhd_by_accessors(mut)
                assert verdicts(check_nbhd(mut), want) == want
                seen.update((axiom, v is None) for axiom, v in want.items())
    # every axiom passes somewhere; all but I6, which needs incomparable
    # grades, fail somewhere too
    assert {axiom for axiom, passed in seen if passed} == {
        "I0", "I3", "I4", "I5", "I6", "N0", "N3"}
    failed = {axiom for axiom, passed in seen if not passed}
    assert failed >= {"I0", "I3", "I4", "I5", "N0", "N3"}
