import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fuzztop.errors import PreconditionViolated, SizeLimit
from fuzztop.topology import (InteriorOp, NbhdSystem, Topology,
                              check_continuity_nbhd, check_interior,
                              check_nbhd, check_topology,
                              enumerate_topologies, generate_topology,
                              interior_from_topology, is_continuous,
                              nbhd_from_interior, order_topologies)


def discrete(u):
    return Topology(universe=u, table=tuple(u.lattice.top
                                            for _ in range(u.n_sets)))


def indiscrete(u):
    lat = u.lattice
    table = [lat.bot] * u.n_sets
    table[u.zero_idx] = lat.top
    table[u.one_idx] = lat.top
    return Topology(universe=u, table=tuple(table))


@pytest.mark.parametrize("length", [3, 5])
def test_check_topology_rejects_a_table_of_another_length(u22, length):
    # u22 has 4 sets; 5 entries passed every axiom, 3 raised IndexError
    with pytest.raises(PreconditionViolated,
                       match=f"^table has {length} grades for 4 sets$"):
        check_topology(Topology(universe=u22,
                                table=(u22.lattice.top,) * length))


@pytest.mark.parametrize("length", [3, 5])
def test_interior_rejects_a_topology_table_of_another_length(u22, length):
    # 5 entries gave an interior and a neighbourhood system that passed
    # every axiom; 3 raised IndexError
    message = f"^table has {length} grades for 4 sets$"
    for derive in (interior_from_topology, lambda t: t.interior,
                   lambda t: t.nbhd):
        with pytest.raises(PreconditionViolated, match=message):
            derive(Topology(universe=u22, table=(u22.lattice.top,) * length))


@pytest.mark.parametrize("length", [5, 9])
def test_check_interior_rejects_a_table_of_another_length(u22, length):
    # u22 has 8 graded cells; a short table raised IndexError
    table = interior_from_topology(discrete(u22)).table
    with pytest.raises(PreconditionViolated,
                       match=f"^table has {length} sets for 8 graded cells$"):
        check_interior(InteriorOp(universe=u22, table=(table * 2)[:length]))


def test_check_nbhd_rejects_a_system_of_another_shape(u22):
    tables = nbhd_from_interior(interior_from_topology(discrete(u22))).tables
    with pytest.raises(PreconditionViolated,
                       match="^system has 1 tables for 2 points$"):
        check_nbhd(NbhdSystem(universe=u22, tables=tables[:1]))
    with pytest.raises(PreconditionViolated,
                       match="^system has 3 tables for 2 points$"):
        check_nbhd(NbhdSystem(universe=u22, tables=tables + tables[:1]))
    for row in (tables[1][:7], tables[1] + (0,)):
        with pytest.raises(PreconditionViolated,
                           match=f"^table of point 1 has {len(row)} grades "
                                 f"for 8 graded cells$"):
            check_nbhd(NbhdSystem(universe=u22, tables=(tables[0], row)))


@pytest.mark.parametrize("grade", [-1, 2])
def test_topology_tables_reject_grades_outside_the_lattice(u22, grade):
    # u22 grades in the 2-chain 0..1; grade -1 at set 1 of an all-top table
    # passed every axiom (a negative index reads the last row), grade 2
    # raised IndexError
    table = [u22.lattice.top] * u22.n_sets
    table[1] = grade
    message = f"^table entry 1 is {grade}, outside 0..1$"
    for check in (check_topology, interior_from_topology):
        with pytest.raises(PreconditionViolated, match=message):
            check(Topology(universe=u22, table=tuple(table)))


@pytest.mark.parametrize("value", [-1, 4])
def test_check_interior_rejects_set_indices_outside_the_powerset(u22, value):
    table = list(interior_from_topology(discrete(u22)).table)
    table[5] = value
    with pytest.raises(PreconditionViolated,
                       match=f"^table entry 5 is {value}, outside 0..3$"):
        check_interior(InteriorOp(universe=u22, table=tuple(table)))


@pytest.mark.parametrize("grade", [-1, 2])
def test_check_nbhd_rejects_grades_outside_the_lattice(u22, grade):
    tables = nbhd_from_interior(interior_from_topology(discrete(u22))).tables
    row = list(tables[1])
    row[6] = grade
    with pytest.raises(PreconditionViolated,
                       match=f"^table of point 1 entry 6 is {grade}, "
                             f"outside 0..1$"):
        check_nbhd(NbhdSystem(universe=u22, tables=(tables[0], tuple(row))))


def test_discrete_and_indiscrete_are_topologies(u22, u31_godel, u31_luk):
    for u in (u22, u31_godel, u31_luk):
        assert check_topology(discrete(u)).passed
        assert check_topology(indiscrete(u)).passed


def test_broken_o1_detected(u22):
    lat = u22.lattice
    table = [lat.top] * u22.n_sets
    table[u22.one_idx] = lat.bot
    rep = check_topology(Topology(universe=u22, table=tuple(table)))
    assert rep.verdicts["o1"].status == "fail"


def test_broken_o3_detected(u23):
    # grade a single atom high while keeping joins low
    lat = u23.lattice
    table = [lat.bot] * u23.n_sets
    table[u23.zero_idx] = lat.top
    table[u23.one_idx] = lat.top
    table[u23.set_index[(1, 0, 0)]] = lat.top
    table[u23.set_index[(0, 1, 0)]] = lat.top
    rep = check_topology(Topology(universe=u23, table=tuple(table)))
    assert rep.verdicts["o3"].status == "fail"
    i, j = rep.verdicts["o3"].witness["subset"]
    assert not lat.le(lat.meet[table[i]][table[j]],
                      table[u23.pw_join[i][j]])
    table[u23.zero_idx] = lat.bot  # the empty family: o1' fails too
    rep = check_topology(Topology(universe=u23, table=tuple(table)))
    assert rep.verdicts["o3"].witness == {"subset": ()}
    assert rep.verdicts["o1_prime"].status == "fail"


def test_o3_decided_on_243_sets(u35_godel):
    # o3 is decided on pairs, so no universe is too large for it
    u = u35_godel
    lat = u.lattice
    assert u.n_sets == 243
    seed = [lat.bot] * u.n_sets
    seed[u.set_index[(2, 0, 0, 0, 0)]] = lat.top
    seed[u.set_index[(0, 2, 1, 0, 0)]] = 1
    t = generate_topology(u, seed)
    assert check_topology(t).verdicts["o3"].status == "pass"
    table = list(t.table)
    table[u.set_index[(2, 2, 1, 0, 0)]] = lat.bot
    rep = check_topology(Topology(universe=u, table=tuple(table)))
    assert rep.verdicts["o3"].status == "fail"


def test_order_topologies(u22):
    d, i = discrete(u22), indiscrete(u22)
    assert order_topologies(i, d) == "<="
    assert order_topologies(d, i) == ">="
    assert order_topologies(d, d) == "="


def test_order_topologies_rejects_tables_it_cannot_compare(u22, u23):
    # before the checks zip stopped at the shorter table, so u22's least
    # topology came out below u23's greatest and a 6-grade table over u22
    # compared with a topology; a grade of 7 raised IndexError
    with pytest.raises(PreconditionViolated,
                       match="^topology is over another universe$"):
        order_topologies(indiscrete(u22), discrete(u23))
    with pytest.raises(PreconditionViolated,
                       match="^table has 6 grades for 4 sets$"):
        order_topologies(Topology(universe=u22, table=(1, 0, 1, 1, 1, 1)),
                         discrete(u22))
    with pytest.raises(PreconditionViolated,
                       match=r"^table entry 2 is 7, outside 0\.\.1$"):
        order_topologies(discrete(u22),
                         Topology(universe=u22, table=(1, 0, 7, 1)))


def test_order_topologies_incomparable(u32_godel):
    lat = u32_godel.lattice
    t1 = list(indiscrete(u32_godel).table)
    t2 = list(t1)
    t1[u32_godel.set_index[(2, 0)]] = lat.top
    t2[u32_godel.set_index[(0, 2)]] = lat.top
    t1 = Topology(universe=u32_godel, table=tuple(t1))
    t2 = Topology(universe=u32_godel, table=tuple(t2))
    assert check_topology(t1).passed and check_topology(t2).passed
    assert order_topologies(t1, t2) == "incomparable"


def test_generate_topology_is_a_topology(u23, u31_luk):
    for u in (u23, u31_luk):
        lat = u.lattice
        for si in range(u.n_sets):
            seed = [lat.bot] * u.n_sets
            seed[si] = lat.top
            assert check_topology(generate_topology(u, seed)).passed


def test_generate_topology_is_least(u22, u31_godel):
    # oracle: brute-force enumeration of every topology on the universe
    for u in (u22, u31_godel):
        lat = u.lattice
        all_tops = enumerate_topologies(u)
        for si in range(u.n_sets):
            seed = [lat.bot] * u.n_sets
            seed[si] = lat.top
            gen = generate_topology(u, seed)
            above = [t for t in all_tops
                     if all(lat.le(a, b) for a, b in zip(seed, t.table))]
            least = min(above, key=lambda t: sum(t.table))
            for t in above:
                assert order_topologies(gen, t) in ("<=", "=")
            assert order_topologies(gen, least) == "="


def test_enumeration_counts(u21, u22, u31_godel):
    assert len(enumerate_topologies(u21)) == 1
    assert len(enumerate_topologies(u22)) == 4
    assert len(enumerate_topologies(u31_godel)) == 3


def topologies_by_sweep(u):
    """Oracle: every |L|**n_sets grade table that passes check_topology, in
    table-lexicographic order."""
    out = []
    for values in itertools.product(u.lattice.elements(), repeat=u.n_sets):
        t = Topology(universe=u, table=values)
        if check_topology(t).passed:
            out.append(t)
    return out


def test_enumeration_matches_sweep(u21, u22, u23, u31_godel, u31_luk,
                                   diamond_1pt, chain4_godel_1pt,
                                   chain4_luk_1pt):
    for u in (u21, u22, u23, u31_godel, u31_luk, diamond_1pt,
              chain4_godel_1pt, chain4_luk_1pt):
        assert enumerate_topologies(u) == topologies_by_sweep(u)


def test_u32_topology_goldens(u32_godel, u32_luk):
    assert len(enumerate_topologies(u32_godel)) == 491
    assert len(enumerate_topologies(u32_luk)) == 308


def test_enumeration_cap(u32_godel):
    with pytest.raises(SizeLimit):
        enumerate_topologies(u32_godel, cap=10)


@pytest.mark.parametrize("name, closures", [("u32_godel", 1002),
                                            ("u32_luk", 832),
                                            ("diamond_1pt", 16)])
def test_enumeration_cap_counts_every_closure(name, closures, request):
    # the cap counts candidate closures, refuted ones included, the least
    # table's among them
    u = request.getfixturevalue(name)
    with pytest.raises(SizeLimit):
        enumerate_topologies(u, cap=closures - 1)
    assert enumerate_topologies(u, cap=closures)


def test_default_cap_stops_a_16_set_universe(diamond_2pt):
    # the diamond with two points has 126,025 topologies, more than the
    # default cap's closures; the cap stops it in about 0.1 s
    with pytest.raises(SizeLimit):
        enumerate_topologies(diamond_2pt)


def generate_by_passes(u, seed):
    """Oracle: the all-pairs fixpoint loop, rescanning every ordered pair of
    sets until a pass changes nothing."""
    lat = u.lattice
    table = list(seed)
    table[u.one_idx] = lat.top
    table[u.zero_idx] = lat.top
    changed = True
    while changed:
        changed = False
        for i in range(u.n_sets):
            for j in range(u.n_sets):
                for k, v in ((u.pw_tensor[i][j],
                              u.tensor.app(table[i], table[j])),
                             (u.pw_join[i][j],
                              lat.meet[table[i]][table[j]])):
                    w = lat.join2(table[k], v)
                    changed |= w != table[k]
                    table[k] = w
    return Topology(universe=u, table=tuple(table))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generate_topology_equals_all_pairs_fixpoint(u23, u32_godel, u32_luk,
                                                     diamond_1pt, data):
    u = data.draw(st.sampled_from([u23, u32_godel, u32_luk, diamond_1pt]))
    sets = st.integers(0, u.n_sets - 1)
    grades = st.integers(0, u.lattice.n - 1)
    seed = [u.lattice.bot] * u.n_sets
    for si, a in data.draw(st.lists(st.tuples(sets, grades), max_size=4)):
        seed[si] = a
    assert generate_topology(u, seed) == generate_by_passes(u, seed)


def test_generate_topology_from_each_single_set(u32_godel, u32_luk,
                                               diamond_1pt):
    # a set raised alone reaches f tensor f only through its pair with itself
    for u in (u32_godel, u32_luk, diamond_1pt):
        for si in range(u.n_sets):
            for a in u.lattice.elements():
                seed = [u.lattice.bot] * u.n_sets
                seed[si] = a
                assert generate_topology(u, seed) == generate_by_passes(u, seed)


def test_interior_axioms_hold_on_discrete(u22, u31_godel, u31_luk):
    for u in (u22, u31_godel, u31_luk):
        rep = check_interior(interior_from_topology(discrete(u)))
        assert rep.passed, rep


def test_interior_axioms_on_indiscrete(u22, u31_godel, u31_luk):
    # all axioms except the join-graded tensor stability I2, which no
    # non-discrete topology can satisfy (see the counterexample test below)
    for u in (u22, u31_godel, u31_luk):
        rep = check_interior(interior_from_topology(indiscrete(u)))
        for name, v in rep.verdicts.items():
            if name == "I2":
                assert v.status == "fail"
            else:
                assert v.status == "pass", (name, v.witness)


def test_join_graded_tensor_stability_counterexample(u22):
    # I(1_X, top) tensor I(g, bot) = g, yet I(g, top join bot) = I(g, top)
    # sits strictly below g whenever the grade of g is not top
    u = u22
    lat = u.lattice
    i = interior_from_topology(indiscrete(u))
    g = u.set_index[(0, 1)]
    lhs = u.pw_tensor[i.app(u.one_idx, lat.top)][i.app(g, lat.bot)]
    rhs = i.app(u.pw_tensor[u.one_idx][g], lat.join2(lat.top, lat.bot))
    assert lhs == g and rhs == u.zero_idx
    assert not u.pw_leq[lhs][rhs]


def test_first_i2_and_n2_witnesses(u32_luk):
    # the first failures of the shared tensor-stability sweep, in
    # (set, grade, set, grade) order; set 8 is the full set
    i = interior_from_topology(indiscrete(u32_luk))
    assert check_interior(i).verdicts["I2"].witness == (1, 0, 8, 1)
    assert check_nbhd(nbhd_from_interior(i)).verdicts["N2"].witness == \
        {"p": 0, "cells": (3, 0, 8, 1)}


def test_first_i1_n1_n4_witnesses(u32_luk):
    # single-cell mutations of the discrete interior and neighbourhood
    # system; cells are flat indices set * 3 + grade, set 8 the full set
    u = u32_luk
    i = interior_from_topology(discrete(u))
    table = list(i.table)
    table[u.gidx(4, 2)] = 8
    rep = check_interior(InteriorOp(universe=u, table=tuple(table)))
    assert rep.verdicts["I1"].witness == (14, 12)

    nb = nbhd_from_interior(i)
    assert check_nbhd(nb).passed  # N4: each cell is its own candidate
    tabs = [list(t) for t in nb.tables]
    tabs[1][u.gidx(3, 0)] = 2
    rep = check_nbhd(NbhdSystem(universe=u, tables=tuple(map(tuple, tabs))))
    assert rep.verdicts["N1"].witness == {"p": 1, "cells": (9, 12)}
    # lowering point 0's value drops candidates of point 1 at the same cell
    tabs = [list(t) for t in nb.tables]
    tabs[0][u.gidx(4, 0)] = 0
    rep = check_nbhd(NbhdSystem(universe=u, tables=tuple(map(tuple, tabs))))
    assert rep.verdicts["N4"].witness == {"p": 1, "cell": (4, 0)}


def test_tensor_graded_stability_holds(u22, u31_godel, u31_luk):
    # the tensor-graded variant I(f,a) tensor I(g,b) <= I(f tensor g, a
    # tensor b) is derivable from the topology axioms and holds throughout
    for u in (u22, u31_godel, u31_luk):
        lat = u.lattice
        for t in (discrete(u), indiscrete(u)):
            i = interior_from_topology(t)
            for si in range(u.n_sets):
                for a in lat.elements():
                    for sj in range(u.n_sets):
                        for b in lat.elements():
                            lhs = u.pw_tensor[i.app(si, a)][i.app(sj, b)]
                            rhs = i.app(u.pw_tensor[si][sj],
                                        u.tensor.app(a, b))
                            assert u.pw_leq[lhs][rhs]


def test_i6_witness_is_a_pair_of_grades(diamond_1pt):
    # the discrete interior is constant, f, on both atoms; lowering it at
    # their join breaks I6 on that pair only
    u = diamond_1pt
    table = list(interior_from_topology(discrete(u)).table)
    f = u.set_index[(1,)]
    table[u.gidx(f, 3)] = u.zero_idx
    rep = check_interior(InteriorOp(universe=u, table=tuple(table)))
    assert rep.verdicts["I6"].witness == {"f": (1,), "grades": (1, 2)}


def test_interior_values(u31_godel):
    u = u31_godel
    t = indiscrete(u)
    i = interior_from_topology(t)
    mid = u.set_index[(1,)]
    # only the zero set has a grade above bot other than the full set
    assert i.app(mid, u.lattice.top) == u.zero_idx
    assert i.app(mid, u.lattice.bot) == mid
    assert i.app(u.one_idx, u.lattice.top) == u.one_idx


def test_nbhd_axioms_hold_on_discrete(u22, u31_luk):
    for u in (u22, u31_luk):
        n = nbhd_from_interior(interior_from_topology(discrete(u)))
        assert check_nbhd(n).passed


def test_nbhd_axioms_on_indiscrete(u22, u31_luk):
    # N2 inherits the failure of the join-graded tensor stability I2
    for u in (u22, u31_luk):
        n = nbhd_from_interior(interior_from_topology(indiscrete(u)))
        rep = check_nbhd(n)
        for name, v in rep.verdicts.items():
            if name == "N2":
                assert v.status == "fail"
            else:
                assert v.status == "pass", (name, v.witness)


def test_nbhd_values_discrete(u22):
    u = u22
    n = nbhd_from_interior(interior_from_topology(discrete(u)))
    for p in u.ground.points():
        for si in range(u.n_sets):
            for a in u.lattice.elements():
                assert n.at(p, si, a) == u.sets[si][p]


def test_interior_and_nbhd_are_kept_and_not_fields(u32_luk):
    t = enumerate_topologies(u32_luk)[-1]
    assert t.interior is t.interior
    assert t.interior == interior_from_topology(t)
    assert t.nbhd is t.nbhd
    assert t.nbhd == nbhd_from_interior(t.interior)
    fresh = Topology(universe=u32_luk, table=t.table)
    assert t == fresh
    assert hash(t) == hash(fresh)
    assert "interior" not in vars(fresh) and "nbhd" not in vars(fresh)


def test_identity_map_is_continuous(u22):
    t = indiscrete(u22)
    ok, wit = is_continuous((0, 1), t, t)
    assert ok and wit is None


def test_discontinuous_map_has_witness(u22, u32_godel):
    # codomain finer than the (indiscrete) domain: identity fails
    u = u32_godel
    lat = u.lattice
    fine = list(indiscrete(u).table)
    fine[u.set_index[(2, 0)]] = lat.top
    eta = Topology(universe=u, table=tuple(fine))
    assert check_topology(eta).passed
    ok, wit = is_continuous((0, 1), indiscrete(u), eta)
    assert not ok
    assert wit == u.set_index[(2, 0)]


def test_constant_map_always_continuous(u21, u22):
    tau = discrete(u22)
    for t in enumerate_topologies(u21):
        ok, _ = is_continuous((0, 0), tau, t)
        assert ok


def test_continuity_nbhd_pushforward(u21, u22):
    phi = (0, 0)
    rep = check_continuity_nbhd(phi, discrete(u22), discrete(u21))
    assert rep.passed


def test_continuity_nbhd_preconditions(u21, u22, u32_godel):
    with pytest.raises(PreconditionViolated, match="map is not surjective"):
        check_continuity_nbhd((0,), discrete(u21), discrete(u22))
    u = u32_godel
    lat = u.lattice
    fine = list(indiscrete(u).table)
    fine[u.set_index[(2, 0)]] = lat.top
    eta = Topology(universe=u, table=tuple(fine))
    with pytest.raises(PreconditionViolated, match="map is not continuous"):
        check_continuity_nbhd((0, 1), indiscrete(u), eta)
