import itertools
import random
import re
from pathlib import Path

import pytest

from fuzztop.compactness import (ProductSpace, Space, build_product, converges,
                                 adherent_points, image_compactness_check,
                                 is_adherent, is_compact, product_nbhd_system,
                                 product_convergence_check, tychonoff_check)
from fuzztop.errors import PreconditionViolated, SizeLimit, trusted
from fuzztop.filters import (FilterTable, NoFilterAbove, check_filter,
                             enumerate_filters, image_filter, is_ultrafilter,
                             preimage_filter, saturate)
from fuzztop.powerset import Ground, Universe
from fuzztop.residuated import Tensor
from fuzztop.specfile import build_universe, parse_spec
from fuzztop.topology import (NbhdSystem, Topology, check_continuity_nbhd,
                              check_interior, check_nbhd, enumerate_topologies,
                              is_continuous, nbhd_pushforward)

import models
from test_filters import surjections
from test_topology import discrete, indiscrete

SPECS = Path(__file__).resolve().parents[1] / "specs"


def discrete_space(u):
    return Space(u, discrete(u))


def indiscrete_space(u):
    return Space(u, indiscrete(u))


def test_space_rejects_non_topology(u22):
    lat = u22.lattice
    table = [lat.top] * u22.n_sets
    table[u22.one_idx] = lat.bot
    with pytest.raises(PreconditionViolated, match="fails o1, o3$"):
        Space(u22, tuple(table))


def test_space_rejects_a_table_of_another_universe(u21, u22):
    # u21 has 2 sets and u22 has 4; before the check the 4-grade table on
    # u21 was accepted and decided compact, the others raised IndexError
    with pytest.raises(PreconditionViolated, match="4 grades for 2 sets"):
        Space(u21, (1, 1, 1, 0))
    with pytest.raises(PreconditionViolated, match="2 grades for 4 sets"):
        Space(u22, (1, 1))
    with pytest.raises(PreconditionViolated, match="over another universe"):
        Space(u22, Topology(universe=u21, table=(1, 1)))


@pytest.mark.parametrize("grade", [-1, 2])
def test_space_rejects_grades_outside_the_lattice(u22, grade):
    # the all-top table with grade -1 at set 1 was accepted and decided
    # compact; grade 2 raised IndexError
    table = [u22.lattice.top] * u22.n_sets
    table[1] = grade
    with pytest.raises(PreconditionViolated,
                       match=f"^table entry 1 is {grade}, outside 0..1$"):
        Space(u22, tuple(table))


def test_is_compact_rejects_filters_of_another_universe(u21, u22):
    space = discrete_space(u22)
    with pytest.raises(PreconditionViolated, match="over another universe"):
        is_compact(space, filters=enumerate_filters(u21))
    mixed = enumerate_filters(u22) + enumerate_filters(u21)[:1]
    for mode in ("sweep", "ultrafilter"):
        with pytest.raises(PreconditionViolated,
                           match="over another universe"):
            is_compact(space, mode, filters=mixed)


# before the check the tables were zipped to the shorter one: p = 0 adhered
# to u21's filter in u22's space with a 4-cell certificate, both points did,
# and u22's filter converged to 0 in u21's space
@pytest.mark.parametrize("verdict", [
    lambda F, G, s21, s22: is_adherent(0, F, s22),
    lambda F, G, s21, s22: adherent_points(F, s22),
    lambda F, G, s21, s22: converges(G, 0, s21),
], ids=["is_adherent", "adherent_points", "converges"])
def test_verdicts_reject_filters_of_another_universe(u21, u22, verdict):
    F, = enumerate_filters(u21)
    G = FilterTable(universe=u22, table=(0, 0, 1, 1, 0, 0, 1, 1))
    assert check_filter(G).passed
    with pytest.raises(PreconditionViolated, match="over another universe"):
        verdict(F, G, discrete_space(u21), discrete_space(u22))


# before the check p = -1 got the verdict of the last point's table and
# p = 2 raised IndexError
@pytest.mark.parametrize("p", [-1, 2, 7, 1.0, "0", None])
def test_verdicts_reject_a_point_outside_the_ground_set(u32_luk, p):
    space = Space(u32_luk, enumerate_topologies(u32_luk)[0])
    F = enumerate_filters(u32_luk)[-1]
    message = f"^point {re.escape(repr(p))} is outside 0..1$"
    with pytest.raises(PreconditionViolated, match=message):
        converges(F, p, space)
    with pytest.raises(PreconditionViolated, match=message):
        is_adherent(p, F, space)


# before the check the 3-grade table converged to 0, as `map` stopped at the
# shorter table, and `is_adherent` raised IndexError; the grade-7 table
# raised IndexError from `converges` and `is_compact`
@pytest.mark.parametrize("verdict", [
    lambda F, space: converges(F, 0, space),
    lambda F, space: is_adherent(0, F, space),
    lambda F, space: is_compact(space, filters=[F]),
    lambda F, space: is_compact(space, filters=enumerate_filters(
        space.universe) + [F]),
    # a witness comes first, so the table is checked before any decision
    lambda F, space: is_compact(space, filters=[FilterTable(
        universe=space.universe, table=(2,) * 9), F]),
], ids=["converges", "is_adherent", "is_compact", "is_compact-listed",
        "is_compact-after-witness"])
@pytest.mark.parametrize("table, message", [
    ((2, 2, 2), "^table has 3 grades for 9 graded cells$"),
    ((7,) * 9, "^table entry 0 is 7, outside 0..2$"),
], ids=["short", "grade-7"])
def test_verdicts_reject_a_table_that_is_not_one_of_grades(u31_godel, verdict,
                                                           table, message):
    # the table is refused where it is wrapped, before any verdict reads it
    space = discrete_space(u31_godel)
    with pytest.raises(PreconditionViolated, match=message):
        verdict(FilterTable(universe=u31_godel, table=table), space)


def test_space_keeps_axiom_reports(u22):
    s = indiscrete_space(u22)
    assert check_interior(s.interior) is not None
    assert check_nbhd(s.nbhd).verdicts["N3"].status == "pass"


@pytest.mark.parametrize("name", ["u22", "u32_luk"])
def test_a_space_checks_its_topology_table_once(name, request, count_calls):
    # the Topology validates the table where it is made; the Space, its
    # axioms and the interior the Space keeps do not check it again, and
    # the interior is kept where Topology.interior keeps it
    import fuzztop.errors as errors
    from fuzztop.topology import interior_from_topology
    u = request.getfixturevalue(name)
    table = enumerate_topologies(u)[-1].table
    calls = count_calls(errors.require_index)
    t = Topology(universe=u, table=table)
    s = Space(u, t)
    assert [args[0] for args in calls] == [table]
    assert s.interior is t.interior
    assert s.interior == interior_from_topology(Topology(u, table))
    assert s.nbhd is t.nbhd


def test_nbhd_saturation_converges_to_its_point(u22, u31_luk):
    for u in (u22, u31_luk):
        for space in (discrete_space(u), indiscrete_space(u)):
            from fuzztop.filters import saturate
            for p in u.ground.points():
                F = saturate(u, space.nbhd.tables[p])
                assert isinstance(F, FilterTable)
                assert converges(F, p, space)


def test_convergence_indiscrete_two_points(u22):
    # the bottom-grade row of N_p is the point evaluation, so even in the
    # indiscrete space only the filter concentrated at p converges to p
    space = indiscrete_space(u22)
    filters = enumerate_filters(u22)
    trivial = min(filters, key=lambda F: sum(F.table))
    for p in u22.ground.points():
        assert not converges(trivial, p, space)
        convergers = [F for F in filters if converges(F, p, space)]
        assert len(convergers) == 1
        assert converges(convergers[0], p, space)


def test_convergence_indiscrete_single_point(u21):
    # with one ground point the unique filter converges to it
    space = indiscrete_space(u21)
    (F,) = enumerate_filters(u21)
    assert converges(F, 0, space)


def test_convergence_discrete_is_selective(u22):
    space = discrete_space(u22)
    got = {p: [F.table for F in enumerate_filters(u22)
               if converges(F, p, space)]
           for p in u22.ground.points()}
    # each point is converged to by exactly the filters concentrated there
    assert all(len(v) == 1 for v in got.values())
    assert got[0] != got[1]


def test_adherence_certificate_is_filter(u22):
    space = discrete_space(u22)
    for F in enumerate_filters(u22):
        for p in u22.ground.points():
            ok, G = is_adherent(p, F, space)
            if ok:
                assert check_filter(G).passed
                assert F.leq(G)


def test_adherence_monotone_decreasing(u22, u31_godel):
    # F <= F' and p adherent to F' implies p adherent to F
    for u in (u22, u31_godel):
        space = discrete_space(u)
        filters = enumerate_filters(u)
        for F in filters:
            for G in filters:
                if not F.leq(G):
                    continue
                for p in u.ground.points():
                    if is_adherent(p, G, space)[0]:
                        assert is_adherent(p, F, space)[0]


def test_adherent_points_indiscrete(u22):
    # the least filter is adherent everywhere; a point-concentrated filter
    # only at its own point (the crisp rows of N_q clash with it elsewhere)
    space = indiscrete_space(u22)
    filters = enumerate_filters(u22)
    trivial = min(filters, key=lambda F: sum(F.table))
    assert adherent_points(trivial, space) == [0, 1]
    for F in filters:
        if F.table == trivial.table:
            continue
        pts = adherent_points(F, space)
        assert len(pts) == 1
        assert converges(F, pts[0], space)


def adherence_by_saturation(p, F, space):
    """The oracle: saturate the join of F and N_p from scratch."""
    u = space.universe
    tab = space.nbhd.tables[p]
    seed = tuple(u.lattice.join2(a, b) for a, b in zip(tab, F.table))
    G = saturate(u, seed)
    if isinstance(G, NoFilterAbove):
        return False, None
    return True, G


def oracle_tables(u, filters, rng):
    """Every filter, a single-cell mutant of each, and ten random tables
    that are not filters."""
    lat = u.lattice
    out = list(filters)
    for F in filters:
        table = list(F.table)
        k = rng.randrange(len(table))
        table[k] = rng.choice([v for v in lat.elements() if v != table[k]])
        out.append(FilterTable(universe=u, table=tuple(table)))
    while len(out) < 2 * len(filters) + 10:
        G = FilterTable(universe=u, table=tuple(
            rng.randrange(lat.n) for _ in range(u.graded_size)))
        if not check_filter(G).passed:
            out.append(G)
    return out


@pytest.mark.parametrize("name", [name for name in models.CENSUS
                                  if name != "u24"])
def test_adherence_matches_saturation_from_scratch(name, request):
    # both rules read only F and the table N_p, so every topology and point
    # is covered by one (space, point) per distinct table
    u = request.getfixturevalue(name)
    tables = {}
    for t in enumerate_topologies(u):
        space = Space(u, t)
        for p in u.ground.points():
            tables.setdefault(space.nbhd.tables[p], (space, p))
    corpus = oracle_tables(u, enumerate_filters(u), random.Random(name))
    hits = 0
    for space, p in tables.values():
        for F in corpus:
            got = is_adherent(p, F, space)
            assert got == adherence_by_saturation(p, F, space), (p, F.table)
            hits += got[0]
    assert 0 < hits < len(tables) * len(corpus)


def test_closure_is_kept_and_not_a_field(u32_luk):
    filters = enumerate_filters(u32_luk)
    F = filters[-1]
    assert F.closure is F.table
    assert F == FilterTable(universe=u32_luk, table=F.table)
    assert hash(F) == hash(FilterTable(universe=u32_luk, table=F.table))
    lat = u32_luk.lattice
    low = FilterTable(universe=u32_luk, table=(lat.bot,) * u32_luk.graded_size)
    assert low.closure == filters[0].table
    high = FilterTable(universe=u32_luk, table=(lat.top,) * u32_luk.graded_size)
    assert high.closure is None


def test_each_filter_is_saturated_once(u23, u32_luk, monkeypatch):
    import fuzztop.filters as filters_module
    calls = []

    def counting(universe, seed):
        calls.append(seed)
        return saturate(universe, seed)

    monkeypatch.setattr(filters_module, "saturate", counting)
    for u in (u23, u32_luk):
        calls.clear()
        # enumerate_filters takes its least filter from one saturate call
        filters = enumerate_filters(u)
        assert calls == [(u.lattice.bot,) * u.graded_size]
        calls.clear()
        tables = oracle_tables(u, filters, random.Random(8))
        spaces = [Space(u, t) for t in enumerate_topologies(u)]
        for k, space in enumerate(spaces):
            is_compact(space, filters=tables[:5])
            for F in tables:
                is_adherent(k % u.ground.m, F, space)
        assert len(spaces) > 20
        assert sorted(calls) == sorted(F.table for F in tables)


def test_corpus_spaces_compact(u21, u22, u31_godel, u31_luk):
    for u in (u21, u22, u31_godel, u31_luk):
        for space in (discrete_space(u), indiscrete_space(u)):
            ok, witness = is_compact(space)
            assert ok and witness is None


def compact_by_sweep(space, mode, filters, adheres=None):
    """The oracle: every checked member, point by point, up to its first
    adherent point; the first member with none is the witness.  `adheres`
    (p, F, space) -> bool defaults to `is_adherent`'s verdict."""
    if adheres is None:
        def adheres(p, F, space):
            return is_adherent(p, F, space)[0]
    if mode == "ultrafilter":
        filters = [F for F in filters
                   if is_ultrafilter(F, "characterization")[0]]
    points = space.universe.ground.points()
    for F in filters:
        if not any(adheres(p, F, space) for p in points):
            return False, F
    return True, None


def maximal_members(filters, leq):
    """The members no other member lies above in the order `leq`; of equal
    tables, the last."""
    return [F for i, F in enumerate(filters)
            if not any(leq(F, G) and (G.table != F.table or j > i)
                       for j, G in enumerate(filters) if j != i)]


def test_is_compact_tests_the_maximal_filters_first(u22, u32_luk,
                                                    count_calls,
                                                    pointwise_leq):
    # every member of a full listing is decided by the maximal filters it
    # records, with no test; only a witness that is not maximal is tested,
    # at every point
    import fuzztop.compactness as compactness
    calls = count_calls(compactness.is_adherent)
    non_compact = Space(u32_luk, enumerate_topologies(u32_luk)[0])
    for space in (indiscrete_space(u22), non_compact):
        filters = enumerate_filters(space.universe)
        for listed in (filters, filters[::-1]):
            want = compact_by_sweep(space, "sweep", listed)
            maximal = maximal_members(listed, pointwise_leq)
            expected = []
            if not want[0] and not any(want[1] is F for F in maximal):
                expected = [(p, want[1].table)
                            for p in space.universe.ground.points()]
            calls.clear()
            assert is_compact(space, filters=listed) == want
            assert [(p, F.table) for p, F, _ in calls] == expected

    # the listed least filter is decided by the maximal filters it records,
    # with no test; the hand-built table no filter lies above records none,
    # so it is tested at every point and is the witness
    space = indiscrete_space(u22)
    least = enumerate_filters(u22)[0]
    junk = FilterTable(universe=u22, table=(u22.lattice.top,) * u22.graded_size)
    calls.clear()
    assert is_compact(space, filters=[least, junk]) == (False, junk)
    assert [(p, F.table) for p, F, _ in calls] == [
        (0, junk.table), (1, junk.table)]


@pytest.mark.parametrize("name", ["u22", "u23", "u32_godel", "u32_luk"])
def test_a_point_adheres_iff_a_recorded_upper_bound_converges(name, request):
    # the module's Lemma 2 on every listed filter, point and topology; the
    # closure side is kept per (filter, N_p), the two things it reads
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    listed = {id(U.table): U for U in filters}
    verdicts, seen = {}, set()
    for t in enumerate_topologies(u):
        space = Space(u, t)
        for F in filters:
            for p in u.ground.points():
                key = (id(F), space.nbhd.tables[p])
                if key not in verdicts:
                    verdicts[key] = is_adherent(p, F, space)[0]
                lemma = any(converges(listed[id(t)], p, space)
                            for t in F.maximal_above)
                assert lemma == verdicts[key], (t.table, F.table, p)
                seen.add(lemma)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["u32_godel", "u32_luk"])
def test_is_compact_work_per_call(name, request, monkeypatch):
    # on the full listing each call compares each maximal filter with each
    # point's neighborhood table at most once and reads no filter's code,
    # so no pairwise search of the listing can come back unnoticed; its
    # adherence tests are pinned by
    # test_adherence_tests_are_bounded_by_the_maximal_filters
    import fuzztop.compactness as compactness
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    spaces = [Space(u, t) for t in enumerate_topologies(u)]
    maximal = {id(U.table) for U in filters if U.maximal}
    reads, tested = [], []

    class Tables(tuple):
        def __iter__(self):
            for p, N in enumerate(tuple.__iter__(self)):
                reads.append((id(tested[-1]), p))
                yield N

    original = compactness._converges_somewhere

    def counting(table, space):
        tested.append(table)
        return original(table, space)

    monkeypatch.setattr(compactness, "_converges_somewhere", counting)
    code = FilterTable.code
    codes = []
    monkeypatch.setattr(FilterTable, "code", property(
        lambda F: codes.append(F) or code.func(F)))
    compared = 0
    for space in spaces:
        # built unchecked, as the check would read every table
        space.nbhd = trusted(NbhdSystem, universe=u,
                             tables=Tables(space.nbhd.tables))
        reads.clear()
        tested.clear()
        is_compact(space, filters=filters)
        assert len(reads) == len(set(reads))
        assert all(id(t) in maximal for t in tested)
        assert len(tested) == len(set(map(id, tested)))
        compared += len(reads)
    assert compared >= len(spaces)
    assert codes == []


def count_adherence_tests(decide, spaces, mode, filters, calls):
    """The `is_adherent` calls `decide` makes per space."""
    per_space = []
    for space in spaces:
        calls.clear()
        decide(space, mode, filters)
        per_space.append(len(calls))
    return per_space


@pytest.mark.parametrize("name, by_closures", [("u32_godel", 1473),
                                               ("u32_luk", 2156)])
def test_adherence_tests_are_bounded_by_the_maximal_filters(
        name, by_closures, request, count_calls, compact_by_closures):
    # a maximal filter adheres exactly where it converges, so only a
    # witness that is not maximal is tested, at each point: 0 and 616
    # tests, where testing each maximal filter by closures made
    # `by_closures` and the all-filters sweep 17,676 and 5,236
    import fuzztop.compactness as compactness
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    spaces = [Space(u, t) for t in enumerate_topologies(u)]
    calls = count_calls(compactness.is_adherent)
    per_space = count_adherence_tests(is_compact, spaces, "sweep", filters,
                                      calls)
    assert len(spaces) == {"u32_godel": 491, "u32_luk": 308}[name]
    assert max(per_space) <= u.ground.m
    assert sum(per_space) == {"u32_godel": 0, "u32_luk": 616}[name]
    assert sum(count_adherence_tests(compact_by_closures, spaces, "sweep",
                                     filters, calls)) == by_closures


@pytest.mark.parametrize("name, by_closures", [("u32_godel", 1473),
                                               ("u32_luk", 924)])
def test_ultrafilter_mode_tests_each_maximal_member_once(
        name, by_closures, request, count_calls, compact_by_closures):
    # on a full listing every ultrafilter is a maximal filter, decided by
    # convergence, so no test is made; testing each by closures, in list
    # order up to the first with no adherent point, made `by_closures`
    # (and 1,540 and 2,156 on u32_luk before that)
    import fuzztop.compactness as compactness
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    spaces = [Space(u, t) for t in enumerate_topologies(u)]
    calls = count_calls(compactness.is_adherent)
    assert count_adherence_tests(is_compact, spaces, "ultrafilter", filters,
                                 calls) == [0] * len(spaces)
    assert sum(count_adherence_tests(compact_by_closures, spaces,
                                     "ultrafilter", filters,
                                     calls)) == by_closures


@pytest.mark.parametrize("name", models.SWEPT)
def test_is_compact_matches_the_all_filters_sweep(name, request):
    # every topology, both modes, on the full enumeration, a shuffled half
    # of it, and that half with a table that is not a filter, so members lie
    # below no certificate and the per-point fallback decides them.  The
    # oracle keeps each verdict by (table, N_p), the two things it reads
    u = request.getfixturevalue(name)
    verdicts = {}

    def adheres(p, F, space):
        key = (F.table, space.nbhd.tables[p])
        if key not in verdicts:
            verdicts[key] = is_adherent(p, F, space)[0]
        return verdicts[key]

    rng = random.Random(name)
    filters = enumerate_filters(u)
    junk = [F for F in oracle_tables(u, filters, rng)[len(filters):]
            if not check_filter(F).passed]
    topologies = enumerate_topologies(u)
    checks = 0
    for t in topologies:
        space = Space(u, t)
        half = rng.sample(filters, (len(filters) + 1) // 2)
        mixed = half + [rng.choice(junk)]
        rng.shuffle(mixed)
        for mode in ("sweep", "ultrafilter"):
            for listed in (filters, half, mixed):
                try:
                    want = compact_by_sweep(space, mode, listed, adheres)
                except PreconditionViolated:
                    # the ultrafilter characterization rejects the junk
                    with pytest.raises(PreconditionViolated):
                        is_compact(space, mode, listed)
                    continue
                got = is_compact(space, mode, listed)
                assert (got[0], got[1] and got[1].table) == \
                    (want[0], want[1] and want[1].table), (t.table, mode)
                checks += 1
    assert checks == 5 * len(topologies)


@pytest.mark.parametrize("name", models.CENSUS)
def test_is_compact_matches_the_closure_only_decision(name, request,
                                                      compact_by_closures):
    # deciding maximal filters by convergence gives the verdict and the
    # witness object of testing them by closures, on the full listing, its
    # reverse, every other member, and copies that `enumerate_filters` has
    # not told which are maximal
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    copies = [FilterTable(universe=u, table=F.table) for F in filters]
    assert not any("maximal" in vars(F) for F in copies)
    for t in enumerate_topologies(u):
        space = Space(u, t)
        for mode in ("sweep", "ultrafilter"):
            for listed in (filters, filters[::-1], filters[::2], copies):
                want = compact_by_closures(space, mode, listed)
                got = is_compact(space, mode, listed)
                assert got[0] == want[0] and got[1] is want[1], \
                    (t.table, mode)


def test_compactness_modes_agree(u22, u31_godel, u31_luk):
    for u in (u22, u31_godel, u31_luk):
        for space in (discrete_space(u), indiscrete_space(u)):
            filters = enumerate_filters(u)
            sweep = is_compact(space, filters=filters)
            fast = is_compact(space, mode="ultrafilter", filters=filters)
            assert sweep[0] == fast[0]


def test_ultrafilter_mode_checks_each_filter_once(u32_luk, monkeypatch):
    import fuzztop.filters as filters_module
    calls = []

    def counting(F):
        calls.append(F)
        return check_filter(F)

    monkeypatch.setattr(filters_module, "check_filter", counting)
    filters = enumerate_filters(u32_luk)
    spaces = [Space(u32_luk, t) for t in enumerate_topologies(u32_luk)]
    for space in spaces:
        assert is_compact(space, mode="ultrafilter", filters=filters)[0] is False
    assert len(spaces) == 308
    assert sorted(map(id, calls)) == sorted(map(id, filters))
    # a table that is not a filter is rejected on every call
    lat = u32_luk.lattice
    junk = FilterTable(universe=u32_luk,
                       table=(lat.top,) * u32_luk.graded_size)
    for _ in range(2):
        with pytest.raises(PreconditionViolated):
            is_compact(spaces[0], mode="ultrafilter", filters=[junk])


def test_is_compact_unknown_mode(u21, count_calls):
    import fuzztop.filters as filters
    calls = count_calls(filters.enumerate_filters)
    with pytest.raises(ValueError, match="unknown mode 'nonsense'"):
        is_compact(discrete_space(u21), mode="nonsense")
    assert calls == []  # the mode is checked before any enumeration


def test_image_compactness_collapse(u21, u22):
    rep = image_compactness_check((0, 0), discrete_space(u22),
                                  discrete_space(u21))
    assert rep.passed, rep


def test_image_compactness_identity(u22):
    rep = image_compactness_check((0, 1), discrete_space(u22),
                                  discrete_space(u22))
    assert rep.passed


def test_image_compactness_records_every_verdict(u21, u22,
                                                 monkeypatch):
    sx, sy = discrete_space(u22), discrete_space(u21)
    rep = image_compactness_check((0, 0), sx, sy)
    assert {k: v.status for k, v in rep.verdicts.items()} == dict.fromkeys(
        ("adherent_upstream", "codomain_compact", "image_point_adherent",
         "preimage_is_filter", "proof_chain", "round_trip"), "pass")

    # a codomain "filter" grading every cell top pulls back to a table whose
    # saturation collapses, so it has no adherent point upstream; it is
    # slipped into the codomain's listing, as no listing holds it
    import fuzztop.compactness as compactness
    (F,) = enumerate_filters(u21)
    bad = FilterTable(universe=u21, table=(u21.lattice.top,) * u21.graded_size)
    monkeypatch.setattr(compactness, "enumerate_filters", lambda u: (
        [F, bad] if u is u21 else enumerate_filters(u)))
    rep = image_compactness_check((0, 0), sx, sy)
    assert rep.verdicts["adherent_upstream"].status == "fail"
    assert rep.verdicts["adherent_upstream"].witness == {"filter": bad.table}
    assert rep.verdicts["image_point_adherent"].status == "skipped"
    assert rep.verdicts["preimage_is_filter"].status == "fail"


@pytest.mark.parametrize("half", ["converges", "leq"])
def test_image_compactness_replays_both_halves_of_the_proof_chain(
        u21, u22, half, monkeypatch):
    # on valid input F <= phi(G) and phi(G) -> phi(p) both hold, so a replay
    # that tested only one of them passed every other test; each is made to
    # fail here in turn
    import fuzztop.compactness as compactness
    target = compactness if half == "converges" else FilterTable
    monkeypatch.setattr(target, half, lambda *args: False)
    (F,) = enumerate_filters(u21)
    rep = image_compactness_check((0, 0), discrete_space(u22),
                                  discrete_space(u21))
    chain = rep.verdicts["proof_chain"]
    assert chain.status == "fail"
    assert chain.witness["filter"] == F.table


def test_image_compactness_on_every_continuous_surjection_u23_to_u22(u22,
                                                                    u23):
    # criterion 09 replays the proof only along identities and the collapse
    # u22 -> u21; here every preimage is a proper pullback onto 3 points
    codomains = [Space(u22, eta) for eta in enumerate_topologies(u22)]
    checks = 0
    for tau in enumerate_topologies(u23):
        sx = Space(u23, tau)
        if not is_compact(sx)[0]:
            continue
        for phi in surjections(3, 2):
            for sy in codomains:
                if is_continuous(phi, tau, sy.topology)[0]:
                    rep = image_compactness_check(phi, sx, sy)
                    assert rep.passed, (phi, tau.table, sy.topology.table)
                    checks += 1
    assert checks == 342


def test_image_compactness_preconditions(u21, u22):
    with pytest.raises(PreconditionViolated, match="map is not surjective"):
        image_compactness_check((1, 1), discrete_space(u22),
                                discrete_space(u22))
    with pytest.raises(PreconditionViolated, match="map is not continuous"):
        image_compactness_check((0, 1), indiscrete_space(u22),
                                discrete_space(u22))


def test_single_factor_product_is_copy(u22):
    space = discrete_space(u22)
    P = build_product([space])
    assert P.universe.ground.m == 2
    assert P.space.topology.table == space.topology.table


def test_product_ground_and_projections(u22):
    s = discrete_space(u22)
    P = build_product([s, s])
    assert P.universe.ground.m == 4
    assert P.point_tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    for k in range(2):
        assert len(P.projections[k]) == 4


def test_every_projection_is_continuous(u22, u31_godel, u31_luk):
    # build_product checks no projection: the product topology lies above
    # every pulled-back factor grading, so each one is continuous
    products = 0
    for u in (u22, u31_godel, u31_luk):
        spaces = [Space(u, t) for t in enumerate_topologies(u)]
        for factors in itertools.product(spaces, repeat=2):
            P = build_product(list(factors))
            products += 1
            for k, f in enumerate(factors):
                assert is_continuous(P.projections[k], P.space.topology,
                                     f.topology)[0]
    assert products == 34


def test_product_factor_limit(u21):
    s = discrete_space(u21)
    with pytest.raises(SizeLimit):
        build_product([s, s, s, s])


def test_product_requires_shared_lattice(u31_godel, diamond_1pt):
    with pytest.raises(PreconditionViolated,
                       match="factors must share the lattice"):
        build_product([discrete_space(u31_godel), discrete_space(diamond_1pt)])
    # an equal lattice built apart is the same lattice
    twin = models.build("u31_godel")
    assert twin.lattice is not u31_godel.lattice
    P = build_product([discrete_space(u31_godel), discrete_space(twin)])
    assert P.universe.ground.m == 1


def test_product_requires_shared_tensor(u31_godel, u31_luk):
    with pytest.raises(PreconditionViolated):
        build_product([discrete_space(u31_godel), discrete_space(u31_luk)])


def test_product_takes_equal_tensors_held_in_other_containers(u31_godel):
    lat = u31_godel.lattice
    listed = Tensor(base=lat, table=[list(row) for row in lat.meet])
    other = Universe(lat, listed, Ground(1))
    P = build_product([discrete_space(u31_godel), discrete_space(other)])
    assert P.universe.ground.m == 1
    assert P.universe.tensor.table == u31_godel.tensor.table


def test_product_requires_shared_cotensor(u31_godel, u31_godel_bounded_sum):
    # the join and the bounded sum min(2, a + b) on the 3-chain
    spaces = [discrete_space(u31_godel),
              discrete_space(u31_godel_bounded_sum)]
    for factors in (spaces, spaces[::-1]):
        with pytest.raises(PreconditionViolated,
                           match="factors must share the cotensor"):
            build_product(factors)


def test_product_nbhd_matches_derived_tables(u22, product_nbhd):
    # the explicit formula against the tables derived from the generated
    # topology, cell by cell
    s = discrete_space(u22)
    P = build_product([s, s])
    u = P.universe
    for p in range(u.ground.m):
        for si in range(u.n_sets):
            for a in u.lattice.elements():
                assert product_nbhd(P, p, si, a) == \
                    P.space.nbhd.tables[p][u.gidx(si, a)]


def assert_system_is_the_formula(P, product_nbhd):
    """`product_nbhd_system` equals the `product_nbhd` oracle cell by
    cell."""
    u = P.universe
    tables = product_nbhd_system(P).tables
    assert len(tables) == u.ground.m
    for p in range(u.ground.m):
        assert tables[p] == tuple(product_nbhd(P, p, si, a)
                                  for si in range(u.n_sets)
                                  for a in u.lattice.elements())


def test_product_nbhd_system_on_the_two_spaces_spec(product_nbhd):
    doc = parse_spec((SPECS / "two_spaces.spec").read_text())
    spaces = {name: Space(build_universe(doc, name),
                          doc.spaces[name].topology) for name in ("X", "Y")}
    for pair in (("X", "X"), ("X", "Y")):
        P = build_product([spaces[name] for name in pair])
        assert_system_is_the_formula(P, product_nbhd)
        assert product_nbhd_system(P).tables == P.space.nbhd.tables


def test_product_nbhd_system_on_non_discrete_factors(u21, u22,
                                                     product_nbhd):
    # two non-discrete u22 factors, and three u21 factors, 256 sets
    topologies = enumerate_topologies(u22)
    middle = [Space(u22, t) for t in topologies[1:-1]]
    assert len(middle) >= 2
    for factors in (middle[:2], [middle[0], middle[-1]],
                    [discrete_space(u21), indiscrete_space(u21),
                     discrete_space(u21)]):
        assert_system_is_the_formula(build_product(factors), product_nbhd)


def test_product_nbhd_system_under_a_cqm_tensor(chain4_cqm_1pt,
                                                product_nbhd):
    # a quasi-monoidal tensor that is not associative: a term's value
    # varies with the grade below its bound, so each grade is seeded
    u = chain4_cqm_1pt
    spaces = [Space(u, t) for t in enumerate_topologies(u)]
    assert len(spaces) == 8
    for factors in itertools.product(spaces, repeat=2):
        assert_system_is_the_formula(build_product(factors), product_nbhd)


@pytest.mark.parametrize("tensor, names", [
    ("meet_tensor", ("u32_godel", "u31_godel")),
    ("lukasiewicz_tensor", ("u32_luk", "u31_luk")),
], ids=["meet_tensor", "lukasiewicz_tensor"])
def test_product_nbhd_system_on_the_3_chain(tensor, names, request,
                                            product_nbhd):
    universes = [request.getfixturevalue(name) for name in names]
    rng = random.Random(tensor)
    for _ in range(3):
        factors = [Space(u, rng.choice(enumerate_topologies(u)))
                   for u in universes]
        assert_system_is_the_formula(build_product(factors), product_nbhd)


@pytest.mark.parametrize("name", ["u31_luk", "chain4_luk_1pt", "diamond_1pt",
                                  "u31_godel_middle_unit"])
def test_product_nbhd_system_on_other_factors(name, request, product_nbhd):
    # the closed row also joins the terms seeded at grades above a, which
    # the formula leaves out: they lie below it because every factor's
    # neighborhood table falls as the grade rises (N1)
    u = request.getfixturevalue(name)
    non_discrete = [Space(u, t) for t in enumerate_topologies(u)
                    if t.table != discrete(u).table]
    chosen = random.Random(name).sample(non_discrete,
                                        min(3, len(non_discrete)))
    assert len(chosen) >= 2
    for x in chosen:
        assert check_nbhd(x.nbhd).verdicts["N1"].status == "pass"
        for y in chosen:
            assert_system_is_the_formula(build_product([x, y]), product_nbhd)


def test_product_nbhd_system_passes_axioms(u22):
    s = discrete_space(u22)
    P = build_product([s, s])
    assert check_nbhd(product_nbhd_system(P)).passed


def test_product_convergence_componentwise(u22):
    s = discrete_space(u22)
    P = build_product([s, s])
    from fuzztop.filters import is_ultrafilter
    formula = product_nbhd_system(P)
    for U in enumerate_filters(P.universe):
        if not is_ultrafilter(U)[0]:
            continue
        rep = product_convergence_check(P, U, formula_nbhd=formula)
        assert rep.passed


def test_product_convergence_requires_ultrafilter(u22):
    s = discrete_space(u22)
    P = build_product([s, s])
    filters = enumerate_filters(P.universe)
    from fuzztop.filters import is_ultrafilter
    small = next(F for F in filters if not is_ultrafilter(F)[0])
    with pytest.raises(PreconditionViolated):
        product_convergence_check(P, small)


def test_product_convergence_requires_a_filter(u22):
    s = discrete_space(u22)
    P = build_product([s, s])
    u = P.universe
    junk = FilterTable(universe=u, table=(u.lattice.top,) * u.graded_size)
    with pytest.raises(PreconditionViolated,
                       match="input does not pass the filter axioms"):
        product_convergence_check(P, junk)


# before the check a u31 ultrafilter raised IndexError, a u22 one raised a
# PreconditionViolated naming a point map, and one over another u21 of the
# same shape got a verdict
@pytest.mark.parametrize("name", ["u31_godel", "u22", "u21"],
                         ids=["u31", "u22", "another-u21"])
def test_product_convergence_rejects_filters_of_another_universe(u21, name):
    P = build_product([discrete_space(u21), discrete_space(u21)])
    other = models.build(name)
    U = next(F for F in enumerate_filters(other) if is_ultrafilter(F)[0])
    with pytest.raises(PreconditionViolated,
                       match="a filter is over another universe"):
        product_convergence_check(P, U)


def test_product_convergence_rejects_a_formula_of_another_product(u21):
    P, Q = (build_product([discrete_space(u21), discrete_space(u21)])
            for _ in range(2))
    U = next(F for F in enumerate_filters(P.universe) if is_ultrafilter(F)[0])
    assert product_convergence_check(P, U, product_nbhd_system(P)).passed
    with pytest.raises(PreconditionViolated,
                       match="the formula is over another universe"):
        product_convergence_check(P, U, product_nbhd_system(Q))


def test_tychonoff_two_factors(u21, u22):
    rep = tychonoff_check([discrete_space(u22), discrete_space(u21)])
    assert rep.passed
    assert rep.verdicts["biconditional"].status == "pass"


def test_tychonoff_single_factor(u31_luk):
    rep = tychonoff_check([indiscrete_space(u31_luk)])
    assert rep.passed


# a 2-point domain and a 1-point codomain over the 2-chain; before the check
# is_continuous gave (True, None) for the first two maps (-1 wraps round)
# and raised IndexError for the others
@pytest.mark.parametrize("phi", [(0, 0, 0), (-1, -1), (0,), (5,), (0, 5)])
def test_point_maps_are_validated(u21, u22, phi):
    x, y = discrete_space(u22), discrete_space(u21)
    tau, eta = x.topology, y.topology
    F, G = enumerate_filters(u22)[-1], enumerate_filters(u21)[-1]
    calls = [lambda: is_continuous(phi, tau, eta),
             lambda: check_continuity_nbhd(phi, tau, eta),
             lambda: nbhd_pushforward(phi, tau, eta),
             lambda: image_filter(phi, F, u21),
             lambda: preimage_filter(phi, G, u22),
             lambda: image_compactness_check(phi, x, y)]
    for call in calls:
        with pytest.raises(PreconditionViolated,
                           match=f"^point map {re.escape(str(phi))} "):
            call()
