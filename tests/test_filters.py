import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fuzztop.errors import (NotAChain, NotSurjective, PreconditionViolated,
                            SizeLimit)
from fuzztop.filters import (FilterTable, NoFilterAbove, check_filter,
                             enumerate_filters, enumerate_filters_bruteforce,
                             hat_extension, image_filter,
                             is_ultrafilter, preimage_filter, saturate,
                             sup_of_chain)

import models


def principal(u, si):
    """The filter concentrated on the sets above a fixed crisp set."""
    lat = u.lattice
    table = []
    for sj in range(u.n_sets):
        v = lat.top if u.pw_leq[si][sj] else lat.bot
        table.extend([v] * lat.n)
    return FilterTable(universe=u, table=tuple(table))


def test_principal_filters_pass(u22):
    for si in range(u22.n_sets):
        if si == u22.zero_idx:
            continue
        assert check_filter(principal(u22, si)).passed


@pytest.mark.parametrize("length", [3, 10])
def test_check_filter_rejects_a_table_of_another_length(u22, length):
    # u22 has 4 sets at 2 grades: 8 graded cells; 10 entries were judged on
    # their first 8, 3 raised IndexError
    with pytest.raises(PreconditionViolated,
                       match=f"^table has {length} grades for 8 graded cells$"):
        check_filter(FilterTable(universe=u22,
                                 table=(u22.lattice.top,) * length))


@pytest.mark.parametrize("grade", [-1, 2])
def test_check_filter_rejects_grades_outside_the_lattice(u22, grade):
    # -1 in place of a top cell outside the top row passed every axiom (a
    # negative index reads the last row); 2 raised IndexError
    F = principal(u22, 1)
    gi = next(gi for gi, v in enumerate(F.table)
              if v == u22.lattice.top and gi // u22.n != u22.one_idx)
    table = list(F.table)
    table[gi] = grade
    with pytest.raises(PreconditionViolated,
                       match=f"^table entry {gi} is {grade}, outside 0..1$"):
        check_filter(FilterTable(universe=u22, table=tuple(table)))


def test_ff3_failure_detected(u22):
    F = principal(u22, u22.zero_idx)  # grades the empty set at top
    rep = check_filter(F)
    assert rep.verdicts["FF3"].status == "fail"
    assert rep.verdicts["FF0"].status == "pass"


def test_ff1_failure_detected(u21):
    lat = u21.lattice
    table = [lat.bot] * u21.graded_size
    for a in lat.elements():
        table[u21.gidx(u21.one_idx, a)] = lat.top
    table[u21.gidx(u21.one_idx, lat.top)] = lat.bot
    rep = check_filter(FilterTable(universe=u21, table=tuple(table)))
    assert rep.verdicts["FF0"].status == "fail"


def test_ff2_first_witness(u22, u32_luk):
    # filters raised at one cell break tensor stability; the first failing
    # pair is fixed by the sweep order, and on u32 its target grade is the
    # join 1 v 2 of the two grades
    F = principal(u22, 2)
    assert check_filter(F).passed
    table = list(F.table)
    table[u22.gidx(1, 0)] = u22.lattice.top
    rep = check_filter(FilterTable(universe=u22, table=tuple(table)))
    assert rep.failures().keys() == {"FF2"}
    assert rep.verdicts["FF2"].witness == {"cells": (1, 0, 2, 0)}

    least = enumerate_filters(u32_luk)[0]
    assert least.table == (0,) * 24 + (2, 2, 2)
    table = list(least.table)
    table[u32_luk.gidx(0, 1)] = 1
    rep = check_filter(FilterTable(universe=u32_luk, table=tuple(table)))
    assert rep.verdicts["FF2"].witness == {"cells": (0, 1, 8, 2)}


def test_ff1_first_witness(u32_luk):
    # the least filter raised at (set 4, grade 1); in the graded order the
    # first cell above it is (set 4, grade 0), still at bot
    least = enumerate_filters(u32_luk)[0]
    table = list(least.table)
    table[u32_luk.gidx(4, 1)] = 2
    rep = check_filter(FilterTable(universe=u32_luk, table=tuple(table)))
    assert rep.verdicts["FF1"].witness == {"cells": ((4, 1), (4, 0))}


def test_enumeration_matches_bruteforce(u21, u22, u31_godel, u31_luk,
                                        bruteforce_filter_tables):
    expected = {id(u21): 1, id(u22): 3, id(u31_godel): 3, id(u31_luk): 2}
    for u in (u21, u22, u31_godel, u31_luk):
        fast = enumerate_filters(u)
        assert len(fast) == expected[id(u)]
        assert [F.table for F in fast] == bruteforce_filter_tables[id(u)]


def filters_by_sweep(u, graded_leq):
    """Oracle: every table with the top row at top and the empty-set row at
    bot, swept over the remaining cells, kept when monotone in the graded
    order and passing check_filter.  The monotonicity test only skips
    check_filter calls that would fail FF1."""
    lat, le = u.lattice, u.lattice.leq
    pinned = {u.one_idx: lat.top, u.zero_idx: lat.bot}
    free = [gi for gi in u.graded_cells() if gi // u.n not in pinned]
    pairs = [(gi, gj) for gi in u.graded_cells() for gj in u.graded_cells()
             if graded_leq(u, gi, gj)]
    table = [pinned.get(gi // u.n) for gi in u.graded_cells()]
    out = []
    for values in itertools.product(lat.elements(), repeat=len(free)):
        for gi, v in zip(free, values):
            table[gi] = v
        if all(le[table[gi]][table[gj]] for gi, gj in pairs):
            F = FilterTable(universe=u, table=tuple(table))
            if check_filter(F).passed:
                out.append(F.table)
    return out


def test_enumeration_matches_sweep(u23, diamond_1pt, chain4_godel_1pt,
                                   chain4_luk_1pt, graded_leq):
    # the plain |L|**cells sweep is 2**16 or 4**16 tables here
    for u in (u23, diamond_1pt, chain4_godel_1pt, chain4_luk_1pt):
        assert [F.table for F in enumerate_filters(u)] == \
            filters_by_sweep(u, graded_leq)


def test_u32_filter_goldens(u32_godel, u32_luk):
    assert len(enumerate_filters(u32_godel)) == 27
    assert len(enumerate_filters(u32_luk)) == 22


def test_enumerated_filters_all_pass(u22, u31_luk):
    for u in (u22, u31_luk):
        for F in enumerate_filters(u):
            assert check_filter(F).passed


def test_enumeration_cap(u32_godel):
    # u32 takes under three hundred closures: the default cap lets it finish
    with pytest.raises(SizeLimit):
        enumerate_filters(u32_godel, cap=10)


@pytest.mark.parametrize("name, closures", [("u32_godel", 271),
                                            ("u32_luk", 277),
                                            ("diamond_1pt", 62)])
def test_enumeration_cap_counts_every_closure(name, closures, request):
    # the cap counts candidate closures, refuted ones included, the least
    # table's among them
    u = request.getfixturevalue(name)
    with pytest.raises(SizeLimit):
        enumerate_filters(u, cap=closures - 1)
    assert enumerate_filters(u, cap=closures)


@pytest.mark.parametrize("name", models.SWEPT)
def test_leq_is_the_pointwise_order(name, request, pointwise_leq):
    # every ordered pair of filters, and of random tables that are no
    # filters, each next to a copy with one cell raised to top and one with
    # it lowered to bot, so comparable non-filters occur
    u = request.getfixturevalue(name)
    lat = u.lattice
    rng = random.Random(name)
    filters = enumerate_filters(u)
    junk = []
    while len(junk) < 30:
        table = [rng.randrange(lat.n) for _ in range(u.graded_size)]
        k = rng.randrange(u.graded_size)
        for v in (table[k], lat.top, lat.bot):
            table[k] = v
            junk.append(FilterTable(universe=u, table=tuple(table)))
        if any(check_filter(G).passed for G in junk[-3:]):
            del junk[-3:]
    for tables in (filters, junk):
        verdicts = [(F.leq(G), pointwise_leq(F, G))
                    for F in tables for G in tables]
        assert all(got == want for got, want in verdicts)
        assert {want for _, want in verdicts} == {True, False}


def test_code_is_kept_and_not_a_field(u32_luk):
    F = enumerate_filters(u32_luk)[-1]
    G = FilterTable(universe=u32_luk, table=F.table)
    assert "code" not in vars(G)
    code = G.code
    assert vars(G)["code"] is code
    assert F == G and hash(F) == hash(G) and F.code == code
    assert vars(u32_luk.lattice)["downsets"] is u32_luk.lattice.downsets


@pytest.mark.parametrize("name", models.names("tiny"))
def test_enumerated_filters_carry_their_code(name, request):
    u = request.getfixturevalue(name)
    for F in enumerate_filters(u):
        assert "code" in vars(F)
        assert F.code == FilterTable(universe=u, table=F.table).code


def test_sup_of_chain(u31_godel):
    filters = enumerate_filters(u31_godel)
    chains = [c for c in
              [[F, G] for F in filters for G in filters if F.leq(G)]]
    for F, G in chains:
        sup = sup_of_chain([F, G])
        assert sup.table == G.table
        assert check_filter(sup).passed


def test_sup_of_chain_rejects_antichain(u22):
    filters = enumerate_filters(u22)
    anti = [(F, G) for F in filters for G in filters
            if not F.leq(G) and not G.leq(F)]
    assert anti
    with pytest.raises(NotAChain):
        sup_of_chain(list(anti[0]))
    with pytest.raises(NotAChain):
        sup_of_chain([])


def test_sup_of_chain_rejects_filters_of_another_universe(u21, u22):
    # before the check the codes of F and G compared as a chain: [F, G]
    # gave F's 4-cell table back and [G, F] raised IndexError; `leq` now
    # rejects the pair itself (test_leq_rejects_filters_of_another_universe)
    F, = enumerate_filters(u21)
    G = FilterTable(universe=u22, table=(0, 0, 1, 1, 0, 0, 1, 1))
    assert check_filter(G).passed
    for chain in ([F, G], [G, F]):
        with pytest.raises(PreconditionViolated,
                           match="over another universe"):
            sup_of_chain(chain)


def test_leq_rejects_filters_of_another_universe(u21, u22):
    # before the check the codes of a 4-cell and an 8-cell table were
    # compared: F.leq(G) was True
    F, = enumerate_filters(u21)
    G = FilterTable(universe=u22, table=(0, 0, 1, 1, 0, 0, 1, 1))
    for low, high in ((F, G), (G, F)):
        with pytest.raises(PreconditionViolated,
                           match="^a filter is over another universe$"):
            low.leq(high)


@pytest.mark.parametrize("table, message", [
    ((2, 2, 2), "^table has 3 grades for 9 graded cells$"),
    ((7,) * 9, "^table entry 0 is 7, outside 0..2$"),
], ids=["short", "grade-7"])
def test_leq_rejects_a_table_that_is_not_one_of_grades(u31_godel, table,
                                                       message):
    # before the check the grade-7 table raised IndexError, and the short
    # one was compared as a table with 3 cells
    F = enumerate_filters(u31_godel)[0]
    for leq in (F.leq, lambda G: G.leq(F)):
        with pytest.raises(PreconditionViolated, match=message):
            leq(FilterTable(universe=u31_godel, table=table))


def test_maximality_rejects_filters_of_another_universe(u31_godel, u31_luk,
                                                        u32_godel):
    # before the check the second filter, not maximal in its own listing,
    # was judged maximal against the Lukasiewicz listing, and not maximal
    # against the 2-point one, with a 27-cell "larger" table
    filters = enumerate_filters(u31_godel)
    F = filters[1]
    assert is_ultrafilter(F, "maximality", all_filters=filters)[0] is False
    for other in (u31_luk, u32_godel):
        with pytest.raises(PreconditionViolated,
                           match="^a filter is over another universe$"):
            is_ultrafilter(F, "maximality",
                           all_filters=enumerate_filters(other))


@pytest.mark.parametrize("name", models.names("tiny") + ["diamond_2pt"])
def test_maximal_above_is_the_maximal_filters_above(name, request,
                                                    pointwise_leq):
    # the record of each listed filter is, in list order and as the listed
    # table objects, the tables of the filters maximal among the listing
    # that lie above it
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    maximal = [U for U in filters
               if is_ultrafilter(U, "maximality", all_filters=filters)[0]]
    for F in filters:
        want = [U.table for U in maximal if pointwise_leq(F, U)]
        assert list(map(id, F.maximal_above)) == list(map(id, want))
        assert FilterTable(universe=u, table=F.table).maximal_above is None


def test_a_listing_is_freed_without_the_cycle_collector(u32_luk):
    # a record that held the maximal filters themselves made each maximal
    # filter refer to itself, so every dropped listing waited for the
    # cyclic collector
    filters = enumerate_filters(u32_luk)
    refs = [weakref.ref(F) for F in filters]
    assert any(F.maximal for F in filters)
    gc.disable()
    try:
        del filters
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_saturate_is_least_filter_above(u22, u31_luk):
    # oracle: compare against the enumerated filters dominating the seed
    for u in (u22, u31_luk):
        lat = u.lattice
        filters = enumerate_filters(u)
        for si in range(u.n_sets):
            for a in lat.elements():
                seed = [lat.bot] * u.graded_size
                seed[u.gidx(si, a)] = lat.top
                out = saturate(u, tuple(seed))
                above = [F for F in filters
                         if all(lat.le(s, v)
                                for s, v in zip(seed, F.table))]
                if isinstance(out, NoFilterAbove):
                    assert not above
                else:
                    assert check_filter(out).passed
                    assert above
                    for F in above:
                        assert out.leq(F)


def test_saturate_reports_collapse_grade(u22):
    lat = u22.lattice
    seed = [lat.bot] * u22.graded_size
    # demand the empty set at top grade: unsatisfiable
    seed[u22.gidx(u22.zero_idx, lat.bot)] = lat.top
    out = saturate(u22, tuple(seed))
    assert isinstance(out, NoFilterAbove)
    assert out.alpha == lat.bot
    assert out.table[u22.gidx(u22.zero_idx, lat.bot)] == lat.top


def test_saturate_complementary_crisp_sets_collapse(u22):
    # two disjoint crisp sets cannot live in one filter at full grade
    lat = u22.lattice
    seed = [lat.bot] * u22.graded_size
    seed[u22.gidx(u22.set_index[(1, 0)], lat.bot)] = lat.top
    seed[u22.gidx(u22.set_index[(0, 1)], lat.bot)] = lat.top
    assert isinstance(saturate(u22, tuple(seed)), NoFilterAbove)


def test_saturate_idempotent_on_filters(u31_godel):
    for F in enumerate_filters(u31_godel):
        out = saturate(u31_godel, F.table)
        assert isinstance(out, FilterTable) and out.table == F.table


def test_ultrafilter_modes_agree(u21, u22, u31_godel, u31_luk):
    expected = {id(u21): 1, id(u22): 2, id(u31_godel): 1, id(u31_luk): 1}
    for u in (u21, u22, u31_godel, u31_luk):
        filters = enumerate_filters(u)
        by_char = [F for F in filters if is_ultrafilter(F)[0]]
        by_max = [F for F in filters
                  if is_ultrafilter(F, "maximality", all_filters=filters)[0]]
        assert [F.table for F in by_char] == [F.table for F in by_max]
        assert len(by_char) == expected[id(u)]


@pytest.mark.parametrize("name", models.TWO_OR_MORE)
def test_maximal_is_maximality_among_all_filters(name, request):
    # as set by enumerate_filters, and as computed on an unlisted copy
    u = request.getfixturevalue(name)
    filters = enumerate_filters(u)
    for F in filters:
        want = is_ultrafilter(F, "maximality", all_filters=filters)[0]
        G = FilterTable(universe=u, table=F.table)
        assert "maximal" in vars(F) and "maximal" not in vars(G)
        assert F.maximal is want and G.maximal is want, F.table
    assert any(F.maximal for F in filters)
    assert not all(F.maximal for F in filters)


def test_maximal_is_false_for_a_table_that_is_no_filter(u22, u32_luk):
    # every single-cell change of every filter that is no filter, and the
    # all-top table, which holds every attribute, so that only the filter
    # check rejects it
    for u in (u22, u32_luk):
        lat = u.lattice
        junk = [FilterTable(universe=u, table=(lat.top,) * u.graded_size)]
        for F in enumerate_filters(u):
            for k, v in itertools.product(range(u.graded_size),
                                          lat.elements()):
                table = F.table[:k] + (v,) + F.table[k + 1:]
                G = FilterTable(universe=u, table=table)
                if not check_filter(G).passed:
                    junk.append(G)
        assert len(junk) > 20
        assert not any(G.maximal for G in junk)


def test_is_ultrafilter_rejects_non_filter(u22):
    lat = u22.lattice
    junk = FilterTable(universe=u22, table=tuple([lat.top] * u22.graded_size))
    with pytest.raises(PreconditionViolated):
        is_ultrafilter(junk)


def test_non_maximal_has_witness(u22):
    filters = enumerate_filters(u22)
    small = [F for F in filters
             if not is_ultrafilter(F, "maximality", all_filters=filters)[0]]
    for F in small:
        ok, wit = is_ultrafilter(F, "maximality", all_filters=filters)
        assert not ok and "larger" in wit


def test_hat_extension_dominates(u22, u31_luk):
    for u in (u22, u31_luk):
        lat = u.lattice
        filters = enumerate_filters(u)
        ultras = [F for F in filters if is_ultrafilter(F)[0]]
        for U in ultras:
            for g_idx in range(u.n_sets):
                for beta in lat.elements():
                    for rho in lat.elements():
                        if not lat.le(rho, beta):
                            continue
                        hat = hat_extension(U, g_idx, beta, rho)
                        assert U.leq(hat)


def test_hat_extension_fixes_ultrafilters(u22, u31_godel, u31_luk):
    # an ultrafilter absorbs every hat extension: hat(U) = U
    for u in (u22, u31_godel, u31_luk):
        lat = u.lattice
        ultras = [F for F in enumerate_filters(u) if is_ultrafilter(F)[0]]
        for U in ultras:
            for g_idx in range(u.n_sets):
                for beta in lat.elements():
                    assert hat_extension(U, g_idx, beta).table == U.table


def test_hat_extension_rho_precondition(u31_godel):
    U = enumerate_filters(u31_godel)[0]
    with pytest.raises(PreconditionViolated):
        hat_extension(U, 0, beta=1, rho=2)


@pytest.mark.parametrize("table, cell, message", [
    (None, (99, 1), r"^g_idx 99 is outside 0\.\.3$"),
    (None, (-1, 1), r"^g_idx -1 is outside 0\.\.3$"),
    (None, (0, 5), r"^beta 5 is outside 0\.\.1$"),
    (None, (0, -1), r"^beta -1 is outside 0\.\.1$"),
    (None, (0, 1, 5), r"^rho 5 is outside 0\.\.1$"),
    ((1, 1, 1), (0, 1), r"^table has 3 grades for 8 graded cells$"),
], ids=["set-99", "set-minus-one", "beta-5", "beta-minus-one", "rho-5",
        "short-table"])
def test_hat_extension_rejects_input_outside_the_universe(u22, table, cell,
                                                          message):
    # before the checks an index past the end raised IndexError, and -1 was
    # read by negative indexing
    U = enumerate_filters(u22)[0]
    with pytest.raises(PreconditionViolated, match=message):
        if table is not None:
            U = FilterTable(universe=u22, table=table)
        hat_extension(U, *cell)


def test_image_filter_is_filter(u21, u22):
    phi = (0, 0)
    for F in enumerate_filters(u22):
        img = image_filter(phi, F, u21)
        assert check_filter(img).passed


def test_preimage_requires_surjectivity(u22):
    F = enumerate_filters(u22)[0]
    with pytest.raises(NotSurjective):
        preimage_filter((1, 1), F, u22)


def test_preimage_roundtrip(u21, u22):
    # phi surjective: pushing the pullback forward restores the filter
    phi = (0, 0)
    for F in enumerate_filters(u21):
        pre = preimage_filter(phi, F, u22)
        assert check_filter(pre).passed
        assert image_filter(phi, pre, u21).table == F.table


def test_preimage_identity_is_identity(u22):
    phi = (0, 1)
    for F in enumerate_filters(u22):
        assert preimage_filter(phi, F, u22).table == F.table


def saturate_by_passes(u, seed, boxtimes, graded_leq):
    """Oracle: the all-pairs fixpoint loop, rescanning every cell and every
    ordered pair of cells until a pass changes nothing.  It assumes no
    symmetry of the tensor rule."""
    lat = u.lattice
    table = list(seed)
    for a in lat.elements():
        table[u.gidx(u.one_idx, a)] = lat.top
    changed = True
    while changed:
        changed = False
        for gi in u.graded_cells():
            for gj in u.graded_cells():
                if gj != gi and graded_leq(u, gi, gj):
                    w = lat.join2(table[gj], table[gi])
                    changed |= w != table[gj]
                    table[gj] = w
        for gi in u.graded_cells():
            for gj in u.graded_cells():
                k = boxtimes(u, gi, gj)
                w = lat.join2(table[k], u.tensor.app(table[gi], table[gj]))
                changed |= w != table[k]
                table[k] = w
    for a in lat.elements():
        if table[u.gidx(u.zero_idx, a)] != lat.bot:
            return NoFilterAbove(alpha=a, table=tuple(table))
    return FilterTable(universe=u, table=tuple(table))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_saturate_equals_all_pairs_fixpoint(u22, u32_godel, u32_luk,
                                            diamond_1pt, boxtimes, graded_leq,
                                            data):
    u = data.draw(st.sampled_from([u22, u32_godel, u32_luk, diamond_1pt]))
    cells = st.integers(0, u.graded_size - 1)
    grades = st.integers(0, u.lattice.n - 1)
    seed = [u.lattice.bot] * u.graded_size
    for gi, a in data.draw(st.lists(st.tuples(cells, grades), max_size=6)):
        seed[gi] = a
    assert saturate(u, tuple(seed)) == \
        saturate_by_passes(u, seed, boxtimes, graded_leq)



def test_bruteforce_cap_is_inclusive(u21):
    # u21 has 4 graded cells, so 2**4 candidate tables: a cap of 16 admits
    # them and a cap of 15 does not
    assert sorted(F.table for F in enumerate_filters_bruteforce(u21, cap=16)) \
        == sorted(F.table for F in enumerate_filters(u21))
    with pytest.raises(SizeLimit, match="16 candidate tables exceeds cap 15"):
        enumerate_filters_bruteforce(u21, cap=15)


def test_maximality_mode_enumerates_the_filters_itself(u22, u31_luk):
    for u in (u22, u31_luk):
        filters = enumerate_filters(u)
        for F in filters:
            assert is_ultrafilter(F, "maximality") == \
                is_ultrafilter(F, "maximality", all_filters=filters)
