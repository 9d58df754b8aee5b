import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from fuzztop.errors import AdjunctionFailure, PreconditionViolated, SizeLimit
from fuzztop.instances import (chain, join_cotensor, lukasiewicz_tensor,
                               meet_tensor)
from fuzztop.residuated import Tensor, check_co_gl_monoid, check_cqm
from fuzztop.powerset import (Ground, Universe, check_graded_gl,
                              enumerate_powerset)

import models
from test_sweep_oracles import (componentwise, first, graded_order,
                                unbounded_pairs)


def test_powerset_enumeration_count():
    assert len(enumerate_powerset(chain(2), Ground(3))) == 8
    assert len(enumerate_powerset(chain(3), Ground(2))) == 9


def test_universe_rejects_a_non_commutative_tensor():
    # the closure engine fires each pairwise rule once per unordered pair,
    # which is exact only for a commutative tensor; this one is isotone with
    # top idempotent, but 2 (*) 1 = 2 while 1 (*) 2 = 1
    chain3 = chain(3)
    table = [list(row) for row in chain3.meet]
    table[2][1] = 2
    t = Tensor(base=chain3, table=tuple(map(tuple, table)))
    assert check_cqm(t).passed
    assert t.app(2, 1) != t.app(1, 2)
    with pytest.raises(AdjunctionFailure):
        Universe(chain3, t, Ground(1))


def test_universe_rejects_an_operation_over_another_lattice():
    # before the check both built a 3-set universe on the 3-chain, whose
    # enumerate_filters and enumerate_topologies raised IndexError
    c2, c3 = chain(2), chain(3)
    message = "^a tensor or cotensor is over another lattice$"
    with pytest.raises(PreconditionViolated, match=message):
        Universe(c3, meet_tensor(c2), Ground(1))
    with pytest.raises(PreconditionViolated, match=message):
        Universe(c3, lukasiewicz_tensor(c3), Ground(1),
                 cotensor=join_cotensor(c2))
    # a lattice built apart but equal is the same lattice, as for products
    u = Universe(c3, meet_tensor(chain(3)), Ground(1),
                 cotensor=join_cotensor(chain(3)))
    assert u.n_sets == 3


@pytest.mark.parametrize("m", [0, -1, 1.5, 1.0, None, "2", True, [1]], ids=[
    "zero", "minus-one", "one-and-a-half", "one-point-oh", "none", "string",
    "true", "list"])
def test_ground_rejects_a_size_that_is_not_a_positive_int(m):
    # before the check 0 raised ValueError, 1.5 and "2" TypeError, and True
    # gave a one-point ground
    with pytest.raises(PreconditionViolated,
                       match=f"^ground set size {re.escape(repr(m))} is not a "
                             f"positive int$"):
        Ground(m)


def test_powerset_cap_enforced():
    chain3 = chain(3)
    with pytest.raises(SizeLimit):
        enumerate_powerset(chain3, Ground(9), cap=4096)
    with pytest.raises(SizeLimit):  # without computing 3**(10**12)
        enumerate_powerset(chain3, Ground(10 ** 12), cap=4096)


def test_powerset_is_lexicographic():
    sets = enumerate_powerset(chain(3), Ground(2))
    assert sets[0] == (0, 0)
    assert sets[-1] == (2, 2)
    assert sets == sorted(sets)


def test_pointwise_order(u22):
    idx, leq = u22.set_index, u22.pw_leq
    assert leq[idx[(0, 0)]][idx[(1, 0)]]
    assert not leq[idx[(1, 0)]][idx[(0, 1)]]
    assert leq[u22.zero_idx][u22.one_idx]


def graded_bounds(u):
    """The top and the bottom cell of the graded carrier: (1, bot) and
    (0, top)."""
    return (u.gidx(u.one_idx, u.lattice.bot),
            u.gidx(u.zero_idx, u.lattice.top))


def test_graded_order_reverses_grades(u22, graded_leq):
    lo = u22.gidx(u22.zero_idx, u22.lattice.top)
    hi = u22.gidx(u22.one_idx, u22.lattice.bot)
    assert graded_leq(u22, lo, hi)
    assert not graded_leq(u22, hi, lo)
    assert (hi, lo) == graded_bounds(u22)
    # same set, comparable only when the grades reverse
    a = u22.gidx(u22.one_idx, u22.lattice.top)
    assert graded_leq(u22, a, hi)
    assert not graded_leq(u22, hi, a)


def test_boxtimes_components(u31_luk, boxtimes):
    u, lat = u31_luk, u31_luk.lattice
    f, g = u.set_index[(1,)], u.set_index[(2,)]
    gi = boxtimes(u, u.gidx(f, 1), u.gidx(g, 2))
    si, grade = u.gpair(gi)
    assert u.sets[si] == (u.tensor.app(1, 2),)
    assert grade == lat.join2(1, 2)


def test_gimpl_matches_sup_form(u22, u31_luk, u31_godel_middle_unit,
                                u31_luk_middle_unit, u32_godel_middle_unit,
                                u32_luk_middle_unit, gimpl_sup):
    for u in (u22, u31_luk, u31_godel_middle_unit, u31_luk_middle_unit,
              u32_godel_middle_unit, u32_luk_middle_unit):
        for i in u.graded_cells():
            for j in u.graded_cells():
                assert u.gimpl(i, j) == gimpl_sup(u, i, j)


def test_middle_unit_cotensor_is_not_co_gl(u32_luk_middle_unit):
    # a cotensor `Universe` accepts whose co-implication is not bot at
    # rho = a = 1, which no co-GL cotensor allows
    u = u32_luk_middle_unit
    assert set(check_co_gl_monoid(u.cotensor).failures()) == {
        "co_integral", "co_divisible"}
    assert u.coimpl.table == ((0, 0, 0), (2, 1, 0), (2, 2, 0))


def test_graded_lattice_bounds(u31_godel):
    glat = u31_godel.graded_lattice()
    assert glat.n == u31_godel.graded_size
    assert (glat.top, glat.bot) == graded_bounds(u31_godel)


def test_graded_join_meet_examples(u31_godel):
    # the join of (f, a) and (g, b) is (f join g, a meet b), the meet dual
    u = u31_godel
    glat = u.graded_lattice()
    a = u.gidx(u.set_index[(1,)], 2)
    b = u.gidx(u.set_index[(2,)], 1)
    sj, gj = u.gpair(glat.join[a][b])
    assert u.sets[sj] == (2,) and gj == 1
    sm, gm = u.gpair(glat.meet[a][b])
    assert u.sets[sm] == (1,) and gm == 2
    top, bot = graded_bounds(u)
    assert glat.join_set([]) == bot
    assert glat.meet_set([]) == top


def check_pullback(cod, dom):
    """`pullback` against the definition g o phi, for every point map."""
    for phi in itertools.product(cod.ground.points(), repeat=dom.ground.m):
        table = cod.pullback(phi, dom)
        assert len(table) == cod.n_sets
        for g, pulled in zip(cod.sets, table):
            assert dom.sets[pulled] == tuple(g[q] for q in phi)


def test_compose_pullback(u21, u22, u23, u31_godel, u32_godel):
    for cod, dom in itertools.product((u21, u22, u23), repeat=2):
        check_pullback(cod, dom)
    check_pullback(u31_godel, u32_godel)
    check_pullback(u32_godel, u31_godel)


def test_graded_gl_battery(u21, u22, u31_godel, u31_luk):
    for u in (u21, u22, u31_godel, u31_luk):
        rep = check_graded_gl_cached(u)
        for name, v in rep.verdicts.items():
            assert v.status in ("pass", "skipped"), (name, v.witness)


_battery_cache = {}


def check_graded_gl_cached(u):
    from fuzztop.powerset import check_graded_gl
    key = id(u)
    if key not in _battery_cache:
        _battery_cache[key] = check_graded_gl(u)
    return _battery_cache[key]


def test_exchange_skipped_for_non_idempotent(u31_luk, u31_godel):
    rep = check_graded_gl_cached(u31_luk)
    assert rep.verdicts["impl_product_exchange"].status == "skipped"
    rep = check_graded_gl_cached(u31_godel)
    assert rep.verdicts["impl_product_exchange"].status == "pass"


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_adjunction_random_cells(u22, boxtimes, graded_leq, data):
    u = u22
    cell = st.integers(0, u.graded_size - 1)
    a, b, c = data.draw(cell), data.draw(cell), data.draw(cell)
    lhs = graded_leq(u, boxtimes(u, a, b), c)
    rhs = graded_leq(u, a, u.gimpl(b, c))
    assert lhs == rhs


def test_powerset_cap_refuses_by_bit_length_at_the_boundary():
    # m == cap.bit_length(): 2**m alone exceeds the cap, so the power is
    # named, not computed
    with pytest.raises(SizeLimit, match=r"^powerset size 2\*\*3 exceeds cap 4$"):
        enumerate_powerset(chain(2), Ground(3), cap=4)


def test_a_passing_graded_gl_builds_no_graded_table(monkeypatch):
    # every law holds on both factors of u23's carrier, so the battery
    # builds neither the graded lattice nor boxtimes; the battery of
    # triple sweeps read 17,847 rows of the graded order there, and the
    # one on pairs of cells 2,487
    u = models.build("u23")
    built = []
    monkeypatch.setattr(type(u), "graded_lattice",
                        lambda self: built.append(self))
    assert check_graded_gl(u).passed
    assert built == []
    assert "box_table" not in vars(u) and "graded_covers" not in vars(u)


def test_graded_gl_catches_a_wrong_graded_join():
    # componentwise_bounds is a fact of any product of bounded lattices, so
    # the battery reads no graded join; the oracle that the sweeps check it
    # by, over the graded order built by its definition, passes the
    # componentwise join and meet and catches the meet where the join is
    # due, at the first pair of cells where the two differ
    u = models.build("u22")
    assert check_graded_gl(u).verdicts["componentwise_bounds"].status == "pass"
    le, lat, cells = graded_order(u), u.lattice, u.graded_cells()
    join = componentwise(u, lat.join, lat.meet)
    meet = componentwise(u, lat.meet, lat.join)
    assert first(unbounded_pairs(le, join, meet)) is None
    assert first(unbounded_pairs(le, meet, meet)) \
        == next((i, j) for i in cells for j in cells
                if join[i][j] != meet[i][j])


#: failing verdicts and their first witnesses, as the sweep of every cell,
#: pair and triple of the graded carrier names them
FAILING = {
    "u31_godel_middle_unit": {"adjunction": (0, 1, 1),
                              "tensor_impl_exchange": (1, 0, 0)},
    "u31_godel_bounded_sum": {"adjunction": (1, 1, 2)},
    "u32_non_integral": {"integral": (3, 6), "divisible": (3, 6)},
    "chain4_cqm_1pt": {"associative": (4, 8, 12), "integral": (4, 8),
                       "divisible": (4, 8),
                       "tensor_impl_exchange": (4, 12, 12)},
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_a_failing_graded_gl_names_the_sweeps_witness(name):
    # a law that fails on a factor is swept on the carrier, which builds
    # boxtimes there
    u = models.build(name)
    report = check_graded_gl(u)
    assert {law: v.witness for law, v in report.failures().items()} \
        == FAILING[name]
    assert "box_table" in vars(u)
