import pytest
from hypothesis import given, strategies as st

from fuzztop.errors import Degenerate, NotALattice, NotAPartialOrder
from fuzztop.instances import boolean, chain, diamond, m3, pentagon
from fuzztop.lattice import build_lattice, check_infinite_distributivity


def test_two_point_chain():
    lat = build_lattice(2, [(0, 1)])
    assert lat.top == 1 and lat.bot == 0
    assert lat.le(0, 1) and not lat.le(1, 0)


def test_three_chain_join():
    lat = build_lattice(3, [(0, 1), (1, 2)])
    assert lat.join2(0, 2) == 2
    assert lat.meet[0][2] == 0


def test_missing_lub_rejected():
    with pytest.raises(NotALattice):
        build_lattice(4, [(0, 1), (0, 2)])


def test_degenerate_rejected():
    with pytest.raises(Degenerate):
        build_lattice(1, [])


def test_antisymmetry_violation_rejected():
    with pytest.raises(NotAPartialOrder):
        build_lattice(3, [(0, 1), (1, 0), (0, 2), (1, 2)])


def test_join_meet_set_on_chain():
    lat = chain(3)
    assert lat.join_set([0, 2]) == 2
    assert lat.meet_set([0, 2]) == 0
    assert lat.join_set([]) == lat.bot
    assert lat.meet_set([]) == lat.top


def test_diamond_incomparable_bounds():
    # oracle: table lookup on the 4-element diamond built by build_lattice
    lat = diamond()
    assert not lat.le(1, 2) and not lat.le(2, 1)
    assert lat.join_set([1, 2]) == lat.top
    assert lat.meet_set([1, 2]) == lat.bot


def test_join_meet_bound_laws():
    for lat in (boolean(), chain(4), diamond(), pentagon(), m3()):
        for a in lat.elements():
            for b in lat.elements():
                assert lat.le(a, lat.join2(a, b))
                assert lat.le(lat.meet[a][b], a)


@given(st.data())
def test_join_set_order_independent(data):
    lat = diamond()
    elems = data.draw(st.lists(st.integers(0, lat.n - 1), max_size=6))
    shuffled = data.draw(st.permutations(elems))
    assert lat.join_set(elems) == lat.join_set(shuffled)
    assert lat.meet_set(elems) == lat.meet_set(shuffled)


def test_distributivity_verdicts():
    assert check_infinite_distributivity(chain(3)).passed
    assert check_infinite_distributivity(boolean()).passed
    assert check_infinite_distributivity(diamond()).passed
    n5 = check_infinite_distributivity(pentagon())
    assert not n5.passed and n5.failures()
    assert not check_infinite_distributivity(m3()).passed


def test_distributivity_witness_is_concrete():
    rep = check_infinite_distributivity(pentagon())
    wit = rep.verdicts["join_meet_distributive"].witness
    lat = pentagon()
    lhs = lat.meet[lat.join_set(wit["subset"])][wit["x"]]
    rhs = lat.join_set([lat.meet[a][wit["x"]] for a in wit["subset"]])
    assert lhs != rhs and (lhs, rhs) == (wit["lhs"], wit["rhs"])
