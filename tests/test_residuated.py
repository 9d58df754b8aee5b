import pytest

from fuzztop.errors import AdjunctionFailure
from fuzztop.instances import (boolean, chain, diamond, join_cotensor,
                               lukasiewicz_tensor, meet_tensor)
from fuzztop.residuated import (Tensor, check_co_gl_monoid, check_cqm,
                                check_gl_monoid, classify, co_implication,
                                residuum)


def corpus():
    b, c3, d = boolean(), chain(3), diamond()
    return [
        ("boolean_meet", meet_tensor(b)),
        ("godel3", meet_tensor(c3)),
        ("lukasiewicz3", lukasiewicz_tensor(c3)),
        ("diamond_meet", meet_tensor(d)),
    ]


def test_cqm_on_corpus():
    for name, t in corpus():
        assert check_cqm(t).passed, name


def test_cqm_constant_top_passes():
    c3 = chain(3)
    t = Tensor(base=c3, table=tuple(tuple(c3.top for _ in range(3))
                                    for _ in range(3)), kind="tensor")
    assert check_cqm(t).passed


def test_cqm_top_not_idempotent():
    c3 = chain(3)
    table = [list(r) for r in c3.meet]
    table[c3.top][c3.top] = c3.bot
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table), kind="tensor")
    rep = check_cqm(t)
    assert rep.verdicts["top_idempotent"].status == "fail"


def test_gl_monoid_on_corpus():
    for name, t in corpus():
        rep = check_gl_monoid(t)
        assert rep.passed, f"{name}: {rep}"


def test_co_gl_monoid_join_always_passes():
    for lat in (boolean(), chain(3), chain(4), diamond()):
        assert check_co_gl_monoid(join_cotensor(lat)).passed


def test_co_gl_constant_bottom_fails_co_zero():
    c3 = chain(3)
    t = Tensor(base=c3, table=tuple(tuple(c3.bot for _ in range(3))
                                    for _ in range(3)), kind="cotensor")
    rep = check_co_gl_monoid(t)
    assert rep.verdicts["co_zero"].status == "fail"


def test_residuum_boolean_is_classical_implication():
    b = boolean()
    r = residuum(meet_tensor(b))
    assert r.app(1, 0) == 0
    assert r.app(0, 0) == 1
    assert r.app(0, 1) == 1
    assert r.app(1, 1) == 1


def test_residuum_three_chains():
    c3 = chain(3)
    # formula sweep oracle over the three candidate witnesses
    assert residuum(lukasiewicz_tensor(c3)).app(1, 0) == 1
    assert residuum(meet_tensor(c3)).app(1, 0) == 0


def test_residuum_rejects_non_adjoint_tensor():
    c3 = chain(3)
    table = [list(r) for r in c3.meet]
    table[1][1] = 2
    table[2][1] = 0  # non-isotone in the first argument
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table), kind="tensor")
    with pytest.raises(AdjunctionFailure):
        residuum(t)


def test_constant_bottom_tensor_is_residuated_but_not_integral():
    c3 = chain(3)
    t = Tensor(base=c3, table=tuple(tuple(c3.bot for _ in range(3))
                                    for _ in range(3)), kind="tensor")
    r = residuum(t)  # adjunction holds trivially
    assert all(r.app(a, b) == c3.top
               for a in c3.elements() for b in c3.elements())
    assert check_gl_monoid(t).verdicts["integral"].status == "fail"


def test_co_implication_values():
    c3 = chain(3)
    co = co_implication(join_cotensor(c3))
    for a in c3.elements():
        for b in c3.elements():
            if c3.le(a, b):
                assert co.app(a, b) == c3.bot
    assert co.app(2, 1) == 2  # meet over {x | top <= mid join x} = {top}
    b2 = boolean()
    assert co_implication(join_cotensor(b2)).app(1, 0) == 1


def test_adjunction_exhaustive():
    for name, t in corpus():
        lat = t.base
        r = residuum(t)
        for a in lat.elements():
            for b in lat.elements():
                for c in lat.elements():
                    assert lat.le(t.app(a, b), c) == lat.le(a, r.app(b, c)), name


def test_co_adjunction_exhaustive():
    for lat in (boolean(), chain(3), diamond()):
        t = join_cotensor(lat)
        co = co_implication(t)
        for a in lat.elements():
            for b in lat.elements():
                for c in lat.elements():
                    assert lat.le(co.app(a, b), c) == lat.le(a, t.app(b, c))


def test_heyting_residuum_is_relative_pseudocomplement():
    for lat in (boolean(), chain(3), diamond()):
        t = meet_tensor(lat)
        r = residuum(t)
        for a in lat.elements():
            for b in lat.elements():
                rp = lat.join_set([x for x in lat.elements()
                                   if lat.le(lat.meet2(a, x), b)])
                assert r.app(a, b) == rp


def test_classification():
    b, c3 = boolean(), chain(3)
    godel = meet_tensor(c3)
    luk = lukasiewicz_tensor(c3)
    assert classify(godel, residuum(godel)) == {"heyting"}
    assert classify(luk, residuum(luk)) == {"mv"}
    bt = meet_tensor(b)
    assert classify(bt, residuum(bt)) == {"heyting", "mv"}


def test_divisibility_witness_exists_on_diamond():
    d = diamond()
    t = meet_tensor(d)
    rep = check_gl_monoid(t)
    assert rep.verdicts["divisible"].status == "pass"


def test_failed_axiom_keeps_its_first_witness():
    # the constant-bottom tensor breaks integrality at every a above bot;
    # the report names the first, a = 1
    c3 = chain(3)
    t = Tensor(base=c3, table=tuple(tuple(c3.bot for _ in range(3))
                                    for _ in range(3)), kind="tensor")
    assert check_gl_monoid(t).verdicts["integral"].witness == (1, c3.bot)


def test_join_distributive_witnesses():
    c3 = chain(3)
    table = [list(r) for r in c3.meet]
    table[2][0] = 1  # top (*) bot is no longer bot: the empty join fails
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table), kind="tensor")
    wit = check_gl_monoid(t).verdicts["join_distributive"].witness
    assert wit == {"a": 2, "subset": (), "lhs": 1, "rhs": c3.bot}
    table = [list(r) for r in c3.meet]
    table[1][2] = 0  # mid (*) top: now mid (*) (mid join top) != mid
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table), kind="tensor")
    wit = check_gl_monoid(t).verdicts["join_distributive"].witness
    a, (b, c) = wit["a"], wit["subset"]
    assert wit["lhs"] == t.app(a, c3.join2(b, c)) != wit["rhs"]
    assert wit["rhs"] == c3.join2(t.app(a, b), t.app(a, c))
