import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import fuzztop.residuated as residuated
from fuzztop.errors import AdjunctionFailure, PreconditionViolated
from fuzztop.instances import (boolean, chain, diamond, join_cotensor,
                               lukasiewicz_tensor, meet_tensor, pentagon)
from fuzztop.lattice import check_infinite_distributivity
from fuzztop.residuated import (Tensor, check_co_gl_monoid, check_cqm,
                                check_gl_monoid, classify, co_implication,
                                residuum)

import models
from models import bounded_sum_cotensor
from test_sweep_oracles import tables


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
                                    for _ in range(3)))
    assert check_cqm(t).passed


def test_cqm_top_not_idempotent():
    c3 = chain(3)
    table = [list(r) for r in c3.meet]
    table[c3.top][c3.top] = c3.bot
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table))
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
                                    for _ in range(3)))
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
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table))
    with pytest.raises(AdjunctionFailure):
        residuum(t)


def test_constant_bottom_tensor_is_residuated_but_not_integral():
    c3 = chain(3)
    t = Tensor(base=c3, table=tuple(tuple(c3.bot for _ in range(3))
                                    for _ in range(3)))
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
                                    for _ in range(3)))
    assert check_gl_monoid(t).verdicts["integral"].witness == (1, c3.bot)


def test_join_distributive_witnesses():
    c3 = chain(3)
    table = [list(r) for r in c3.meet]
    table[2][0] = 1  # top (*) bot is no longer bot: the empty join fails
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table))
    wit = check_gl_monoid(t).verdicts["join_distributive"].witness
    assert wit == {"a": 2, "subset": (), "lhs": 1, "rhs": c3.bot}
    table = [list(r) for r in c3.meet]
    table[1][2] = 0  # mid (*) top: now mid (*) (mid join top) != mid
    t = Tensor(base=c3, table=tuple(tuple(r) for r in table))
    wit = check_gl_monoid(t).verdicts["join_distributive"].witness
    a, (b, c) = wit["a"], wit["subset"]
    assert wit["lhs"] == t.app(a, c3.join2(b, c)) != wit["rhs"]
    assert wit["rhs"] == c3.join2(t.app(a, b), t.app(a, c))


def co_implication_by_definition(t):
    """coi(a, b) = meet{x | a <= b (+) x}, from the lattice's own order and
    `Lattice.meet_set`, not from the reversed order."""
    lat, els = t.base, t.base.elements()
    return tuple(tuple(lat.meet_set([x for x in els if lat.le(a, t.app(b, x))])
                       for b in els) for a in els)


def test_co_implication_matches_its_definition():
    cotensors = [join_cotensor(lat) for lat in (boolean(), chain(3), chain(4),
                                                diamond())]
    cotensors += [bounded_sum_cotensor(chain(k)) for k in (3, 4)]
    for t in cotensors:
        assert check_co_gl_monoid(t).passed
        assert co_implication(t).table == co_implication_by_definition(t)


def all_tables(lat):
    n = lat.n
    for cells in itertools.product(lat.elements(), repeat=n * n):
        yield Tensor(base=lat, table=tuple(cells[i * n:(i + 1) * n]
                                           for i in range(n)))


# ---- residuation against the sup-scan and the triple sweep -----------------

def residuate_by_sweep(tab, le, join, bot, adjunction):
    """Oracle: the residuation that covers and Lemma A replaced.
    res(a, b) = join{x | a (*) x <= b} by a scan of every x, and the
    adjunction a (*) b <= c iff a <= res(b, c) by a sweep of every triple,
    raising AdjunctionFailure at the first that breaks it."""
    els = range(len(le))
    res = []
    for row in tab:
        out = []
        for b in els:
            r = bot
            for x in els:
                if le[row[x]][b]:
                    r = join[r][x]
            out.append(r)
        res.append(tuple(out))
    for a in els:
        for b in els:
            for c in els:
                if le[tab[a][b]][c] != le[a][res[b][c]]:
                    raise AdjunctionFailure(f"{adjunction} fails at triple "
                                            f"({a},{b},{c})")
    return tuple(res)


def residuum_by_sweep(t):
    lat = t.base
    return residuate_by_sweep(
        t.table, lat.leq, lat.join, lat.bot,
        "tensor residuum: adjunction a (*) b <= c iff a <= res(b, c)")


def co_implication_by_sweep(t):
    lat = t.base
    return tuple(zip(*residuate_by_sweep(
        t.table, lat.geq, lat.meet, lat.top,
        "cotensor co-implication: adjunction coi(c, b) <= a iff "
        "c <= a (+) b")))


def outcome(residuate, t):
    """("table", the table) or ("fails", the AdjunctionFailure message)."""
    try:
        r = residuate(t)
    except AdjunctionFailure as exc:
        return "fails", str(exc)
    return "table", r if isinstance(r, tuple) else r.table


PAIRS = ((residuum, residuum_by_sweep),
         (co_implication, co_implication_by_sweep))


def assert_matches_the_sweep(t):
    for residuate, oracle in PAIRS:
        assert outcome(residuate, t) == outcome(oracle, t), residuate.__name__


#: the operations of `models`, by name, with the lattice sizes they take
OPERATIONS = {
    "meet": (meet_tensor, None),
    "join": (join_cotensor, None),
    "lukasiewicz": (lukasiewicz_tensor, None),
    "lukasiewicz-listed": (models.listed(lukasiewicz_tensor), None),
    "bounded-sum": (bounded_sum_cotensor, None),
    "middle-unit": (models.middle_unit_cotensor, None),
    "non-integral": (models.non_integral_tensor, 3),
}


@pytest.mark.parametrize("name", sorted(models.LATTICES))
def test_residuations_match_the_sweep_on_every_model(name):
    # every operation of the catalogue, then the meet, the join and (on a
    # chain) the Lukasiewicz table with seeded mutants, and random tables;
    # the Lukasiewicz and bounded-sum formulas read indices as a chain, so
    # off the chains, and on chain3-top-first, whose index order is no
    # linear extension, they give tables that fail the adjunction
    lat = models.LATTICES[name]()
    for op, size in OPERATIONS.values():
        if size in (None, lat.n):
            assert_matches_the_sweep(op(lat))
    for table in tables(lat, random.Random(name)):
        assert_matches_the_sweep(Tensor(base=lat, table=table))


def test_residuations_accept_only_commutative_tables(count_calls):
    # every binary table on the 2- and 3-chain, each residuated and
    # co-implied as the sup-scan and triple sweep do, failures named alike,
    # and the triple sweep run once per failure, never on a pass; a
    # one-sided adjunction check on the cotensor side accepted 220, 208 of
    # them not commutative
    calls = count_calls(residuated._first_failing_triple)
    accepted = {residuum: 0, co_implication: 0}
    total = 0
    for lat in (chain(2), chain(3)):
        for t in all_tables(lat):
            total += 1
            for residuate, oracle in PAIRS:
                got = outcome(residuate, t)
                assert got == outcome(oracle, t)
                if got[0] == "fails":
                    continue
                accepted[residuate] += 1
                assert all(t.app(a, b) == t.app(b, a)
                           for a in lat.elements() for b in lat.elements())
                if residuate is co_implication:
                    assert got[1] == co_implication_by_definition(t)
    assert total == 19699
    assert list(accepted.values()) == [12, 12]
    assert len(calls) == 2 * total - 24


def nearby_tables(lat):
    """Tables on `lat`: its meet or join, with up to three cells, and the
    cells mirrored across the diagonal, set at random, so that some pass
    the adjunction and most fail it at a triple other than the first."""
    n = lat.n
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(0, n - 1), st.booleans())

    def build(base, cells):
        table = [list(row) for row in base]
        for a, b, v, mirror in cells:
            table[a][b] = v
            if mirror:
                table[b][a] = v
        return Tensor(base=lat, table=table)

    return st.builds(build, st.sampled_from([lat.meet, lat.join]),
                     st.lists(cell, max_size=3))


@pytest.mark.parametrize("lat", [diamond(), pentagon()],
                         ids=["diamond", "pentagon"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_residuations_match_the_sweep_on_sampled_tables(lat, data):
    assert_matches_the_sweep(data.draw(nearby_tables(lat)))


def test_co_implication_rejects_a_non_commutative_cotensor():
    # a (+) b = b on the 2-chain: coi(a, b) = a passes the one-sided check
    # coi(a, b) <= c iff a <= b (+) c, but 0 (+) 1 != 1 (+) 0
    b2 = boolean()
    t = Tensor(base=b2, table=((0, 1), (0, 1)))
    assert co_implication_by_definition(t) == ((0, 0), (1, 1))
    with pytest.raises(AdjunctionFailure):
        co_implication(t)


def test_adjunction_failure_names_the_operation_and_the_law():
    # the same non-commutative table on the 2-chain, as tensor and cotensor
    t = Tensor(base=boolean(), table=((0, 1), (0, 1)))
    with pytest.raises(AdjunctionFailure) as tensor_side:
        residuum(t)
    assert str(tensor_side.value) == (
        "tensor residuum: adjunction a (*) b <= c iff a <= res(b, c) fails "
        "at triple (0,1,0)")
    with pytest.raises(AdjunctionFailure) as cotensor_side:
        co_implication(t)
    assert str(cotensor_side.value) == (
        "cotensor co-implication: adjunction coi(c, b) <= a iff "
        "c <= a (+) b fails at triple (0,1,1)")


def test_each_battery_reads_the_table_in_its_own_order():
    # the join is a cotensor, not a GL tensor: it divides nothing from above
    for lat in (boolean(), chain(3), chain(4), diamond()):
        gl = check_gl_monoid(join_cotensor(lat))
        assert gl.verdicts["divisible"].status == "fail"
        assert not gl.passed
        assert check_co_gl_monoid(Tensor(base=lat, table=lat.join)).passed


# ---- a Tensor holds an n x n table of elements -----------------------------

@pytest.mark.parametrize("table, message", [
    (((0, 0, 0), (0, 1, 1), (0, 1, -1)), r"table row 2 entry 2 is -1, "
                                          r"outside 0\.\.2"),
    (((0, 0, 0), (0, 1, 7), (0, 1, 2)), r"table row 1 entry 2 is 7, "
                                         r"outside 0\.\.2"),
    (((0, 0, 0), (0, 1, 1), (3, 1, 2)), r"table row 2 entry 0 is 3, "
                                         r"outside 0\.\.2"),
    (((0, 0, 0), (0, 1, 1), (0, 1, 1.5)), r"table row 2 entry 2 is 1\.5, "
                                           r"outside 0\.\.2"),
    (((0, 0), (0, 1), (0, 1)), r"table row 0 has 2 entries for 3 elements"),
    (((0, 0, 0), (0, 1, 1, 1), (0, 1, 2)),
     r"table row 1 has 4 entries for 3 elements"),
    (((0, 0, 0), (0, 1, 1)), r"table has 2 rows for 3 elements"),
], ids=["minus-one", "seven", "three", "one-and-a-half", "short-rows",
        "long-row", "two-rows"])
def test_tensor_rejects_a_table_of_the_wrong_shape_or_range(table, message):
    # each once gave a verdict or an IndexError: -1 was read by negative
    # indexing, and the Universe built on it; the same table held as nested
    # lists is rejected alike
    c3 = chain(3)
    with pytest.raises(PreconditionViolated, match=message):
        Tensor(base=c3, table=table)
    with pytest.raises(PreconditionViolated, match=message):
        Tensor(base=c3, table=[list(r) for r in table])


@pytest.mark.parametrize("table, message", [
    (5, r"^table is 5, not a sequence$"),
    (((0, 0), 5), r"^table row 1 is 5, not a sequence$"),
    ((None, (0, 1)), r"^table row 0 is None, not a sequence$"),
    (((0, 0), {0: 0, 1: 1}), r"^table row 1 is \{0: 0, 1: 1\}, not a "
                             r"sequence$"),
], ids=["int-table", "int-row", "none-row", "dict-row"])
def test_tensor_rejects_a_table_or_row_that_is_not_a_sequence(table,
                                                               message):
    # each leaked TypeError, and the dict's keys were read as a row
    with pytest.raises(PreconditionViolated, match=message):
        Tensor(base=boolean(), table=table)


@pytest.mark.parametrize("n", [2, 3, 12])
def test_tensor_checks_a_table_of_rows_in_one_scan(n, count_calls):
    # the shape is one require_index call, and the entries one scan of the
    # flattened table; the scan row by row runs only to name a bad entry
    import fuzztop.errors as errors
    lat = chain(n)
    table = lukasiewicz_tensor(lat).table
    calls = count_calls(errors.require_index)
    Tensor(base=lat, table=table)
    Tensor(base=lat, table=[list(row) for row in table])
    assert len(calls) == 2
    bad = table[:-1] + (table[-1][:-1] + (n,),)
    with pytest.raises(PreconditionViolated,
                       match=f"^table row {n - 1} entry {n - 1} is {n}, "):
        Tensor(base=lat, table=bad)
    assert len(calls) == 3 + n


def test_tensor_takes_nested_lists():
    c3 = chain(3)
    t = Tensor(base=c3, table=[list(row) for row in c3.meet])
    assert check_gl_monoid(t).to_dict() == \
        check_gl_monoid(meet_tensor(c3)).to_dict()


def test_tensor_compares_by_value_whatever_the_container():
    c3 = chain(3)
    t = Tensor(base=c3, table=[list(row) for row in c3.meet])
    assert t == meet_tensor(c3) and t.table == c3.meet
    assert type(t.table) is tuple and {type(row) for row in t.table} == {tuple}
    assert classify(t, residuum(t)) == classify(
        meet_tensor(c3), residuum(meet_tensor(c3))) == {"heyting"}
    # a table of tuples is kept as given
    assert meet_tensor(c3).table is c3.meet


# ---- how many table entries each battery reads -----------------------------

class CountedRow(tuple):
    """A table row that counts its entries read, by index, by iteration or
    by a membership test (which may scan the whole row)."""

    reads = 0

    def __getitem__(self, k):
        CountedRow.reads += 1
        return tuple.__getitem__(self, k)

    def __iter__(self):
        CountedRow.reads += len(self)
        return tuple.__iter__(self)

    def __contains__(self, v):
        CountedRow.reads += len(self)
        return tuple.__contains__(self, v)


def counted(table):
    return tuple(map(CountedRow, table))


def reads(check, arg):
    CountedRow.reads = 0
    report = check(arg)
    assert report.passed
    return CountedRow.reads


@pytest.mark.parametrize("n", range(2, 13))
def test_residuations_read_quadratically_many_table_entries(n, count_calls):
    # each row: one pass joining each preimage, one join per cover and one
    # read per entry, n (7 n - 3) reads in all on a chain; the sup-scan and
    # triple sweep read 4,898 on the 12-chain with the Lukasiewicz tensor
    # (972 now), and the sweep never runs on a GL tensor
    calls = count_calls(residuated._first_failing_triple)
    lat = chain(n)
    lat = dataclasses.replace(lat, join=counted(lat.join),
                              meet=counted(lat.meet))
    for residuate, t in ((residuum, lukasiewicz_tensor(lat)),
                         (residuum, meet_tensor(lat)),
                         (co_implication, join_cotensor(lat))):
        t = Tensor(base=lat, table=counted(t.table))
        CountedRow.reads = 0
        residuate(t)
        assert CountedRow.reads <= 7 * n ** 2
    assert calls == []


@pytest.mark.parametrize("n", range(2, 13))
def test_batteries_read_few_table_entries(n):
    # the sweeps pinned by counts that machine noise cannot move: isotonicity
    # on the covers, distributivity on the incomparable pairs (none on a
    # chain), commutativity on a < b; associativity alone is 4 n**3 reads
    lat = chain(n)
    lat = dataclasses.replace(lat, join=counted(lat.join),
                              meet=counted(lat.meet))
    t = Tensor(base=lat, table=counted(lukasiewicz_tensor(lat).table))
    co = Tensor(base=lat, table=lat.join)
    assert reads(check_infinite_distributivity, lat) == 0
    assert reads(check_cqm, t) <= 6 * n ** 2
    assert reads(check_gl_monoid, t) <= 4 * n ** 3 + 8 * n ** 2
    assert reads(check_co_gl_monoid, co) <= 4 * n ** 3 + 8 * n ** 2
