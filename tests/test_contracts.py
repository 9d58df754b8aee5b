"""The kernel's input contract: every export that takes a table, a point, a
point map, a cap or a universe raises PreconditionViolated on malformed
input, and neither leaks another exception nor returns.

`CONTRACTS` maps each such export to the malformed calls made of it on u22
(and u21 where a map needs a codomain): a table one entry short or long,
or with one entry -1, past its bound, 1.5, 1.0, None, "a", True or a list;
a point or an index malformed alike; a table or filter over another
universe, or an operation over another lattice; a carrier size, a cap, or
an order given by pairs, malformed alike; and a product of
other factors.  A record of a table (`FilterTable`, `Topology`,
`InteriorOp`, `NbhdSystem`) checks it where it is made, so each is called
to build one, and every export that reads one is called with one built
inside the call.  `ALLOWED` names every other export with the reason it
takes none of these.  An export in neither, or an entry that is no
export, fails the AST check.  `test_only_trusted_builds_a_record_unchecked`
fails on a way past a record's check other than `errors.trusted`.
"""

import ast
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import fuzztop as fz
from fuzztop import (FilterTable, InteriorOp, NbhdSystem, PreconditionViolated,
                     Tensor, Topology)

SRC = Path(__file__).resolve().parents[1] / "src" / "fuzztop"
INIT = SRC / "__init__.py"

TENSOR = "takes a Tensor, whose table is validated when it is built"
SPEC = "takes spec text, rejected with a SpecError"
#: exports that take no table, point, point map, cap or universe from
#: outside, each with the reason
ALLOWED = {
    **dict.fromkeys(["AdjunctionFailure", "Degenerate", "FuzztopError",
                     "NotAChain", "NotALattice", "NotAPartialOrder",
                     "NotSurjective", "PreconditionViolated", "SizeLimit"],
                    "an exception type"),
    "Lattice": "built only by build_lattice",
    **dict.fromkeys(["boolean", "diamond", "m3", "pentagon"],
                    "a named lattice, made by build_lattice"),
    "check_infinite_distributivity": "takes a Lattice, validated when built",
    **dict.fromkeys(["check_co_gl_monoid", "check_cqm", "check_gl_monoid",
                     "classify", "co_implication", "residuum"], TENSOR),
    **dict.fromkeys(["join_cotensor", "lukasiewicz_tensor", "meet_tensor"],
                    "a named operation on a Lattice, made by Tensor"),
    **dict.fromkeys(["Report", "Verdict"], "a verdict, not an input"),
    "check_graded_gl": "takes only a Universe, validated when built",
    "NoFilterAbove": "a result of saturate, not an input",
    "ProductSpace": "a result of build_product, not an input",
    "product_nbhd_system": "takes a ProductSpace, validated when built",
    **dict.fromkeys(["SpecDocument", "build_universe", "parse_spec",
                     "render_spec"], SPEC),
}


def bad_indices(bound):
    """(case, value): each malformed stand-in for an index below `bound`."""
    return [("minus-one", -1), ("too-large", bound), ("one-and-a-half", 1.5),
            ("one-point-oh", 1.0), ("none", None), ("string", "a"),
            ("true", True), ("list", [0])]


def bad_tables(table, bound):
    """(case, table): `table` one entry short, one entry long, and with its
    entry 1 replaced by each of `bad_indices(bound)`."""
    table = tuple(table)
    yield "short", table[:-1]
    yield "long", table + table[:1]
    for case, value in bad_indices(bound):
        yield case, table[:1] + (value,) + table[2:]


def record_tables(table, bound):
    """`bad_tables`, each again as a list, and two tables that are no
    sequence, for a record of a table, which takes a list and keeps it as
    a tuple."""
    for case, t in bad_tables(table, bound):
        yield case, t
        yield f"list-{case}", list(t)
    yield "not-a-sequence", 5
    yield "no-table", None


def tagged(tag, cases):
    return [(f"{tag}-{case}", call) for case, call in cases]


CONTRACTS = {}

#: the malformed carrier sizes and caps: an int is a size (Degenerate
#: below 2) or a cap (SizeLimit below 1)
NOT_INTS = [(case, v) for case, v in bad_indices(2) if type(v) is not int]


def contract(name):
    """Register the malformed calls of the export `name`, a function of the
    kit that yields (case, call)."""
    def register(cases):
        CONTRACTS[name] = cases
        return cases
    return register


@contract("build_lattice")
def _(k):
    for case, n in NOT_INTS:
        yield f"size-{case}", partial(fz.build_lattice, n, [(0, 1)])
    yield "pairs-not-a-sequence", partial(fz.build_lattice, 2, 5)
    yield "pair-not-a-sequence", partial(fz.build_lattice, 2, [5])
    for case, pair in bad_tables((0, 1), 2):
        # an int outside the carrier makes no order on it: NotAPartialOrder
        # (`test_build_lattice_fails_as_the_closures_rows_do`)
        if case not in ("minus-one", "too-large"):
            yield f"pair-{case}", partial(fz.build_lattice, 2, [pair])


@contract("chain")
def _(k):
    for case, size in NOT_INTS + [("numeral", "3")]:
        yield case, partial(fz.chain, size)


@contract("Tensor")
def _(k):
    meet = k.u22.lattice.meet
    yield "other-lattice", partial(Tensor, k.u22.lattice, k.u31.lattice.meet)
    yield "short", partial(Tensor, k.u22.lattice, meet[:1])
    yield "long", partial(Tensor, k.u22.lattice, meet + meet[:1])
    for case, row in bad_tables(meet[1], 2):
        yield f"row-{case}", partial(Tensor, k.u22.lattice, (meet[0], row))
    yield "not-a-sequence", partial(Tensor, k.u22.lattice, 5)
    for case, row in [("int", 5), ("none", None), ("dict", {0: 0, 1: 1})]:
        yield f"row-{case}", partial(Tensor, k.u22.lattice, (meet[0], row))


@contract("Ground")
def ground_sizes(k):
    for case, m in [("zero", 0)] + bad_indices(None):
        if case != "too-large":  # a ground set has no greatest size
            yield case, lambda m=m: fz.Ground(m)


@contract("Universe")
def universe_operations(k):
    lat, other = k.u22.lattice, k.u31.lattice
    yield "tensor-other-lattice", lambda: fz.Universe(
        lat, fz.meet_tensor(other), k.u22.ground)
    yield "cotensor-other-lattice", lambda: fz.Universe(
        lat, fz.meet_tensor(lat), k.u22.ground,
        cotensor=fz.join_cotensor(other))
    for case, cap in NOT_INTS:
        yield f"cap-{case}", lambda cap=cap: fz.Universe(
            lat, fz.meet_tensor(lat), k.u22.ground, powerset_cap=cap)


@contract("enumerate_powerset")
def _(k):
    for case, cap in NOT_INTS:
        yield case, partial(fz.enumerate_powerset, k.u22.lattice,
                            k.u22.ground, cap)


def cap_cases(call):
    """`call(cap)` with each malformed cap."""
    return [(case, partial(call, cap)) for case, cap in NOT_INTS]


contract("enumerate_filters")(lambda k: cap_cases(
    partial(fz.enumerate_filters, k.u22)))
contract("enumerate_filters_bruteforce")(lambda k: cap_cases(
    partial(fz.enumerate_filters_bruteforce, k.u22)))
contract("enumerate_topologies")(lambda k: cap_cases(
    partial(fz.enumerate_topologies, k.u22)))


def topology_cases(k, call):
    """`call` of a Topology over u22 made of each bad table."""
    for case, t in record_tables(k.T.table, 2):
        yield case, lambda t=t: call(Topology(universe=k.u22, table=t))


@contract("Topology")
def _(k):
    yield from tagged("build", topology_cases(k, lambda t: t))
    yield from tagged("interior", topology_cases(k, lambda t: t.interior))
    yield from tagged("nbhd", topology_cases(k, lambda t: t.nbhd))


contract("check_topology")(lambda k: topology_cases(k, fz.check_topology))
contract("interior_from_topology")(
    lambda k: topology_cases(k, fz.interior_from_topology))


@contract("order_topologies")
def _(k):
    yield from tagged("first", topology_cases(
        k, lambda t: fz.order_topologies(t, k.T)))
    yield from tagged("second", topology_cases(
        k, lambda t: fz.order_topologies(k.T, t)))
    yield "other-universe", partial(fz.order_topologies, k.T,
                                    k.space21.topology)


@contract("generate_topology")
def _(k):
    for case, t in bad_tables(k.T.table, 2):
        yield case, partial(fz.generate_topology, k.u22, t)


@contract("Space")
def _(k):
    yield from topology_cases(k, lambda t: fz.Space(k.u22, t))
    for case, t in record_tables(k.T.table, 2):
        yield f"raw-{case}", partial(fz.Space, k.u22, t)
    yield "other-universe", partial(fz.Space, k.u22, k.space21.topology)


def interior_cases(k, call):
    for case, t in record_tables(k.T.interior.table, k.u22.n_sets):
        yield case, lambda t=t: call(InteriorOp(universe=k.u22, table=t))


contract("InteriorOp")(lambda k: interior_cases(k, lambda i: i))
contract("check_interior")(lambda k: interior_cases(k, fz.check_interior))
contract("nbhd_from_interior")(
    lambda k: interior_cases(k, fz.nbhd_from_interior))


def nbhd_cases(k, call, formula=None):
    """`call` of an NbhdSystem made of u22's neighbourhood tables, or of
    `formula`'s, one too few or too many, or with point 1's malformed."""
    formula = k.T.nbhd if formula is None else formula
    u, tables = formula.universe, formula.tables
    cases = [("system-short", tables[:1]),
             ("system-long", tables + tables[:1]),
             ("system-list-short", list(tables[:1])),
             ("system-not-a-sequence", 5), ("no-system", None)]
    cases += [(f"point-1-{case}", (tables[0], t))
              for case, t in record_tables(tables[1], 2)]
    for case, t in cases:
        yield case, lambda t=t: call(NbhdSystem(universe=u, tables=t))


contract("NbhdSystem")(lambda k: nbhd_cases(k, lambda n: n))
contract("check_nbhd")(lambda k: nbhd_cases(k, fz.check_nbhd))


def continuity_cases(k, check):
    """`check(phi, tau, eta)` from u22 onto u21 with phi, tau or eta
    malformed, or tau over another lattice."""
    tau, eta = k.T, k.space21.topology
    for case, phi in bad_tables(k.phi, 1):
        yield f"phi-{case}", partial(check, phi, tau, eta)
    for case, t in bad_tables(tau.table, 2):
        yield f"tau-{case}", lambda t=t: check(k.phi, Topology(k.u22, t), eta)
    for case, t in bad_tables(eta.table, 2):
        yield f"eta-{case}", lambda t=t: check(k.phi, tau, Topology(k.u21, t))
    yield "tau-other-lattice", partial(check, (0,), k.space31.topology, eta)


contract("is_continuous")(lambda k: continuity_cases(k, fz.is_continuous))
contract("check_continuity_nbhd")(
    lambda k: continuity_cases(k, fz.check_continuity_nbhd))


def filter_cases(k, call, universe=None, valid=None):
    """`call` of a FilterTable made of each bad table: over u22, or over
    `universe` from its filter `valid`."""
    u, valid = (k.u22, k.F) if universe is None else (universe, valid)
    for case, t in record_tables(valid.table, u.n):
        yield case, lambda t=t: call(FilterTable(universe=u, table=t))


@contract("FilterTable")
def _(k):
    for name, call in [("build", lambda F: F),
                       ("closure", lambda F: F.closure),
                       ("characterization", lambda F: F.characterization),
                       ("code", lambda F: F.code),
                       ("maximal", lambda F: F.maximal),
                       ("leq", lambda F: F.leq(k.F)),
                       ("leq-of", k.F.leq)]:
        yield from tagged(name, filter_cases(k, call))
    yield "leq-other-universe", partial(k.F.leq, k.G)


contract("check_filter")(lambda k: filter_cases(k, fz.check_filter))


@contract("saturate")
def _(k):
    for case, t in bad_tables(k.F.table, 2):
        yield case, partial(fz.saturate, k.u22, t)


@contract("hat_extension")
def _(k):
    yield from tagged("U", filter_cases(
        k, lambda F: fz.hat_extension(F, 0, 1)))
    for arg, bound in (("g_idx", k.u22.n_sets), ("beta", 2), ("rho", 2)):
        for case, v in bad_indices(bound):
            if (arg, case) == ("rho", "none"):
                continue  # rho=None is the default, bot
            cell = {"g_idx": 0, "beta": 1, arg: v}
            yield f"{arg}-{case}", partial(fz.hat_extension, k.F, **cell)


@contract("is_ultrafilter")
def _(k):
    yield from tagged("U", filter_cases(k, fz.is_ultrafilter))
    yield from tagged("all-filters", filter_cases(
        k, lambda F: fz.is_ultrafilter(k.F, "maximality", all_filters=[F])))
    yield "other-universe", partial(fz.is_ultrafilter, k.F, "maximality",
                                    all_filters=[k.G])


@contract("sup_of_chain")
def _(k):
    yield from tagged("alone", filter_cases(k, lambda F: fz.sup_of_chain([F])))
    yield from tagged("second", filter_cases(
        k, lambda F: fz.sup_of_chain([k.F, F])))
    yield "other-universe", partial(fz.sup_of_chain, [k.F, k.G])


@contract("image_filter")
def _(k):
    for case, phi in bad_tables(k.phi, 1):
        yield f"phi-{case}", partial(fz.image_filter, phi, k.F, k.u21)
    yield from tagged("F", filter_cases(
        k, lambda F: fz.image_filter(k.phi, F, k.u21)))
    yield "codomain-other-lattice", partial(fz.image_filter, k.phi, k.F,
                                            k.u31)


@contract("preimage_filter")
def _(k):
    for case, phi in bad_tables(k.phi, 1):
        yield f"phi-{case}", partial(fz.preimage_filter, phi, k.G, k.u22)
    yield from tagged("F", filter_cases(
        k, lambda F: fz.preimage_filter(k.phi, F, k.u22), k.u21, k.G))
    yield "domain-other-lattice", partial(fz.preimage_filter, (0,), k.G,
                                          k.u31)


def point_cases(k, call):
    """`call(F, p)` in u22's space with F or p malformed, or F over u21."""
    yield from tagged("F", filter_cases(k, lambda F: call(F, 0)))
    for case, p in bad_indices(2):
        yield f"p-{case}", partial(call, k.F, p)
    yield "F-other-universe", partial(call, k.G, 0)


contract("converges")(lambda k: point_cases(
    k, lambda F, p: fz.converges(F, p, k.space22)))
contract("is_adherent")(lambda k: point_cases(
    k, lambda F, p: fz.is_adherent(p, F, k.space22)))


@contract("adherent_points")
def _(k):
    yield from filter_cases(k, lambda F: fz.adherent_points(F, k.space22))
    yield "other-universe", partial(fz.adherent_points, k.G, k.space22)


@contract("is_compact")
def _(k):
    yield from filter_cases(
        k, lambda F: fz.is_compact(k.space22, filters=[F]))
    yield "other-universe", partial(fz.is_compact, k.space22, filters=[k.G])


@contract("image_compactness_check")
def _(k):
    for case, phi in bad_tables(k.phi, 1):
        yield f"phi-{case}", partial(fz.image_compactness_check, phi,
                                     k.space22, k.space21)


@contract("build_product")
def _(k):
    yield "other-lattice", partial(fz.build_product, [k.space22, k.space31])


@contract("product_convergence_check")
def _(k):
    P = k.product
    U = fz.enumerate_filters(P.universe)[-1]
    yield from tagged("U", filter_cases(
        k, lambda F: fz.product_convergence_check(P, F), P.universe, U))
    yield "U-other-universe", partial(fz.product_convergence_check, P, k.F)
    yield from tagged("formula", nbhd_cases(
        k, lambda n: fz.product_convergence_check(P, U, n),
        fz.product_nbhd_system(P)))
    yield "formula-other-universe", partial(
        fz.product_convergence_check, P, U, k.T.nbhd)


@contract("tychonoff_check")
def _(k):
    yield from tagged("cap", cap_cases(lambda cap: fz.tychonoff_check(
        [k.space21], filter_cap=cap)))
    # the product is of u22's and u21's spaces, in that order
    for case, factors in [
            ("other-factors", [k.space21]),
            ("fewer-factors", [k.space22]),
            ("reordered-factors", [k.space21, k.space22]),
            ("equal-factor", [fz.Space(k.u22, k.T), k.space21])]:
        yield f"product-{case}", partial(fz.tychonoff_check, factors,
                                         k.product)


@pytest.fixture(scope="module")
def kit(u21, u22, u31_godel):
    """u22's greatest topology `T`, its last filter `F` and its space, the
    point map `phi` onto u21, u21's last filter `G` and space, a space on
    the 3-chain, and the product of u22's and u21's spaces."""
    T = fz.enumerate_topologies(u22)[-1]
    space21 = fz.Space(u21, fz.enumerate_topologies(u21)[-1])
    space22 = fz.Space(u22, T)
    return SimpleNamespace(
        u21=u21, u22=u22, u31=u31_godel, T=T, phi=(0, 0), space21=space21,
        space22=space22,
        space31=fz.Space(u31_godel, fz.enumerate_topologies(u31_godel)[-1]),
        F=fz.enumerate_filters(u22)[-1], G=fz.enumerate_filters(u21)[-1],
        product=fz.build_product([space22, space21]))


def outcome(call):
    """"PreconditionViolated", "leaked <exception type>" or "returned"."""
    try:
        call()
    except PreconditionViolated:
        return "PreconditionViolated"
    except Exception as exc:  # a leak is what this records
        return f"leaked {type(exc).__name__}"
    return "returned"


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_malformed_input_is_a_broken_precondition(name, kit):
    outcomes = [(case, outcome(call)) for case, call in CONTRACTS[name](kit)]
    assert outcomes
    assert [(case, got) for case, got in outcomes
            if got != "PreconditionViolated"] == []


def test_a_record_keeps_a_list_table_as_a_tuple(kit):
    # before, a list table was kept as given: the record was unhashable and
    # unequal to the record of the same tuple
    T, F = kit.T, kit.F
    nb = T.nbhd
    for record, twin in [
            (Topology(kit.u22, list(T.table)), T),
            (InteriorOp(kit.u22, list(T.interior.table)), T.interior),
            (NbhdSystem(kit.u22, [list(tab) for tab in nb.tables]), nb),
            (NbhdSystem(kit.u22, list(nb.tables)), nb),
            (FilterTable(kit.u22, list(F.table)), F)]:
        assert record == twin and hash(record) == hash(twin)
    assert {type(tab) for tab in
            NbhdSystem(kit.u22, [list(tab) for tab in nb.tables]).tables} \
        == {tuple}
    assert fz.Space(kit.u22, list(T.table)).topology == T


def exports():
    """The names `fuzztop` imports from its modules."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_export_has_a_contract_or_a_reason():
    names = exports()
    assert sorted(names - set(CONTRACTS) - set(ALLOWED)) == []
    # an entry that is no export, or is both
    assert sorted((set(CONTRACTS) | set(ALLOWED)) - names) == []
    assert sorted(set(CONTRACTS) & set(ALLOWED)) == []


def test_only_trusted_builds_a_record_unchecked():
    # a record checks its table in __post_init__; `errors.trusted` is the
    # one way past it, so no other code makes an object with
    # `object.__new__`, writes into one's `vars()` or `__dict__`, or sets
    # one's attributes with `object.__setattr__` outside a __post_init__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        within = {}  # node -> the innermost function holding it
        for fn in ast.walk(tree):  # outer functions first
            if isinstance(fn, ast.FunctionDef):
                within.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            where = within.get(node)
            if (path.name, where) == ("errors.py", "trusted"):
                continue
            call = ast.unparse(node.func) if isinstance(node, ast.Call) \
                else None
            if (call in ("object.__new__", "vars")
                    or call == "object.__setattr__"
                    and where != "__post_init__"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "__dict__"):
                found.append((path.name, where, node.lineno))
    assert found == []
