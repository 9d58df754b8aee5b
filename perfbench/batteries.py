"""The `batteries` workload: axiom batteries on fixed and seed-generated
structures, with no filter or topology enumeration except on one product.

Why: exponential subset sweeps and table construction dominate here (the
2**n distributivity sweeps, the graded GL battery on u23, the 2**16 o3 sweep
on the product, the 243- and 256-set Universe tables), so replacing sweeps
with pairwise checks shows here, while the enumerators stay nearly idle:
this workload is the control for enumeration and caching work.

Known answers come from lattice facts, not from the code under test: chains,
the diamond and the 8-element Boolean algebra are distributive, the pentagon
and M3 are not, so their meet has no residuum.  Generated topologies are
checked by invariant (a generated topology passes the topology axioms and
dominates its seed), continuity by a direct sweep of its definition.  I2, N2
and N4 are the documented criterion-07 failures: I2 and N2 fail exactly on
non-discrete topologies, N4 may go either way.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import (Outcome, Task, check_report, check_structure, check_value,
                    lattice_of, raised, tensor_of, universe_of, unexpected)

PASS, FAIL = {"pass"}, {"fail"}
EITHER = {"pass", "fail"}

#: name -> (lattice, tensor); chains use their index names chainK
LATTICES = ([(f"chain{k}-godel", (f"chain{k}", "godel")) for k in range(2, 13)]
            + [(f"chain{k}-lukasiewicz", (f"chain{k}", "lukasiewicz"))
               for k in range(3, 13)]
            + [("diamond", ("diamond", "godel")),
               ("pentagon", ("pentagon", "godel")),
               ("m3", ("m3", "godel")),
               ("boolean8", ("boolean8", "godel"))])
NON_DISTRIBUTIVE = {"pentagon", "m3"}

#: universes of the graded GL battery: (lattice, tensor, points)
GRADED = {"u21": ("chain2", "godel", 1), "u22": ("chain2", "godel", 2),
          "u31-godel": ("chain3", "godel", 1),
          "u31-lukasiewicz": ("chain3", "lukasiewicz", 1),
          "u23": ("chain2", "godel", 3)}

#: universes of the topology, interior, neighbourhood and continuity batteries
TOPOLOGY_UNIVERSES = {"u32-godel": ("chain3", "godel", 2),
                      "u32-lukasiewicz": ("chain3", "lukasiewicz", 2),
                      "diamond-1pt": ("diamond", "godel", 1)}
GENERATED_PER_UNIVERSE = 8

#: Universe builds at 243 and 256 sets
LARGE_UNIVERSES = {"chain3-5pt": ("chain3", "godel", 5),
                   "chain2-8pt": ("chain2", "godel", 8)}

SPEC = Path(__file__).resolve().parent.parent / "specs" / "two_spaces.spec"


def make_inputs(fz, seed):
    rng = random.Random(seed)

    def grading(n, n_sets):
        return [rng.randrange(n) if rng.random() < 0.3 else 0
                for _ in range(n_sets)]

    sizes = {"chain2": 2, "chain3": 3, "diamond": 4}
    topo = {}
    for name, (lattice, _, m) in TOPOLOGY_UNIVERSES.items():
        n = sizes[lattice]
        seeds = [grading(n, n ** m) for _ in range(GENERATED_PER_UNIVERSE)]
        maps = [tuple(rng.randrange(m) for _ in range(m))
                for _ in range(GENERATED_PER_UNIVERSE)]
        topo[name] = (seeds, maps)
    large = {name: grading(sizes[lattice], sizes[lattice] ** m)
             for name, (lattice, _, m) in LARGE_UNIVERSES.items()}
    with open(SPEC, encoding="utf-8") as fh:
        spec_text = fh.read()
    return {"topology": topo, "large": large, "spec": spec_text}


def tasks(fz, inputs):
    yield from _lattice_batteries(fz)
    yield from _graded(fz)
    yield from _topology_batteries(fz, inputs["topology"])
    yield from _large_universes(fz, inputs["large"])
    yield from _products(fz, inputs["spec"])


# ---- lattices and tensors --------------------------------------------------

def _expected_tags(name):
    lattice, tensor = dict(LATTICES)[name]
    if lattice in ("diamond", "boolean8") or lattice == "chain2":
        return frozenset({"heyting", "mv"})
    return frozenset({"heyting" if tensor == "godel" else "mv"})


def _lattice_batteries(fz):
    R = fz.residuated
    for name, (lattice, tensor) in LATTICES:
        distributive = PASS if name not in NON_DISTRIBUTIVE else FAIL
        lat = yield Task(f"{name} build_lattice",
                         lambda: lattice_of(fz, lattice),
                         lambda r: check_structure(r, ("lattice", r.n)))
        if raised(lat):
            continue
        t = tensor_of(fz, lat, tensor)
        co = fz.instances.join_cotensor(lat)
        yield Task(f"{name} check_infinite_distributivity",
                   lambda: fz.lattice.check_infinite_distributivity(lat),
                   lambda r: check_report(r, {
                       "join_meet_distributive": distributive,
                       "meet_join_distributive": distributive}))
        yield Task(f"{name} check_cqm", lambda: R.check_cqm(t),
                   lambda r: check_report(r, {"isotone": PASS,
                                              "top_idempotent": PASS}))
        yield Task(f"{name} check_gl_monoid", lambda: R.check_gl_monoid(t),
                   lambda r: check_report(r, dict.fromkeys(
                       ("isotone", "commutative", "associative", "integral",
                        "zero", "divisible"), PASS,
                   ) | {"join_distributive": distributive}))
        yield Task(f"{name} check_co_gl_monoid",
                   lambda: R.check_co_gl_monoid(co),
                   lambda r: check_report(r, dict.fromkeys(
                       ("isotone", "commutative", "associative",
                        "co_integral", "co_zero", "co_divisible"), PASS,
                   ) | {"meet_distributive": distributive}))
        res = yield Task(f"{name} residuum", lambda: R.residuum(t),
                         lambda r: _check_adjoint(fz, r, name, t, "residuum"))
        yield Task(f"{name} co_implication", lambda: R.co_implication(co),
                   lambda r: _check_adjoint(fz, r, name, co, "co_implication"))
        if not raised(res):
            want = _expected_tags(name)
            yield Task(f"{name} classify", lambda: R.classify(t, res),
                       lambda r: check_value(r, r == want, tuple(sorted(r)),
                                             f"tags {sorted(r)}"))


def _check_adjoint(fz, result, name, t, kind):
    """A non-distributive lattice must raise AdjunctionFailure; otherwise the
    table must satisfy its adjunction on every triple."""
    if name in NON_DISTRIBUTIVE:
        ok = raised(result) and isinstance(
            result.exc, fz.errors.AdjunctionFailure)
        return Outcome("ok" if ok else "fail", ("raised", ok), 1, 0,
                       f"{kind} of a non-distributive lattice did not raise "
                       "AdjunctionFailure")
    if raised(result):
        return unexpected(result)
    lat, table = t.base, result.table
    le, op = lat.le, t.app
    els = range(lat.n)
    if kind == "residuum":
        ok = all(le(op(a, b), c) == le(a, table[b][c])
                 for a in els for b in els for c in els)
    else:
        ok = all(le(table[a][b], c) == le(a, op(b, c))
                 for a in els for b in els for c in els)
    return Outcome("ok" if ok else "fail", result.table, 1, 0,
                   f"{kind} table violates its adjunction")


def _graded(fz):
    names = ("isotone", "commutative", "associative", "integral", "zero",
             "join_distributive", "divisible", "top_is_one_bot",
             "bot_is_zero_top", "componentwise_bounds", "impl_closed_vs_sup",
             "adjunction", "tensor_impl_exchange", "impl_product_exchange")
    for name, (lattice, tensor, points) in GRADED.items():
        u = yield Task(f"{name} universe",
                       lambda: universe_of(fz, lattice, tensor, points),
                       lambda r: check_structure(r, ("universe", r.n_sets)))
        if raised(u):
            continue
        yield Task(f"{name} check_graded_gl",
                   lambda: fz.powerset.check_graded_gl(u),
                   lambda r: check_report(r, dict.fromkeys(names, PASS)))


# ---- topologies, interiors, neighbourhoods, continuity ---------------------

def _discrete(t):
    top = t.universe.lattice.top
    return all(g == top for g in t.table)


def _check_generated(result, seed):
    """Invariant: the generated table dominates its seed grading."""
    if raised(result):
        return unexpected(result)
    le = result.universe.lattice.le
    ok = all(le(a, b) for a, b in zip(seed, result.table))
    return Outcome("ok" if ok else "fail", result.table, 0, 0,
                   "generated topology does not dominate its seed")


def _continuous_by_definition(phi, tau, eta):
    """eta(g) <= tau(g o phi) for every fuzzy set g on the codomain."""
    ux, uy = tau.universe, eta.universe
    le = ux.lattice.le
    for gj, g in enumerate(uy.sets):
        pulled = ux.set_index[tuple(g[phi[p]] for p in ux.ground.points())]
        if not le(eta.table[gj], tau.table[pulled]):
            return False
    return True


def _check_continuity(fz, result, phi, tau, eta):
    """Second paths: the definition, and the continuity proposition for a
    continuous surjective map."""
    if raised(result):
        return unexpected(result)
    cont = result[0]
    if cont != _continuous_by_definition(phi, tau, eta):
        return Outcome("fail", cont, 1, 0,
                       f"is_continuous {cont} disagrees with the definition")
    if cont and set(phi) == set(tau.universe.ground.points()):
        report = fz.topology.check_continuity_nbhd(phi, tau, eta)
        if not report.passed:
            return Outcome("fail", cont, 1, 0,
                           "continuity proposition fails on a continuous "
                           "surjection")
    return Outcome("ok", cont, 1, 0)


def _topology_batteries(fz, generated):
    T = fz.topology
    topology_axioms = dict.fromkeys(("o1", "o1_prime", "o2", "o3"), PASS)
    for name, (lattice, tensor, points) in TOPOLOGY_UNIVERSES.items():
        seeds, maps = generated[name]
        u = yield Task(f"{name} universe",
                       lambda: universe_of(fz, lattice, tensor, points),
                       lambda r: check_structure(r, ("universe", r.n_sets)))
        if raised(u):
            continue
        previous = None
        for k, seed in enumerate(seeds):
            t = yield Task(f"{name} generate_topology[{k}]",
                           lambda: T.generate_topology(u, seed),
                           lambda r: _check_generated(r, seed))
            if raised(t):
                continue
            join_graded = PASS if _discrete(t) else FAIL
            yield Task(f"{name} check_topology[{k}]",
                       lambda: T.check_topology(t),
                       lambda r: check_report(r, topology_axioms))
            i = yield Task(f"{name} interior_from_topology[{k}]",
                           lambda: T.interior_from_topology(t),
                           lambda r: check_structure(r, r.table))
            if raised(i):
                continue
            yield Task(f"{name} check_interior[{k}]",
                       lambda: T.check_interior(i),
                       lambda r: check_report(r, dict.fromkeys(
                           ("I0", "I1", "I3", "I4", "I5", "I6"), PASS,
                       ) | {"I2": join_graded}))
            nb = yield Task(f"{name} nbhd_from_interior[{k}]",
                            lambda: T.nbhd_from_interior(i),
                            lambda r: check_structure(r, r.tables))
            if raised(nb):
                continue
            yield Task(f"{name} check_nbhd[{k}]", lambda: T.check_nbhd(nb),
                       lambda r: check_report(r, {
                           "N0": PASS, "N1": PASS, "N2": join_graded,
                           "N3": PASS, "N4": EITHER}))
            if previous is not None:
                phi, tau, eta = maps[k], previous, t
                yield Task(f"{name} is_continuous[{k}]",
                           lambda: T.is_continuous(phi, tau, eta),
                           lambda r: _check_continuity(fz, r, phi, tau, eta))
            previous = t


def _large_universes(fz, seeds):
    for name, (lattice, tensor, points) in LARGE_UNIVERSES.items():
        seed = seeds[name]
        u = yield Task(f"{name} universe",
                       lambda: universe_of(fz, lattice, tensor, points),
                       lambda r: check_structure(r, ("universe", r.n_sets)))
        if raised(u):
            continue
        t = yield Task(f"{name} generate_topology",
                       lambda: fz.topology.generate_topology(u, seed),
                       lambda r: _check_generated(r, seed))
        if raised(t):
            continue
        yield Task(f"{name} check_topology",
                   lambda: fz.topology.check_topology(t),
                   lambda r: check_report(r, dict.fromkeys(
                       ("o1", "o1_prime", "o2", "o3"), PASS)))


# ---- products and Tychonoff -------------------------------------------------

def _products(fz, spec_text):
    C = fz.compactness
    doc = yield Task("two_spaces parse_spec",
                     lambda: fz.specfile.parse_spec(spec_text),
                     lambda r: check_structure(r, tuple(sorted(r.spaces))))
    if raised(doc):
        return
    spaces = {}
    for name in ("X", "Y"):
        s = yield Task(f"two_spaces Space[{name}]",
                       lambda: C.Space(fz.specfile.build_universe(doc, name),
                                       doc.spaces[name].topology),
                       lambda r: check_structure(r, r.topology.table))
        if raised(s):
            return
        spaces[name] = s
    for pair in (("X", "X"), ("X", "Y")):
        label = "x".join(pair)
        factors = [spaces[n] for n in pair]
        P = yield Task(f"{label} build_product",
                       lambda: C.build_product(factors),
                       lambda r: _check_product(fz, r))
        if raised(P):
            continue
        nb = yield Task(f"{label} product_nbhd_system",
                        lambda: C.product_nbhd_system(P),
                        lambda r: _check_formula_nbhd(r, P))
        fs = yield Task(f"{label} enumerate_filters",
                        lambda: fz.filters.enumerate_filters(P.universe),
                        lambda r: check_structure(r, len(r)))
        if raised(fs) or raised(nb):
            continue
        for k, U in enumerate(fs):
            if not fz.filters.is_ultrafilter(U, "characterization")[0]:
                continue
            yield Task(f"{label} product_convergence_check[{k}]",
                       lambda: C.product_convergence_check(P, U, nb),
                       lambda r: check_report(
                           r, {"componentwise_convergence": PASS}))
        yield Task(f"{label} tychonoff_check",
                   lambda: C.tychonoff_check(factors, P),
                   lambda r: check_report(r, {
                       "factor_0_compact": PASS, "factor_1_compact": PASS,
                       "product_compact": PASS, "biconditional": PASS}))


def _check_product(fz, result):
    """The product topology is a topology and every projection is continuous
    by the definition."""
    if raised(result):
        return unexpected(result)
    topo = result.space.topology
    ok = fz.topology.check_topology(topo).passed and all(
        _continuous_by_definition(result.projections[k], topo, f.topology)
        for k, f in enumerate(result.factors))
    return Outcome("ok" if ok else "fail", topo.table, 1, 0,
                   "product topology invalid or a projection discontinuous")


def _check_formula_nbhd(result, P):
    """Second path: the explicit product formula equals the neighbourhood
    system derived from the generated product topology."""
    if raised(result):
        return unexpected(result)
    ok = result.tables == P.space.nbhd.tables
    return Outcome("ok" if ok else "fail", result.tables, 1, 0,
                   "product neighbourhood formula differs from the derived "
                   "system")

