"""End-to-end acceptance battery.

Each test covers one numbered criterion, prints a single PASS/FAIL line, and
enforces the stated failure and time budgets.  Criteria 5 and 7 are expected
to fail: each contains a clause that is provably unsatisfiable (a concrete
finite counterexample exists); the analysis lives in the project notes and
the tests state the counterexample in their detail line rather than relaxing
the clause.
"""

import itertools
import subprocess
import sys
import time

import pytest

from fuzztop.compactness import (Space, build_product, is_compact,
                                 image_compactness_check,
                                 product_convergence_check,
                                 product_nbhd_system, tychonoff_check)
from fuzztop.filters import (check_filter, enumerate_filters,
                             hat_extension, image_filter, is_ultrafilter,
                             preimage_filter)
from fuzztop.instances import boolean, chain, diamond, join_cotensor
from fuzztop.powerset import check_graded_gl
from fuzztop.residuated import (Tensor, check_co_gl_monoid, check_gl_monoid,
                                co_implication, residuum)
from fuzztop.topology import (check_continuity_nbhd, check_interior,
                              check_nbhd, check_topology, enumerate_topologies,
                              generate_topology, interior_from_topology,
                              is_continuous, nbhd_from_interior,
                              order_topologies)

from test_residuated import corpus
from test_topology import discrete, indiscrete

RESULTS = []


def record(num, name, ok, detail, elapsed, budget=None):
    line = (f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.2f}s)")
    RESULTS.append(line)
    print(line)
    if budget is not None:
        assert elapsed < budget, f"time budget {budget}s exceeded: {elapsed:.2f}s"
    assert ok, line


def cotensor_corpus():
    return [("boolean_join", join_cotensor(boolean())),
            ("chain3_join", join_cotensor(chain(3))),
            ("diamond_join", join_cotensor(diamond()))]


def test_criterion_01_adjunction_suites():
    start = time.monotonic()
    checked = 0
    for name, t in corpus():
        lat = t.base
        r = residuum(t)
        for a in lat.elements():
            for b in lat.elements():
                for c in lat.elements():
                    assert lat.le(t.app(a, b), c) == lat.le(a, r.app(b, c)), name
                    checked += 1
    for name, t in cotensor_corpus():
        lat = t.base
        co = co_implication(t)
        for a in lat.elements():
            for b in lat.elements():
                for c in lat.elements():
                    assert lat.le(co.app(a, b), c) == lat.le(a, t.app(b, c)), name
                    checked += 1
    record(1, "adjunction-suites", True, f"{checked} triples, 0 failures",
           time.monotonic() - start, budget=1.0)


def test_criterion_02_mutation_batteries():
    start = time.monotonic()
    for name, t in corpus():
        assert check_gl_monoid(t).passed, name
    for name, t in cotensor_corpus():
        assert check_co_gl_monoid(t).passed, name

    # single-cell mutations that land on another valid structure are not
    # broken tables and are excluded from the catch requirement; the sweep
    # asserts the exclusion set is exactly these three known coincidences
    known_valid = {("godel3", 1, 1, 0),        # becomes the Lukasiewicz tensor
                   ("lukasiewicz3", 1, 1, 1),  # becomes the Godel tensor
                   ("chain3_join", 1, 1, 2)}   # becomes the bounded-sum cotensor
    total = caught = 0
    passed_battery = set()
    for tensors, checker in ((corpus(), check_gl_monoid),
                             (cotensor_corpus(), check_co_gl_monoid)):
        for name, t in tensors:
            lat = t.base
            for a in lat.elements():
                for b in lat.elements():
                    for v in lat.elements():
                        if v == t.table[a][b]:
                            continue
                        total += 1
                        tab = [list(r) for r in t.table]
                        tab[a][b] = v
                        m = Tensor(base=lat,
                                   table=tuple(tuple(r) for r in tab))
                        rep = checker(m)
                        if rep.passed:
                            passed_battery.add((name, a, b, v))
                        else:
                            assert rep.failures()  # witness present
                            caught += 1
    elapsed = time.monotonic() - start
    assert passed_battery == known_valid
    record(2, "mutation-batteries", caught >= 100,
           f"{caught}/{total} mutations caught, "
           f"{len(passed_battery)} verified valid coincidences excluded",
           elapsed, budget=10.0)


def test_criterion_03_graded_carrier_battery(u21, u22, u31_godel, u31_luk):
    start = time.monotonic()
    failures = 0
    for u in (u21, u22, u31_godel, u31_luk):
        rep = check_graded_gl(u)
        failures += len(rep.failures())
        idempotent = all(u.tensor.app(x, x) == x
                         for x in u.lattice.elements())
        expected = "pass" if idempotent else "skipped"
        assert rep.verdicts["impl_product_exchange"].status == expected
    record(3, "graded-carrier-battery", failures == 0,
           f"{failures} failures over 4 instances",
           time.monotonic() - start, budget=30.0)


def test_criterion_04_filter_census(u21, u22, u31_godel, u31_luk,
                                    bruteforce_filter_tables):
    start = time.monotonic()
    golden = {id(u21): 1, id(u22): 3, id(u31_godel): 3, id(u31_luk): 2}
    for u in (u21, u22, u31_godel, u31_luk):
        fast = enumerate_filters(u)
        assert len(fast) == golden[id(u)]
        assert [F.table for F in fast] == bruteforce_filter_tables[id(u)]
    record(4, "filter-census", True, "counts 1/3/3/2 stable vs brute force",
           time.monotonic() - start)


def test_criterion_05_ultrafilter_equivalence(u21, u22, u31_godel, u31_luk):
    start = time.monotonic()
    disagreements = 0
    non_filter_hats = 0
    not_dominating = 0
    equality_mismatches = 0
    for u in (u21, u22, u31_godel, u31_luk):
        lat = u.lattice
        filters = enumerate_filters(u)
        for U in filters:
            by_max = is_ultrafilter(U, "maximality", all_filters=filters)[0]
            by_char = is_ultrafilter(U, "characterization")[0]
            if by_max != by_char:
                disagreements += 1
            all_fixed = True
            for g in range(u.n_sets):
                for beta in lat.elements():
                    for rho in lat.elements():
                        if not lat.le(rho, beta):
                            continue
                        hat = hat_extension(U, g, beta, rho)
                        if not check_filter(hat).passed:
                            non_filter_hats += 1
                        if not U.leq(hat):
                            not_dominating += 1
                        if hat.table != U.table:
                            all_fixed = False
            if all_fixed != by_max:
                equality_mismatches += 1
    elapsed = time.monotonic() - start
    ok = (disagreements == 0 and non_filter_hats == 0
          and not_dominating == 0 and equality_mismatches == 0)
    record(5, "ultrafilter-equivalence", ok,
           f"{disagreements} mode disagreements, {non_filter_hats} hat "
           f"extensions fail the filter axioms (the least Lukasiewicz-3 "
           f"filter extended by the half set forces a top grade on the "
           f"empty set), {not_dominating} non-dominating, "
           f"{equality_mismatches} fixed-point mismatches",
           elapsed, budget=120.0)


def test_criterion_06_filter_transport(u21, u22, u31_godel, u32_godel):
    start = time.monotonic()
    corpus_maps = [((0, 1), u22, u22),
                   ((0, 0), u22, u21),
                   ((0,), u31_godel, u31_godel),
                   ((0, 0), u32_godel, u31_godel)]
    for phi, ux, uy in corpus_maps:
        for F in enumerate_filters(ux, cap=5_000_000):
            img = image_filter(phi, F, uy)
            assert check_filter(img).passed
            if is_ultrafilter(F)[0]:
                assert is_ultrafilter(img)[0]
        for F in enumerate_filters(uy):
            pre = preimage_filter(phi, F, ux)
            assert check_filter(pre).passed
            assert image_filter(phi, pre, uy).table == F.table
    record(6, "filter-transport", True,
           f"{len(corpus_maps)} surjections, 0 failures",
           time.monotonic() - start)


def _topology_corpus(u, want_intermediates=3):
    """Discrete, indiscrete, and deduplicated generated intermediates."""
    lat = u.lattice
    seen = {discrete(u).table, indiscrete(u).table}
    out = [discrete(u), indiscrete(u)]
    intermediates = 0
    for si in range(u.n_sets):
        for a in lat.elements():
            if a == lat.bot:
                continue
            seed = [lat.bot] * u.n_sets
            seed[si] = a
            t = generate_topology(u, seed)
            if t.table not in seen:
                seen.add(t.table)
                out.append(t)
                intermediates += 1
    return out, intermediates


def test_criterion_07_interior_nbhd_lemmas(u22, u23, u31_godel, u31_luk,
                                           u32_godel):
    start = time.monotonic()
    by_axiom = {}
    topo_count = 0
    shortfall = []
    for u in (u22, u31_godel, u31_luk, u23, u32_godel):
        corpus, intermediates = _topology_corpus(u)
        if intermediates < 3:
            shortfall.append(intermediates)
        for t in corpus:
            assert check_topology(t).passed
            topo_count += 1
            i = interior_from_topology(t)
            rep_i = check_interior(i)
            rep_n = check_nbhd(nbhd_from_interior(i))
            for name in list(rep_i.failures()) + list(rep_n.failures()):
                by_axiom[name] = by_axiom.get(name, 0) + 1
            # the only failing clauses are the two with known finite
            # counterexamples: join-graded tensor stability (I2/N2) and the
            # refinement condition N4 whose comparison direction forces g = f
            assert set(rep_i.failures()) <= {"I2"}
            assert set(rep_n.failures()) <= {"N2", "N4"}
    elapsed = time.monotonic() - start
    failures = sum(by_axiom.values())
    ok = failures == 0 and not shortfall
    record(7, "interior-nbhd-lemmas", ok,
           f"{topo_count} topologies; {failures} axiom failures "
           f"({by_axiom}): no non-discrete topology satisfies the "
           f"join-graded tensor stability I2/N2, and N4's stated comparison "
           f"direction collapses its candidate set; instances with fewer "
           f"than 3 reachable intermediate topologies: {len(shortfall)}",
           elapsed)


def _continuous_pairs(u21, u22, u31_godel, u31_luk):
    pairs = []
    tops21 = enumerate_topologies(u21)
    tops22 = enumerate_topologies(u22)
    for tau in tops22:
        for eta in tops22:
            if is_continuous((0, 1), tau, eta)[0]:
                pairs.append(((0, 1), tau, eta))
        for eta in tops21:
            if is_continuous((0, 0), tau, eta)[0]:
                pairs.append(((0, 0), tau, eta))
    for u in (u31_godel, u31_luk):
        tops = enumerate_topologies(u)
        for tau in tops:
            for eta in tops:
                if is_continuous((0,), tau, eta)[0]:
                    pairs.append(((0,), tau, eta))
    return pairs


def test_criterion_08_continuity_proposition(u21, u22, u31_godel, u31_luk):
    start = time.monotonic()
    pairs = _continuous_pairs(u21, u22, u31_godel, u31_luk)
    assert pairs
    for phi, tau, eta in pairs:
        rep = check_continuity_nbhd(phi, tau, eta)
        assert rep.passed, (phi, tau.table, eta.table)
    record(8, "continuity-proposition", True,
           f"{len(pairs)} continuous surjections, 0 failures",
           time.monotonic() - start)


def test_criterion_09_compactness_oracle(u21, u22, u31_godel, u31_luk):
    start = time.monotonic()
    spaces = 0
    for u in (u21, u22, u31_godel, u31_luk):
        filters = enumerate_filters(u)
        for t in enumerate_topologies(u):
            space = Space(u, t)
            sweep, _ = is_compact(space, filters=filters)
            fast, _ = is_compact(space, mode="ultrafilter", filters=filters)
            assert sweep == fast
            spaces += 1

    surjections = [((0, 1), u22, u22), ((0, 0), u22, u21),
                   ((0,), u31_godel, u31_godel), ((0,), u31_luk, u31_luk)]
    images = 0
    for phi, ux, uy in surjections:
        for tau in enumerate_topologies(ux):
            sx = Space(ux, tau)
            if not is_compact(sx)[0]:
                continue
            for eta in enumerate_topologies(uy):
                if not is_continuous(phi, tau, eta)[0]:
                    continue
                rep = image_compactness_check(phi, sx, Space(uy, eta))
                assert rep.passed, (phi, tau.table, eta.table)
                assert rep.verdicts["codomain_compact"].status == "pass"
                images += 1
    record(9, "compactness-oracle", True,
           f"{spaces} spaces fast-path-consistent, {images} continuous "
           f"surjective images compact",
           time.monotonic() - start, budget=300.0)


def test_criterion_10_product_and_tychonoff(u22):
    start = time.monotonic()
    s = Space(u22, discrete(u22))
    P = build_product([s, s])
    formula = product_nbhd_system(P)
    assert check_nbhd(formula).passed
    for p in range(P.universe.ground.m):
        for gi in P.universe.graded_cells():
            assert formula.tables[p][gi] == P.space.nbhd.tables[p][gi]
    filters = enumerate_filters(P.universe)
    ultras = [F for F in filters if is_ultrafilter(F)[0]]
    assert ultras
    for U in ultras:
        assert product_convergence_check(P, U, formula_nbhd=formula).passed
    rep = tychonoff_check([s, s], product=P)
    assert rep.passed
    record(10, "product-and-tychonoff", True,
           f"{len(filters)} filters, {len(ultras)} ultrafilters, "
           f"biconditional holds",
           time.monotonic() - start, budget=600.0)


def test_criterion_11_generated_topology_minimality(u21, u22):
    start = time.monotonic()
    seeds = 0
    for u in (u21, u22):
        lat = u.lattice
        all_tops = enumerate_topologies(u)
        for seed in itertools.product(lat.elements(), repeat=u.n_sets):
            gen = generate_topology(u, seed)
            above = [t for t in all_tops
                     if all(lat.le(a, b) for a, b in zip(seed, t.table))]
            assert above
            for t in above:
                assert order_topologies(gen, t) in ("<=", "=")
            assert any(order_topologies(gen, t) == "=" for t in above)
            seeds += 1
    record(11, "generated-topology-minimality", True,
           f"{seeds} seeds, 0 mismatches", time.monotonic() - start)


def test_criterion_12_cli_determinism():
    from pathlib import Path
    start = time.monotonic()
    specs = Path(__file__).resolve().parents[1] / "specs"
    commands = [
        ["--format", "machine", "validate", "glmonoid"],
        ["--format", "machine", "filters", "enumerate"],
        ["--format", "machine", "compact", "--space", "A"],
    ]
    for extra in commands:
        argv = [sys.executable, "-m", "fuzztop.cli",
                str(specs / "lukasiewicz3.spec")] + extra
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty machine report
    record(12, "cli-determinism", True,
           f"{len(commands)} commands byte-identical across two runs",
           time.monotonic() - start)
