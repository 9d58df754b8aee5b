"""Self-test of the benchmark: known answers and the tracer.

    python3 perfbench/selftest.py

1. Re-derives the census rows without the enumerators under test: filters
   by `enumerate_filters_bruteforce` where its |L|**cells sweep is feasible,
   ultrafilters by maximality among those, topologies by a raw |L|**n_sets
   table sweep with this file's own axiom check, compactness by the
   definitional adherence oracle (some filter lies above both F and the
   neighbourhood table at p).
2. Confirms that at the default filter cap u32 filter enumeration raises
   SizeLimit, so `filters enumerate` on a 2-point 3-chain spec exits 2.
3. Checks the tracer: traced and untraced passes give identical answers,
   counts repeat exactly, every layer has calls on the workload that should
   exercise it, and spans nest as is_compact -> is_adherent -> saturate and
   main -> run_command -> build_universe -> Universe.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import run
from tracer import Tracer

import census
import clitasks

#: rows whose filters the brute-force sweep re-derives (|L|**cells <= 2**16)
BRUTE_FILTERS = ("u23", "u31-godel", "u31-lukasiewicz")

#: layer functions that must have calls on each workload
EXERCISED = {
    "census": ("lattice.build_lattice", "powerset.Universe",
               "filters.enumerate_filters", "filters.is_ultrafilter",
               "filters.saturate", "filters.check_filter",
               "topology.enumerate_topologies", "topology.check_topology",
               "compactness.Space", "compactness.is_compact",
               "compactness.is_adherent"),
    "batteries": ("lattice.build_lattice",
                  "lattice.check_infinite_distributivity",
                  "residuated.check_cqm", "residuated.check_gl_monoid",
                  "residuated.check_co_gl_monoid", "residuated.residuum",
                  "residuated.co_implication", "powerset.Universe",
                  "powerset.check_graded_gl", "topology.check_topology",
                  "topology.generate_topology",
                  "topology.interior_from_topology",
                  "topology.check_interior", "topology.nbhd_from_interior",
                  "topology.check_nbhd", "topology.is_continuous",
                  "filters.enumerate_filters", "compactness.build_product",
                  "compactness.product_nbhd_system",
                  "compactness.product_convergence_check",
                  "compactness.tychonoff_check", "specfile.parse_spec",
                  "specfile.build_universe"),
    "cli": ("cli.main", "cli.run_command", "specfile.parse_spec",
            "specfile.build_universe", "powerset.Universe",
            "residuated.residuum"),
}


def fail(message):
    print(f"SELFTEST FAILED: {message}")
    sys.exit(1)


def is_topology(u, table):
    """The axioms o1, o1', o2 and o3 straight from their definitions."""
    lat, tensor = u.lattice, u.tensor
    sets, index = u.sets, u.set_index
    top, bot = lat.top, lat.bot
    m = u.ground.m
    if table[index[(top,) * m]] != top or table[index[(bot,) * m]] != top:
        return False
    for i, f in enumerate(sets):
        for j, g in enumerate(sets):
            fg = index[tuple(tensor.app(f[p], g[p]) for p in range(m))]
            if not lat.le(tensor.app(table[i], table[j]), table[fg]):
                return False
    for r in range(2, len(sets) + 1):
        for family in itertools.combinations(range(len(sets)), r):
            joined = tuple(lat.join_set([sets[k][p] for k in family])
                           for p in range(m))
            if not lat.le(lat.meet_set([table[k] for k in family]),
                          table[index[joined]]):
                return False
    return True


def compact_by_definition(u, space, filters):
    le = u.lattice.le
    for F in filters:
        if not any(any(F.leq(G) and all(le(a, b) for a, b in
                                        zip(space.nbhd.tables[p], G.table))
                       for G in filters)
                   for p in u.ground.points()):
            return False
    return True


def check_census(fz):
    known = census.load_known("census.json")
    for name, (lattice, tensor, points) in census.INSTANCES.items():
        u = census.universe_of(fz, lattice, tensor, points)
        want = known[name]
        row = {}
        if name in BRUTE_FILTERS:
            filters = fz.filters.enumerate_filters_bruteforce(u, cap=2 ** 16)
            fast = fz.filters.enumerate_filters(u)
            if sorted(F.table for F in filters) != [F.table for F in fast]:
                fail(f"{name}: enumerate_filters differs from brute force")
            row["filters"] = len(filters)
            row["ultrafilters"] = sum(
                not any(F.leq(G) and F.table != G.table for G in filters)
                for F in filters)
        else:
            filters = fz.filters.enumerate_filters(u, cap=census.FILTER_CAP)
        tables = [t for t in itertools.product(range(u.lattice.n),
                                               repeat=u.n_sets)
                  if is_topology(u, t)]
        row["topologies"] = len(tables)
        if name not in census.SAMPLED:
            row["compact"] = sum(
                compact_by_definition(u, fz.compactness.Space(u, t), filters)
                for t in tables)
        mismatch = {k: (v, want[k]) for k, v in row.items() if v != want[k]}
        if mismatch:
            fail(f"census row {name}: re-derived vs known {mismatch}")
        print(f"ok census row {name}: re-derived {row}")


def check_filter_cap(fz):
    c3 = fz.instances.chain(3)
    u = fz.powerset.Universe(c3, fz.instances.meet_tensor(c3),
                             fz.powerset.Ground(2))
    try:
        fz.filters.enumerate_filters(u)
    except fz.errors.SizeLimit:
        pass
    else:
        fail("u32 filter enumeration finished under the default cap")
    spec = clitasks.OUT / "chain3-godel-2pt-discrete.spec"
    spec.parent.mkdir(parents=True, exist_ok=True)
    spec.write_text(clitasks.spec_text("chain3", "godel", 2, "discrete"))
    code, _, _ = clitasks.invoke(fz, [str(spec), "--format", "machine",
                                      "filters", "enumerate"])
    if code != 2:
        fail(f"filters enumerate on a 2-point 3-chain exited {code}, not 2")
    print("ok default filter cap: u32 raises SizeLimit, the CLI exits 2")


def traced_pass(workload, fz, inputs):
    tracer = Tracer()
    tracer.install()
    try:
        record = run.run_pass(workload, fz, inputs, tracer)
    finally:
        tracer.uninstall()
    return record, tracer


def counts(tracer):
    return {k: v for k, v in tracer.summary().items()
            if not k.endswith("self_s")}


def check_tracer(fz):
    for name, module in run.WORKLOADS.items():
        workload = __import__(module)
        inputs = workload.make_inputs(fz, 7)
        plain = run.run_pass(workload, fz, inputs)
        record, tracer = traced_pass(workload, fz, inputs)
        if record.answers != plain.answers:
            fail(f"{name}: traced answers differ from untraced ones")
        if record.failures or plain.failures:
            fail(f"{name}: failures {record.failures or plain.failures}")
        summary = tracer.summary()
        idle = [k for k in EXERCISED[name] if not summary[f"{k}.calls"]]
        if idle:
            fail(f"{name}: no calls into {idle}")
        if name == "cli":
            _, again = traced_pass(workload, fz, inputs)
            if counts(again) != counts(tracer):
                fail("cli: per-layer counts differ between two traced passes")
        chains = {"census": ("compactness.is_compact",
                             "compactness.is_adherent", "filters.saturate"),
                  "cli": ("cli.main", "cli.run_command",
                          "specfile.build_universe", "powerset.Universe")}
        if name in chains and not nested(tracer.spans, chains[name]):
            fail(f"{name}: no span chain {' -> '.join(chains[name])}")
        print(f"ok tracer on {name}: {len(tracer.spans)} spans")


def nested(spans, chain):
    """True when some span path, parent to child, is exactly `chain`."""
    for name, _, _, parent, _ in spans:
        path = [name]
        while parent >= 0 and len(path) < len(chain):
            path.append(spans[parent][0])
            parent = spans[parent][3]
        if tuple(reversed(path)) == chain:
            return True
    return False


def main():
    sys.path.insert(0, str(Path(run.SRC)))
    fz = run._import_kernel()
    check_census(fz)
    check_filter_cap(fz)
    check_tracer(fz)
    print("selftest passed")


if __name__ == "__main__":
    main()
