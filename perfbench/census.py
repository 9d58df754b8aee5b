"""The `census` workload: filters, ultrafilters, topologies and compactness.

Per instance: build the Universe, enumerate its filters, classify each filter
by the ultrafilter characterization, enumerate its topologies, then decide
`is_compact` (sweep mode, on a default-validated Space) for every topology of
the small instances and for a seed-drawn sample of the u32 topologies.

Why: the filter and topology enumerators and the adherence saturation do
almost all the work, and each Universe is reused by many tasks, so a faster
enumerator or per-Universe caches show here.  The two u32 tensors use the
same compactness code two ways: every Goedel space is compact and forces the
full filter x point sweep, every Lukasiewicz space is non-compact and stops
at the first witness.
"""

from __future__ import annotations

import random

from common import (Outcome, Task, check_structure, check_value, load_known,
                    raised, universe_of, unexpected)

#: name -> (lattice, tensor, points)
INSTANCES = {
    "u23": ("chain2", "godel", 3),
    "u31-godel": ("chain3", "godel", 1),
    "u31-lukasiewicz": ("chain3", "lukasiewicz", 1),
    "u32-godel": ("chain3", "godel", 2),
    "u32-lukasiewicz": ("chain3", "lukasiewicz", 2),
    "diamond-1pt": ("diamond", "godel", 1),
    "chain4-godel-1pt": ("chain4", "godel", 1),
    "chain4-lukasiewicz-1pt": ("chain4", "lukasiewicz", 1),
}

#: u32 topologies decided per pass; the rest of the census decides them all.
#: With 40 each, task_p90_ms falls mid-way through the u32-godel decisions,
#: not on the edge between two groups of tasks
SAMPLED = {"u32-godel": 40, "u32-lukasiewicz": 40}

#: enumerate_filters raises SizeLimit on u32 at its default cap of 200,000
#: visited nodes; this cap lets both u32 instances finish
FILTER_CAP = 5_000_000


def make_inputs(fz, seed):
    rng = random.Random(seed)
    known = load_known("census.json")
    sample = {name: sorted(rng.sample(range(known[name]["topologies"]), k))
              for name, k in SAMPLED.items()}
    return {"known": known, "sample": sample, "rows": {}}


def tasks(fz, inputs):
    known, rows = inputs["known"], inputs["rows"]
    for name, (lattice, tensor, points) in INSTANCES.items():
        want = known[name]
        row = rows[name] = {"filters": None, "ultrafilters": 0,
                            "topologies": None, "compact": 0, "decided": 0}
        u = yield Task(f"{name} universe",
                       lambda: universe_of(fz, lattice, tensor, points),
                       lambda r: check_structure(r, ("universe", r.n_sets)))
        if raised(u):
            continue

        fs = yield Task(f"{name} enumerate_filters",
                        lambda: fz.filters.enumerate_filters(
                            u, cap=FILTER_CAP),
                        lambda r: check_value(r, len(r) == want["filters"],
                                              len(r), f"{len(r)} filters"))
        if raised(fs):
            continue
        row["filters"] = len(fs)

        for k, F in enumerate(fs):
            verdict = yield Task(
                f"{name} is_ultrafilter[{k}]",
                lambda: fz.filters.is_ultrafilter(F, "characterization"),
                lambda r: _check_ultra(fz, r, F, fs))
            if not raised(verdict) and verdict[0]:
                row["ultrafilters"] += 1

        ts = yield Task(f"{name} enumerate_topologies",
                        lambda: fz.topology.enumerate_topologies(u),
                        lambda r: check_value(r, len(r) == want["topologies"],
                                              len(r), f"{len(r)} topologies"))
        if raised(ts):
            continue
        row["topologies"] = len(ts)

        chosen = inputs["sample"].get(name, range(len(ts)))
        expect = want["compact"] == want["topologies"]
        for k in chosen:
            t = ts[k % len(ts)]
            verdict = yield Task(f"{name} is_compact[{k}]",
                                 lambda: _decide(fz, u, t, fs),
                                 lambda r: _check_compact(fz, r, fs, expect))
            row["decided"] += 1
            if not raised(verdict) and verdict[1][0]:
                row["compact"] += 1


def _decide(fz, u, t, fs):
    space = fz.compactness.Space(u, t)
    return space, fz.compactness.is_compact(space, filters=fs)


def _check_ultra(fz, result, F, fs):
    """Second path: maximality among the enumerated filters."""
    if raised(result):
        return unexpected(result)
    other, _ = fz.filters.is_ultrafilter(F, "maximality", all_filters=fs)
    return Outcome("ok" if result[0] == other else "fail", result[0], 1, 0,
                   f"characterization {result[0]} vs maximality {other}")


def _check_compact(fz, result, fs, expect):
    """Known answer per instance, plus the ultrafilter-mode second path."""
    if raised(result):
        return unexpected(result)
    space, (compact, _) = result
    fast, _ = fz.compactness.is_compact(space, mode="ultrafilter", filters=fs)
    ok = compact == expect and fast == compact
    return Outcome("ok" if ok else "fail", compact, 1, 0,
                   f"sweep {compact}, ultrafilter mode {fast}, known {expect}")


def row_failures(inputs):
    """Census rows that differ from the known table, as messages."""
    out = []
    for name, row in inputs["rows"].items():
        want = inputs["known"][name]
        mismatch = [f for f in ("filters", "ultrafilters", "topologies")
                    if row[f] != want[f]]
        if row["decided"] == want["topologies"]:
            expect = want["compact"]
        else:  # a sample: every decided space compact, or none
            expect = row["decided"] if want["compact"] else 0
        if row["compact"] != expect:
            mismatch.append("compact")
        if mismatch:
            out.append(f"census row {name}: {mismatch} differ from known "
                       f"{want}")
    return out


def table(inputs):
    lines = [f"{'instance':24s} {'filters':>7s} {'ultra':>5s} "
             f"{'topologies':>10s} {'compact':>14s}"]
    for name, row in inputs["rows"].items():
        compact = f"{row['compact']}/{row['decided']}"
        if row["decided"] != row["topologies"]:
            compact += " sampled"
        lines.append(f"{name:24s} {row['filters']!s:>7s} "
                     f"{row['ultrafilters']:>5d} {row['topologies']!s:>10s} "
                     f"{compact:>14s}")
    return lines
