"""Alternating A/B pairs of `perfbench/run.py` between two source trees.

    python3 tests/ab_pairs.py PARENT CHANGE --workload batteries \\
        --pairs 10 --seconds 20 [--seed 1]

Both trees must hold the same benchmark: their `BENCHMARK.json` and every
file under `perfbench/` but `perfbench/out/` (which the runs write) and
bytecode caches must be byte-identical, or nothing runs.  Pair k runs the
workload at seed `--seed` + k in both trees, one process each, the parent
first on even k and the change first on odd k, so drift over time falls on
both sides alike.  A run whose JSON line is not `correct` stops the script.

Per end-to-end metric of `BENCHMARK.json` it prints each side's median and
quartiles, the change in the median and the pairs the change won.  A claim
of a gain holds when the change won at least 9 pairs in 10 and its median
beats the parent's by more than the parent's quartile spread.  A median
worse than the parent's by more than the metric's relative `bound` is
flagged, and a metric whose parent quartile spread is wider than its bound
is marked unresolved: no change within the bound could show there.
Standard library only; exits 1 on a refused run or a bound flag.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SKIP = {"out", "__pycache__"}


def bench_files(tree):
    """`BENCHMARK.json` and the benchmark's files of `tree`, by relative
    path, with their bytes."""
    root = Path(tree)
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and not SKIP.intersection(rel.parts[1:-1]):
            files[rel.as_posix()] = path.read_bytes()
    return files


def run(tree, workload, seed, seconds):
    """The metrics of one run, or SystemExit when it is not correct."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if not result or not result["correct"]:
        sys.exit(f"refused: {tree} seed {seed} is not correct "
                 f"(exit {out.returncode})\n{out.stdout[-2000:]}"
                 f"{out.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3) of `values`."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    parent_files, change_files = map(bench_files, (args.parent, args.change))
    differ = sorted(k for k in parent_files.keys() | change_files.keys()
                    if parent_files.get(k) != change_files.get(k))
    if differ:
        sys.exit("refused: the benchmark differs between the trees: "
                 + ", ".join(differ))
    spec = json.loads(parent_files["BENCHMARK.json"])

    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, seed,
                                   args.seconds))
        print(f"pair {k + 1}/{args.pairs} (seed {seed}, {order[0]} first) "
              "done", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, --seconds {args.seconds:g}")
    print(f"{'metric':<14} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change':>8} {'wins':>7}")
    flags, claims, unresolved = [], [], []
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [r[name] for r in sides["parent"]]
        b = [r[name] for r in sides["change"]]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        rel = (bm - am) / am if am else 0.0
        parent = f"{am:.5g} [{a1:.5g}, {a3:.5g}]"
        change = f"{bm:.5g} [{b1:.5g}, {b3:.5g}]"
        print(f"{name:<14} {parent:<32} {change:<32} {100 * rel:+7.1f}% "
              f"{wins:>3}/{args.pairs}")
        gap = (am - bm) if lower else (bm - am)
        if wins >= 0.9 * args.pairs and gap > a3 - a1:
            claims.append(name)
        if (rel if lower else -rel) > metric["bound"]:
            flags.append(f"{name} {100 * rel:+.1f}% (bound "
                         f"{100 * metric['bound']:g}%)")
        if am and (a3 - a1) / am > metric["bound"]:
            unresolved.append(name)
    print("gain rule (>= 9 of 10 pairs won, median gap > parent's "
          "quartile spread) holds for: " + (", ".join(claims) or "none"))
    print("worse than the bound: " + ("; ".join(flags) or "none"))
    print("unresolved (parent spread wider than the bound): "
          + (", ".join(unresolved) or "none"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
