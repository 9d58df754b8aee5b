"""Per-task A/B of `perfbench/run.py` between two source trees.

    python3 tests/ab_tasks.py PARENT CHANGE --workload batteries \\
        [--processes 3] [--seconds 5] [--seed 1] [--top 15]

`run.py` prints only aggregates (wall_s, task_p50_ms, task_p90_ms), so a
change that slows many small tasks a little, or speeds up one large one a
lot, shows there only as a moved percentile.  This script runs the
benchmark's own `run_pass` on the workload, in one subprocess per tree and
process round, the parent first on even rounds and the change first on odd
ones, for `--seconds` of passes each, and keeps each task's minimum
latency (in seconds at `run.py`'s reference speed) over every pass of
every round.  It imports the benchmark from each tree and edits nothing
there; both trees must list the same tasks, or nothing is compared.

It prints the sums and the p50 and p90 (nearest rank, as `run.py`) of the
minima on each side, the `--top` tasks whose minimum moved most (by
ratio), and every task that crossed the p50 or p90 rank: at or below that
percentile on one side and above it on the other, each side against its
own percentile.  Standard library only.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

#: the child: run `run_pass` on one tree for a while and print each task's
#: minimum latency as one JSON line
CHILD = r"""
import importlib, json, sys, time
tree, workload_name, seed, seconds = sys.argv[1:5]
sys.path[:0] = [tree + "/perfbench", tree + "/src"]
import run
workload = importlib.import_module(run.WORKLOADS[workload_name])
fz, inputs = run._setup(workload, int(seed))
passes, began = [], time.perf_counter()
while len(passes) < 2 or time.perf_counter() - began < float(seconds):
    passes.append(run.run_pass(workload, fz, inputs))
print(json.dumps({
    "keys": [key for key, _ in passes[0].answers],
    "min_s": [min(t) for t in zip(*(p.latencies for p in passes))],
    "passes": len(passes)}))
"""


def run_tree(tree, workload, seed, seconds):
    """(task keys, minimum latencies, passes) of one child on `tree`."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(tree).resolve()), workload,
         str(seed), str(seconds)], capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"refused: {tree} exited {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result["keys"], result["min_s"], result["passes"]


def percentile(values, q):
    """Nearest-rank percentile, as `perfbench/run.py` takes it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)

    keys, minima, passes = {}, {}, {"parent": 0, "change": 0}
    for k in range(args.processes):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            got, mins, n = run_tree(getattr(args, side), args.workload,
                                    args.seed, args.seconds)
            if keys.setdefault(side, got) != got:
                sys.exit(f"refused: the {side} tree listed other tasks in "
                         f"round {k + 1}")
            minima[side] = list(map(min, zip(minima.get(side, mins), mins)))
            passes[side] += n
        print(f"round {k + 1}/{args.processes} done", file=sys.stderr,
              flush=True)
    if keys["parent"] != keys["change"]:
        sys.exit("refused: the trees list different tasks")
    names, a, b = keys["parent"], minima["parent"], minima["change"]

    print(f"{args.workload}: {len(names)} tasks, seed {args.seed}, "
          f"{args.processes} processes per tree, passes parent "
          f"{passes['parent']}, change {passes['change']}")
    print(f"{'':<8} {'sum ms':>10} {'p50 ms':>10} {'p90 ms':>10}")
    for side, mins in (("parent", a), ("change", b)):
        print(f"{side:<8} {1000 * sum(mins):10.4f} "
              f"{1000 * percentile(mins, 0.5):10.4f} "
              f"{1000 * percentile(mins, 0.9):10.4f}")

    moved = sorted(zip(names, a, b), key=lambda t: -abs(math.log(t[2] / t[1]))
                   if t[1] > 0 and t[2] > 0 else 0)
    print(f"\nmoved most (by ratio), top {args.top}:")
    print(f"  {'task':<48} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for name, x, y in moved[:args.top]:
        ratio = y / x if x else float("inf")
        print(f"  {name:<48} {1000 * x:10.4f} {1000 * y:10.4f} {ratio:7.3f}")

    for label, q in (("p50", 0.5), ("p90", 0.9)):
        pa, pb = percentile(a, q), percentile(b, q)
        crossed = [(name, x, y) for name, x, y in zip(names, a, b)
                   if (x <= pa) != (y <= pb)]
        print(f"\ncrossed the {label} rank ({1000 * pa:.4f} -> "
              f"{1000 * pb:.4f} ms): {len(crossed)}")
        for name, x, y in crossed:
            side = "up" if y > pb else "down"
            print(f"  {name:<48} {1000 * x:10.4f} {1000 * y:10.4f} {side}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
