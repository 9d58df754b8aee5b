"""fuzztop benchmark: one command for the census, batteries and cli workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Each workload is a fixed, seed-generated list of tasks; a task is one call
into the kernel that returns verdicts.  Tasks run as a closed loop with one
caller in one thread: the list is run in passes until --seconds have passed.
Every result is checked against its known answer outside the timed region.

Times are reported at a fixed reference speed.  On shared hardware other
tenants change the speed of this process by up to 2x, for seconds to
minutes at a time.  So a fixed pure-Python loop (`_reference`) is timed
between consecutive tasks, and each task's time is scaled by REF_S over the
mean of the reference times just before and after it (`ScaledClock`).  A
change in the kernel still changes a scaled time one-for-one; a change in
machine speed mostly cancels.  Unscaled figures are printed too.

With --trace 0 at least two passes run and the end-to-end metrics are
printed.  A task's latency is its fastest pass, and wall_s is the sum of
these task latencies.  With --trace 1 the untraced passes are followed by
one traced pass, and the per-layer metrics of that pass are printed with the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import Outcome, Raised

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: imports plus input generation repeated this many times; setup_s is the
#: median
SETUP_REPEATS = 9

#: nominal time of one `_reference` call, about its time on an idle core of
#: a 2-core x86-64 VM under CPython 3.11; scaled times are in seconds at
#: this speed
REF_S = 0.0004

#: reference loop runs per estimate of the current speed
REF_SAMPLES = 3

#: fewest untraced passes of a run, by --trace value
MIN_PASSES = {0: 2, 1: 1}

#: workload name -> module in this directory
WORKLOADS = {"census": "census", "batteries": "batteries", "cli": "clitasks"}
UNITS = {"wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "answered_frac": "ratio",
         "checked_frac": "ratio"}

_REF_TABLE = tuple(tuple((i * j + 3) % 16 for j in range(16))
                   for i in range(16))


def _step(row, k):
    return row[k]


def _reference():
    """Fixed interpreter work: nested tuple lookups and small calls, like the
    kernel's table sweeps; takes about REF_S."""
    table, acc = _REF_TABLE, 0
    for _ in range(25):
        for row in table:
            for j in range(16):
                acc = _step(row, (acc + j) & 15)
    return acc


class ScaledClock:
    """Times calls at REF_S speed.

    The reference loop is timed REF_SAMPLES times after every call (the
    median); a call's time is scaled by REF_S over the mean of the reference
    times just before and just after it.
    """

    def __init__(self):
        self.ref = self.reference_time()

    @staticmethod
    def reference_time():
        times = []
        for _ in range(REF_SAMPLES):
            start = perf_counter()
            _reference()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def time(self, measure):
        """Run `measure()`; return (its result, elapsed seconds at REF_S
        speed, elapsed seconds as measured)."""
        start = perf_counter()
        result = measure()
        elapsed = perf_counter() - start
        after = self.reference_time()
        scale = 2 * REF_S / (self.ref + after)
        self.ref = after
        return result, elapsed * scale, elapsed


def _setup(workload, seed):
    fz = _import_kernel()
    return fz, workload.make_inputs(fz, seed)


def _import_kernel():
    """Import fuzztop afresh; the package imports every layer but cli."""
    for name in [n for n in sys.modules
                 if n == "fuzztop" or n.startswith("fuzztop.")]:
        del sys.modules[name]
    importlib.import_module("fuzztop.cli")
    return sys.modules["fuzztop"]


class Pass:
    """Latencies and scores of one run through the task list."""

    def __init__(self):
        self.latencies = []      # seconds at REF_S speed
        self.raw = []            # seconds as measured
        self.answers = []
        self.failures = []
        self.defects = []
        self.verdicts = self.skipped = 0

    @property
    def wall(self):
        return sum(self.latencies)


def run_pass(workload, fz, inputs, tracer=None):
    record = Pass()
    clock = ScaledClock()
    gen = workload.tasks(fz, inputs)
    try:
        task = next(gen)
    except StopIteration:
        return record
    while True:
        if tracer is not None:
            tracer.task = len(record.latencies)
        result, scaled, raw = clock.time(lambda: _call(task, tracer))
        record.latencies.append(scaled)
        record.raw.append(raw)
        try:
            outcome = task.check(result)
        except Exception as exc:
            outcome = Outcome("fail", None,
                                     detail=f"check raised {exc!r}")
        record.answers.append((task.key, outcome.answer))
        record.verdicts += outcome.verdicts
        record.skipped += outcome.skipped
        if outcome.status == "fail":
            record.failures.append(f"{task.key}: {outcome.detail}")
        elif outcome.status == "defect":
            record.defects.append(f"{task.key}: {outcome.detail}")
        try:
            task = gen.send(result)
        except StopIteration:
            break
    if hasattr(workload, "row_failures"):
        record.failures += workload.row_failures(inputs)
    return record


def _call(task, tracer):
    if tracer is not None:
        tracer.active = True
    try:
        return task.run()
    except Exception as exc:
        return Raised(exc)
    finally:
        if tracer is not None:
            tracer.active = False


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _line_counts():
    counts = {}
    for path in sorted((SRC / "fuzztop").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fuzztop" / "__init__.py").is_file():
        print(f"perfbench: no fuzztop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(WORKLOADS[args.workload])

    setup, setup_raw = [], []
    clock = ScaledClock()
    for _ in range(SETUP_REPEATS):
        (fz, inputs), scaled, raw = clock.time(
            lambda: _setup(workload, args.seed))
        setup.append(scaled)
        setup_raw.append(raw)

    passes = []
    began = perf_counter()
    while len(passes) < MIN_PASSES[args.trace] \
            or perf_counter() - began < args.seconds:
        passes.append(run_pass(workload, fz, inputs))

    attempted = sum(len(p.latencies) for p in passes)
    latencies = [min(t) for t in zip(*(p.latencies for p in passes))]
    raw = [min(t) for t in zip(*(p.raw for p in passes))]
    failures = [f for p in passes for f in p.failures]
    defects = sorted({d for p in passes for d in p.defects})
    defect_count = sum(len(p.defects) for p in passes)
    verdicts = sum(p.verdicts for p in passes)
    skipped = sum(p.skipped for p in passes)
    if any(p.answers != passes[0].answers for p in passes):
        failures.append("answers differ between passes")

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"of {len(latencies)} tasks; {len(latencies)} latency samples, "
          f"{len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90")
    if hasattr(workload, "table"):
        print("census:")
        for line in workload.table(inputs):
            print("  " + line)
    print(f"unscaled: wall {sum(raw):.4f} s, task p50 "
          f"{1000 * _percentile(raw, 0.5):.4f} ms, p90 "
          f"{1000 * _percentile(raw, 0.9):.4f} ms, setup "
          f"{statistics.median(setup_raw):.4f} s; reference loop median "
          f"{1000 * ScaledClock.reference_time():.4f}"
          f" ms (REF_S {1000 * REF_S} ms)")
    print("src/fuzztop lines: " + ", ".join(
        f"{k} {v}" for k, v in _line_counts().items()))
    for d in defects:
        print(f"known defect (missed contract): {d}")

    if args.trace:
        from tracer import Tracer, per_layer_names
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, fz, inputs, tracer)
        finally:
            tracer.uninstall()
        attempted += len(traced.latencies)
        failures += traced.failures
        if traced.answers != passes[0].answers:
            failures.append("traced pass answers differ from untraced ones")
        metrics = tracer.summary()
        untraced_wall = statistics.median(p.wall for p in passes)
        metrics["trace.overhead_s"] = traced.wall - untraced_wall
        units = dict(per_layer_names())
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv")
        print(f"traced pass wall {traced.wall:.3f} s, untraced median "
              f"{untraced_wall:.3f} s, {len(tracer.spans)} spans")
    else:
        metrics = {
            "wall_s": sum(latencies),
            "task_p50_ms": 1000 * _percentile(latencies, 0.5),
            "task_p90_ms": 1000 * _percentile(latencies, 0.9),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "answered_frac": 1 - (len(failures) + defect_count) / attempted,
            "checked_frac": 1 - skipped / verdicts if verdicts else 1.0,
        }
        units = UNITS

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
