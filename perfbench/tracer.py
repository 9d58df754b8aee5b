"""Binding-aware span tracer around the public functions of each fuzztop layer.

The kernel modules import each other's functions by name, so one function
object is reachable from several module globals (``fuzztop.filters.saturate``,
``fuzztop.compactness.saturate``, ``fuzztop.saturate``).  `Tracer.install`
replaces every such binding with one wrapper, and wraps ``__init__`` of the
two traced classes, so calls made inside the package are traced the same way
as calls made by the benchmark.  Spans stay in memory until `summary` or
`write` is called.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

#: traced public names per layer module, in the order metrics are reported
LAYERS = {
    "lattice": ("build_lattice", "check_infinite_distributivity"),
    "residuated": ("check_cqm", "check_gl_monoid", "check_co_gl_monoid",
                   "residuum", "co_implication"),
    "powerset": ("Universe", "check_graded_gl"),
    "topology": ("enumerate_topologies", "check_topology", "generate_topology",
                 "interior_from_topology", "check_interior",
                 "nbhd_from_interior", "check_nbhd", "is_continuous"),
    "filters": ("enumerate_filters", "saturate", "is_ultrafilter",
                "check_filter"),
    "compactness": ("Space", "is_compact", "is_adherent", "build_product",
                    "product_nbhd_system", "product_convergence_check",
                    "tychonoff_check"),
    "specfile": ("parse_spec", "build_universe"),
    "cli": ("main", "run_command"),
}


def _count_sets(counts, args, result):
    counts["powerset.Universe.sets"] += args[0].n_sets


def _count_topologies(counts, args, result):
    counts["topology.enumerate_topologies.found"] += len(result)


def _count_filters(counts, args, result):
    counts["filters.enumerate_filters.found"] += len(result)


def _count_saturate(counts, args, result):
    # saturate returns a FilterTable or a NoFilterAbove; only the first has
    # a `leq` method
    counts["filters.saturate.hits"] += hasattr(result, "leq")


def _count_adherent(counts, args, result):
    counts["compactness.is_adherent.hits"] += bool(result[0])


#: work counters recorded from a call's arguments and result
COUNTERS = {
    "powerset.Universe": _count_sets,
    "topology.enumerate_topologies": _count_topologies,
    "filters.enumerate_filters": _count_filters,
    "filters.saturate": _count_saturate,
    "compactness.is_adherent": _count_adherent,
}

#: statistics reported beside calls and self_s, with their units
EXTRA_STATS = {
    "powerset.Universe": (("sets", "count"),),
    "topology.enumerate_topologies": (("candidates", "count"),
                                      ("found", "count"),
                                      ("accept_ratio", "ratio")),
    "filters.enumerate_filters": (("found", "count"),),
    "filters.saturate": (("hit_ratio", "ratio"),),
    "compactness.is_adherent": (("hit_ratio", "ratio"),),
}


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for module, names in LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            out += [(f"{key}.calls", "count"), (f"{key}.self_s", "s")]
            out += [(f"{key}.{stat}", unit)
                    for stat, unit in EXTRA_STATS.get(key, ())]
        out.append((f"{module}.errors", "count"))
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Records one span per traced call: name, start, end, parent, task."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, task id]
        self.counts = defaultdict(int)
        self.task = -1
        self.active = True       # off: wrappers call straight through
        self._stack = []
        self._last_error = {}    # module -> last exception counted there
        self._patches = []       # (owner, attribute, original)

    # ---- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fuzztop"
                                         or name.startswith("fuzztop."))]
        for module, names in LAYERS.items():
            home = sys.modules[f"fuzztop.{module}"]
            for name in names:
                key = f"{module}.{name}"
                target = getattr(home, name)
                if isinstance(target, type):
                    self._patch(target, "__init__",
                                self._wrap(key, module, target.__init__))
                    continue
                wrapper = self._wrap(key, module, target)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            self._patch(m, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, key, module, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                if self._last_error.get(module) is not exc:
                    self._last_error[module] = exc
                    counts[f"{module}.errors"] += 1
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    # ---- results -----------------------------------------------------------

    def summary(self):
        """Per-layer metrics of every span recorded so far."""
        calls, self_s = {}, {}
        child = [0.0] * len(self.spans)
        candidates = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                candidates += (name == "topology.check_topology"
                               and self.spans[parent][0]
                               == "topology.enumerate_topologies")
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
        out = {}
        for metric, _ in per_layer_names():
            key, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(key, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(key, 0.0)
            elif stat == "candidates":
                out[metric] = candidates
            elif stat == "accept_ratio":
                found = self.counts[f"{key}.found"]
                out[metric] = found / candidates if candidates else 0.0
            elif stat == "hit_ratio":
                n = calls.get(key, 0)
                out[metric] = self.counts[f"{key}.hits"] / n if n else 0.0
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\ttask\n")
            for k, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{task}\n")
