"""Command-line driver: parse a spec file, dispatch checks, emit reports.

Exit status: 0 when every verdict passed, 1 when any failed, 2 on usage,
parse, or size-cap errors, and when `compact`, `product`, `tychonoff` or
`continuity` uses a space whose table is not a topology.  With --format
machine the output is a single JSON document with no wall-clock content, so
identical inputs produce byte-identical output; it is written directly
(`_write_json`), byte-identical to `json.dumps(tree, sort_keys=True,
indent=2)`.  The argument parser is built on first use and then reused;
every command works on the one lattice, tensor and cotensor that its parsed
document carries.  `_Kernel` builds each space and product once, under the
caps: --max-powerset bounds every powerset, the product's included;
--max-filters bounds every filter enumeration, those of `filters`,
`compact` and `tychonoff`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .compactness import (Space, build_product, is_compact,
                          product_nbhd_system, tychonoff_check)
from .errors import FuzztopError, PreconditionViolated
from .filters import (DEFAULT_FILTER_CAP, FilterTable, NoFilterAbove,
                      check_filter, enumerate_filters, is_ultrafilter,
                      saturate)
from .lattice import check_infinite_distributivity
from .powerset import DEFAULT_POWERSET_CAP
from .report import Report
from .residuated import (check_co_gl_monoid, check_cqm, check_gl_monoid,
                         classify, co_implication, residuum)
from .specfile import build_universe, parse_spec
from .topology import (Topology, check_interior, check_nbhd, check_topology,
                       is_continuous, nbhd_pushforward)


#: `validate` targets checked once per document; they are also its choices.
#: The lambdas look each check up when called, so a rebinding is seen.
DOC_BATTERIES = {
    "lattice": lambda doc: check_infinite_distributivity(doc.lattice),
    "cqm": lambda doc: check_cqm(doc.tensor_op),
    "glmonoid": lambda doc: check_gl_monoid(doc.tensor_op),
    "co-glmonoid": lambda doc: check_co_gl_monoid(doc.cotensor_op),
}
#: `validate` targets checked once per space, on its topology
SPACE_BATTERIES = {
    "topology": lambda tau: check_topology(tau),
    "interior": lambda tau: check_interior(tau.interior),
    "nbhd": lambda tau: check_nbhd(tau.nbhd),
}


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every call."""
    p = argparse.ArgumentParser(
        prog="fuzztop",
        description="Finite-model kernel for graded topology: validate "
                    "axioms, enumerate filters, decide compactness.")
    p.add_argument("spec", help="path to a spec file")
    p.add_argument("--format", choices=("human", "machine"), default="human")
    p.add_argument("--max-powerset", type=int, default=DEFAULT_POWERSET_CAP,
                   help="most fuzzy sets in a space's powerset")
    p.add_argument("--max-filters", type=int, default=DEFAULT_FILTER_CAP,
                   help="most candidate closures met while enumerating "
                        "filters, refuted ones and the least filter's "
                        "included")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run an axiom battery")
    v.add_argument("target", choices=(*DOC_BATTERIES, *SPACE_BATTERIES))
    v.add_argument("--space", default=None)

    for name in ("residuum", "coimpl", "classify"):
        sub.add_parser(name)

    f = sub.add_parser("filters")
    f.add_argument("action", choices=("enumerate", "check", "ultrafilters"))
    f.add_argument("--space", default=None)
    f.add_argument("--filter", dest="filter_name", default=None)

    s = sub.add_parser("saturate")
    s.add_argument("--filter", dest="filter_name", required=True)

    c = sub.add_parser("compact")
    c.add_argument("--space", required=True)

    pr = sub.add_parser("product")
    pr.add_argument("--spaces", nargs="+", required=True)

    ty = sub.add_parser("tychonoff")
    ty.add_argument("--spaces", nargs="+", required=True)

    co = sub.add_parser("continuity")
    co.add_argument("--map", dest="map_name", required=True)
    return p


class _Kernel:
    """One document's structures, each built on first use, under the caps."""

    def __init__(self, doc, args):
        self.doc = doc
        self.args = args
        self._universes = {}
        self._spaces = {}

    def universe(self, name):
        if name not in self.doc.spaces:
            raise FuzztopError(f"unknown space {name!r}")
        if name not in self._universes:
            self._universes[name] = build_universe(
                self.doc, name, powerset_cap=self.args.max_powerset)
        return self._universes[name]

    def space(self, name):
        """The named space, or PreconditionViolated (exit 2) naming the
        space and its failed axioms when its table is not a topology."""
        if name not in self._spaces:
            try:
                self._spaces[name] = Space(self.universe(name),
                                           self.doc.spaces[name].topology)
            except PreconditionViolated as exc:
                raise PreconditionViolated(f"space {name!r}: {exc}") from None
        return self._spaces[name]

    def product(self, names):
        return build_product([self.space(n) for n in names],
                             powerset_cap=self.args.max_powerset)

    def filters(self, name):
        return enumerate_filters(self.universe(name),
                                 cap=self.args.max_filters)

    def topology(self, name):
        return Topology(universe=self.universe(name),
                        table=self.doc.spaces[name].topology)

    def named_filter(self, name):
        if name not in self.doc.filters:
            raise FuzztopError(f"unknown filter {name!r}")
        decl = self.doc.filters[name]
        return FilterTable(universe=self.universe(decl.space),
                           table=decl.table)

    def space_names(self, chosen):
        """The chosen name, checked when it is resolved, or every space."""
        return sorted(self.doc.spaces) if chosen is None else [chosen]


def run_command(doc, args):
    """Dispatch one parsed command; returns (reports, extras)."""
    k = _Kernel(doc, args)
    reports, extras = [], {}

    if args.command == "validate":
        if args.target in DOC_BATTERIES:
            reports.append(DOC_BATTERIES[args.target](doc))
        else:
            for name in k.space_names(args.space):
                r = SPACE_BATTERIES[args.target](k.topology(name))
                r.name = f"{args.target}[{name}]"
                reports.append(r)

    elif args.command in ("residuum", "coimpl"):
        table = (residuum(doc.tensor_op) if args.command == "residuum"
                 else co_implication(doc.cotensor_op)).table
        names = doc.element_names
        extras["table"] = {
            f"{names[a]} {names[b]}": names[table[a][b]]
            for a in range(len(names)) for b in range(len(names))}
        r = Report(args.command)
        r.record("computed", True)
        reports.append(r)

    elif args.command == "classify":
        tags = classify(doc.tensor_op, residuum(doc.tensor_op))
        extras["tags"] = sorted(tags)
        r = Report("classify")
        r.record("computed", True)
        reports.append(r)

    elif args.command == "filters":
        if args.action == "check":
            if not args.filter_name:
                raise FuzztopError("filters check requires --filter")
            r = check_filter(k.named_filter(args.filter_name))
            r.name = f"filter[{args.filter_name}]"
            reports.append(r)
        else:
            for name in k.space_names(args.space):
                fs = k.filters(name)
                if args.action == "enumerate":
                    r = Report(f"filters[{name}]")
                    r.record("enumerated", True)
                else:
                    # maximality as the complete listing recorded it, by
                    # the definition `is_ultrafilter(.., "maximality")` uses
                    modes = [(F.maximal,
                              is_ultrafilter(F, "characterization")[0])
                             for F in fs]
                    r = Report(f"ultrafilters[{name}]")
                    r.record("modes_agree", all(m == c for m, c in modes), None)
                    fs = [F for F, (_, c) in zip(fs, modes) if c]
                extras.setdefault("counts", {})[name] = len(fs)
                extras.setdefault("tables", {})[name] = [list(F.table)
                                                         for F in fs]
                reports.append(r)

    elif args.command == "saturate":
        F = k.named_filter(args.filter_name)
        result = saturate(F.universe, F.table)
        r = Report(f"saturate[{args.filter_name}]")
        if isinstance(result, NoFilterAbove):
            extras["no_filter_above"] = {"alpha": result.alpha}
            r.record("no_filter_above", True)
        else:
            extras["filter"] = list(result.table)
            r.record("is_filter", check_filter(result).passed, None)
        reports.append(r)

    elif args.command == "compact":
        space = k.space(args.space)
        fs = k.filters(args.space)
        sweep, witness = is_compact(space, filters=fs)
        fast, _ = is_compact(space, mode="ultrafilter", filters=fs)
        r = Report(f"compact[{args.space}]")
        r.record("compact", sweep,
                 None if sweep else {"filter": list(witness.table)})
        r.record("fast_path_agrees", sweep == fast, (sweep, fast))
        reports.append(r)

    elif args.command == "product":
        P = k.product(args.spaces)
        r = Report("product[" + ",".join(args.spaces) + "]")
        r.record("topology_valid", P.space.topology_report.passed, None)
        for i, f in enumerate(P.factors):
            cont, wit = is_continuous(P.projections[i], P.space.topology,
                                      f.topology)
            r.record(f"projection_{i}_continuous", cont, wit)
        nb = product_nbhd_system(P)
        r.record("formula_nbhd_valid", check_nbhd(nb).passed, None)
        extras["product_points"] = [list(t) for t in P.point_tuples]
        extras["product_topology"] = list(P.space.topology.table)
        reports.append(r)

    elif args.command == "tychonoff":
        P = k.product(args.spaces)
        reports.append(tychonoff_check(P.factors, P,
                                       filter_cap=args.max_filters))

    elif args.command == "continuity":
        if args.map_name not in doc.maps:
            raise FuzztopError(f"unknown map {args.map_name!r}")
        decl = doc.maps[args.map_name]
        tau = k.space(decl.src).topology
        eta = k.space(decl.dst).topology
        cont, wit = is_continuous(decl.mapping, tau, eta)
        r = Report(f"continuity[{args.map_name}]")
        r.record("continuous", cont,
                 None if cont else {"g": list(eta.universe.sets[wit])})
        reports.append(r)
        if cont and set(decl.mapping) == set(eta.universe.ground.points()):
            reports.append(nbhd_pushforward(decl.mapping, tau, eta))

    return reports, extras


_quote = json.encoder.encode_basestring_ascii


def _write_json(obj, out, pad=""):
    """Append to `out` the parts of `json.dumps(obj, sort_keys=True,
    indent=2)`, `pad` being the indent of the line obj starts on.  Keys are
    strings, as in every report tree; strings are quoted in C, and a list
    of plain ints is one join.  With any indent the stdlib runs its
    pure-Python encoder, which this replaces."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or isinstance(obj, (int, float)):
        out.append(str(obj) if type(obj) is int else json.dumps(obj))
    elif not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} "
                        f"is not JSON serializable")
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    else:
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(obj, dict):
            out.append("{\n" + inner)
            for k, key in enumerate(sorted(obj)):
                out.append(f"{sep if k else ''}{_quote(key)}: ")
                _write_json(obj[key], out, inner)
            out.append("\n" + pad + "}")
        elif all(type(v) is int for v in obj):
            out.append(f"[\n{inner}{sep.join(map(str, obj))}\n{pad}]")
        else:
            out.append("[\n" + inner)
            for k, v in enumerate(obj):
                if k:
                    out.append(sep)
                _write_json(v, out, inner)
            out.append("\n" + pad + "]")


def _render(args, reports, extras, elapsed):
    ok = all(r.passed for r in reports)
    if args.format == "machine":
        tree = {
            "command": args.command,
            "passed": ok,
            "reports": [r.to_dict() for r in reports],
        }
        if extras:
            tree["results"] = extras
        out = []
        _write_json(tree, out)
        out.append("\n")
        return "".join(out), ok
    lines = [str(r) for r in reports]
    for key, value in extras.items():
        lines.append(f"{key}: {value}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n", ok


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = parse_spec(fh.read(), powerset_cap=args.max_powerset)
        start = time.monotonic()
        reports, extras = run_command(doc, args)
        elapsed = time.monotonic() - start
    except (FuzztopError, OSError, UnicodeDecodeError) as exc:
        print(f"fuzztop: error: {exc}", file=sys.stderr)
        return 2
    text, ok = _render(args, reports, extras, elapsed)
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
