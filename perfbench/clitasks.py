"""The `cli` workload: in-process `fuzztop.cli.main(argv)` calls with
`--format machine` and captured standard streams.

Tasks are every subcommand on the three `specs/*.spec` files, plus
subcommands on seed-chosen small generated specs: chains of 2 to 4 elements
with each tensor, the diamond and the pentagon, on spaces of one or two
points.  Each call parses its spec and builds a fresh Universe, so parsing,
dispatch and Universe set-up dominate, and caches held on a Universe cannot
help: this workload is the control for such caches, and validation added to
the kernel shows here as a cost.  Calls run in process because a subprocess
per call would mostly time interpreter start-up.

An answer is the exit code plus the machine JSON reduced to command, pass
flags, verdict statuses and results (witnesses are dropped, so a witness that
changes shape is not wrong).  Known answers in `known/cli.json` were recorded
from the kernel with `python3 perfbench/clitasks.py --record`; the inputs in
`DEFECTS` instead carry the documented contract, which the kernel misses.

Run as a script with --record to rewrite `known/cli.json`.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from common import KNOWN_DIR, Outcome, Task, load_known

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
OUT = Path(__file__).resolve().parent / "out" / "specs"

#: lattice -> (element names, covering pairs)
LATTICES = {
    "chain2": (("e0", "e1"), ((0, 1),)),
    "chain3": (("e0", "e1", "e2"), ((0, 1), (1, 2))),
    "chain4": (("e0", "e1", "e2", "e3"), ((0, 1), (1, 2), (2, 3))),
    "diamond": (("bot", "a", "b", "top"), ((0, 1), (0, 2), (1, 3), (2, 3))),
    "pentagon": (("bot", "a", "b", "c", "top"),
                 ((0, 1), (1, 2), (2, 4), (0, 3), (3, 4))),
}

#: (lattice, tensor, points) of the generated specs
COMBOS = [(c, t, m) for c in ("chain2", "chain3", "chain4")
          for t in ("godel", "lukasiewicz") for m in (1, 2)
          if not (c == "chain2" and t == "lukasiewicz")]
COMBOS += [("diamond", "godel", 1), ("diamond", "godel", 2),
           ("pentagon", "godel", 1)]
VALID = ("discrete", "indiscrete")
RANDOM = ("random0", "random1", "random2")

STRUCTURE = (("validate", "lattice"), ("validate", "cqm"),
             ("validate", "glmonoid"), ("validate", "co-glmonoid"),
             ("residuum",), ("coimpl",), ("classify",))
SPACE = (("validate", "topology"), ("validate", "interior"),
         ("validate", "nbhd"))
FILTERS = (("filters", "enumerate"), ("filters", "ultrafilters"),
           ("compact", "--space", "A"))
#: largest graded carrier (sets x grades) given filter and compactness
#: commands; the 27 cells of a 2-point 3-chain take seconds to enumerate
FILTER_CELLS = 16

COMMON = STRUCTURE + SPACE + (("filters", "enumerate"),
                              ("filters", "ultrafilters"),
                              ("filters", "check"))
FIXED = {
    "lukasiewicz3.spec": COMMON + (
        ("saturate", "--filter", "F"), ("compact", "--space", "A"),
        ("product", "--spaces", "A", "A"), ("tychonoff", "--spaces", "A", "A"),
        ("continuity", "--map", "m")),
    "n5.spec": COMMON + (
        ("saturate", "--filter", "F"), ("compact", "--space", "A"),
        ("product", "--spaces", "A", "A"), ("tychonoff", "--spaces", "A", "A"),
        ("continuity", "--map", "m")),
    "two_spaces.spec": COMMON + (
        ("filters", "check", "--filter", "principal0"),
        ("saturate", "--filter", "principal0"),
        ("compact", "--space", "X"), ("compact", "--space", "Y"),
        ("product", "--spaces", "X", "X"), ("product", "--spaces", "X", "Y"),
        ("tychonoff", "--spaces", "X", "X"),
        ("tychonoff", "--spaces", "X", "Y"),
        ("continuity", "--map", "collapse")),
}

_BOOL = "[lattice]\nelements = bot top\ncovers = bot<top\n\n[tensor]\n" \
        "bot bot -> bot\nbot top -> bot\ntop bot -> bot\ntop top -> top\n\n"

#: inputs whose documented answer the kernel misses (ROADMAP item 4); they
#: lower answered_frac instead of counting as failed
DEFECT_SPECS = {
    "defect-points-x.spec": _BOOL + "[space A]\npoints = x\n",
    "defect-invalid-topology.spec":
        _BOOL + "[space A]\npoints = 1\ngrade f = bot -> bot\n"
                "grade f = top -> top\n",
}
DEFECTS = {
    "defect-points-x.spec validate topology": {
        "exits": [2],
        "why": "bad points value must exit 2 without a traceback"},
    "defect-invalid-topology.spec compact --space A": {
        "exits": [1, 2],
        "why": "compact must not pass a table that fails validate topology"},
}
#: regular tasks on the defect inputs
DEFECT_CHECKS = (("defect-invalid-topology.spec", ("validate", "topology")),)


# ---- generated spec texts ---------------------------------------------------

def _order(n, covers):
    le = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        le[a][b] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                le[i][j] = le[i][j] or (le[i][k] and le[k][j])
    return le


def _meet(le, a, b):
    lower = [c for c in range(len(le)) if le[c][a] and le[c][b]]
    return next(c for c in lower if all(le[d][c] for d in lower))


def spec_text(lattice, tensor, points, variant):
    names, covers = LATTICES[lattice]
    n = len(names)
    le = _order(n, covers)
    out = ["[lattice]", "elements = " + " ".join(names),
           "covers = " + " ".join(f"{names[a]}<{names[b]}" for a, b in covers),
           "", "[tensor]"]
    for a in range(n):
        for b in range(n):
            c = (_meet(le, a, b) if tensor == "godel"
                 else max(0, a + b - (n - 1)))
            out.append(f"{names[a]} {names[b]} -> {names[c]}")
    out += ["", "[space A]", f"points = {points}"]
    rng = random.Random(f"{lattice}-{tensor}-{points}-{variant}")
    bot, top = 0, n - 1
    for k in range(n ** points):
        values = [(k // n ** (points - 1 - p)) % n for p in range(points)]
        if variant == "discrete":
            grade = top
        elif variant == "indiscrete":
            grade = top if len(set(values)) == 1 and values[0] in (bot, top) \
                else bot
        else:
            grade = rng.randrange(n)
        out.append("grade f = " + " ".join(names[v] for v in values)
                   + f" -> {names[grade]}")
    return "\n".join(out) + "\n"


def _commands(lattice, points, variant):
    if variant not in VALID:
        return SPACE
    cmds = SPACE
    if points == 1 and variant == "discrete":
        cmds = STRUCTURE + cmds
    n = len(LATTICES[lattice][0])
    if n ** points * n <= FILTER_CELLS or lattice == "pentagon":
        cmds = cmds + FILTERS
    return cmds


def _all_tasks(randoms):
    """(key, spec name, spec text or None for repository specs, args);
    `randoms()` gives the random gradings used per lattice and point count."""
    rows = [(spec, None, cmd) for spec, cmds in FIXED.items() for cmd in cmds]
    for lattice, tensor, points in COMBOS:
        for v in VALID + tuple(randoms()):
            name = f"{lattice}-{tensor}-{points}pt-{v}.spec"
            text = spec_text(lattice, tensor, points, v)
            rows += [(name, text, c) for c in _commands(lattice, points, v)]
    rows += [(spec, DEFECT_SPECS[spec], cmd) for spec, cmd in DEFECT_CHECKS]
    for key in DEFECTS:
        spec, _, cmd = key.partition(" ")
        rows.append((spec, DEFECT_SPECS[spec], tuple(cmd.split())))
    return [(f"{spec} {' '.join(cmd)}", spec, text, cmd)
            for spec, text, cmd in rows]


# ---- running and scoring ----------------------------------------------------

def invoke(fz, argv):
    """Run `fuzztop.cli.main(argv)` in process as `python -m fuzztop.cli`
    would: returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fz.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # escapes main: the interpreter prints and exits 1
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def answer(code, stdout):
    """Exit code and a digest of the machine JSON without witnesses."""
    try:
        tree = json.loads(stdout)
    except ValueError:
        return code, None
    reduced = {
        "command": tree.get("command"),
        "passed": tree.get("passed"),
        "reports": [{"name": r.get("name"), "passed": r.get("passed"),
                     "verdicts": {k: v.get("status")
                                  for k, v in r.get("verdicts", {}).items()}}
                    for r in tree.get("reports", [])],
        "results": tree.get("results"),
    }
    text = json.dumps(reduced, sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()[:16]


def _path(spec, text):
    """The spec file to pass to the CLI, written only when missing or stale
    so that repeated set-ups do not time file writes."""
    if text is None:
        return SPECS / spec
    path = OUT / spec
    try:
        if path.read_text(encoding="utf-8") == text:
            return path
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def make_inputs(fz, seed):
    rng = random.Random(seed)
    rows = _all_tasks(lambda: [rng.choice(RANDOM)])
    rng.shuffle(rows)
    argvs = [(key, [str(_path(spec, text)), "--format", "machine", *cmd])
             for key, spec, text, cmd in rows]
    return {"argvs": argvs, "known": load_known("cli.json"), "last": {}}


def tasks(fz, inputs):
    for key, argv in inputs["argvs"]:
        yield Task(key, lambda: invoke(fz, argv),
                   lambda r: _check(inputs, key, r))


def _check(inputs, key, result):
    code, stdout, stderr = result
    got = answer(code, stdout)
    traceback_printed = "Traceback (most recent call last)" in stderr
    verdicts = skipped = 0
    if got[1] is not None:
        for report in json.loads(stdout).get("reports", []):
            for v in report.get("verdicts", {}).values():
                verdicts += 1
                skipped += v.get("status") == "skipped"
    previous = inputs["last"].setdefault(key, stdout)
    if previous != stdout:
        return Outcome("fail", got, verdicts, skipped,
                       "output differs from the previous invocation")
    if key in DEFECTS:
        ok = code in DEFECTS[key]["exits"] and not traceback_printed
        return Outcome("ok" if ok else "defect", got, verdicts, skipped,
                       f"exit {code}: {DEFECTS[key]['why']}")
    want = inputs["known"].get(key)
    if want is None:
        return Outcome("fail", got, verdicts, skipped, "no known answer")
    ok = list(got) == [want["exit"], want["answer"]] and not traceback_printed
    return Outcome("ok" if ok else "fail", got, verdicts, skipped,
                   f"got exit {code} answer {got[1]}, known {want}")


def record(fz):
    """Every task any seed can draw, with its current answer."""
    known = {}
    for key, spec, text, cmd in _all_tasks(lambda: RANDOM):
        if key in DEFECTS:
            continue
        code, stdout, _ = invoke(fz, [str(_path(spec, text)), "--format",
                                      "machine", *cmd])
        got = answer(code, stdout)
        known[key] = {"exit": got[0], "answer": got[1]}
    with open(KNOWN_DIR / "cli.json", "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(known)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/clitasks.py --record")
    sys.path.insert(0, str(ROOT / "src"))
    import fuzztop.cli
    print(f"recorded {record(fuzztop)} known answers")
