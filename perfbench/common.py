"""Tasks, outcomes, verdict helpers and the lattice, tensor and Universe
constructors shared by the three workloads.

A workload is a generator of `Task`s.  The runner times `Task.run`, sends
its result (or a `Raised`) back into the generator, so later tasks can use
earlier results, and scores the result with `Task.check` outside the timed
region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

KNOWN_DIR = Path(__file__).resolve().parent / "known"


@dataclass
class Raised:
    """Stands for the result of a task whose call raised."""

    exc: BaseException


@dataclass
class Outcome:
    """The score of one task: status is "ok", "fail" or "defect" (a named
    input that misses the documented contract at the seed kernel)."""

    status: str
    answer: object          # hashable summary compared traced vs untraced
    verdicts: int = 0       # verdicts the call returned
    skipped: int = 0        # of those, verdicts returned as skipped
    detail: str = ""


@dataclass
class Task:
    key: str
    run: object             # () -> result
    check: object           # result -> Outcome


def load_known(name):
    with open(KNOWN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def statuses(report):
    return {axiom: v.status for axiom, v in sorted(report.verdicts.items())}


def raised(result):
    return isinstance(result, Raised)


def unexpected(result):
    """Outcome of a task that raised where no exception was expected."""
    return Outcome("fail", ("raised", type(result.exc).__name__),
                   detail=f"raised {type(result.exc).__name__}: {result.exc}")


def check_report(result, expected):
    """Score a Report against expected statuses per axiom.

    `expected` maps each axiom to the set of statuses that answer it
    correctly.  A verdict returned as "skipped" is not wrong, it is counted
    as skipped; an expected axiom missing from the report is wrong.
    """
    if raised(result):
        return unexpected(result)
    got = statuses(result)
    skipped = sum(1 for s in got.values() if s == "skipped")
    wrong = [f"{axiom}={got.get(axiom, 'missing')}"
             for axiom, allowed in sorted(expected.items())
             if got.get(axiom, "missing") not in allowed | {"skipped"}]
    answer = tuple(sorted(got.items()))
    if wrong:
        return Outcome("fail", answer, len(got), skipped,
                       f"{result.name}: " + ", ".join(wrong))
    return Outcome("ok", answer, len(got), skipped)


def check_value(result, ok, answer, detail=""):
    """Score a single returned verdict or structure (one verdict)."""
    if raised(result):
        return unexpected(result)
    return Outcome("ok" if ok else "fail", answer, 1, 0, "" if ok else detail)


def check_structure(result, answer):
    """Score a call that builds a structure and returns no verdict."""
    if raised(result):
        return unexpected(result)
    return Outcome("ok", answer)


def lattice_of(fz, name):
    """chainK, diamond, pentagon, m3, or boolean8 (the 3-atom cube)."""
    inst = fz.instances
    if name.startswith("chain"):
        return inst.chain(int(name[len("chain"):]))
    if name == "boolean8":  # the cube: i < i | bit
        covers = [(i, i | b) for i in range(8) for b in (1, 2, 4) if not i & b]
        return fz.lattice.build_lattice(8, covers)
    return getattr(inst, name)()


def tensor_of(fz, lat, tensor):
    """The "godel" (meet) or "lukasiewicz" tensor on a lattice."""
    if tensor == "godel":
        return fz.instances.meet_tensor(lat)
    return fz.instances.lukasiewicz_tensor(lat)


def universe_of(fz, lattice, tensor, points):
    lat = lattice_of(fz, lattice)
    return fz.powerset.Universe(lat, tensor_of(fz, lat, tensor),
                                fz.powerset.Ground(points))
