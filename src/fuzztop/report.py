"""Structured pass/fail reports for axiom batteries and oracles.

Every check in the kernel returns a Report: one verdict per named axiom or
property, each failure carrying a concrete witness.  A battery states each
axiom as a generator of its failure witnesses, in sweep order, and hands it
to `Report.sweep`, which keeps the first one and draws no further.  Reports
render to a JSON-compatible tree so the command-line driver can emit them
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

_NO_WITNESS = object()  # witnesses may be None, so `next` needs its own default


@dataclass
class Verdict:
    status: str
    witness: object = None

    def to_dict(self):
        d = {"status": self.status}
        if self.witness is not None:
            d["witness"] = _jsonable(self.witness)
        return d


@dataclass
class Report:
    name: str
    verdicts: dict = field(default_factory=dict)

    def record(self, axiom, ok, witness=None):
        if axiom in self.verdicts and self.verdicts[axiom].status == FAIL:
            return  # a failure stands, with its first witness
        self.verdicts[axiom] = Verdict(PASS if ok else FAIL, None if ok else witness)

    def sweep(self, axiom, witnesses):
        """Record `axiom` failed with the first of `witnesses`, or passed
        when there is none; nothing after the first witness is drawn."""
        first = next(iter(witnesses), _NO_WITNESS)
        self.record(axiom, first is _NO_WITNESS, first)

    def record_skip(self, axiom, reason):
        self.verdicts[axiom] = Verdict(SKIPPED, reason)

    @property
    def passed(self):
        return all(v.status != FAIL for v in self.verdicts.values())

    def failures(self):
        return {k: v for k, v in self.verdicts.items() if v.status == FAIL}

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "verdicts": {k: self.verdicts[k].to_dict() for k in sorted(self.verdicts)},
        }

    def __str__(self):
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for k in sorted(self.verdicts):
            v = self.verdicts[k]
            line = f"  {v.status:7s} {k}"
            if v.status == FAIL and v.witness is not None:
                line += f"  witness={v.witness!r}"
            lines.append(line)
        return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in seq]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return repr(obj)
