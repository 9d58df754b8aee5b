"""Every function and method of `src/fuzztop` has a caller outside tests.

A definition counts as called when another part of the package, a
`perfbench/*.py` script or a `demos/*.py` script refers to it by a name, an
attribute or a string constant (perfbench reaches `instances.m3` through
`getattr` on a string).  Its own body and the imports that re-export it do
not count.  Code that only tests call is an oracle and belongs in `tests/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fuzztop"

#: definitions only tests call, each with the reason it stays in the kernel
ALLOWED = {
    "sup_of_chain": "the paper's sup of a chain of filters, public API",
    "render_spec": "the inverse of parse_spec, the spec format's printer",
}


def references(node):
    """The names, attribute names and string constants under `node`."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def parse(folder):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(folder.glob("*.py"))]


def uncalled():
    """The kernel's functions and methods, dunders aside, that nothing but
    their own body refers to."""
    kernel = parse(SRC)
    callers = sum(map(references, kernel + parse(ROOT / "perfbench")
                      + parse(ROOT / "demos")), Counter())
    defs = [node for tree in kernel for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("__")]
    return sorted({node.name for node in defs
                   if not (callers - references(node))[node.name]})


def test_every_kernel_definition_has_a_caller_outside_tests():
    found = uncalled()
    assert [name for name in found if name not in ALLOWED] == []
    # an entry whose definition has gained a caller, or is gone
    assert [name for name in ALLOWED if name not in found] == []
