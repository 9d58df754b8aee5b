"""Count the code lines of `src/fuzztop`, per module and in total.

A code line holds a token of Python code: blank lines, comment-only lines
and the lines of docstrings (a string that opens a module, class or
function body, found with `ast`) do not count.  Standard library only.

Run from the repository root, or give another tree's package folder:

    python3 tests/code_lines.py [path/to/src/fuzztop]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fuzztop"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings under `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines of the module source `text`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(folder=SRC):
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(Path(folder).glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main(*sys.argv[1:])
