import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fuzztop"


def test_runtime_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must
    # name a standard-library module
    paths = sorted(SRC.glob("*.py"))
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name != "__future__"]
    assert "__init__.py" in {path.name for path in paths}
    assert outside == []
