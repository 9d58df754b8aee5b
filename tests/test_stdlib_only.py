import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# perfbench's scripts import each other by bare name from their directory
PERFBENCH_SIBLINGS = {"common", "run", "tracer", "census", "batteries",
                      "clitasks"}


def outside_imports(paths, allowed=frozenset()):
    """(file name, module) for every absolute import in `paths` that names
    neither a standard-library module nor a top-level name in `allowed`;
    relative imports stay inside their package.  The files are only read."""
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
                        and name.split(".")[0] not in allowed
                        and name != "__future__"]
    return outside


def test_runtime_imports_only_the_standard_library():
    paths = sorted((ROOT / "src" / "fuzztop").glob("*.py"))
    assert "__init__.py" in {path.name for path in paths}
    assert outside_imports(paths) == []


@pytest.mark.parametrize("directory, allowed", [
    ("perfbench", {"fuzztop"} | PERFBENCH_SIBLINGS),
    ("demos", {"fuzztop"}),
])
def test_scripts_import_only_the_standard_library(directory, allowed):
    paths = sorted((ROOT / directory).glob("*.py"))
    assert paths
    assert outside_imports(paths, allowed) == []


def test_the_model_catalogue_imports_only_the_standard_library():
    assert outside_imports([ROOT / "tests" / "models.py"], {"fuzztop"}) == []
