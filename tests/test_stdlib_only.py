"""The package imports nothing beyond the standard library.

Every import in ``src/twobridge`` must be relative, from ``__future__``, or
of a module that ``sys.stdlib_module_names`` lists, so the package runs on a
bare Python without any download.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"


def foreign_imports(path):
    """(line, module) for each import in ``path`` outside the standard
    library."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                out.append((node.lineno, name))
    return out


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = {p.name: foreign_imports(p) for p in sources}
    assert {name: f for name, f in found.items() if f} == {}


def test_guard_sees_a_foreign_import(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import json\nfrom . import cfrac\n"
                      "import numpy.linalg\nfrom networkx import Graph\n")
    assert foreign_imports(source) == [(3, "numpy.linalg"), (4, "networkx")]
