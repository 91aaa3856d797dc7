"""The reference ring stays in ``laurent``.

``HLPoly``, ``q_integer`` and ``q_power`` are the ring that the tests and the
benchmark's tracer compare results with; no command or sweep builds one.
Besides ``laurent``, which defines them, only the package's ``__init__``
names them, to export them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"
REFERENCE = {"HLPoly", "q_integer", "q_power"}
ALLOWED = {"laurent.py", "__init__.py"}


def reference_names(path):
    """(line, name) for each use of a reference-ring name in ``path``: as a
    definition, a name, an attribute, an import or a string annotation."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name.split(".")[-1]
                     for alias in node.names]
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value] if node.value in REFERENCE else []
        else:
            continue
        out += [(node.lineno, name) for name in names if name in REFERENCE]
    return sorted(set(out))


def test_only_laurent_and_init_name_the_reference_ring():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = {p.name: reference_names(p) for p in sources
             if p.name not in ALLOWED}
    assert {name: f for name, f in found.items() if f} == {}
    # the guard is not vacuous: the allowed modules do name them
    for allowed in ALLOWED:
        names = {name for _, name in reference_names(PACKAGE / allowed)}
        assert names == REFERENCE, allowed


def test_guard_sees_every_kind_of_use(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from .laurent import HLPoly\n"
        "from . import laurent\n"
        "x = laurent.q_integer(3)\n"
        "def f(p) -> 'q_power':\n"
        "    return p\n"
        "y = [q_power]\n"
        "z = 'HLPoly is named in a string, not as a name'\n"
        "class HLPoly:\n"
        "    pass\n")
    assert reference_names(source) == [
        (1, "HLPoly"), (3, "q_integer"), (4, "q_power"), (6, "q_power"),
        (8, "HLPoly")]
