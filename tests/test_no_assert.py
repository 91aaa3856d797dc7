"""The package states no invariant with ``assert``.

``python -O`` strips every ``assert`` statement, so an invariant check in
``src/twobridge`` must be an ``if`` that raises a ``TwoBridgeError``; then it
still runs under ``-O``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"


def assert_lines(path):
    """The lines of the ``assert`` statements in ``path``, in order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_package_has_no_assert():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = {p.name: assert_lines(p) for p in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_guard_sees_an_assert(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(x):\n"
                      "    if x < 0:\n"
                      "        raise ValueError(x)\n"
                      "    assert x != 1, 'one'\n"
                      "    return [x for x in range(x) if x]\n"
                      "assert f(2)\n")
    assert assert_lines(source) == [4, 6]
