"""The package states no invariant with ``assert`` or ``AssertionError``.

``python -O`` strips every ``assert`` statement, so an invariant check in
``src/twobridge`` must be an ``if`` that raises a ``TwoBridgeError``; then it
still runs under ``-O``, and the CLI reports it with a documented exit code.
A bare ``raise AssertionError`` survives ``-O`` but escapes the CLI's
handlers, so it is rejected too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"


def assert_lines(path):
    """The lines of the ``assert`` statements and of the raises of
    ``AssertionError`` in ``path``, in order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or (
                      isinstance(node, ast.Raise)
                      and raised_name(node.exc) == "AssertionError"))


def raised_name(exc):
    """The name raised by ``raise Name`` or ``raise Name(...)``, else None
    (a bare ``raise`` has no ``exc``)."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else None


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


def test_guard_sees_a_raised_assertion_error(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("def f(x):\n"
                      "    if x < 0:\n"
                      "        raise AssertionError(f'window {x}')\n"
                      "    if x == 1:\n"
                      "        raise AssertionError\n"
                      "    try:\n"
                      "        return 1 / x\n"
                      "    except ZeroDivisionError:\n"
                      "        raise\n")
    assert assert_lines(source) == [3, 5]
