"""``cfrac`` is the one module that knows an even continued fraction.

Its orientation rule ``oriented_even_cf`` and its tile count ``EvenCF.d``
are defined there alone, and the other modules reach its private helpers
only where a law must not build a ``Fraction``: ``jones`` evaluates a
positive expansion through ``_value``, and ``verify`` checks the reader
and the value on integer pairs.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"
HOME = {"oriented_even_cf", "tile_count_even"}
PRIVATE_ALLOWED = {"jones.py": {"_value"},
                   "verify.py": {"_even_entries", "_value"}}


def definitions(tree):
    """Names of the functions and classes that ``tree`` defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def private_cfrac_names(tree):
    """The ``_``-prefixed names that ``tree`` takes from ``cfrac``, by an
    import or as an attribute of the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cfrac":
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "cfrac"):
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def parsed():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def test_only_cfrac_defines_the_even_expansion_facts():
    trees = parsed()
    assert len(trees) >= 8
    outside = {name: definitions(tree) & HOME for name, tree in trees.items()
               if name != "cfrac.py"}
    assert {name: found for name, found in outside.items() if found} == {}
    cfrac = trees["cfrac.py"]
    assert "oriented_even_cf" in definitions(cfrac)
    assert "tile_count_even" not in definitions(cfrac)
    even = next(node for node in cfrac.body
                if isinstance(node, ast.ClassDef) and node.name == "EvenCF")
    assert "d" in definitions(even)


def test_private_cfrac_names_stay_in_cfrac():
    found = {name: private_cfrac_names(tree)
             for name, tree in parsed().items() if name != "cfrac.py"}
    assert {name: names for name, names in found.items() if names} == (
        PRIVATE_ALLOWED)


def test_guard_sees_imports_and_attributes():
    tree = ast.parse("from .cfrac import EvenCF, _valid as v\n"
                     "from . import cfrac\n"
                     "x = cfrac._even_entries(3, 2)\n"
                     "y = cfrac.even_cf\n"
                     "from .snake import _heights\n"
                     "def tile_count_even(cf):\n"
                     "    return cf.d\n")
    assert private_cfrac_names(tree) == {"_valid", "_even_entries"}
    assert definitions(tree) & HOME == {"tile_count_even"}
