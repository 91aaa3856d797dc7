"""The catalogue of ``scripts/mutants.py`` stays anchored in the package.

The mutants themselves run in CI, not here; this checks only that every
anchor occurs exactly once in its file, so a refactor that moves an anchor
must update the catalogue rather than silently retire a mutant.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_anchor_occurs_once():
    assert len(mutants.MUTANTS) == 13
    for file, old, new in mutants.MUTANTS:
        assert old != new
        assert (mutants.PACKAGE / file).read_text().count(old) == 1, old


def test_the_modes():
    # jones under the default engine and under all three, and fpoly
    assert mutants.MODES == (("jones",), ("jones", "--engine", "all"),
                             ("fpoly",))


def test_the_inputs():
    values = mutants.inputs()
    assert len(values) == len(set(values)) == 2400
    assert all(isinstance(r, Fraction) and abs(r) > 1 for r in values)
    assert sum(r < 0 for r in values[:2200]) == 1100
