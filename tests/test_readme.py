"""The examples of the README "Library" section run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples():
    result = doctest.testfile(str(README), module_relative=False,
                              optionflags=doctest.REPORT_NDIFF)
    # every example is attempted, so the check cannot pass on an empty file
    assert (result.failed, result.attempted) == (0, 13)
