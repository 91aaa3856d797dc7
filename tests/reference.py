"""The tests' one bridge from the package's results to the reference ring.

No command or sweep builds an ``HLPoly``: results stay packed and are read
as digit runs.  The tests compare them with ring arithmetic over ``HLPoly``
values, so :func:`lift` turns a result into one.
"""

from twobridge.jones import JonesResult
from twobridge.laurent import HLPoly, Packed


def lift(result) -> HLPoly:
    """The ``HLPoly`` of a ``Packed``, a ``DigitRun`` or a ``JonesResult``.

    A ``Packed`` is read first, so a result beyond its bound raises
    ``SlotOverflow`` here, as its read does."""
    if isinstance(result, JonesResult):
        result = result.run
    elif isinstance(result, Packed):
        result = result.read()
    units = range(result.h, result.h + 2 * len(result.digits), 2)
    return HLPoly(dict(zip(units, result.digits)))
