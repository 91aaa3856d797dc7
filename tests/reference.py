"""Reference definitions that the tests check the package against.

No command or sweep builds an ``HLPoly``: results stay packed and are read
as digit runs.  The tests compare them with ring arithmetic over ``HLPoly``
values, so :func:`lift` turns a result into one.

:func:`even_division` and :func:`tau` are the textbook forms of two steps
that the package writes out where it needs them: the even expansion's
reader takes the division step inline, and ``degree_and_sign`` counts the
(+, +) pairs from the groups.
"""

from twobridge.errors import CrossCheckMismatch, NoEvenQuotient
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


def even_division(p: int, q: int):
    """Split p = b*q + s with b even and nonzero and -|q| <= s < |q|.

    The half-open window of length 2|q| pins (b, s) uniquely; for
    p > q > 0 this is the classical even division step.  Raises
    :class:`NoEvenQuotient` when the unique candidate is b = 0 (possible
    only when |p| < |q|, which the expansion recursions never produce).
    """
    if q == 0:
        raise ZeroDivisionError("even division by zero")
    n = abs(q)
    b = (p + n) // (2 * n) * (2 if q > 0 else -2)
    s = p - b * q
    if not -n <= s < n:  # pragma: no cover - window arithmetic
        raise CrossCheckMismatch(
            f"even division window broken for ({p}, {q})")
    if b == 0:
        raise NoEvenQuotient(f"no nonzero even quotient for ({p}, {q})")
    return b, s


def tau(types) -> int:
    """Number of (+, +) pairs of consecutive entries, counted overlapping."""
    return sum(1 for a, b in zip(types, types[1:]) if a == 1 and b == 1)
