"""Reference definitions that the tests check the package against.

No command or sweep builds an ``HLPoly``: results stay packed and are read
as digit runs.  The tests compare them with ring arithmetic over ``HLPoly``
values, so :func:`lift` turns a result into one.

:func:`even_division` and :func:`tau` are the textbook forms of two steps
that the package writes out where it needs them: the even expansion's
reader takes the division step inline, and ``degree_and_sign`` counts the
(+, +) pairs from the groups.

:func:`specialized_f` is the specialized generating function F by a route
of its own, the closed forms of F with no Jones polynomial in between;
``fpoly`` prints the checked ``jones`` result over its leading term, which
the theorem says is the same polynomial.

:func:`state_model_holds` is Kauffman's state model of the bracket on the
diagram of an even expansion, each step matrix built by :func:`twist` and
the writhe summed apart; ``verify.bracket_holds`` evaluates the skein step
that it reduces to, with the writhe scaled into each step.
"""

from itertools import cycle, groupby
from operator import countOf, mul

from twobridge.cfrac import even_cf_for_link, positive_cf
from twobridge.errors import CrossCheckMismatch, NoEvenQuotient
from twobridge.jones import (JonesResult, specialized_f_even,
                             specialized_f_positive)
from twobridge.laurent import HLPoly, Packed
from twobridge.verify import BRACKET_PRIME, _remainder


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


def specialized_f(r):
    """F of the signed value r, packed: the positive-cf formula on Euclid's
    quotients for r > 0, and the reflection identity on the oriented even
    expansion for r < 0."""
    return (specialized_f_positive(positive_cf(r)) if r > 0
            else specialized_f_even(even_cf_for_link(r)))


def twist(v, a, ai):
    """The step matrix [[0, A^v], [(-A^(-3))^v, A^(v-2) [v]_q]], row by row,
    q = -A^(-4), for v > 0; with 1/A for A and |v| for v when v < 0."""
    L = BRACKET_PRIME
    x, u = (a, v) if v > 0 else (ai, -v)
    q = -pow(x, -4, L)
    return (0, pow(x, u, L), pow(-pow(x, -3, L), u, L),
            pow(x, u - 2, L) * (1 - pow(q, u, L)) * pow(1 - q, -1, L) % L)


def state_model_holds(packed, entries) -> bool:
    """Whether the packed V agrees at t = 2^s, modulo ``BRACKET_PRIME``, with
    the Kauffman bracket of the diagram of the even expansion ``entries``
    (Kauffman 1987, *State models and the Jones polynomial*).

    The signed entries c_i = (-1)^(i+1) b_i, read lazily in groups (v, k) of
    equal neighbours, build a rational tangle from the right: from
    (f, g) = (0, 1), each entry swaps f and g, then twists v, taking (f, g)
    to (A^v f, (-A^(-3))^v g + A^(v-2) [v]_q f) by the matrix of
    :func:`twist`.  Every group is one power of that matrix on the bits of
    k.  The closure has bracket <D> = delta f + g, so the groups act left to
    right on the row (delta, 1), and <D> is its last entry.  With writhe
    w = -(c_1 + ... + c_m), V(t) = (-A^3)^(-w) <D> at t = A^4; at
    A = 2^(s/4), V(2^s) = n A^(2h).
    """
    L = BRACKET_PRIME
    a = pow(2, packed.s >> 2, L)
    ai = pow(a, -1, L)
    x, y, writhe, steps = -(a * a + ai * ai) % L, 1, 0, {}
    for v, run in groupby(map(mul, entries, cycle((1, -1)))):
        k = countOf(run, v)
        writhe -= v * k
        if v not in steps:
            steps[v] = twist(v, a, ai)
        m0, m1, m2, m3 = steps[v]
        while k:
            if k & 1:
                x, y = (x * m0 + y * m2) % L, (x * m1 + y * m3) % L
            k >>= 1
            if k:
                m0, m1, m2, m3 = ((m0 * m0 + m1 * m2) % L, m1 * (m0 + m3) % L,
                                  m2 * (m0 + m3) % L, (m1 * m2 + m3 * m3) % L)
    return (pow(-a * a * a, -writhe, L) * y - _remainder(
        packed.n, L) * pow(a, 2 * packed.h, L)) % L == 0
