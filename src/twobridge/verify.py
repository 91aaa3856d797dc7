"""Exhaustive cross-check sweeps over bounded families of inputs, and two
checks of one result.

The sweeps drive the `verify` CLI command and the heavier parts of the test
suite.  Each sweep raises :class:`CrossCheckMismatch` at the first
disagreement, so a clean run is a positive statement about every input in
range.  :func:`law_failures` reads laws that share no derivation with the
engines; :func:`bracket_holds` is ``jones_recursive``'s recursion at one
point modulo a prime, in its own code and arithmetic but of a shared
derivation.  Both read a packed result in linear time; every ``jones``
request runs both.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, groupby
from math import gcd
from operator import countOf, mul

from .cfrac import (EvenCF, PositiveCF, _even_entries, _value, even_cf,
                    euler_minding, numerator_rec, positive_cf)
from .errors import CrossCheckMismatch
from .jones import (cross_check, degree_and_sign, f_recursive,
                    jones_recursive, jones_via_f)
from .laurent import specialize_y
from .snake import (count_matchings, f_polynomial, isomorphic,
                    snake_from_even, snake_from_positive)


def positive_lists(max_sum, max_entry=9):
    """All positive entry lists with sum <= max_sum (compositions)."""
    def rec(rem):
        yield ()
        for v in range(1, min(rem, max_entry) + 1):
            for tail in rec(rem - v):
                yield (v,) + tail
    for lst in rec(max_sum):
        if lst:
            yield lst


def even_lists(max_sum, max_abs=6):
    """All even nonzero entry lists with sum of |entries| <= max_sum."""
    def rec(rem):
        yield ()
        for v in range(2, min(rem, max_abs) + 1, 2):
            for sign in (1, -1):
                for tail in rec(rem - v):
                    yield (sign * v,) + tail
    for lst in rec(max_sum):
        if lst:
            yield lst


def coprime_fractions(max_p):
    """All reduced p/q with 1 <= q < p <= max_p."""
    for p in range(2, max_p + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield Fraction(p, q)


def check_engines(cf: EvenCF):
    """Run every applicable engine on one even CF; return the shared value.

    It must lead with ``degree_and_sign(cf)``, and for b_1 > 0 equal the
    two-term recursion placed there and, normalized, the matching listing."""
    ref = cross_check([jones_recursive(cf), jones_via_f(cf)],
                      list(cf.entries))
    j, delta = degree_and_sign(cf)
    if (ref.degree, ref.leading_sign) != (j, delta):
        raise CrossCheckMismatch(
            f"closed-form degree and sign disagree on {list(cf.entries)}",
            engines=("recursive", "degree_and_sign"), value=cf.entries)
    if cf.entries[0] > 0:
        if f_recursive(cf).times(delta, int(2 * j)) != ref.packed:
            raise CrossCheckMismatch(
                f"two-term recursion disagrees on {list(cf.entries)}",
                engines=("recursive", "f_recursive"), value=cf.entries)
        g = snake_from_even(cf)
        if specialize_y(f_polynomial(g), g.d) != ref.normalized:
            raise CrossCheckMismatch(
                f"matching enumeration disagrees on {list(cf.entries)}",
                engines=("recursive", "matchings"), value=cf.entries)
    return ref


def engine_sweep(max_sum):
    """Cross-check all engines on every even CF with sum |b_i| <= max_sum
    and every |b_i| <= 6."""
    checked = 0
    for entries in even_lists(max_sum):
        check_engines(EvenCF(entries))
        checked += 1
    return checked


def matching_sweep(max_sum):
    """Matching counts vs both numerator evaluations, on positive CFs with
    sum a_i <= max_sum and every a_i <= 9."""
    checked = 0
    for entries in positive_lists(max_sum):
        cf = PositiveCF(entries)
        m = count_matchings(snake_from_positive(cf))
        n1 = numerator_rec(entries)
        n2 = euler_minding(entries)
        if not m == n1 == n2:
            raise CrossCheckMismatch(
                f"matchings {m} vs numerators {n1}, {n2} on {list(entries)}",
                engines=("matchings", "numerator", "euler_minding"),
                value=entries)
        checked += 1
    return checked


def even_graph_sweep(max_p):
    """Even vs positive snake graphs on all link fractions p/q, p <= max_p."""
    checked = 0
    for r in coprime_fractions(max_p):
        if (r.numerator * r.denominator) % 2:
            continue
        pos = snake_from_positive(positive_cf(r))
        ev = snake_from_even(even_cf(r))
        if not isomorphic(pos, ev):
            raise CrossCheckMismatch(f"snake graphs differ for {r}",
                                     engines=("positive", "even"), value=r)
        if count_matchings(ev) != r.numerator:
            raise CrossCheckMismatch(
                f"even graph of {r} has {count_matchings(ev)} matchings",
                engines=("matchings",), value=r)
        checked += 1
    return checked


def cfrac_sweep(max_p):
    """Round trips and expansion laws for all reduced p/q, p <= max_p."""
    checked = 0
    for r in coprime_fractions(max_p):
        _fraction_laws(r)
        checked += 1
    return checked


def _fraction_laws(r):
    """The continued-fraction laws at one reduced r = p/q > 1.

    Values are compared as reduced (num, den) pairs from ``_value`` and
    expansions as entry tuples, so no law builds a Fraction.  A mismatch
    names r and, as its engines, the two sides it compares:

    * the positive, long-form and even expansions evaluate back to p/q;
    * parity: p is odd exactly when the even expansion has an even length;
    * mirror: the even expansion of -p/q is the entrywise negation;
    * tail: with p/q = a_1 + r'/q, dropping b_1 leaves the even expansion
      of q/r' when a_1 is even and of -q/(q - r') when a_1 is odd.
    """
    p, q = r.numerator, r.denominator

    def failed(law, sides, detail=""):
        return CrossCheckMismatch(f"{law} fails for {r}{detail}",
                                  engines=sides, value=r)
    pos = positive_cf(r)
    if _value(pos.entries) != (p, q):
        raise failed("positive round trip", ("positive_cf", "input"))
    if pos.n >= 2 and _value(pos.long_form().entries) != (p, q):
        raise failed("long form round trip", ("long_form", "input"))
    if p * q % 2:
        return
    ev = even_cf(r)
    bs = ev.entries
    if _value(bs) != (p, q):
        raise failed("even round trip", ("even_cf", "input"))
    if (p % 2 == 1) != (len(bs) % 2 == 0):
        raise failed("parity law", ("even_cf", "parity of p"))
    if _even_entries(-p, q) != ev.mirrored().entries:
        raise failed("mirror law", ("even_cf(-r)", "EvenCF.mirrored"),
                     ": even_cf(-r) is not the entrywise negation of "
                     "even_cf(r)")
    if len(bs) < 2 or pos.n < 2:
        return
    tq, tr = _value(pos.entries[1:])  # q/r' for p/q = a_1 + r'/q
    want = (tq, tr) if pos.entries[0] % 2 == 0 else (-tq, tq - tr)
    if bs[1:] != _even_entries(*want):
        raise failed("tail law", ("even_cf(r) tail", "even_cf(q/r')"))


def _remainder(n, m, step=1):
    """n % m, folded first while n is long: n = hi 2^K + lo is hi (2^K mod m)
    + lo modulo m, with K a multiple of ``step`` near half of n's bits, so
    the long operand meets only shifts and a product by a short factor.
    It folds while 2^K mod m has under K - 1 bits, so each fold shortens n."""
    while n.bit_length() > 2 * step + 128:
        K = step * (n.bit_length() // (2 * step))
        f = pow(2, K, m)
        if f.bit_length() >= K - 1:
            break
        n = (n >> K) * f + (n & ((1 << K) - 1))
    return n % m


def root_values(packed):
    """N at t = 1, -1, i and w = e^(i pi/3), the last two as (a, b) for
    a + b i and a + b w, of V = t^(h/2) N(t) packed as n = N(2^s).

    With T = 2^s, n modulo T - 1, T + 1, T^2 + 1 and T^2 - T + 1 is N at a
    root of that modulus.  Every coefficient sum is below T/4, so the
    balanced remainder is the value, a + bT for the last two: no digit read.
    All four moduli divide T^12 - 1, so n is first reduced modulo that.
    """
    s = packed.s
    T = 1 << s
    n = _remainder(packed.n, T ** 12 - 1, 12 * s)
    out = []
    for m in (T - 1, T + 1, T * T + 1, T * T - T + 1):
        x = n % m
        out.append(x - m if 2 * x > m else x)
    for i in (2, 3):
        b = (out[i] + (T >> 1)) >> s
        out[i] = out[i] - (b << s), b
    return tuple(out)


def law_failures(packed, p) -> list:
    """The classical laws that the packed V of a link of determinant p
    breaks, read from :func:`root_values` (Lickorish-Millett 1986;
    Murakami 1986):

    * V(1) = (-2)^(c-1), with c = 1 component for odd p, else 2;
    * |V(-1)| = p;
    * for a knot, V(i) = i^(h/2) N(i) is +1 when p = +-1 (mod 8), else -1;
    * |V(w)|^2 = a^2 + ab + b^2 is 3 when 3 divides p, else 1.
    """
    one, minus, (a, b), (x, y) = root_values(packed)
    failed = []
    if one != (1 if p & 1 else -2):
        failed.append("V(1)")
    if abs(minus) != p:
        failed.append("|V(-1)|")
    if p & 1:
        for _ in range(packed.h // 2 % 4):
            a, b = -b, a
        if packed.h & 1 or (a, b) != (1 if p % 8 in (1, 7) else -1, 0):
            failed.append("V(i)")
    if x * x + x * y + y * y != (1 if p % 3 else 3):
        failed.append("|V(w)|")
    return failed


#: 2^61 - 2373, a safe prime = 3 (mod 8): 2 generates (Z/l)*, so
#: t^(1/2) = 2^(s/2) has order (l - 1)/2 for every s; modulo 2^61 - 1,
#: where 2 has order 61, exponents would fold modulo 61
BRACKET_PRIME = (1 << 61) - 2373


def bracket_holds(packed, entries) -> bool:
    """Whether the packed V agrees at t = 2^s, modulo ``BRACKET_PRIME``, with
    the Kauffman bracket of the diagram of the even expansion ``entries``
    (Kauffman 1987, *State models and the Jones polynomial*).

    The signed entries c_i = (-1)^(i+1) b_i, read lazily in groups (v, k) of
    equal neighbours, build a rational tangle from the right.  The state
    model's step for an entry v, scaled by its writhe factor (-A^3)^v, is
    [[0, t^v], [1, c (t^v - 1)]] at t = A^4, c = t^(1/2) / (t + 1), for
    either sign of an even v: the recursion V_j = t^v V_(j-2) +
    c (t^v - 1) V_(j-1) of ``jones_recursive``.  Each group is one power of
    it on the bits of k, acting left to right on the row (delta, 1) =
    (-1/c, 1), and the last entry is V(2^s) = n 2^(s h/2).
    """
    L = BRACKET_PRIME
    z = pow(2, packed.s >> 1, L)  # t^(1/2)
    t = z * z % L
    ti = pow(t, -1, L)
    c = z * pow(t + 1, -1, L) % L
    x, y, steps = -(t + 1) * z * ti % L, 1, {}
    for v, run in groupby(map(mul, entries, cycle((1, -1)))):
        k = countOf(run, v)
        if v not in steps:
            tv = pow(t if v > 0 else ti, abs(v), L)
            steps[v] = 0, tv, 1, c * (tv - 1) % L
        m0, m1, m2, m3 = steps[v]
        while k:
            if k & 1:
                x, y = (x * m0 + y * m2) % L, (x * m1 + y * m3) % L
            k >>= 1
            if k:
                m0, m1, m2, m3 = ((m0 * m0 + m1 * m2) % L, m1 * (m0 + m3) % L,
                                  m2 * (m0 + m3) % L, (m1 * m2 + m3 * m3) % L)
    return (y - _remainder(packed.n, L) * pow(2, packed.s * packed.h >> 1, L)
            ) % L == 0


def run_verify(max_sum, max_p):
    """Run every sweep; returns a dict of check names to counts."""
    return {
        "engine_agreement": engine_sweep(max_sum),
        "matchings_vs_numerators": matching_sweep(max_sum),
        "even_vs_positive_graphs": even_graph_sweep(max_p),
        "continued_fraction_laws": cfrac_sweep(max_p),
    }
