"""Exhaustive cross-check sweeps over bounded families of inputs.

These drive the `verify` CLI command and the heavier parts of the test
suite.  Each sweep raises :class:`CrossCheckMismatch` at the first
disagreement, so a clean run is a positive statement about every input in
range.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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

    The shared value's leading term must be ``degree_and_sign(cf)``, and for
    b_1 > 0 its normalized polynomial the two-term recursion and the
    specialized matching listing."""
    ref = cross_check([jones_recursive(cf), jones_via_f(cf)],
                      list(cf.entries))
    if (ref.degree, ref.leading_sign) != degree_and_sign(cf):
        raise CrossCheckMismatch(
            f"closed-form degree and sign disagree on {list(cf.entries)}",
            engines=("recursive", "degree_and_sign"), value=cf.entries)
    if cf.entries[0] > 0:
        if f_recursive(cf) != ref.normalized:
            raise CrossCheckMismatch(
                f"two-term recursion disagrees on {list(cf.entries)}",
                engines=("recursive", "f_recursive"), value=cf.entries)
        g = snake_from_even(cf)
        if specialize_y(f_polynomial(g), g.d) != ref.normalized.decode():
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
    expansions as entry tuples, so no law builds a Fraction:

    * the positive, long-form and even expansions evaluate back to p/q;
    * parity: p is odd exactly when the even expansion has an even length;
    * mirror: the even expansion of -p/q is the entrywise negation;
    * tail: with p/q = a_1 + r'/q, dropping b_1 leaves the even expansion
      of q/r' when a_1 is even and of -q/(q - r') when a_1 is odd.
    """
    p, q = r.numerator, r.denominator
    pos = positive_cf(r)
    if _value(pos.entries) != (p, q):
        raise CrossCheckMismatch(f"positive round trip fails for {r}")
    if pos.n >= 2 and _value(pos.long_form().entries) != (p, q):
        raise CrossCheckMismatch(f"long form round trip fails for {r}")
    if p * q % 2:
        return
    ev = even_cf(r)
    bs = ev.entries
    if _value(bs) != (p, q):
        raise CrossCheckMismatch(f"even round trip fails for {r}")
    if (p % 2 == 1) != (len(bs) % 2 == 0):
        raise CrossCheckMismatch(f"parity law fails for {r}")
    if _even_entries(-p, q) != ev.mirrored().entries:
        raise CrossCheckMismatch(
            f"mirror law fails for {r}: even_cf(-r) is not the "
            "entrywise negation of even_cf(r)")
    if len(bs) < 2 or pos.n < 2:
        return
    tq, tr = _value(pos.entries[1:])  # q/r' for p/q = a_1 + r'/q
    want = (tq, tr) if pos.entries[0] % 2 == 0 else (-tq, tq - tr)
    if bs[1:] != _even_entries(*want):
        raise CrossCheckMismatch(f"tail law fails for {r}")


def run_verify(max_sum, max_p):
    """Run every sweep; returns a dict of check names to counts."""
    return {
        "engine_agreement": engine_sweep(max_sum),
        "matchings_vs_numerators": matching_sweep(max_sum),
        "even_vs_positive_graphs": even_graph_sweep(max_p),
        "continued_fraction_laws": cfrac_sweep(max_p),
    }
