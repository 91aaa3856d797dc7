"""Classical invariants of the Jones polynomial, as an oracle that shares no
derivation with the engines.

For a 2-bridge link p/q with c components (c = 1 for odd p, else 2):

* V(1) = (-2)^(c-1);
* |V(-1)| = p, the determinant, so |V|^2 = p^2 at t^(1/2) = i;
* for a knot, V(i) = (-1)^Arf, which is +1 exactly when p = +-1 (mod 8)
  (Murakami 1986; Levine 1966);
* V(e^(i pi/3)) = +-i^(c-1) (i sqrt 3)^d, where d is the dimension of the
  first homology of the double branched cover, the lens space L(p, q),
  with coefficients in Z/3: d = 1 exactly when 3 divides p
  (Lickorish-Millett 1986).

Each law is evaluated exactly: the coefficients of a digit run are summed
by half-unit exponent modulo 4, 8 or 12, so z = t^(1/2) is a 4th, 8th or
12th root of unity, and the 12th is reduced by Phi_12 = z^4 - z^2 + 1.  Every
law is invariant under mirror image and under reversing one component.

The inputs are seeded random reduced +-p/q with p below 2^16 ... 2^96, run
through every engine as ``jones --engine <name>`` runs them.  Their slots
reach beyond 16 bits, where ``laurent._q_product`` builds [b]_q by
doubling, and from 2^64 on beyond 64 bits, where the digits are read slice
by slice: sizes that no exhaustive sweep reaches.
"""

import inspect
import random
from fractions import Fraction
from math import gcd

import pytest

from twobridge import laurent
from twobridge.cfrac import even_cf_for_link, positive_cf
from twobridge.cli import _jones_engine
from twobridge.errors import SlotOverflow

ENGINES = ("recursive", "direct", "fpoly")
BITS = (16, 24, 40, 64, 96)
PER_SIZE = 40


def draws(bits, rnd):
    """``PER_SIZE`` reduced +-p/q with 2 < p < 2^bits and 1 <= q < p."""
    out = []
    while len(out) < PER_SIZE:
        p = rnd.randrange(3, 2 ** bits)
        q = rnd.randrange(1, p)
        if gcd(p, q) == 1:
            out.append(Fraction(rnd.choice((1, -1)) * p, q))
    return out


DRAWS = {bits: draws(bits, random.Random(bits)) for bits in BITS}


def results(r):
    """The Jones polynomial of r from each engine, as the CLI computes it."""
    pos, ev = positive_cf(abs(r)), even_cf_for_link(r)
    return [_jones_engine(name, r, pos, ev) for name in ENGINES]


def buckets(run, m):
    """The coefficients of a digit run summed by half-unit exponent mod m,
    for even m: its value at a primitive m-th root of unity z = t^(1/2), as
    a polynomial in z of degree below m."""
    out = [0] * m
    for j in range(m // 2):
        out[(run.h + 2 * j) % m] += sum(run.digits[j::m // 2])
    return out


def mod_phi12(coeffs):
    """A polynomial in z of degree below 12 reduced by z^4 = z^2 - 1."""
    c = list(coeffs)
    for k in range(11, 3, -1):
        c[k - 2] += c[k]
        c[k - 4] -= c[k]
    return c[:4]


def z_poly(terms):
    """{power of z: coefficient} as a list of length 12."""
    out = [0] * 12
    for k, coeff in terms.items():
        out[k] += coeff
    return out


# i^(c-1) (i sqrt 3)^d with i = z^3 and i sqrt 3 = z^4 - z^8, keyed (c, d)
SIXTH_ROOT_VALUES = {
    (1, 0): mod_phi12(z_poly({0: 1})),
    (2, 0): mod_phi12(z_poly({3: 1})),
    (1, 1): mod_phi12(z_poly({4: 1, 8: -1})),
    (2, 1): mod_phi12(z_poly({7: 1, 11: -1})),
}


def law_failures(res, p):
    """The laws that the result ``res`` for a link of determinant p breaks."""
    try:
        run = res.run
    except SlotOverflow:
        return ["digits overflow their slots"]
    c = 1 if p % 2 else 2
    failed = []
    if sum(run.digits) != (-2) ** (c - 1):
        failed.append("V(1)")
    e = buckets(run, 4)
    if (e[0] - e[2]) ** 2 + (e[1] - e[3]) ** 2 != p * p:
        failed.append("|V(-1)|")
    if c == 1:
        e = buckets(run, 8)
        arf = 1 if p % 8 in (1, 7) else -1
        if e[1::2] != [0] * 4 or (e[0] - e[4], e[2] - e[6]) != (arf, 0):
            failed.append("V(i)")
    value = mod_phi12(buckets(run, 12))
    want = SIXTH_ROOT_VALUES[c, int(p % 3 == 0)]
    if value != want and value != [-x for x in want]:
        failed.append("V(e^(i pi/3))")
    return failed


@pytest.mark.parametrize("bits", BITS)
def test_laws_hold(bits):
    widest = 0
    for r in DRAWS[bits]:
        for res in results(r):
            assert law_failures(res, abs(r.numerator)) == [], (r, res.engine)
            widest = max(widest, res.packed.s)
    # doubling products beyond 16 bits, byte-slice reads beyond 64
    assert widest > (64 if bits >= 64 else 16)


def test_laws_catch_a_doubling_fault(monkeypatch):
    """A set bit of b that subtracts n in the doubling product breaks the
    laws on most draws."""
    right, wrong = "r, m = (r << s) + n, m + 1", "r, m = (r << s) - n, m + 1"
    source = inspect.getsource(laurent._q_product)
    assert source.count(right) == 1
    namespace = dict(vars(laurent))
    exec(compile(source.replace(right, wrong), laurent.__file__, "exec"),
         namespace)
    monkeypatch.setattr(laurent, "_q_product", namespace["_q_product"])
    checked = failing = 0
    for rs in DRAWS.values():
        for r in rs:
            for res in results(r):
                checked += 1
                failing += bool(law_failures(res, abs(r.numerator)))
    assert 2 * failing > checked, (failing, checked)
