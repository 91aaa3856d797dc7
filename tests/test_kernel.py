"""The packed continuant kernel against references that do not use it.

The references are the generic ring continuant ``numerator_rec`` over
dict-backed ``HLPoly`` values and, for small links, the enumeration of the
snake graph's perfect matchings.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twobridge.cfrac import PositiveCF, eval_cf, numerator_rec
from twobridge.errors import MixedGrid
from twobridge.jones import (degree_and_sign, f_recursive, jones_direct,
                             jones_recursive, jones_via_f, oriented_even_cf,
                             specialized_f_positive)
from twobridge.laurent import (HLPoly, continuant, q_integer, q_power,
                               specialize_y, t_power)
from twobridge.snake import f_polynomial, snake_from_positive

SRC = Path(__file__).resolve().parent.parent / "src"

# values p/q > 1 (so not [1]); long: many steps and wide coefficients;
# wide: few steps, long q-integers; small: flip search lists every matching
long_cfs = st.lists(st.integers(1, 6), min_size=20, max_size=80)
wide_cfs = st.lists(st.integers(1, 300), min_size=1, max_size=4).filter(
    lambda a: a != [1])
small_cfs = st.lists(st.integers(1, 5), min_size=1, max_size=6).filter(
    lambda a: a != [1] and numerator_rec(a) <= 2000)


def reference_f(cf: PositiveCF) -> HLPoly:
    """The direct formula's numerator, by numerator_rec over HLPoly."""
    a, ell = cf.entries, cf.partial_sums()
    terms = [q_integer(a[0] + 1) - q_power(1)]
    for i in range(2, cf.n + 1):
        e = -ell[i - 1] if i % 2 == 0 else ell[i - 2] + 1
        terms.append(q_integer(a[i - 1]) * q_power(e))
    result = numerator_rec(terms)
    return q_power(ell[-1]) * result if cf.n % 2 == 0 else result


def check_engines(entries, want_f):
    """Every kernel engine on the link of ``entries`` against ``want_f``."""
    cf = PositiveCF(entries)
    ev = oriented_even_cf(eval_cf(entries))
    j, delta = degree_and_sign(ev)
    want = delta * t_power(j) * want_f
    assert specialized_f_positive(cf) == want_f
    assert jones_direct(cf).poly == want
    assert jones_recursive(ev).poly == want
    assert jones_via_f(ev).poly == want
    if ev.entries[0] > 0:
        assert f_recursive(ev) == want_f


class TestAgainstRingContinuant:
    @settings(max_examples=25, deadline=None)
    @given(long_cfs)
    def test_long(self, entries):
        check_engines(entries, reference_f(PositiveCF(entries)))

    @settings(max_examples=25, deadline=None)
    @given(wide_cfs)
    def test_wide(self, entries):
        check_engines(entries, reference_f(PositiveCF(entries)))


class TestAgainstMatchings:
    @settings(max_examples=40, deadline=None)
    @given(small_cfs)
    def test_small(self, entries):
        g = snake_from_positive(PositiveCF(entries))
        check_engines(entries, specialize_y(f_polynomial(g), g.d))


# polynomials on one grid: exponents 2k + parity, in half units
one_grid = st.tuples(st.integers(0, 1), st.dictionaries(
    st.integers(-12, 12), st.integers(-40, 40), min_size=1, max_size=10)).map(
    lambda pg: HLPoly({2 * k + pg[0]: c for k, c in pg[1].items()}))


class TestFactor:
    @given(st.sampled_from([1, -1]), st.integers(-20, 20), st.integers(0, 40),
           one_grid)
    def test_q_integer_factor(self, c, u, b, x):
        # x_1 = 0 * x_(-1) + nu * x_0 with nu = c t^(u/2) [b]_q
        want = (c * HLPoly.monomial(1, u) * q_integer(b) * x if b
                else HLPoly.zero())
        bound = max(1, b) * sum(abs(coeff) for _, coeff in x.items())
        assert continuant([((1, 0, 0), (c, u, b))], x, x, bound) == want

    def test_no_steps_returns_start(self):
        x = HLPoly.parse("3*t^(5/2) - t^(1/2)")
        assert continuant([], 1, x, 4) == x

    def test_mixed_grids_raise(self):
        one = (1, 0, 1)
        with pytest.raises(MixedGrid):
            continuant([(one, one)], 1, t_power(Fraction(1, 2)), 2)
        with pytest.raises(MixedGrid):
            continuant([], HLPoly({0: 1, 1: 1}), 1, 1)


def test_understated_bound_raises_under_optimize():
    """The decode check is an if/raise, so it survives ``python -O``."""
    script = (
        "from twobridge.errors import SlotOverflow\n"
        "from twobridge.laurent import continuant\n"
        "steps = [((1, 0, 1), (1, -4, 3)), ((1, 0, 1), (-1, 6, 5)),\n"
        "         ((-1, 2, 1), (1, -8, 2)), ((1, 0, 1), (1, 8, 4))]\n"
        "poly = continuant(steps, 1, 1, 10 ** 6)\n"
        "total = sum(abs(c) for _, c in poly.items())\n"
        "print('exact', continuant(steps, 1, 1, total) == poly)\n"
        "try:\n"
        "    continuant(steps, 1, 1, total - 1)\n"
        "except SlotOverflow as exc:\n"
        "    print('raised', type(exc).__mro__[1].__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["exact", "True", "raised", "TwoBridgeError"]
