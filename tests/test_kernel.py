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
from hypothesis import Phase, assume, given, settings, strategies as st

from twobridge.cfrac import PositiveCF, eval_cf, numerator_rec
from twobridge.errors import MixedGrid, SlotOverflow
from twobridge.jones import (degree_and_sign, f_recursive, jones_direct,
                             jones_recursive, jones_via_f, oriented_even_cf,
                             specialized_f_positive)
from twobridge.laurent import (HLPoly, Packed, _pack, _slot_width,
                               continuant, q_integer, q_power, specialize_y)
from twobridge.snake import f_polynomial, snake_from_positive

SRC = Path(__file__).resolve().parent.parent / "src"

# values p/q > 1 (so not [1]); long: many steps and wide coefficients;
# wide: few steps, long q-integers; small: the fence build lists every matching
long_cfs = st.lists(st.integers(1, 6), min_size=20, max_size=80)
wide_cfs = st.lists(st.integers(1, 300), min_size=1, max_size=4).filter(
    lambda a: a != [1])
small_cfs = st.lists(st.integers(1, 5), min_size=1, max_size=6).filter(
    lambda a: a != [1] and numerator_rec(a) <= 2000)


def abs_sum(p: HLPoly) -> int:
    """The sum of the absolute values of the coefficients: a kernel bound."""
    return sum(map(abs, p.exps_and_coeffs()[1]))


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
    want = HLPoly.monomial(delta, int(2 * j)) * want_f
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
        # x_1 = mu * 0 + nu * x_0 with nu = c t^(u/2) [b]_q
        want = c * HLPoly.monomial(1, u) * q_integer(b) * x if b else HLPoly()
        bound = max(1, b) * abs_sum(x)
        assert continuant([((1, 0), (c, u, b))], 0, x, bound) == want

    def test_no_steps_returns_start(self):
        x = HLPoly({5: 3, 1: -1})  # 3*t^(5/2) - t^(1/2)
        assert continuant([], 1, x, 4) == x

    def test_mixed_grids_raise(self):
        with pytest.raises(MixedGrid):
            continuant([((1, 0), (1, 0, 1))], 1, HLPoly.monomial(1, 1), 2)
        with pytest.raises(MixedGrid):
            continuant([], HLPoly({0: 1, 1: 1}), 1, 1)

    def test_mu_is_a_monomial(self):
        # a mu carrying a q-integer is refused, not read as a monomial
        with pytest.raises(ValueError):
            continuant([((1, 0, 2), (1, 0, 1))], 1, 1, 4)


# bit lengths of the bound on both sides of each slot width: 8, 16, 32 and
# 64 bits decode through struct, 72 bits and up byte by byte
BOUND_BITS = (6, 7, 14, 15, 30, 31, 62, 63, 70)
factors = st.tuples(st.sampled_from([1, -1]), st.integers(-6, 6).map(
    lambda k: 2 * k), st.integers(0, 4))


def factor_poly(c, u, b) -> HLPoly:
    return c * HLPoly.monomial(1, u) * q_integer(b) if b else HLPoly()


class TestSlotWidths:
    def test_width_keeps_two_spare_bits(self):
        for k in range(1, 130):
            for bound in (1 << (k - 1), (1 << k) - 1):
                s = _slot_width(bound)
                if k + 2 <= 64:
                    assert s == min(w for w in (8, 16, 32, 64) if w >= k + 2)
                else:
                    assert s == -(-(k + 2) // 8) * 8

    @pytest.mark.parametrize("k", BOUND_BITS)
    @settings(max_examples=15, deadline=None)
    @given(st.lists(factors, min_size=1, max_size=5), st.integers(0, 1))
    def test_agrees_with_ring_continuant(self, k, nus, parity):
        # numerator_rec is x_k = nu_k x_(k-1) + x_(k-2) from (0, 1); scaling
        # the start by m scales the result, and m makes the bound, the sum of
        # the result's absolute coefficients, exactly k bits long
        ref = numerator_rec([factor_poly(*nu) for nu in nus])
        total = abs_sum(ref)
        assume(0 < total <= 1 << (k - 1))
        m = ((1 << k) - 1) // total
        bound = m * total
        assert bound.bit_length() == k
        start = HLPoly.monomial(m, parity)
        steps = [((1, 0), nu) for nu in nus]
        assert continuant(steps, 0, start, bound) == start * ref


def parent_continuant(steps, x_before, x_start, bound) -> HLPoly:
    """The kernel as it was before short q-integers became Horner chains:
    every [b]_q with b >= 3 is one exact division by 1 + 2^s, every negative
    factor negates its product, and mu is a triple (c, u, b) like nu."""
    s = _slot_width(bound)
    one_plus_x = (1 << s) + 1

    def times(factor, term):
        c, u, b = factor
        n, h = term
        if b == 2:  # (X^2 - 1) / (1 + X) = X - 1: no division needed
            n = (n << s) - n
            u -= 2
        elif b != 1:
            shifted = n << (s * b)
            n = (shifted - n if b % 2 == 0 else shifted + n) // one_plus_x
            u -= 2 * (b - 1)
        return (n if c > 0 else -n), h + u

    x2 = _pack(HLPoly._coerce(x_before), s)
    x1 = _pack(HLPoly._coerce(x_start), s)
    for mu, nu in steps:
        (na, ha), (nb, hb) = times(mu, x2), times(nu, x1)
        if not na:
            x = nb, hb
        elif not nb:
            x = na, ha
        elif (ha - hb) & 1:
            raise MixedGrid("recurrence terms lie on different grids")
        elif ha > hb:
            x = (na << s * ((ha - hb) >> 1)) + nb, hb
        else:
            x = na + (nb << s * ((hb - ha) >> 1)), ha
        x2, x1 = x1, x
    return Packed(*x1, s, bound).decode()


# general factors on the integer grid: signed, shifted, and [b]_q on both
# sides of b = 2 and b = 6, where the kernel switches between its paths; mu
# is a signed, shifted monomial
general_factors = st.tuples(st.sampled_from([1, -1]), st.integers(-8, 8).map(
    lambda k: 2 * k), st.integers(0, 12))
monomials = st.tuples(st.sampled_from([1, -1]), st.integers(-8, 8).map(
    lambda k: 2 * k))
grid_terms = st.dictionaries(st.integers(-12, 12), st.integers(-40, 40),
                             max_size=10)


def ring_recurrence(steps, x_before, x_start) -> HLPoly:
    """x_k = mu_k x_(k-2) + nu_k x_(k-1) over dict-backed HLPoly values, mu
    a triple (c, u, b) like nu."""
    x2, x1 = HLPoly._coerce(x_before), HLPoly._coerce(x_start)
    for mu, nu in steps:
        x2, x1 = x1, factor_poly(*mu) * x2 + factor_poly(*nu) * x1
    return x1


def same_poly(kernel, got, want, k, steps):
    """Fail with the first differing exponent and both coefficients.

    The message replaces pytest's assertion rewriting and traceback, which
    would print both long polynomials for every example hypothesis shrinks.
    """
    if got == want:
        return
    a, b = ({Fraction(e): c for e, c in zip(*p.exps_and_coeffs())}
            for p in (got, want))
    e = max(e for e in a.keys() | b.keys() if a.get(e, 0) != b.get(e, 0))
    pytest.fail(f"{kernel} differs from the ring recurrence at k = {k} "
                f"with {len(steps)} steps: at exponent {e} it "
                f"gives {a.get(e, 0)}, the recurrence {b.get(e, 0)}",
                pytrace=False)


class TestAgainstParentKernel:
    @pytest.mark.parametrize("k", BOUND_BITS + (100, 140))
    # no explain phase: it only annotates a failure, and on a broken kernel
    # it took minutes and hundreds of megabytes to do so
    @settings(max_examples=15, deadline=None,
              phases=tuple(p for p in Phase if p is not Phase.explain))
    @given(st.lists(st.tuples(monomials, general_factors),
                    min_size=1, max_size=6),
           grid_terms, grid_terms, st.integers(0, 1))
    def test_general_steps(self, k, steps, before, start, parity):
        # one grid per run: exponents 2k + parity in half units
        before, start = (HLPoly({2 * e + parity: c for e, c in x.items()})
                         for x in (before, start))
        # the references take mu as the triple (c, u, 1)
        triples = [((*mu, 1), nu) for mu, nu in steps]
        ref = ring_recurrence(triples, before, start)
        total = abs_sum(ref)
        assume(total)
        # scale both starting terms so that the bound is k bits long, or as
        # long as the result needs when that is more
        m = max(1, ((1 << k) - 1) // total)
        bound = m * total
        assert bound.bit_length() == max(k, total.bit_length())
        want = m * ref
        same_poly("continuant",
                  continuant(steps, m * before, m * start, bound), want, k,
                  steps)
        same_poly("parent_continuant",
                  parent_continuant(triples, m * before, m * start, bound),
                  want, k, steps)


class TestRunStep:
    """A step (mu, nu, k) is k steps (mu, nu) with nu = c t^(u/2) [2]_q and
    mu = t^(u-1), made with one [k]_q product."""

    @pytest.mark.parametrize("k_bits", (14, 70))
    @settings(max_examples=40, deadline=None,
              phases=tuple(p for p in Phase if p is not Phase.explain))
    @given(st.sampled_from([1, -1]), st.integers(-6, 6), st.integers(1, 40),
           grid_terms, grid_terms, st.integers(0, 1), monomials,
           general_factors)
    def test_equals_k_steps(self, k_bits, c, u, k, before, start, parity,
                            mu2, nu2):
        # x_start lies u half units off x_before's grid, as in the skein
        # recursion; the step after the run reads both terms the run leaves
        before = HLPoly({2 * e + parity: x for e, x in before.items()})
        start = HLPoly({2 * e + parity + u: x for e, x in start.items()})
        mu, nu = (1, 2 * u - 2), (c, u, 2)
        after = (mu2, (nu2[0], nu2[1] + u, nu2[2]))
        for steps in ([(mu, nu, k)], [(mu, nu, k), after]):
            singles = [(mu, nu)] * k + steps[1:]
            ref = ring_recurrence([((*m, 1), n) for m, n in singles],
                                  before, start)
            total = abs_sum(ref)
            assume(total)
            # scale the bound up to k_bits bits, so both slot paths run
            bound = max(total, ((1 << k_bits) - 1) // total * total)
            same_poly("run step", continuant(steps, before, start, bound),
                      ref, k_bits, steps)

    @pytest.mark.parametrize("step", [
        ((1, -4), (-1, -1, 4), 3),   # b = 4
        ((-1, -4), (-1, -1, 2), 3),  # mu = -t^(u-1)
        ((1, -2), (-1, -1, 2), 3),   # mu = t^(u-1/2)
        ((1, -4), (-1, -1, 2), 0)])  # no steps
    def test_other_pairs_raise(self, step):
        with pytest.raises(ValueError):
            continuant([step], 1, HLPoly.monomial(1, 1), 4)


# bounds whose slots decode through struct (8 and 16 bits, 64 bits) and
# byte by byte (80 bits)
PACKED_BOUNDS = (14, 200, 2 ** 61, 2 ** 70)


@st.composite
def packed_poly(draw, grid, bound):
    """(Packed, HLPoly): up to 8 terms on ``grid`` (0: integer exponents,
    1: half-integer ones) with coefficients summing to at most ``bound``,
    packed at h up to 3 slots below the lowest exponent; a zero term gets an
    arbitrary h."""
    c = bound // 8
    slots = draw(st.dictionaries(st.integers(-6, 6), st.integers(-c, c),
                                 max_size=8))
    poly = HLPoly({2 * k + grid: v for k, v in slots.items()})
    s = _slot_width(bound)
    n, h = _pack(poly, s)
    offset = draw(st.integers(0, 3))
    if not poly:
        h = draw(st.integers(-9, 9))
    return Packed(n << s * offset, h - 2 * offset, s, bound), poly


@st.composite
def packed_pairs(draw, mixed=False):
    """Two packed terms, on one grid or (``mixed``) on both; the second is
    often the first's polynomial or its negation, packed afresh, and may sit
    on wider slots."""
    grid = draw(st.integers(0, 1))
    bound = draw(st.sampled_from(PACKED_BOUNDS))
    a, pa = draw(packed_poly(grid, bound))
    wider = draw(st.sampled_from([b for b in PACKED_BOUNDS if b >= bound]))
    b, pb = draw(packed_poly(1 - grid if mixed else grid, wider))
    if not mixed:
        twin = draw(st.sampled_from((None, 1, -1)))
        if twin is not None:
            pb = twin * pa
            s = _slot_width(wider)
            n, h = _pack(pb, s)
            b = Packed(n, h, s, wider)
    return a, pa, b, pb


class TestPacked:
    @given(packed_pairs())
    def test_same_is_decoded_equality(self, pair):
        a, pa, b, pb = pair
        assert a.decode() == pa and b.decode() == pb
        assert a.same(b) == b.same(a) == (pa == pb)

    @given(packed_pairs(mixed=True))
    def test_mixed_grids_equal_only_when_zero(self, pair):
        a, pa, b, pb = pair
        assert a.same(b) == b.same(a) == (not pa and not pb)

    @given(packed_pairs(), st.sampled_from((1, -1)), st.integers(-9, 9))
    def test_times_is_the_monomial_product(self, pair, c, u):
        a, pa, _, _ = pair
        assert a.times(c, u).decode() == HLPoly.monomial(c, u) * pa
        assert a.times(c, u).same(a) == (not pa or (c, u) == (1, 0))

    @given(packed_pairs())
    def test_bar_of_packed_terms(self, pair):
        # zero, negated and re-packed terms among them
        for p, poly in pair[:2], pair[2:]:
            check_bar(p)
            s = p.s
            n, h = _pack(poly.bar(), s)
            assert p.bar().same(Packed(n, h, s, p.bound))

    @given(st.sampled_from((8, 16, 32, 64)), st.data())
    def test_bar_on_struct_widths(self, s, data):
        check_bar(data.draw(near_edge_packed(s)))

    @given(st.integers(9, 30).map(lambda k: 8 * k), st.data())
    def test_bar_on_byte_widths(self, s, data):
        check_bar(data.draw(near_edge_packed(s)))


@st.composite
def near_edge_packed(draw, s):
    """A packed term on s-bit slots whose digits often lie at or next to
    the ends of the balanced range, -2^(s-1) and 2^(s-1) - 1; its bound is
    sometimes one below the digits' sum, so that a read overflows."""
    half = 1 << (s - 1)
    digit = st.one_of(st.integers(-half, half - 1), st.sampled_from(
        (0, 1, -1, -half, 1 - half, half - 1, half - 2)))
    digits = draw(st.lists(digit, max_size=10))
    n = draw(st.sampled_from((1, -1))) * sum(
        d << (s * i) for i, d in enumerate(digits))
    total = sum(map(abs, digits))
    bound = draw(st.sampled_from((total, total + 1, max(total - 1, 0))))
    return Packed(n, draw(st.integers(-9, 9)), s, bound)


def check_bar(p: Packed):
    """``p.bar()`` against the bar of the decoded polynomial: equal when the
    digits fit the bound, and both raising :class:`SlotOverflow` when not."""
    try:
        want = p.decode().bar()
    except SlotOverflow:
        with pytest.raises(SlotOverflow):
            p.bar().decode()
        return
    barred = p.bar()
    assert barred.decode() == want
    assert barred.bar().same(p)
    assert (barred.s, barred.bound) == (p.s, p.bound)


UNDERSTATED_BOUND = (
    "from twobridge.errors import SlotOverflow\n"
    "from twobridge.laurent import (_slot_width, continuant,\n"
    "                               continuant_packed)\n"
    "steps = [((1, 0), (1, -4, 3)), ((1, 0), (-1, 6, 5)),\n"
    "         ((-1, 2), (1, -8, 2)), ((1, 0), (1, 8, 4))]\n"
    "m = {scale}\n"
    "poly = continuant(steps, m, m, 10 ** 6 * m)\n"
    "total = sum(map(abs, poly.exps_and_coeffs()[1]))\n"
    "print('exact', continuant(steps, m, m, total) == poly)\n"
    "print('slot', _slot_width(total - 1))\n"
    "try:\n"
    "    {read}\n"
    "except SlotOverflow as exc:\n"
    "    print('raised', type(exc).__mro__[1].__name__)\n"
)
READ_DECODED = "continuant(steps, m, m, total - 1)"
# the bar reads nothing itself: the overflow shows when its result is read
READ_BARRED = "continuant_packed(steps, m, m, total - 1).bar().decode()"


def understated_bound_output(scale, read=READ_DECODED):
    """Output of :data:`UNDERSTATED_BOUND` under ``python -O``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = UNDERSTATED_BOUND.format(scale=scale, read=read)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_understated_bound_raises_under_optimize():
    """The decode check is an if/raise, so it survives ``python -O``; the
    coefficients sum to 205, so 16-bit slots decode through struct."""
    assert understated_bound_output(1) == [
        "exact", "True", "slot", "16", "raised", "TwoBridgeError"]


def test_understated_bound_raises_under_optimize_on_byte_path():
    """The same check on slots wider than 64 bits, decoded byte by byte."""
    assert understated_bound_output(1 << 70) == [
        "exact", "True", "slot", "80", "raised", "TwoBridgeError"]


@pytest.mark.parametrize("scale, slot", [(1, "16"), (1 << 70, "80")])
def test_understated_bound_raises_after_bar_under_optimize(scale, slot):
    """The bar of a result packed with an understated bound raises when it
    is read, on the struct and the byte path."""
    assert understated_bound_output(scale, READ_BARRED) == [
        "exact", "True", "slot", slot, "raised", "TwoBridgeError"]
