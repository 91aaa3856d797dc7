"""The packed continuant kernel against references that do not use it.

The references are the generic ring continuant ``numerator_rec`` over
dict-backed ``HLPoly`` values and, for small links, the enumeration of the
snake graph's perfect matchings.  The kernel starts from x_(-1) = x_0 = 1,
so the tests make other start values with leading steps.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from twobridge.cfrac import (PositiveCF, eval_cf, even_cf_for_link,
                             numerator_rec)
from twobridge.errors import MixedGrid, SlotOverflow
from twobridge.jones import (degree_and_sign, f_recursive, jones_direct,
                             jones_recursive, jones_via_f,
                             specialized_f_positive)
from twobridge.laurent import (_DOUBLING_LIMIT, HLPoly, Packed, _q_product,
                               _slot_width, continuant_packed, q_integer,
                               q_power, specialize_y)
from twobridge.snake import f_polynomial, snake_from_positive

from reference import lift

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


def pack(p: HLPoly, s: int):
    """(n, h) with p = t^(h/2) * N(t) and n = N(2^s); see :class:`Packed`."""
    if not p:
        return 0, 0
    h = min(p._terms)
    n = 0
    for u, c in p._terms.items():
        if (u - h) & 1:
            raise MixedGrid("exponents mix integers and half integers")
        n += c << (s * ((u - h) >> 1))
    return n, h


# leading steps, from the kernel's start x_(-1) = x_0 = 1
AGAIN = ((1, 0), (1, 0, 0))      # x_k = x_(k-2), as nu = 0
FIBONACCI = ((1, 0), (1, 0, 1))  # x_k = x_(k-2) + x_(k-1)


def shifted(u: int) -> list:
    """Leading steps to (t^(u/2), t^(u/2)): two steps with mu = t^(u/2) and
    nu = 0."""
    return [((1, u), (1, 0, 0))] * 2


def one_and(x: HLPoly) -> list:
    """Leading steps to (1, x): one step to (1, 0), then for each unit of
    each coefficient of x an ``AGAIN`` to (y, 1) and a step to (1, y + m),
    with m that unit's signed monomial."""
    steps = [((-1, 0), (1, 0, 1))]
    for u, c in x._terms.items():
        steps += [AGAIN, ((1, 0), (1 if c > 0 else -1, u, 1))] * abs(c)
    return steps


def fibonacci_scaled(u: HLPoly, v: HLPoly, k: int):
    """(j, ref) for the least j >= 0 at which ref = F_(j+1) u + F_(j+2) v has
    a bound, the sum of its absolute coefficients, of k bits or more; None
    when 4k + 40 steps do not reach it.

    j ``FIBONACCI`` steps take (1, 1) to (F_(j+1), F_(j+2)), the Fibonacci
    numbers, so ref is the result of the steps that follow them when u is
    their result from (1, 0) and v their result from (0, 1)."""
    a, b = 1, 1
    for j in range(4 * k + 40):
        ref = a * u + b * v
        if abs_sum(ref).bit_length() >= k:
            return j, ref
        a, b = b, a + b
    return None


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
    ev = even_cf_for_link(eval_cf(entries))
    j, delta = degree_and_sign(ev)
    want = HLPoly.monomial(delta, int(2 * j)) * want_f
    assert lift(specialized_f_positive(cf)) == want_f
    assert lift(jones_direct(cf, ev)) == want
    assert lift(jones_recursive(ev)) == want
    assert lift(jones_via_f(ev)) == want
    if ev.entries[0] > 0:
        assert lift(f_recursive(ev)) == want_f


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
        check_engines(entries, lift(specialize_y(f_polynomial(g), g.d)))


# polynomials on one grid: exponents 2k + parity, in half units
one_grid = st.tuples(st.integers(0, 1), st.dictionaries(
    st.integers(-12, 12), st.integers(-40, 40), min_size=1, max_size=10)).map(
    lambda pg: HLPoly({2 * k + pg[0]: c for k, c in pg[1].items()}))


class TestFactor:
    @given(st.sampled_from([1, -1]), st.integers(-20, 20), st.integers(0, 40),
           one_grid)
    def test_q_integer_factor(self, c, u, b, x):
        # from (1, x), x_1 = mu * 1 + nu * x with nu = c t^(u/2) [b]_q; mu
        # puts the 1 on the grid of nu * x
        grid = (u + min(x._terms, default=0)) & 1
        want = HLPoly.monomial(1, grid) + (
            c * HLPoly.monomial(1, u) * q_integer(b) * x if b else 0)
        bound = 1 + max(1, b) * abs_sum(x)
        steps = one_and(x) + [((1, grid), (c, u, b))]
        assert lift(continuant_packed(steps, bound)) == want

    def test_leading_steps_set_the_start(self):
        assert lift(continuant_packed([], 1)) == 1
        x = HLPoly({5: 3, 1: -1})  # 3*t^(5/2) - t^(1/2)
        assert lift(continuant_packed(one_and(x), 4)) == x
        assert lift(continuant_packed(one_and(x) + [AGAIN], 1)) == 1

    def test_mixed_grids_raise(self):
        with pytest.raises(MixedGrid):
            continuant_packed([((1, 1), (1, 0, 1))], 2)
        # a run step needs x_0 u half units off the grid of x_(-1)
        with pytest.raises(MixedGrid):
            continuant_packed([(1, 1, 3)], 8)

    def test_mu_is_a_monomial(self):
        # a mu carrying a q-integer is refused, not read as a monomial
        with pytest.raises(ValueError):
            continuant_packed([((1, 0, 2), (1, 0, 1))], 4)

    # bounds with 8-, 32- and 80-bit slots: the division, the doubling and
    # the byte-by-byte read
    @pytest.mark.parametrize("bound", (1, 1 << 20, 1 << 70))
    @pytest.mark.parametrize("b", (-1, -3))
    def test_negative_q_integer_raises(self, b, bound):
        with pytest.raises(ValueError, match="need b >= 0"):
            continuant_packed([((1, 0), (1, 0, b))], bound)


class TestQProduct:
    """``_q_product`` against the closed form n (t^b - (-1)^b) / (t + 1) on
    both sides of each switch: b = 2, 16-bit slots and ``_DOUBLING_LIMIT``."""

    # one-digit divisors (8, 16), struct fields (32, 64) and whole bytes
    @pytest.mark.parametrize("s", (8, 16, 32, 64, 72, 136))
    def test_closed_form(self, s):
        rng = random.Random(s)
        ns = [0, 1, -1] + [rng.choice((1, -1)) * rng.getrandbits(
            s * rng.randint(1, 300)) for _ in range(8)]
        for b in range(_DOUBLING_LIMIT + 9):
            for n in ns:
                shifted = n << s * b
                want, rest = divmod(shifted + n if b & 1 else shifted - n,
                                    (1 << s) + 1)
                assert rest == 0
                assert _q_product(n, b, s) == want, (n, b, s)


# bit lengths of the bound on both sides of each slot width: 8, 16, 32 and
# 64 bits are read through struct, 72 bits and up byte by byte
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
        # numerator_rec is x_k = nu_k x_(k-1) + x_(k-2) from (0, 1), and of
        # the factors but the first from (1, 0); the leading steps take the
        # start to t^(parity/2) (F_(j+1), F_(j+2)), and j makes the bound,
        # the sum of the result's absolute coefficients, exactly k bits long
        factors = [factor_poly(*nu) for nu in nus]
        scaled = fibonacci_scaled(numerator_rec(factors[1:]),
                                  numerator_rec(factors), k)
        assume(scaled and abs_sum(scaled[1]).bit_length() == k)
        j, ref = scaled
        bound = abs_sum(ref)
        assert bound.bit_length() == k
        steps = (shifted(parity) + [FIBONACCI] * j
                 + [((1, 0), nu) for nu in nus])
        assert (lift(continuant_packed(steps, bound))
                == HLPoly.monomial(1, parity) * ref)


def parent_continuant(steps, x_before, x_start, bound) -> HLPoly:
    """The kernel as it was before short q-integers were built by shifts
    and adds: every [b]_q with b >= 3 is one exact division by 1 + 2^s, every
    negative factor negates its product, and mu is a triple (c, u, b) like
    nu."""
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

    x2 = pack(HLPoly._coerce(x_before), s)
    x1 = pack(HLPoly._coerce(x_start), s)
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
    return lift(Packed(*x1, s, bound))


# general factors on the integer grid: signed, shifted, and [b]_q on both
# sides of b = 2 and of _DOUBLING_LIMIT, where the kernel switches between
# doubling and the division; mu is a signed, shifted monomial
general_factors = st.tuples(st.sampled_from([1, -1]), st.integers(-8, 8).map(
    lambda k: 2 * k), st.one_of(st.integers(0, 12), st.integers(
        _DOUBLING_LIMIT - 4, _DOUBLING_LIMIT + 8)))
monomials = st.tuples(st.sampled_from([1, -1]), st.integers(-8, 8).map(
    lambda k: 2 * k))
# leading steps to an arbitrary start pair on the integer grid
leading = st.lists(st.tuples(monomials, general_factors), max_size=4)


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
           leading, st.integers(0, 1))
    def test_general_steps(self, k, steps, lead, parity):
        # the references take mu as the triple (c, u, 1)
        triples = [((*mu, 1), nu) for mu, nu in lead + steps]
        one = ring_recurrence(triples, 1, 1)
        assume(one)
        # the leading steps take the start to the grid of parity, with
        # exponents 2k + parity in half units, and scale it so that the
        # bound is k bits long, or as long as the result needs when that is
        # more; then come the drawn leading steps
        scaled = fibonacci_scaled(ring_recurrence(triples, 1, 0),
                                  ring_recurrence(triples, 0, 1), k)
        bits = max(k, abs_sum(one).bit_length())
        assume(scaled and abs_sum(scaled[1]).bit_length() == bits)
        j, ref = scaled
        bound = abs_sum(ref)
        want = HLPoly.monomial(1, parity) * ref
        head = shifted(parity) + [FIBONACCI] * j
        same_poly("continuant",
                  lift(continuant_packed(head + lead + steps, bound)), want,
                  k, steps)
        same_poly("parent_continuant",
                  parent_continuant([((*mu, 1), nu) for mu, nu in head]
                                    + triples, 1, 1, bound),
                  want, k, steps)


class TestRunStep:
    """A run step (c, u, k) is k steps (mu, nu) with nu = c t^(u/2) [2]_q
    and mu = t^(u-1), made with one [k]_q product."""

    @pytest.mark.parametrize("k_bits", (14, 70))
    @settings(max_examples=40, deadline=None,
              phases=tuple(p for p in Phase if p is not Phase.explain))
    @given(st.sampled_from([1, -1]), st.integers(-6, 6), st.integers(1, 40),
           leading, st.integers(0, 1), monomials, general_factors)
    def test_equals_k_steps(self, k_bits, c, u, k, lead, parity, mu2, nu2):
        # x_0 lies u half units off the grid of x_(-1), as in the skein
        # recursion: the leading steps end with one from (x, y) to
        # (y, t^(u/2) (x + y)); the step after the run reads both terms the
        # run leaves
        head = shifted(parity) + lead + [((1, u), (1, u, 1))]
        mu, nu = (1, 2 * u - 2), (c, u, 2)
        after = (mu2, (nu2[0], nu2[1] + u, nu2[2]))
        for steps in ([(c, u, k)], [(c, u, k), after]):
            singles = head + [(mu, nu)] * k + steps[1:]
            ref = ring_recurrence([((*m, 1), n) for m, n in singles], 1, 1)
            total = abs_sum(ref)
            assume(total)
            # scale the bound up to k_bits bits, so both slot paths run
            bound = max(total, ((1 << k_bits) - 1) // total * total)
            same_poly("run step",
                      lift(continuant_packed(head + steps, bound)),
                      ref, k_bits, steps)

    def test_empty_run_raises(self):
        with pytest.raises(ValueError):
            continuant_packed([(-1, -1, 0)], 4)


# bounds whose slots are read through struct (8 and 16 bits, 64 bits) and
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
    n, h = pack(poly, s)
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
            n, h = pack(pb, s)
            b = Packed(n, h, s, wider)
    return a, pa, b, pb


class TestPacked:
    @given(packed_pairs())
    def test_eq_is_decoded_equality(self, pair):
        a, pa, b, pb = pair
        assert lift(a) == pa and lift(b) == pb
        assert (a == b) == (b == a) == (pa == pb)

    def test_eq_leaves_other_types_to_them(self):
        one = Packed(1, 0, 8, 1)  # the constant 1
        assert one.__eq__(1) is NotImplemented
        assert one.__eq__(HLPoly.monomial()) is NotImplemented
        assert one != 1 and one != HLPoly.monomial()
        assert one == Packed(1, 0, 16, 1) == Packed(1 << 8, -2, 8, 1)

    @given(packed_pairs(mixed=True))
    def test_mixed_grids_equal_only_when_zero(self, pair):
        a, pa, b, pb = pair
        assert (a == b) == (b == a) == (not pa and not pb)

    @given(packed_pairs(), st.sampled_from((1, -1)), st.integers(-9, 9))
    def test_times_is_the_monomial_product(self, pair, c, u):
        a, pa, _, _ = pair
        assert lift(a.times(c, u)) == HLPoly.monomial(c, u) * pa
        assert (a.times(c, u) == a) == (not pa or (c, u) == (1, 0))

    @given(packed_pairs())
    def test_bar_of_packed_terms(self, pair):
        # zero, negated and re-packed terms among them
        for p, poly in pair[:2], pair[2:]:
            check_bar(p)
            s = p.s
            n, h = pack(poly.bar(), s)
            assert p.bar() == Packed(n, h, s, p.bound)

    @given(st.sampled_from((8, 16, 32, 64)), st.data())
    def test_bar_on_struct_widths(self, s, data):
        check_bar(data.draw(near_edge_packed(s)))

    @given(st.integers(9, 30).map(lambda k: 8 * k), st.data())
    def test_bar_on_byte_widths(self, s, data):
        check_bar(data.draw(near_edge_packed(s)))


def one_form(p: Packed) -> bool:
    """Whether ``p`` has a nonzero lowest slot, or is zero stored as (0, 0)."""
    if not p.n:
        return p.h == 0
    return p.n % (1 << p.s) != 0


class TestOneForm:
    """Every packed term is kept in one form, whichever operation made it."""

    @given(packed_pairs(), st.sampled_from((1, -1)), st.integers(-9, 9))
    def test_pack_times_and_bar(self, pair, c, u):
        # the drawn terms are built with zero slots below them, and a zero
        # term at an arbitrary h
        for p, poly in pair[:2], pair[2:]:
            assert (p.n, p.h) == pack(poly, p.s)
            assert one_form(p) and one_form(Packed(*pack(poly, p.s), p.s, 1))
            assert one_form(p.times(c, u)) and one_form(p.bar())

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, -1]), st.integers(-6, 6),
           st.lists(st.one_of(st.tuples(monomials, general_factors),
                              st.integers(1, 9)), min_size=1, max_size=6),
           leading, st.sampled_from(PACKED_BOUNDS))
    def test_kernel_results(self, c, u, steps, lead, bound):
        # an int k is the run step (c, u, k); the leading steps end with one
        # that puts x_0 u half units off the grid of x_(-1), and each nu is
        # shifted by u, so every step joins two terms on one grid
        steps = [(c, u, s) if isinstance(s, int)
                 else (s[0], (s[1][0], s[1][1] + u, s[1][2])) for s in steps]
        head = lead + [((1, u), (1, u, 1))]
        assert one_form(continuant_packed(head + steps, bound))

    # from (1, 1), x_1 = 1 + t and then x_2 = 1 - (1 + t) = -t; or x_1 = 0
    @pytest.mark.parametrize("steps, want, bound", [
        ([((1, 2), (1, 0, 1)), ((1, 0), (-1, 0, 1))], HLPoly({2: -1}), 4),
        ([((1, 0), (-1, 0, 1))], HLPoly(), 4),
        ([((1, 0), (-1, 0, 1))], HLPoly(), 2 ** 70)],  # on byte slots
        ids=["lowest-slot-cancels", "zero", "zero-on-byte-slots"])
    def test_cancelling_kernel_results(self, steps, want, bound):
        p = continuant_packed(steps, bound)
        assert one_form(p)
        assert lift(p) == want


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
    """``p.bar()`` against the bar of the read polynomial: equal when the
    digits fit the bound, and both raising :class:`SlotOverflow` when not."""
    try:
        want = lift(p).bar()
    except SlotOverflow:
        with pytest.raises(SlotOverflow):
            lift(p.bar())
        return
    barred = p.bar()
    assert lift(barred) == want
    assert barred.bar() == p
    assert (barred.s, barred.bound) == (p.s, p.bound)


# leading Fibonacci steps scale the result's coefficients; the first read
# is on slots wide enough for any of them
UNDERSTATED_BOUND = (
    "from twobridge.errors import SlotOverflow\n"
    "from twobridge.laurent import _slot_width, continuant_packed\n"
    "steps = [((1, 0), (1, 0, 1))] * {fibonacci} + [\n"
    "    ((1, 0), (1, -4, 3)), ((1, 0), (-1, 6, 5)),\n"
    "    ((-1, 2), (1, -8, 2)), ((1, 0), (1, 8, 4))]\n"
    "run = continuant_packed(steps, 10 ** 60).read()\n"
    "total = sum(map(abs, run.digits))\n"
    "print('exact', continuant_packed(steps, total).read() == run)\n"
    "print('slot', _slot_width(total - 1))\n"
    "try:\n"
    "    {read}\n"
    "except SlotOverflow as exc:\n"
    "    print('raised', type(exc).__mro__[1].__name__)\n"
)
READ_DIGITS = "continuant_packed(steps, total - 1).read()"
# the bar reads nothing itself: the overflow shows when its result is read
READ_BARRED = "continuant_packed(steps, total - 1).bar().read()"


def understated_bound_output(fibonacci, read=READ_DIGITS):
    """Output of :data:`UNDERSTATED_BOUND` under ``python -O``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = UNDERSTATED_BOUND.format(fibonacci=fibonacci, read=read)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_understated_bound_raises_under_optimize():
    """The read's check is an if/raise, so it survives ``python -O``; the
    coefficients sum to 205, so 16-bit slots are read through struct."""
    assert understated_bound_output(0) == [
        "exact", "True", "slot", "16", "raised", "TwoBridgeError"]


def test_understated_bound_raises_under_optimize_on_byte_path():
    """The same check on slots wider than 64 bits, read byte by byte: 96
    Fibonacci steps make the coefficients sum to 75 bits."""
    assert understated_bound_output(96) == [
        "exact", "True", "slot", "80", "raised", "TwoBridgeError"]


@pytest.mark.parametrize("fibonacci, slot", [(0, "16"), (96, "80")])
def test_understated_bound_raises_after_bar_under_optimize(fibonacci, slot):
    """The bar of a result packed with an understated bound raises when it
    is read, on the struct and the byte path."""
    assert understated_bound_output(fibonacci, READ_BARRED) == [
        "exact", "True", "slot", slot, "raised", "TwoBridgeError"]
