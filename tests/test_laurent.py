from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from twobridge.cfrac import EvenCF, PositiveCF
from twobridge.errors import ZeroPolynomial
from twobridge.jones import jones_direct, jones_recursive, mirror
from twobridge.laurent import (DigitRun, HLPoly, Packed, _exp_str,
                               latex_from_text, q_integer, q_power,
                               specialize_y, text_from_terms)

from reference import lift

EPS = HLPoly({-3: 1, -1: -1})       # t^(-3/2) - t^(-1/2)
EPS_BAR = HLPoly({3: 1, 1: -1})


def term_dicts(max_terms=6):
    """{exponent in half units: coefficient}, zero coefficients included."""
    return st.dictionaries(st.integers(-10, 10), st.integers(-9, 9),
                           max_size=max_terms)


def hlpolys(max_terms=6):
    return term_dicts(max_terms).map(HLPoly)


# exponents in half units on both grids, dense at 0, +-1/2, +-1 and +-2;
# unit, small, digit-repeating and huge coefficients of either sign
render_units = st.one_of(st.sampled_from((-4, -2, -1, 0, 1, 2, 4)),
                         st.integers(-80, 80))
render_coeffs = st.one_of(
    st.sampled_from((1, -1, 2, -2, 10, -10, 11, -11, 101, -101)),
    st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 40, 10 ** 40))


@st.composite
def term_lists(draw, max_size=12):
    """(half units, coefficient) pairs on both grids, distinct exponents
    and nonzero coefficients, highest exponent first: the order in which
    the reference loops below print."""
    units = draw(st.lists(render_units, unique=True, max_size=max_size))
    return [(u, draw(render_coeffs.filter(bool)))
            for u in sorted(units, reverse=True)]


def parent_to_latex(terms) -> str:
    """``HLPoly.to_latex`` as it was before it rewrote the text form, on
    terms listed highest first."""
    if not terms:
        return "0"
    parts = []
    for u, c in terms:
        mag = abs(c)
        if u == 0:
            body = str(mag)
        else:
            if u == 2:
                power = "t"
            elif u % 2 == 0:
                power = "t^{%d}" % (u // 2)
            else:
                power = "t^{%d/2}" % u
            body = power if mag == 1 else f"{mag}{power}"
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def parent_to_text(terms) -> str:
    """``HLPoly.to_text`` as it was before the text grammar became one
    format and a fixed rewrite: one loop over the terms, highest first."""
    if not terms:
        return "0"
    parts = []
    for u, c in terms:
        mag = abs(c)
        if u == 0:
            body = str(mag)
        else:
            e = str(u // 2) if u % 2 == 0 else f"{u}/2"
            body = f"t^({e})" if mag == 1 else f"{mag}*t^({e})"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


@st.composite
def digit_runs(draw):
    """(Packed, terms): a run of up to 12 slots on one grid, zero slots
    anywhere in it and at its ends included, exact on its slot width (struct
    widths and byte widths, 8 to 200 bits), and its nonzero terms highest
    first; the lowest exponent lies near 0 so that the run often holds a
    constant term."""
    s = draw(st.sampled_from((8, 16, 32, 64, 72, 128, 200)))
    edge = (1 << (s - 2)) - 1  # every digit exact, with room for the bound
    coeff = st.one_of(st.sampled_from((0, 1, -1, 2, -2, 11, -11)),
                      st.integers(-edge, edge),
                      st.sampled_from((edge, -edge)))
    digits = draw(st.lists(coeff, min_size=1, max_size=12))
    grid = draw(st.integers(0, 1))
    h = 2 * draw(st.integers(-len(digits) - 2, 2)) + grid
    n = sum(c << (s * i) for i, c in enumerate(digits))
    bound = max(1, sum(map(abs, digits)))
    terms = [(h + 2 * i, c) for i, c in enumerate(digits) if c][::-1]
    return Packed(n, h, s, bound), terms


class TestArithmetic:
    def test_cancellation(self):
        t = HLPoly.monomial(1, 2)
        assert t + (-t) == HLPoly()
        assert not (t - t)

    def test_addition(self):
        total = HLPoly({0: 1, -4: 1}) + HLPoly({-2: 1})
        assert total.to_text() == "1 + t^(-1) + t^(-2)"
        assert ((EPS + EPS_BAR).to_text()
                == "t^(3/2) - t^(1/2) - t^(-1/2) + t^(-3/2)")

    def test_trefoil_product(self):
        hopf = HLPoly({-5: -1, -1: -1})
        assert ((EPS * hopf + HLPoly.monomial(1, -4)).to_text()
                == "t^(-1) + t^(-3) - t^(-4)")

    def test_identity_and_half_exponents(self):
        p = HLPoly({5: 3, 0: -2})
        assert HLPoly.monomial() * p == p
        half = HLPoly.monomial(1, 1)
        assert half * half == HLPoly.monomial(1, 2)

    def test_integer_coercion(self):
        p = HLPoly({2: 1, 0: -1})
        assert (1 - p).to_text() == "-t^(1) + 2"
        assert (3 * p).to_text() == "3*t^(1) - 3"
        assert (p * p).to_text() == "t^(2) - 2*t^(1) + 1"

    @given(hlpolys(), hlpolys(), hlpolys())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_constants_hash_as_ints(self):
        # a constant equals its int, so a set or dict holds them as one key
        for k in (-2 ** 70, -7, -1, 0, 1, 2, 2 ** 70):
            assert HLPoly({0: k}) == k and hash(HLPoly({0: k})) == hash(k)
        assert len({HLPoly.monomial(), 1}) == 1 and hash(HLPoly()) == 0
        assert {HLPoly({0: -7}): "c"}[-7] == "c"
        assert len({HLPoly.monomial(1, 2), 1}) == 2


def reference_product(a: dict, b: dict) -> HLPoly:
    """Schoolbook product over term dicts, without HLPoly.__mul__."""
    terms = {}
    for u1, c1 in a.items():
        for u2, c2 in b.items():
            terms[u1 + u2] = terms.get(u1 + u2, 0) + c1 * c2
    return HLPoly(terms)


class TestMonomialProduct:
    """Products with a one-term operand, on either side of
    HLPoly.__mul__."""

    @given(st.integers(-9, 9), st.integers(-10, 10), term_dicts(max_terms=8))
    def test_monomial_either_side(self, c, u, terms):
        m, p = HLPoly.monomial(c, u), HLPoly(terms)
        assert m * p == reference_product({u: c}, terms)
        assert p * m == reference_product(terms, {u: c})

    @given(st.integers(-10 ** 30, 10 ** 30), term_dicts(max_terms=8))
    def test_int_either_side(self, k, terms):
        want = reference_product({0: k}, terms)
        p = HLPoly(terms)
        assert k * p == want
        assert p * k == want

    @given(hlpolys(max_terms=8))
    def test_zero_operands(self, p):
        for zero in (0, HLPoly()):
            assert not zero * p
            assert not p * zero
            assert (p * zero)._terms == {}


class TestBar:
    def test_example(self):
        p = HLPoly({1: -1, 3: 1, 5: -1, 9: -1})
        assert (p.bar().to_text()
                == "-t^(-1/2) + t^(-3/2) - t^(-5/2) - t^(-9/2)")

    def test_epsilon_pair(self):
        assert EPS.bar() == EPS_BAR
        assert EPS_BAR == HLPoly.monomial(1, 4) * (-EPS)

    @given(hlpolys(), hlpolys())
    def test_ring_automorphism(self, a, b):
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()


class TestQIntegers:
    def test_values(self):
        assert q_integer(1) == HLPoly.monomial()
        assert q_integer(4).to_text() == "1 - t^(-1) + t^(-2) - t^(-3)"
        assert q_integer(3).bar().to_text() == "t^(2) - t^(1) + 1"

    def test_geometric_sum_identity(self):
        q = q_power(1)
        for b in range(1, 13):
            assert (1 - q) * q_integer(b) == 1 - q_power(b)

    def test_bar_shift_for_even_b(self):
        for b in range(2, 13, 2):
            assert (HLPoly.monomial(-1, 2 * (b - 1)) * q_integer(b)
                    == q_integer(b).bar())

    def test_q_power_signs(self):
        assert q_power(2) == HLPoly.monomial(1, -4)
        assert q_power(-3) == HLPoly.monomial(-1, 6)


class TestInspection:
    """A polynomial is inspected through its :class:`DigitRun`: lowest
    exponent ``h`` in half units and the digits of consecutive exponents."""

    def test_leading_term(self):
        assert DigitRun(-3, [1, -1]).leading_term() == (Fraction(-1, 2), -1)
        assert DigitRun(0, [1]).leading_term() == (Fraction(0), 1)
        # t^(-1) + t^(-3) - t^(-4)
        run = DigitRun(-8, [-1, 1, 0, 1])
        assert lift(run) == HLPoly({-2: 1, -6: 1, -8: -1})
        assert run.leading_term() == (Fraction(-1), 1)
        with pytest.raises(ZeroPolynomial):
            DigitRun(0, []).leading_term()

    def test_eq_and_str(self):
        # a struct read gives a tuple, a byte read and specialize_y lists
        run = DigitRun(-8, (-1, 1, 0, 1))
        assert run == DigitRun(-8, [-1, 1, 0, 1]) and not run != run
        assert run != DigitRun(-6, [-1, 1, 0, 1])
        assert run != DigitRun(-8, [-1, 1, 0, 2])
        assert run != DigitRun(-8, [-1, 1, 0])
        assert DigitRun(0, ()) == DigitRun(0, [])
        assert run.__eq__(lift(run)) is NotImplemented and run != lift(run)
        assert str(run) == "t^(-1) + t^(-3) - t^(-4)"
        assert str(DigitRun(0, [])) == "0"

    def test_width(self):
        assert DigitRun(-8, [-1, 1, 0, 1]).width() == 6
        assert DigitRun(0, [1]).width() == 0
        # t^(2) - t^(1) + 1 - t^(-1) + t^(-2)
        assert DigitRun(-4, [1, -1, 1, -1, 1]).width() == 8

    def test_is_alternating(self):
        # the Jones polynomial of a two-bridge link alternates, and so does
        # its mirror image: (-1)^i digits[i] has one sign, zero digits aside
        for entries in ((2,), (3,), (2, 2), (4,), (2, 3, 4), (1, 1, 5)):
            res = jones_direct(PositiveCF(entries))
            for run in (res.run, mirror(res).run):
                first = run.digits[0]
                assert all(c * first * (-1) ** i >= 0
                           for i, c in enumerate(run.digits)), entries
        # -t^(10) + t^(6) + t^(4) does not: t^(4) and t^(10) lie an even
        # distance apart with opposite signs
        run = DigitRun(8, [1, 0, 1, 0, 0, 0, -1])
        assert lift(run) == HLPoly({20: -1, 12: 1, 8: 1})
        assert run.digits[0] * run.digits[6] < 0

    @given(digit_runs())
    def test_grid(self, packed_terms):
        # the read and the bar keep the grid: h even iff integer exponents
        packed, terms = packed_terms
        assume(terms)
        assert packed.read().h & 1 == packed.h & 1
        assert packed.bar().read().h & 1 == packed.h & 1
        assert all(u & 1 == packed.h & 1 for u, _ in terms)


class TestTextGrammar:
    def test_examples(self):
        assert (HLPoly({-2: 1, -6: 1, -8: -1}).to_text()
                == "t^(-1) + t^(-3) - t^(-4)")
        assert HLPoly().to_text() == "0"
        assert HLPoly({7: -2, 0: 5}).to_text() == "-2*t^(7/2) + 5"

    def test_latex(self):
        assert HLPoly({5: -1, 1: -1}).to_latex() == "-t^{5/2}-t^{1/2}"
        assert HLPoly({4: 1, 2: -1, 0: 1}).to_latex() == "t^{2}-t+1"
        assert HLPoly().to_latex() == latex_from_text("0") == "0"
        assert (HLPoly({2: 11, 1: 1, -2: -1}).to_latex()
                == "11t+t^{1/2}-t^{-1}")

    @given(term_lists())
    def test_latex_matches_parent_loop(self, terms):
        p = HLPoly(dict(terms))
        want = parent_to_latex(terms)
        assert p.to_latex() == want
        assert latex_from_text(p.to_text()) == want

    @given(term_lists())
    def test_to_text_matches_parent_loop(self, terms):
        # gaps, mixed grids, single terms and dense runs, through to_text
        assert HLPoly(dict(terms)).to_text() == parent_to_text(terms)

    @given(st.integers(-40, 40), st.lists(render_coeffs.filter(bool),
                                          min_size=1, max_size=12))
    def test_dense_dicts_match_parent_loop(self, low, coeffs):
        # gap-free on one grid
        terms = [(low + 2 * i, c) for i, c in enumerate(coeffs)][::-1]
        p = HLPoly(dict(terms))
        exps, got = p.exps_and_coeffs()
        assert exps == [_exp_str(u) for u, _ in terms]
        assert got == [c for _, c in terms]
        assert p.to_text() == parent_to_text(terms)

    def test_unit_and_constant_terms(self):
        for terms, text in (
                ({0: 1}, "1"), ({0: -1}, "-1"), ({0: 11}, "11"),
                ({2: 1}, "t^(1)"), ({2: -1}, "-t^(1)"),
                ({0: -1, -2: 1}, "-1 + t^(-1)"),
                ({1: -1, -1: 11, -3: -1}, "-t^(1/2) + 11*t^(-1/2) - t^(-3/2)"),
                ({2: 2, 0: 1}, "2*t^(1) + 1"),
                ({0: -11, -2: 101}, "-11 + 101*t^(-1)"),
                ({20: 1, 0: -10}, "t^(10) - 10"),
                ({2: 1, 0: -1, -2: -1}, "t^(1) - 1 - t^(-1)")):
            assert HLPoly(terms).to_text() == text
        assert text_from_terms([], []) == "0"

    @given(digit_runs())
    def test_digit_run_matches_parent_loop(self, packed_terms):
        packed, terms = packed_terms
        run = packed.read()
        assert lift(run) == HLPoly(dict(terms))
        assert str(run) == lift(run).to_text()
        exps, coeffs = run.exps_and_coeffs()
        assert exps == [_exp_str(u) for u, _ in terms]
        assert list(coeffs) == [c for _, c in terms]
        assert text_from_terms(exps, coeffs) == parent_to_text(terms)
        if terms:
            (high, lead), (low, _) = terms[0], terms[-1]
            assert run.leading_term() == (Fraction(high, 2), lead)
            assert run.width() == high - low
        else:
            with pytest.raises(ZeroPolynomial):
                run.leading_term()


    @pytest.mark.parametrize("h, digits", [
        # no zero slot: the exponent strings and reversed digits as they are
        (-4, (1, 2, -3)), (3, (5,)), (-7, [2 ** 70, -1, 1]), (0, (-1, 1)),
        # a zero slot left out, in the middle or next to an end
        (-4, (1, 0, 1)), (1, [1, 0, 0, -2 ** 70, 3]), (-9, (2, -1, 0, 1)),
        (6, (1, 0, -1, 1))])
    def test_digit_run_terms_with_and_without_zero_slots(self, h, digits):
        run = DigitRun(h, digits)
        exps, coeffs = run.exps_and_coeffs()
        assert (exps, list(coeffs)) == lift(run).exps_and_coeffs()
        assert (0 in coeffs) is False

    @pytest.mark.parametrize("result, zero_slot", [
        # the Hopf link, -t^(5/2) - t^(1/2)
        (lambda: jones_recursive(EvenCF((2,))), True),
        # the second exponent of T(2, 2^20 + 1) is skipped
        (lambda: jones_direct(PositiveCF((1048577,))), True),
        (lambda: jones_direct(PositiveCF((97, 58))), False)],
        ids=["[2]-even", "1048577", "[97,58]"])
    def test_digit_run_terms_of_results(self, result, zero_slot):
        run = result().run
        assert (0 in run.digits) is zero_slot
        exps, coeffs = run.exps_and_coeffs()
        assert (exps, list(coeffs)) == lift(run).exps_and_coeffs()


# coefficients for one-term edits: units, zero, and beyond 64 bits
edit_coeffs = st.one_of(
    st.sampled_from((1, -1, 0, 2, -2)),
    st.integers(1 << 64, 1 << 80), st.integers(-(1 << 80), -(1 << 64)),
    st.integers(-10 ** 9, 10 ** 9))
edit_dicts = st.dictionaries(render_units, edit_coeffs, max_size=10)


class TestTextDeterminesPolynomial:
    """Tests compare polynomials by their text, so ``to_text`` must be one
    to one: one changed coefficient or one moved exponent changes the text,
    on mixed grids too."""

    @given(edit_dicts, render_units, st.data())
    def test_one_coefficient(self, terms, u, data):
        old = terms.get(u, 0)
        new = data.draw(edit_coeffs.filter(lambda c: c != old))
        assert (HLPoly({**terms, u: new}).to_text()
                != HLPoly(terms).to_text())

    @given(edit_dicts, render_units, st.data())
    def test_one_exponent(self, terms, v, data):
        present = sorted(u for u, c in terms.items() if c)
        assume(present and v not in present)
        u = data.draw(st.sampled_from(present))
        moved = {**terms, u: 0, v: terms[u]}
        assert HLPoly(moved).to_text() != HLPoly(terms).to_text()


class TestSpecializeY:
    """A matching generating function is its set of height bitsets, bit
    j-1 standing for y_j."""

    def test_specialize_example(self):
        F = {0b00, 0b01, 0b11}  # 1 + y1 + y1*y2
        assert str(specialize_y(F, 2)) == "1 + t^(-2) - t^(-3)"

    def test_specialize_constant(self):
        assert lift(specialize_y({0}, 4)) == HLPoly.monomial()
        assert specialize_y({0}, 4) == DigitRun(0, [1])

    def test_specialize_nothing(self):
        assert specialize_y(set(), 3) == DigitRun(0, [])

    def test_specialize_gap(self):
        # 1 + y1*y2*y3 = 1 + t^(-4): zero slots between, none at the ends
        assert specialize_y({0, 0b111}, 3) == DigitRun(-8, [1, 0, 0, 0, 1])

    def test_specialize_full_product(self):
        for d in range(1, 8):
            full = {(1 << d) - 1}
            sign = 1 if (d - 1) % 2 == 0 else -1
            assert (lift(specialize_y(full, d))
                    == HLPoly.monomial(sign, -2 * (d + 1)))

    @pytest.mark.parametrize("mask, d", [(-1, 4), (-(1 << 70), 80), (1, 0),
                                         (0b10000, 4), (1 << 64, 64)])
    def test_rejects_bitsets_off_the_tiles(self, mask, d):
        # a negative bitset and a bit beyond y_d name no tiles of 1..d
        with pytest.raises(ValueError, match=f"beyond 1..{d}"):
            specialize_y({0, mask}, d)

    def test_bit_sixty_three(self):
        # no tile cap: y64 is bit 63, and y_j = -t^(-1) for j >= 2
        assert lift(specialize_y({1 << 63}, 64)) == HLPoly.monomial(-1, -2)
