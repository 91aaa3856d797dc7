from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twobridge.errors import MixedGrid, ZeroPolynomial
from twobridge.laurent import (HLPoly, Packed, YPoly, _exp_str,
                               latex_from_text, q_integer, q_power,
                               specialize_y, t_power, text_from_terms)

P = HLPoly.parse

EPS = HLPoly({-3: 1, -1: -1})       # t^(-3/2) - t^(-1/2)
EPS_BAR = HLPoly({3: 1, 1: -1})


def hlpolys(max_terms=6):
    return st.dictionaries(st.integers(-10, 10), st.integers(-9, 9),
                           max_size=max_terms).map(HLPoly)


# exponents in half units on both grids, dense at 0, +-1/2, +-1 and +-2;
# unit, small, digit-repeating and huge coefficients of either sign
render_units = st.one_of(st.sampled_from((-4, -2, -1, 0, 1, 2, 4)),
                         st.integers(-80, 80))
render_coeffs = st.one_of(
    st.sampled_from((1, -1, 2, -2, 10, -10, 11, -11, 101, -101)),
    st.integers(-10 ** 9, 10 ** 9), st.integers(-10 ** 40, 10 ** 40))


def parent_to_latex(p: HLPoly) -> str:
    """``HLPoly.to_latex`` as it was before it rewrote the text form."""
    if not p:
        return "0"
    parts = []
    for u, c in p.items():
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


def parent_to_text(p: HLPoly) -> str:
    """``HLPoly.to_text`` as it was before the text grammar became one
    format and a fixed rewrite: one loop over the terms."""
    if not p:
        return "0"
    parts = []
    for u, c in p.items():
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
    """(Packed, HLPoly): a run of up to 12 slots on one grid, zero slots
    anywhere in it and at its ends included, exact on its slot width (struct
    widths and byte widths, 8 to 200 bits); the lowest exponent lies near 0
    so that the run often holds a constant term."""
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
    poly = HLPoly({h + 2 * i: c for i, c in enumerate(digits)})
    return Packed(n, h, s, bound), poly


class TestArithmetic:
    def test_cancellation(self):
        t = t_power(1)
        assert t + (-t) == HLPoly.zero()
        assert not (t - t)

    def test_addition(self):
        assert P("1 + t^(-2)") + P("t^(-1)") == P("1 + t^(-1) + t^(-2)")
        assert EPS + EPS_BAR == P("t^(3/2) - t^(1/2) - t^(-1/2) + t^(-3/2)")

    def test_trefoil_product(self):
        hopf = P("-t^(-5/2) - t^(-1/2)")
        assert EPS * hopf + t_power(-2) == P("t^(-1) + t^(-3) - t^(-4)")

    def test_identity_and_half_exponents(self):
        p = P("3*t^(5/2) - 2")
        assert HLPoly.one() * p == p
        assert t_power(Fraction(1, 2)) * t_power(Fraction(1, 2)) == t_power(1)

    def test_integer_coercion(self):
        p = P("t^(1) - 1")
        assert 1 - p == P("2 - t^(1)")
        assert 3 * p == P("3*t^(1) - 3")
        assert p * p == P("t^(2) - 2*t^(1) + 1")

    @given(hlpolys(), hlpolys(), hlpolys())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def reference_product(a: HLPoly, b: HLPoly) -> HLPoly:
    """Schoolbook product over the term lists, without HLPoly.__mul__."""
    terms = {}
    for u1, c1 in a.items():
        for u2, c2 in b.items():
            terms[u1 + u2] = terms.get(u1 + u2, 0) + c1 * c2
    return HLPoly(terms)


class TestMonomialProduct:
    """One-term operands take the shift-only path of HLPoly.__mul__."""

    @given(st.integers(-9, 9), st.integers(-10, 10), hlpolys(max_terms=8))
    def test_monomial_either_side(self, c, u, p):
        m = HLPoly.monomial(c, u)
        assert m * p == reference_product(m, p)
        assert p * m == reference_product(p, m)

    @given(st.integers(-10 ** 30, 10 ** 30), hlpolys(max_terms=8))
    def test_int_either_side(self, k, p):
        want = reference_product(HLPoly({0: k}), p)
        assert k * p == want
        assert p * k == want

    @given(hlpolys(max_terms=8))
    def test_zero_operands(self, p):
        for zero in (0, HLPoly.zero()):
            assert not zero * p
            assert not p * zero
            assert (p * zero)._terms == {}


class TestBar:
    def test_example(self):
        p = P("-t^(1/2) + t^(3/2) - t^(5/2) - t^(9/2)")
        assert p.bar() == P("-t^(-1/2) + t^(-3/2) - t^(-5/2) - t^(-9/2)")

    def test_epsilon_pair(self):
        assert EPS.bar() == EPS_BAR
        assert EPS_BAR == t_power(2) * (-EPS)

    @given(hlpolys(), hlpolys())
    def test_ring_automorphism(self, a, b):
        assert a.bar().bar() == a
        assert (a + b).bar() == a.bar() + b.bar()
        assert (a * b).bar() == a.bar() * b.bar()


class TestQIntegers:
    def test_values(self):
        assert q_integer(1) == HLPoly.one()
        assert q_integer(4) == P("1 - t^(-1) + t^(-2) - t^(-3)")
        assert q_integer(3, barred=True) == P("1 - t^(1) + t^(2)")

    def test_geometric_sum_identity(self):
        q = q_power(1)
        for b in range(1, 13):
            assert (1 - q) * q_integer(b) == 1 - q_power(b)

    def test_bar_shift_for_even_b(self):
        for b in range(2, 13, 2):
            assert -t_power(b - 1) * q_integer(b) == q_integer(b, barred=True)

    def test_q_power_signs(self):
        assert q_power(2) == t_power(-2)
        assert q_power(-3) == -t_power(3)


class TestInspection:
    def test_leading_term(self):
        assert EPS.leading_term() == (Fraction(-1, 2), -1)
        assert HLPoly.one().leading_term() == (Fraction(0), 1)
        assert P("t^(-1) + t^(-3) - t^(-4)").leading_term() == (Fraction(-1), 1)
        with pytest.raises(ZeroPolynomial):
            HLPoly.zero().leading_term()

    def test_width(self):
        assert P("t^(-1) + t^(-3) - t^(-4)").width() == 3
        assert HLPoly.one().width() == 0
        assert P("t^(2) - t^(1) + 1 - t^(-1) + t^(-2)").width() == 4
        with pytest.raises(ZeroPolynomial):
            HLPoly.zero().width()

    def test_is_alternating(self):
        assert P("t^(-1) + t^(-3) - t^(-4)").is_alternating()
        assert not P("-t^(10) + t^(6) + t^(4)").is_alternating()
        assert HLPoly.one().is_alternating()
        assert P("-t^(5/2) - t^(1/2)").is_alternating()
        with pytest.raises(MixedGrid):
            P("t^(1) + t^(1/2)").is_alternating()

    def test_grid(self):
        assert P("t^(2) - 1").grid_is_integer()
        assert not P("t^(1/2)").grid_is_integer()


class TestTextGrammar:
    def test_examples(self):
        assert P("t^(-1) + t^(-3) - t^(-4)").to_text() == "t^(-1) + t^(-3) - t^(-4)"
        assert HLPoly.zero().to_text() == "0"
        assert P("0") == HLPoly.zero()
        assert P("-2*t^(7/2) + 5").to_text() == "-2*t^(7/2) + 5"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            HLPoly.parse("t^2")
        with pytest.raises(ValueError):
            HLPoly.parse("spam + 1")

    def test_latex(self):
        assert P("-t^(5/2) - t^(1/2)").to_latex() == "-t^{5/2}-t^{1/2}"
        assert P("t^(2) - t^(1) + 1").to_latex() == "t^{2}-t+1"
        assert HLPoly.zero().to_latex() == latex_from_text("0") == "0"
        assert (P("11*t^(1) + t^(1/2) - t^(-1)").to_latex()
                == "11t+t^{1/2}-t^{-1}")

    @given(st.dictionaries(render_units, render_coeffs, max_size=12))
    def test_latex_matches_parent_loop(self, terms):
        p = HLPoly(terms)
        want = parent_to_latex(p)
        assert p.to_latex() == want
        assert latex_from_text(p.to_text()) == want

    @given(hlpolys(max_terms=8))
    def test_round_trip(self, p):
        assert HLPoly.parse(p.to_text()) == p

    @given(st.dictionaries(render_units, render_coeffs, max_size=12))
    def test_to_text_matches_parent_loop(self, terms):
        # gaps, mixed grids, single terms and dense runs, through to_text
        p = HLPoly(terms)
        assert p.to_text() == parent_to_text(p)

    @given(st.integers(-40, 40), st.lists(render_coeffs.filter(bool),
                                          min_size=1, max_size=12))
    def test_dense_dicts_match_parent_loop(self, low, coeffs):
        # gap-free on one grid
        p = HLPoly({low + 2 * i: c for i, c in enumerate(coeffs)})
        exps, got = p.exps_and_coeffs()
        assert exps == [_exp_str(u) for u, _ in p.items()]
        assert got == [c for _, c in p.items()]
        assert p.to_text() == parent_to_text(p)

    def test_unit_and_constant_terms(self):
        for text in ("1", "-1", "11", "t^(1)", "-t^(1)", "-1 + t^(-1)",
                     "-t^(1/2) + 11*t^(-1/2) - t^(-3/2)", "2*t^(1) + 1",
                     "-11 + 101*t^(-1)", "t^(10) - 10", "t^(1) - 1 - t^(-1)"):
            assert P(text).to_text() == text
        assert text_from_terms([], []) == "0"

    @given(digit_runs())
    def test_digit_run_matches_parent_loop(self, packed_poly):
        packed, poly = packed_poly
        run = packed.read()
        assert run.poly() == poly
        exps, coeffs = run.exps_and_coeffs()
        assert exps == [_exp_str(u) for u, _ in poly.items()]
        assert list(coeffs) == [c for _, c in poly.items()]
        assert text_from_terms(exps, coeffs) == parent_to_text(poly)
        if poly:
            assert run.leading_term() == poly.leading_term()
            assert run.width() == 2 * poly.width()
        else:
            with pytest.raises(ZeroPolynomial):
                run.leading_term()


class TestYPoly:
    def test_specialize_example(self):
        F = YPoly.one() + YPoly.monomial((1,)) + YPoly.monomial((1, 2))
        assert specialize_y(F, 2) == P("1 + t^(-2) - t^(-3)")

    def test_specialize_constant(self):
        assert specialize_y(YPoly.one(), 4) == HLPoly.one()

    def test_specialize_full_product(self):
        for d in range(1, 8):
            full = YPoly.monomial(range(1, d + 1))
            sign = 1 if (d - 1) % 2 == 0 else -1
            assert specialize_y(full, d) == HLPoly.monomial(sign, -2 * (d + 1))

    def test_complement(self):
        F = YPoly.one() + YPoly.monomial((1,)) + YPoly.monomial((1, 2))
        assert F.complement(3) == (YPoly.monomial((1, 2, 3))
                                   + YPoly.monomial((2, 3))
                                   + YPoly.monomial((3,)))

    def test_subsets_and_text(self):
        F = YPoly.one() + YPoly.monomial((2, 1))
        assert F.subsets() == [(frozenset(), 1), (frozenset({1, 2}), 1)]
        assert F.to_text() == "1 + y1*y2"

    def test_tile_indices(self):
        # no tile cap: y64 is bit 63
        assert YPoly.monomial((64,)) == YPoly({1 << 63: 1})
        assert YPoly.monomial((64,)).subsets() == [(frozenset({64}), 1)]
        with pytest.raises(ValueError):
            YPoly.monomial((0,))
        with pytest.raises(ValueError):
            YPoly({-1: 1})
