import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest

from twobridge import jones
from twobridge.cfrac import (EvenCF, PositiveCF, eval_cf, even_cf,
                             even_cf_for_link, numerator_rec, run_value,
                             type_sequence)
from twobridge.cli import Request, run
from twobridge.errors import HypothesisViolated, WrongOrientation, ZeroPolynomial
from twobridge.jones import (JonesResult, boundary_coefficients,
                             degree_and_sign, f_recursive, jones_direct,
                             jones_recursive, jones_via_f, mirror,
                             specialized_f_even, specialized_f_positive,
                             volume_bounds)
from twobridge.laurent import HLPoly, Packed, continuant_packed, q_integer
from twobridge.verify import coprime_fractions, even_lists

from reference import lift, tau

SRC = Path(__file__).resolve().parent.parent / "src"
# 1 + 2t on 8-bit slots: its leading coefficient is 2, not a unit
NOT_A_UNIT = Packed(1 + (2 << 8), 0, 8, 3)

TREFOIL = "t^(-1) + t^(-3) - t^(-4)"
FIGURE8 = "t^(2) - t^(1) + 1 - t^(-1) + t^(-2)"
V_2_2_m2_4 = ("t^(1) - 2 + 4*t^(-1) - 4*t^(-2) + 5*t^(-3) - 5*t^(-4)"
              " + 3*t^(-5) - 2*t^(-6) + t^(-7)")


# the skein constants, in half units: epsilon, its bar, and the value of two
# unlinked unknots
EPSILON = HLPoly({-3: 1, -1: -1})
EPSILON_BAR = HLPoly({3: 1, 1: -1})
TWO_UNKNOTS = HLPoly({1: -1, -1: -1})


class TestSkeinConstants:
    def test_values(self):
        # the recursive engine's leading steps make x_1 the two unknots and
        # x_2 the unknot: its first entry reads them as (x_(-1), x_0)
        again = ((1, 0), (1, 0, 0))  # x_k = x_(k-2)
        assert lift(continuant_packed(jones._UNKNOTS[:1], 2)) == TWO_UNKNOTS
        assert lift(continuant_packed(jones._UNKNOTS, 2)) == 1
        assert (lift(continuant_packed([*jones._UNKNOTS, again], 2))
                == TWO_UNKNOTS)
        assert lift(jones_recursive(EvenCF((2,)))) == (
            HLPoly.monomial(1, 4) * TWO_UNKNOTS - HLPoly.monomial(1, 1)
            * q_integer(2).bar() * HLPoly.monomial())

    def test_two_unknots_from_skein(self):
        # (1 - t^-2)/epsilon, exactly
        assert EPSILON * TWO_UNKNOTS == 1 - HLPoly.monomial(1, -4)

    def test_bar_compatibility(self):
        assert EPSILON_BAR == HLPoly.monomial(1, 4) * (-EPSILON)
        assert EPSILON.bar() == EPSILON_BAR


class TestRecursiveEngine:
    def test_trefoil(self):
        assert lift(jones_recursive(EvenCF((-2, 2)))).to_text() == TREFOIL

    def test_hopf_links(self):
        assert (lift(jones_recursive(EvenCF((2,)))).to_text()
                == "-t^(5/2) - t^(1/2)")
        assert (lift(jones_recursive(EvenCF((-2,)))).to_text()
                == "-t^(-1/2) - t^(-5/2)")

    def test_seven_crossings(self):
        res = jones_recursive(EvenCF((2, 2, -2, 4)))
        assert lift(res).to_text() == V_2_2_m2_4
        assert res.degree == 1
        assert res.leading_sign == 1

    def test_normalization_invariant(self):
        for entries in [(2,), (-2, 2), (2, 2, -2, 4), (4, -2), (-6, 4, -2)]:
            res = jones_recursive(EvenCF(entries))
            rebuilt = (HLPoly.monomial(res.leading_sign, int(2 * res.degree))
                       * lift(res.normalized))
            assert rebuilt == lift(res)
            # highest term first: degree 0, constant term 1
            exps, coeffs = lift(res.normalized).exps_and_coeffs()
            assert (exps[0], coeffs[0]) == ("0", 1)

    def test_results_hash_and_compare_by_identity(self):
        a = jones_recursive(EvenCF((2, 2, -2, 4)))
        b = jones_recursive(EvenCF((2, 2, -2, 4)))
        assert len({a, b, a}) == 2 and a == a and a != b
        assert a.packed == b.packed  # the polynomials compare packed
        with pytest.raises(TypeError, match="unhashable"):
            hash(a.packed)

    def test_non_unit_leading_coefficient(self):
        res = JonesResult(NOT_A_UNIT, "recursive")
        assert res.degree == 1
        with pytest.raises(ZeroPolynomial, match="leading coefficient 2 is "
                                                 "not a unit"):
            res.leading_sign

    def test_non_unit_raises_under_optimize(self):
        """The unit check is if/raise, so it survives ``python -O``."""
        script = (
            "from twobridge.errors import ZeroPolynomial\n"
            "from twobridge.jones import JonesResult\n"
            "from twobridge.laurent import Packed\n"
            f"res = JonesResult({NOT_A_UNIT!r}, 'recursive')\n"
            "try:\n"
            "    res.leading_sign\n"
            "except ZeroPolynomial as exc:\n"
            "    print('raised', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "raised leading coefficient 2 is not a unit\n"


def per_entry_recursive(cf: EvenCF) -> JonesResult:
    """The skein recursion with one kernel step per entry: the reference for
    the run steps of ``jones_recursive``, from its own leading steps to the
    two unknots and the unknot."""
    steps = [((-1, 1), (-1, -1, 1)), ((1, 0), (1, 0, 0))]
    for t, b in zip(type_sequence(cf), cf.entries):
        ab = abs(b)
        if t < 0:
            steps.append(((1, -2 * ab), (-1, -1, ab)))
        else:  # -t^(1/2) [b]_qbar = (-1)^b t^(b-1/2) [b]_q, and b is even
            steps.append(((1, 2 * ab), (1, 2 * ab - 1, ab)))
    return JonesResult(continuant_packed(steps,
                                         abs(numerator_rec(cf.entries))),
                       "per entry")


def runs(cf: EvenCF):
    """Lengths of the maximal runs of equal +-2 entries of one type, in order,
    with 0 for each entry of any other size."""
    return [len(list(run)) if v in (2, -2) else 0 for v, run in groupby(
        t * abs(b) for t, b in zip(type_sequence(cf), cf.entries))]


def run_fractions(count, seed):
    """``count`` seeded random p/q whose oriented even expansions have a run
    longer than 20 with a further entry after it."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        a = [rng.choice([1, 2, 3, rng.randint(20, 60)])
             for _ in range(rng.randint(2, 6))]
        cf = even_cf_for_link(eval_cf(a))
        if max(runs(cf)[:-1], default=0) > 20:
            found.append(cf)
    return found


class TestRunSteps:
    """``jones_recursive`` equals the per-entry recursion, with long runs."""

    @staticmethod
    def check(cfs):
        for cf in cfs:
            res = jones_recursive(cf).packed
            assert res == per_entry_recursive(cf).packed, list(cf.entries)

    def test_even_lists(self):
        self.check(EvenCF(e) for e in even_lists(14))

    def test_odd_integers(self):
        # an odd integer p is one run of p - 1 entries
        ps = [*range(3, 302, 2), 1001, 2001, 5001]
        cfs = [even_cf_for_link(p) for p in ps]
        assert [runs(cf) for cf in cfs] == [[p - 1] for p in ps]
        self.check(cfs)

    def test_random_fractions_with_long_runs(self):
        self.check(run_fractions(40, 17))

    def test_one_step_per_run(self, monkeypatch):
        """100,000 entries of one type take at most two kernel steps after
        the two leading steps."""
        cf = even_cf_for_link(100001)
        assert runs(cf) == [100000]
        seen = []
        real = jones.continuant_packed

        def counted(steps, *args):
            seen.append(len(steps) - len(jones._UNKNOTS))
            return real(steps, *args)
        monkeypatch.setattr(jones, "continuant_packed", counted)
        res = jones_recursive(cf)
        assert len(seen) == 1 and seen[0] <= 2
        assert res.packed == jones_direct(PositiveCF((100001,)), cf).packed


class TestRunPath:
    """Every engine that reads the groups of an expansion agrees with a
    reference that walks its entries one by one."""

    @staticmethod
    def check(ev, reference=per_entry_recursive):
        assert degree_and_sign(ev) == TestDegreeAndSign.per_entry(ev.entries)
        got, want = jones_recursive(ev).packed, reference(ev).packed
        assert got == want, list(ev.entries)
        assert got.bound == abs(numerator_rec(ev.entries))
        assert jones_via_f(ev).packed == want
        assert Fraction(*run_value(ev)) == eval_cf(ev.entries)

    def test_fractions_of_both_signs(self):
        for r in coprime_fractions(200):
            self.check(even_cf_for_link(r))
            self.check(even_cf_for_link(-r))

    def test_odd_integers(self):
        # one step per entry is cubic in p over this range; p is the positive
        # expansion [p], so the direct formula is the reference here
        for p in range(3, 5002, 2):
            self.check(even_cf_for_link(p),
                       lambda ev: jones_direct(PositiveCF((p,)), ev))

    def test_random_fractions_with_long_runs(self):
        for ev in run_fractions(40, 17):
            self.check(ev)
            self.check(ev.mirrored())

    def test_jones_walks_no_entry_list(self, monkeypatch):
        """The CLI's jones path reads the runs: the per-entry helpers that
        ``jones`` imports are never called."""
        want = run(Request("jones", "100001", engine="all"))

        def walk(*args):
            raise AssertionError("an entry-by-entry walk")
        for name in ("type_sequence", "numerator_rec"):
            monkeypatch.setattr(jones, name, walk)
        assert run(Request("jones", "100001", engine="all")) == want
        assert run(Request("jones", "-100001", engine="all"))["checks"] == {
            "recursive": "ok", "direct": "ok", "fpoly": "ok", "laws": "ok",
            "bracket": "ok"}


class TestDegreeAndSign:
    def test_examples(self):
        assert degree_and_sign(EvenCF((2, 2, -2, 4))) == (Fraction(1), 1)
        assert degree_and_sign(EvenCF((-2, 2))) == (Fraction(-1), 1)
        assert degree_and_sign(EvenCF((2,))) == (Fraction(5, 2), -1)

    def test_matches_recursive_engine(self):
        for entries in even_lists(10, max_abs=4):
            cf = EvenCF(entries)
            j, delta = degree_and_sign(cf)
            lead_exp, lead_coeff = jones_recursive(cf).run.leading_term()
            assert (j, delta) == (lead_exp, lead_coeff), entries

    @staticmethod
    def per_entry(entries):
        """The degree and sign entry by entry: 2j is the sum of
        max(2 (-1)^(i+1) b_i + sign(b_i b_(i-1)), -1), with sign(b_0) = 1."""
        units, prev = 0, 1
        for i, b in enumerate(entries, start=1):
            sign = 1 if b * prev > 0 else -1
            units += max(2 * (b if i % 2 else -b) + sign, -1)
            prev = b
        types = type_sequence(EvenCF(entries))
        return Fraction(units, 2), (-1) ** (len(entries) - tau(types))

    def test_closed_form_matches_per_entry_form_on_short_lists(self):
        checked = 0
        for entries in even_lists(12, max_abs=6):
            expected = self.per_entry(entries)
            assert degree_and_sign(EvenCF(entries)) == expected, entries
            checked += 1
        assert checked == 674

    def test_closed_form_matches_per_entry_form_on_long_expansions(self):
        # long expansions of large p/q meet many type changes
        rng = random.Random(15)
        checked = longest = 0
        while checked < 400:
            p = rng.randrange(2, 2 ** 64)
            r = Fraction(p, rng.randrange(1, p))
            if r.numerator * r.denominator % 2:
                continue
            for value in (r, -r):
                entries = even_cf(value).entries
                assert (degree_and_sign(EvenCF(entries))
                        == self.per_entry(entries)), entries
                longest = max(longest, len(entries))
            checked += 1
        assert longest >= 30


def _prefix_data(entries, i):
    """Degree and leading sign of the recursion at depth i entries removed;
    below the first entry, the unknot 1 and two unknots -t^(1/2) - ..."""
    if len(entries) - i >= 1:
        res = jones_recursive(EvenCF(entries[:len(entries) - i]))
        return res.run.leading_term()
    if len(entries) - i == 0:
        return Fraction(0), 1
    return Fraction(1, 2), -1


class TestRecursionBookkeeping:
    """Degree and sign relations between V_m, V_(m-1), V_(m-2)."""

    def test_degree_steps(self):
        for entries in even_lists(10, max_abs=4):
            ts = [-1, *type_sequence(EvenCF(entries))]
            (j0, d0), (j1, d1), (j2, d2) = (_prefix_data(entries, i)
                                            for i in range(3))
            bm = abs(entries[-1])
            bm1 = abs(entries[-2]) if len(entries) >= 2 else None
            # degree of V_m against V_(m-1)
            if ts[-1] == -1:
                assert j0 == j1 - Fraction(1, 2)
            elif ts[-2] == -1:
                assert j0 == j1 + bm + Fraction(1, 2)
            else:
                assert j0 == j1 + bm - Fraction(1, 2)
            # degree of V_m against V_(m-2)
            if ts[-1] == -1:
                if ts[-2] == -1:
                    assert j0 == j2 - 1
                elif ts[-3] == -1:
                    assert j0 == j2 + bm1
                else:
                    assert j0 == j2 + bm1 - 1
            else:
                if ts[-2] == -1:
                    assert j0 == j2 + bm
                elif ts[-3] == -1:
                    assert j0 == j2 + bm + bm1
                else:
                    assert j0 == j2 + bm + bm1 - 1
            # degree never exceeds the max of the two source terms
            if ts[-1] == -1:
                hi = max(j2 - bm, j1 - Fraction(1, 2))
                assert j0 <= hi
                if j2 - bm != j1 - Fraction(1, 2):
                    assert j0 == hi
            else:
                hi = max(j2 + bm, j1 - Fraction(1, 2) + bm)
                assert j0 <= hi
                if j2 + bm != j1 - Fraction(1, 2) + bm:
                    assert j0 == hi

    def test_sign_steps(self):
        for entries in even_lists(10, max_abs=4):
            ts = [-1, *type_sequence(EvenCF(entries))]
            (_, d0), (_, d1), (_, d2) = (_prefix_data(entries, i)
                                         for i in range(3))
            if ts[-1] == -1:
                assert d0 == -d1
                if ts[-2] == -1:
                    assert d0 == d2
                else:
                    assert d0 == (d2 if ts[-3] == -1 else -d2)
            else:
                if ts[-2] == -1:
                    assert d0 == -d1 and d0 == d2
                else:
                    assert d0 == d1
                    assert d0 == (-d2 if ts[-3] == -1 else d2)


class TestSpecializedF:
    def test_positive_examples(self):
        assert (lift(specialized_f_positive(PositiveCF((1, 2)))).to_text()
                == "1 - t^(-1) - t^(-3)")
        assert (lift(specialized_f_positive(PositiveCF((2, 2)))).to_text()
                == "1 - t^(-1) + t^(-2) - t^(-3) + t^(-4)")
        coeffs = [1, 1, 3, 4, 5, 5, 5, 4, 2, 1]
        want = HLPoly({-2 * i: c * (1 if i % 2 == 0 else -1)
                       for i, c in enumerate(coeffs)})
        assert lift(specialized_f_positive(PositiveCF((3, 2, 4)))) == want

    def test_even_examples(self):
        for entries, text in [
                ((2, -2), "1 - t^(-1) - t^(-3)"),
                ((-2, 2), "1 + t^(-2) - t^(-3)"),
                ((4,), "1 + t^(-2) - t^(-3) + t^(-4)"),
                ((-4,), "1 - t^(-1) + t^(-2) + t^(-4)"),
                ((4, -2), "1 - t^(-1) + t^(-2) - 2*t^(-3) + t^(-4) - t^(-5)"),
                ((-4, 2), "1 - t^(-1) + 2*t^(-2) - t^(-3) + t^(-4) - t^(-5)")]:
            F = specialized_f_even(EvenCF(entries))
            assert lift(F).to_text() == text

    def test_named_coincidences(self):
        assert specialized_f_even(EvenCF((-2, 2))) == specialized_f_positive(
            PositiveCF((3,)))
        assert specialized_f_even(EvenCF((-4,))) == specialized_f_positive(
            PositiveCF((1, 3)))
        assert specialized_f_even(EvenCF((-4, 2))) == specialized_f_positive(
            PositiveCF((1, 2, 2)))

    def test_shape(self):
        for entries in [(2, 1, 2), (3, 3), (2, 2, 2, 2), (5,)]:
            cf = PositiveCF(entries)
            F = lift(specialized_f_positive(cf))
            exps, coeffs = F.exps_and_coeffs()
            assert (exps[0], coeffs[0]) == ("0", 1)
            assert exps[-1] == str(-(cf.d + 1))
            assert coeffs[-1] == (1 if cf.d % 2 else -1)

    def test_reflection_identity(self):
        from twobridge.laurent import q_power
        for entries in [(2, 2), (3, 1, 2), (2, 1, 2, 3), (4, 3), (5,)]:
            cf = PositiveCF(entries)
            other = PositiveCF((1, entries[0] - 1) + entries[1:])
            lhs = lift(specialized_f_positive(cf))
            rhs = (q_power(cf.d + 1)
                   * lift(specialized_f_positive(other)).bar())
            assert lhs == rhs


class TestFRecursive:
    def test_single_entry(self):
        assert lift(f_recursive(EvenCF((2,)))).to_text() == "1 + t^(-2)"

    def test_examples(self):
        assert f_recursive(EvenCF((4, -2))) == specialized_f_even(EvenCF((4, -2)))
        assert f_recursive(EvenCF((2, 2, -2, 4))) == specialized_f_positive(
            PositiveCF((2, 1, 2, 3)))

    def test_orientation_guard(self):
        with pytest.raises(WrongOrientation):
            f_recursive(EvenCF((-2, 2)))

    def test_agrees_with_definition(self):
        for entries in even_lists(10, max_abs=6):
            if entries[0] < 0:
                continue
            cf = EvenCF(entries)
            assert f_recursive(cf) == specialized_f_even(cf), entries


class TestViaF:
    def test_examples(self):
        for entries, text in [((-2, 2), TREFOIL), ((2,), "-t^(5/2) - t^(1/2)"),
                              ((2, -2), "-t^(4) + t^(3) + t^(1)")]:
            assert lift(jones_via_f(EvenCF(entries))).to_text() == text


def direct(entries) -> JonesResult:
    """``jones_direct`` on the positive expansion ``entries``, placed by
    the oriented even expansion of its value."""
    cf = PositiveCF(entries)
    return jones_direct(cf, even_cf_for_link(cf.value()))


class TestDirect:
    def test_figure_eight(self):
        assert lift(direct((2, 2))).to_text() == FIGURE8

    def test_four_crossing_link(self):
        assert (lift(direct((4,))).to_text()
                == "-t^(9/2) - t^(5/2) + t^(3/2) - t^(1/2)")

    def test_twenty_crossing_link(self):
        res = direct((2, 3, 4, 5, 6))
        coeffs = [1, -3, 7, -15, 27, -44, 63, -83, 101, -111, 113, -106,
                  92, -73, 54, -36, 22, -12, 6, -2, 1]
        exps, got = lift(res.normalized).exps_and_coeffs()
        assert exps == [str(-e) for e in range(21)]
        assert got[::-1] == coeffs

    def test_odd_fraction_keeps_link_orientation(self):
        # 3/1 has no even expansion; the partner 3/2 describes the mirror,
        # so the oriented expansion is the negated one and V is the trefoil.
        assert even_cf_for_link(Fraction(3, 1)).entries == (-2, 2)
        assert lift(direct((3,))).to_text() == TREFOIL
        assert (lift(direct((5,))).to_text()
                == "t^(-2) + t^(-4) - t^(-5) + t^(-6) - t^(-7)")

    def test_normalized_is_generating_function(self):
        for entries in [(2, 2), (3,), (2, 1, 2, 3), (3, 2, 4)]:
            cf = PositiveCF(entries)
            assert (direct(entries).normalized
                    == specialized_f_positive(cf).read())

    def test_agrees_with_recursion_on_link_fractions(self):
        from twobridge.verify import positive_lists
        for entries in positive_lists(14, max_entry=9):
            cf = PositiveCF(entries)
            r = cf.value()
            if r == 1:
                continue
            ev = even_cf_for_link(r)
            res = jones_direct(cf, ev)
            assert lift(res) == lift(jones_recursive(ev)), entries
            assert (res.normalized
                    == specialized_f_positive(cf).read()), entries


class TestMirror:
    def test_four_crossings(self):
        v4 = direct((4,))
        assert lift(mirror(v4)) == lift(jones_recursive(EvenCF((-4,))))

    def test_involution(self):
        res = jones_recursive(EvenCF((2, 2, -2, 4)))
        assert lift(mirror(mirror(res))) == lift(res)

    def test_reads_no_digits(self, monkeypatch):
        import twobridge.laurent as laurent
        res = direct((2, 1, 2, 3))
        calls = []
        real = laurent._read_digits

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(laurent, "_read_digits", counted)
        barred = mirror(res)
        assert calls == []
        assert lift(barred) == lift(res).bar()
        assert len(calls) == 2  # one read of each polynomial, made here

    def test_trefoil_pair(self):
        assert (lift(mirror(jones_recursive(EvenCF((-2, 2))))).to_text()
                == "-t^(4) + t^(3) + t^(1)")

    def test_entrywise_negation_mirrors(self):
        for entries in even_lists(8, max_abs=4):
            cf = EvenCF(entries)
            lhs = lift(jones_recursive(cf.mirrored()))
            assert lhs == lift(jones_recursive(cf)).bar(), entries


class TestBoundaryCoefficients:
    def test_examples(self):
        assert boundary_coefficients(PositiveCF((3, 2, 4))) == (1, 1, 3, 4, 2, 1)
        assert boundary_coefficients(PositiveCF((2, 3, 4, 5, 6))) == (1, 2, 6, 7, 3, 1)
        assert boundary_coefficients(PositiveCF((3, 3, 3, 3))) == (1, 2, 5, 5, 2, 1)
        # l = 4 reads the middle position from both ends
        assert boundary_coefficients(PositiveCF((4,))) == (1, 0, 1, 1, 1, 1)
        assert boundary_coefficients(PositiveCF((2, 2))) == (1, 1, 1, 1, 1, 1)

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            boundary_coefficients(PositiveCF((1, 3)))
        with pytest.raises(HypothesisViolated):
            boundary_coefficients(PositiveCF((3, 1)))
        # l = 2 and l = 3 overlap the two ends: the trefoil's
        # 1 + t^(-2) - t^(-3) has v_1 = 0, where the formulas give 1
        for entries in [(2,), (3,)]:
            with pytest.raises(HypothesisViolated, match=">= 4"):
                boundary_coefficients(PositiveCF(entries))


class TestVolumeBounds:
    def test_values(self):
        assert volume_bounds(PositiveCF((3, 3, 3))) == (0.35367, 30 * 1.0149 * 2)
        assert volume_bounds(PositiveCF((3, 3))) == (0.0, 30 * 1.0149)
        assert volume_bounds(PositiveCF((3, 4, 5, 3))) == (
            0.35367 * 2, 30 * 1.0149 * 3)

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            volume_bounds(PositiveCF((3, 2, 3)))
        # one entry is the (2, a) torus link, not hyperbolic
        for entries in [(3,), (5,), (40,)]:
            with pytest.raises(HypothesisViolated, match="two entries"):
                volume_bounds(PositiveCF(entries))
        # the entry check comes first, with its own message
        with pytest.raises(HypothesisViolated, match="every entry >= 3"):
            volume_bounds(PositiveCF((2,)))


class TestKnotVsLinkGrid:
    def test_grid_parity(self):
        for entries in even_lists(8, max_abs=4):
            cf = EvenCF(entries)
            p = abs(eval_cf(entries).numerator)
            run = jones_recursive(cf).run
            is_knot = p % 2 == 1
            assert (cf.m % 2 == 0) == is_knot
            assert (run.h & 1 == 0) == is_knot, entries
