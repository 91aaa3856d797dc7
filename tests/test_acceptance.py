"""Acceptance suite: ten numbered criteria, all exact-arithmetic.

Each criterion is a function that raises AssertionError, or a
TwoBridgeError such as the CrossCheckMismatch of a verify sweep, on failure;
pytest wrappers run them individually, and ``python tests/test_acceptance.py``
runs the lot, printing one PASS/FAIL line per criterion.  Criteria 4, 5 and 9
are the verify sweeps themselves, with their input counts pinned so that none
can pass vacuously.
"""

import sys
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from twobridge.cfrac import EvenCF, PositiveCF, eval_cf, even_cf, positive_cf
from twobridge.errors import (CrossCheckMismatch, HypothesisViolated,
                              TwoBridgeError)
from twobridge.jones import (boundary_coefficients, degree_and_sign,
                             jones_direct, jones_recursive, jones_via_f,
                             mirror, specialized_f_even,
                             specialized_f_positive, volume_bounds)
from twobridge.laurent import HLPoly, q_power
from twobridge.snake import (count_matchings, isomorphic, snake_from_even,
                             snake_from_positive)
from twobridge.verify import (cfrac_sweep, engine_sweep, even_graph_sweep,
                              even_lists, matching_sweep, positive_lists)

from reference import lift

ENGINE_SWEEP_MAX = 16     # sum |b_i| for the even-cf engine sweep
MATCHING_SWEEP_MAX = 14   # sum a_i for the positive-cf matchings sweep
FRACTION_SWEEP_MAX = 300  # p bound for snake-graph comparisons
CFRAC_SWEEP_MAX = 500     # p bound for continued-fraction laws


@lru_cache(maxsize=None)
def engine_sweep_records():
    """One pass over the even-cf sweep, shared by criteria 6 and 8."""
    records = []
    for entries in even_lists(ENGINE_SWEEP_MAX, max_abs=6):
        cf = EvenCF(entries)
        res = jones_recursive(cf)
        records.append((cf, res))
    return records


def criterion_1():
    """Golden values from every applicable engine."""
    cases = [
        # (even entries, positive entries of the same link, expected poly)
        ((-2, 2), (3,), "t^(-1) + t^(-3) - t^(-4)"),
        ((2,), (2,), "-t^(5/2) - t^(1/2)"),
        ((2, 2), (2, 2), "t^(2) - t^(1) + 1 - t^(-1) + t^(-2)"),
        ((4,), (4,), "-t^(9/2) - t^(5/2) + t^(3/2) - t^(1/2)"),
        ((2, 2, -2, 4), (2, 1, 2, 3),
         "t^(1) - 2 + 4*t^(-1) - 4*t^(-2) + 5*t^(-3) - 5*t^(-4)"
         " + 3*t^(-5) - 2*t^(-6) + t^(-7)"),
    ]
    for ev_entries, pos_entries, text in cases:
        ev = EvenCF(ev_entries)
        assert lift(jones_recursive(ev)).to_text() == text, ev_entries
        assert lift(jones_via_f(ev)).to_text() == text, ev_entries
        assert (lift(jones_direct(PositiveCF(pos_entries))).to_text()
                == text), pos_entries
    # mirror partners, pinned explicitly
    for engine in (jones_recursive, jones_via_f):
        assert (lift(engine(EvenCF((-2,)))).to_text()
                == "-t^(-1/2) - t^(-5/2)")
    v4 = jones_direct(PositiveCF((4,)))
    for engine_poly in (lift(jones_recursive(EvenCF((-4,)))),
                        lift(jones_via_f(EvenCF((-4,)))),
                        lift(mirror(v4))):
        assert engine_poly == lift(v4).bar()
    res = jones_recursive(EvenCF((2, 2, -2, 4)))
    assert res.degree == 1 and res.leading_sign == 1


def criterion_2():
    """Large worked examples, exact."""
    coeffs_324 = [1, 1, 3, 4, 5, 5, 5, 4, 2, 1]
    want = HLPoly({-2 * i: c * (1 if i % 2 == 0 else -1)
                   for i, c in enumerate(coeffs_324)})
    assert lift(specialized_f_positive(PositiveCF((3, 2, 4)))) == want

    coeffs_23456 = [1, 2, 6, 12, 22, 36, 54, 73, 92, 106, 113, 111, 101,
                    83, 63, 44, 27, 15, 7, 3, 1]
    want = HLPoly({-2 * i: c * (1 if i % 2 == 0 else -1)
                   for i, c in enumerate(coeffs_23456)})
    assert lift(specialized_f_positive(PositiveCF((2, 3, 4, 5, 6)))) == want

    assert count_matchings(snake_from_positive(PositiveCF((2, 3, 4, 5, 6)))) == 972


def criterion_3():
    """Specialized generating-function examples and coincidences."""
    for entries, text in [
            ((2, -2), "1 - t^(-1) - t^(-3)"),
            ((-2, 2), "1 + t^(-2) - t^(-3)"),
            ((4,), "1 + t^(-2) - t^(-3) + t^(-4)"),
            ((-4,), "1 - t^(-1) + t^(-2) + t^(-4)"),
            ((4, -2), "1 - t^(-1) + t^(-2) - 2*t^(-3) + t^(-4) - t^(-5)"),
            ((-4, 2), "1 - t^(-1) + 2*t^(-2) - t^(-3) + t^(-4) - t^(-5)")]:
        F = specialized_f_even(EvenCF(entries))
        assert lift(F).to_text() == text, entries
    assert specialized_f_even(EvenCF((-2, 2))) == specialized_f_positive(
        PositiveCF((3,)))
    assert specialized_f_even(EvenCF((-4,))) == specialized_f_positive(
        PositiveCF((1, 3)))
    assert specialized_f_even(EvenCF((-4, 2))) == specialized_f_positive(
        PositiveCF((1, 2, 2)))


def criterion_4():
    """Matching counts equal continued-fraction numerators."""
    assert matching_sweep(MATCHING_SWEEP_MAX) == 16303
    assert even_graph_sweep(FRACTION_SWEEP_MAX) == 18281


def criterion_5():
    """Engine equivalence on the full even-cf sweep."""
    assert engine_sweep(ENGINE_SWEEP_MAX) == 5754


def criterion_6():
    """Closed-form degree, sign, width, alternation, grid on the sweep.

    Each is read from the result's digit run: the coefficients of
    consecutive exponents, lowest first, both ends nonzero.
    """
    for cf, res in engine_sweep_records():
        j, delta = degree_and_sign(cf)
        assert (res.degree, res.leading_sign) == (j, delta), cf.entries
        value = eval_cf(cf.entries)
        pos = positive_cf(abs(value))
        run = res.run
        assert run.width() == 2 * sum(pos.entries), cf.entries
        # alternating: (-1)^i digits[i] has one sign, zero digits aside
        first = run.digits[0]
        assert all(c * first * (-1) ** i >= 0
                   for i, c in enumerate(run.digits)), cf.entries
        assert run.digits[-1] in (1, -1)
        assert run.digits[0] in (1, -1)
        p_odd = abs(value.numerator) % 2 == 1
        assert (cf.m % 2 == 0) == p_odd
        assert (run.h & 1 == 0) == p_odd, cf.entries


def criterion_7():
    """Boundary-coefficient formulas against the direct engine.

    The six formulas address the first three and last three coefficient
    positions; for sum(a_i) <= 3 the polynomial is too short for those
    windows to make sense, so the sweep starts at sum(a_i) = 4.
    """
    checked = 0
    for entries in positive_lists(MATCHING_SWEEP_MAX, max_entry=9):
        if entries[0] < 2 or entries[-1] < 2 or sum(entries) < 4:
            continue
        cf = PositiveCF(entries)
        v0, v1, v2, vl2, vl1, vl = boundary_coefficients(cf)
        # normalized: v_i is the digit i places below the top
        digits = jones_direct(cf).run.digits
        ell = sum(entries)
        assert len(digits) == ell + 1, entries
        got = [abs(digits[-1 - i]) for i in (0, 1, 2, ell - 2, ell - 1, ell)]
        assert got == [v0, v1, v2, vl2, vl1, vl], entries
        checked += 1
    assert checked > 1000

    table = {1: (1, 0, 1, 1, 1, 1), 2: (1, 1, 2, 2, 1, 1),
             3: (1, 1, 3, 4, 2, 1), 4: (1, 2, 5, 5, 2, 1),
             5: (1, 2, 6, 8, 3, 1), 6: (1, 3, 9, 9, 3, 1),
             7: (1, 3, 10, 13, 4, 1)}
    reps = {1: [(5,), (6,), (9,)], 2: [(3, 3), (4, 3), (3, 5)],
            3: [(3, 3, 3), (3, 4, 3), (5, 3, 4)], 4: [(3, 3, 3, 3), (3, 4, 4, 3)],
            5: [(3, 3, 3, 3, 3), (3, 4, 3, 4, 3)], 6: [(3,) * 6, (4, 3, 3, 3, 3, 4)],
            7: [(3,) * 7]}
    for n, row in table.items():
        for entries in reps[n]:
            assert len(entries) == n
            assert boundary_coefficients(PositiveCF(entries)) == row, entries


def criterion_8():
    """Reflection and mirror identities across the sweeps."""
    for entries in positive_lists(MATCHING_SWEEP_MAX, max_entry=9):
        if entries[0] < 2:
            continue
        cf = PositiveCF(entries)
        reflected = PositiveCF((1, entries[0] - 1) + entries[1:])
        lhs = lift(specialized_f_positive(cf))
        rhs = (q_power(cf.d + 1)
               * lift(specialized_f_positive(reflected)).bar())
        assert lhs == rhs, entries
    for cf, res in engine_sweep_records():
        assert (lift(jones_recursive(cf.mirrored()))
                == lift(res).bar()), cf.entries
        assert isomorphic(snake_from_even(cf.mirrored()),
                          snake_from_even(cf)), cf.entries


def criterion_9():
    """Continued-fraction layer laws over all reduced p/q up to the bound."""
    assert even_cf(Fraction(27, 10)).entries == (2, 2, -2, 4)
    assert even_cf(Fraction(5, 4)).entries == (2, -2, 2, -2)
    assert cfrac_sweep(CFRAC_SWEEP_MAX) == 76115


def criterion_10():
    """Volume bounds are the stated affine expressions, nothing more."""
    for entries in [(3, 3), (3, 3, 3), (3, 4, 5, 3), (9, 8, 7, 6, 5),
                    (3,) * 7]:
        n = len(entries)
        got = volume_bounds(PositiveCF(entries))
        assert got == (0.35367 * (n - 2), 30 * 1.0149 * (n - 1)), entries
    for entries in [(2, 3, 3), (3, 1, 3), (3, 3, 2), (2,)]:
        with pytest.raises(HypothesisViolated):
            volume_bounds(PositiveCF(entries))


CRITERIA = [
    (criterion_1, "golden Jones values from every applicable engine"),
    (criterion_2, "large worked examples (9- and 20-crossing links)"),
    (criterion_3, "specialized generating-function examples"),
    (criterion_4, "matching counts = numerators; even vs positive graphs"),
    (criterion_5, "engine equivalence sweep"),
    (criterion_6, "closed-form degree/sign/width/alternation checks"),
    (criterion_7, "boundary-coefficient formulas and table rows"),
    (criterion_8, "reflection and mirror identities"),
    (criterion_9, "continued-fraction layer laws up to 500"),
    (criterion_10, "volume bounds exact and guarded"),
]


@pytest.mark.parametrize("func,label", CRITERIA,
                         ids=[f"criterion_{i}" for i in range(1, 11)])
def test_criterion(func, label):
    func()


def test_main_reports_raising_criteria(monkeypatch, capsys):
    """A failed assertion and a raised mismatch both count as failures."""
    def failing():
        raise AssertionError("forced failure")

    def mismatch():
        raise CrossCheckMismatch("forced mismatch")

    monkeypatch.setattr(sys.modules[__name__], "CRITERIA",
                        [(failing, "asserts"), (mismatch, "raises"),
                         (criterion_10, "passes")])
    assert main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "criterion  1: FAIL - asserts: forced failure"
    assert out[1] == "criterion  2: FAIL - raises: forced mismatch"
    assert out[2].startswith("criterion  3: PASS - passes")


def main() -> int:
    failures = 0
    for i, (func, label) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        try:
            func()
        except (AssertionError, TwoBridgeError) as exc:
            failures += 1
            print(f"criterion {i:2d}: FAIL - {label}: {exc}")
        else:
            elapsed = time.perf_counter() - start
            print(f"criterion {i:2d}: PASS - {label} ({elapsed:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
