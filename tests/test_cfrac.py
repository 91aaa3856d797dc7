from fractions import Fraction
from itertools import groupby
from math import gcd
from operator import mul

import pytest
from hypothesis import Phase, given, settings, strategies as st

from twobridge.cfrac import (EvenCF, PositiveCF, _even_entries, _value,
                             eval_cf, even_cf, even_cf_for_link,
                             euler_minding, numerator_rec, positive_cf,
                             run_value, sign_sequence, type_sequence)
from twobridge.errors import BothOdd, NoEvenQuotient, OutOfRange, ZeroTail
from twobridge.laurent import HLPoly
from twobridge.verify import coprime_fractions, even_lists

from reference import even_division, tau


class TestEvalCF:
    def test_positive_entries(self):
        assert eval_cf([2, 1, 2, 3]) == Fraction(27, 10)

    def test_even_entries(self):
        assert eval_cf([2, 2, -2, 4]) == Fraction(27, 10)

    def test_single_entry(self):
        assert eval_cf([5]) == Fraction(5)

    def test_zero_value_without_division_is_fine(self):
        assert eval_cf([1, -1]) == 0

    def test_a_non_integral_entry_is_refused(self):
        # int() would truncate 2.5 to 2 and give 7/3
        for entries in ([2.5, 3], [2, -2.5], [Fraction(5, 2)]):
            with pytest.raises(ValueError, match="is not an integer"):
                eval_cf(entries)
        assert eval_cf([2.0, True]) == 3

    def test_zero_tail(self):
        for entries in ([2, 1, -1], [2, 0], [], [3, 0, 1, -1]):
            with pytest.raises(ZeroTail):
                eval_cf(entries)
            with pytest.raises(ZeroTail):
                eval_cf(tuple(entries))
            with pytest.raises(ZeroTail):
                _value(entries)

    @given(st.lists(st.integers(-3, 3), max_size=8))
    def test_matches_fraction_steps(self, entries):
        """Same value, or the same ZeroTail, as nesting Fraction steps."""
        try:
            got = eval_cf(entries)
        except ZeroTail:
            got = ZeroTail
        assert got == nested(entries)


def nested(xs):
    """[x_1, ..., x_k] by nested Fraction steps, or ZeroTail."""
    if not xs or xs[-1] == 0:
        return ZeroTail
    acc = Fraction(xs[-1])
    for c in reversed(xs[:-1]):
        if acc == 0:
            return ZeroTail
        acc = c + 1 / acc
    return acc


class TestValuePair:
    """``_value`` gives the reduced pair of the Fraction value, den > 0."""

    @given(st.lists(st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70),
                    max_size=12))
    def test_matches_fraction_value(self, entries):
        want = nested(entries)
        try:
            got = _value(entries)
        except ZeroTail:
            assert want is ZeroTail
            return
        num, den = got
        assert (num, den) == (want.numerator, want.denominator)
        assert den > 0 and gcd(num, den) == 1
        assert _value(tuple(entries)) == got

    def test_sign_on_the_numerator(self):
        assert _value([-2, 2]) == (-3, 2)
        assert _value([0, -2]) == (-1, 2)
        assert _value([1, -1]) == (0, 1)
        assert _value([-5]) == (-5, 1)


class TestPositiveCF:
    def test_euclidean_expansion(self):
        assert positive_cf(Fraction(27, 10)).entries == (2, 1, 2, 3)

    def test_three_halves(self):
        assert positive_cf(Fraction(3, 2)).entries == (1, 2)

    def test_integer(self):
        assert positive_cf(Fraction(7)).entries == (7,)

    def test_one(self):
        assert positive_cf(Fraction(1)).entries == (1,)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            positive_cf(Fraction(1, 2))

    def test_canonical_tail(self):
        for p, q in [(27, 10), (8, 5), (100, 71)]:
            cf = positive_cf(Fraction(p, q))
            assert cf.n == 1 or cf.entries[-1] >= 2

    def test_long_form(self):
        cf = positive_cf(Fraction(27, 10))
        assert cf.long_form().entries == (2, 1, 2, 2, 1)
        assert eval_cf(cf.long_form().entries) == Fraction(27, 10)
        with pytest.raises(OutOfRange):
            PositiveCF((1,)).long_form()

    def test_partial_sums_and_d(self):
        cf = PositiveCF((2, 1, 2, 3))
        assert cf.partial_sums() == (2, 3, 5, 8)
        assert cf.d == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            PositiveCF((2, 0, 3))
        with pytest.raises(ValueError):
            PositiveCF(())


class TestEvenDivision:
    def test_worked_steps(self):
        assert even_division(27, 10) == (2, 7)
        assert even_division(10, 7) == (2, -4)
        assert even_division(7, -4) == (-2, -1)
        assert even_division(-4, -1) == (4, 0)

    def test_remainder_window(self):
        for p in range(-30, 31):
            for q in range(-8, 9):
                if q == 0:
                    continue
                try:
                    b, s = even_division(p, q)
                except NoEvenQuotient:
                    continue
                assert p == b * q + s
                assert b % 2 == 0 and b != 0
                assert -abs(q) <= s < abs(q)

    def test_no_even_quotient(self):
        with pytest.raises(NoEvenQuotient):
            even_division(1, 3)


class TestEvenCF:
    def test_worked_expansion(self):
        assert even_cf(Fraction(27, 10)).entries == (2, 2, -2, 4)

    def test_near_one(self):
        assert even_cf(Fraction(5, 4)).entries == (2, -2, 2, -2)

    def test_derived(self):
        got = even_cf(Fraction(10, 7))
        assert got.entries == (2, -2, 4)
        assert eval_cf(got.entries) == Fraction(10, 7)

    def test_negative_value(self):
        assert even_cf(Fraction(-3, 2)).entries == (-2, 2)

    def test_both_odd(self):
        with pytest.raises(BothOdd):
            even_cf(Fraction(3, 1))
        with pytest.raises(BothOdd):
            even_cf(Fraction(9, 5))

    def test_alternating_family(self):
        # p/(p-1) expands to [2, -2, 2, -2, ...] with p - 1 entries
        for p in range(2, 9):
            cf = even_cf(Fraction(p, p - 1))
            assert cf.m == p - 1
            assert cf.entries == tuple(2 if i % 2 == 0 else -2
                                       for i in range(p - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            EvenCF((2, 3))
        with pytest.raises(ValueError):
            EvenCF((2, 0, 2))

    def test_value_from_the_groups(self):
        for entries in even_lists(12):
            assert EvenCF(entries).value() == eval_cf(entries), entries

    def test_value_walks_no_entry_list(self, monkeypatch):
        """An even expansion's value, and so ``convert``'s, is read from its
        groups: the per-entry evaluation is never called."""
        import twobridge.cfrac as cfrac
        from twobridge.cli import Request, run

        def walk(*args):
            raise AssertionError("an entry-by-entry walk")
        for name in ("_value", "eval_cf"):
            monkeypatch.setattr(cfrac, name, walk)
        for p in (1000001, -1000001):
            r = Fraction(p, 1000000)
            assert even_cf_for_link(r).value() == r
        report = run(Request("convert", "1000001/1000000"))
        assert len(report["even_cf"]) == 1000000
        assert report["even_cf_value"] == report["value"] == {
            "num": 1000001, "den": 1000000}
        assert report["substituted"] is False


def division_loop(p, q):
    """The even expansion of p/q as a loop of ``even_division`` steps."""
    entries = []
    while q:
        b, s = even_division(p, q)
        entries.append(b)
        p, q = q, s
    return tuple(entries)


class TestExpansionAgainstDivisionSteps:
    """``even_cf`` reads a run of +-2 entries with one division and writes
    the even division step inline; it must give what a loop of
    ``even_division`` calls gives."""

    def test_every_fraction_up_to_300(self):
        checked = 0
        for p in range(2, 301):
            for q in range(1, p):
                if gcd(p, q) != 1 or p * q % 2:
                    continue
                for num in (p, -p):
                    cf = even_cf(Fraction(num, q))
                    assert type(cf.entries) is tuple
                    assert cf.entries == division_loop(num, q), (num, q)
                checked += 1
        assert checked == 18281

    @given(st.integers(2, 130), st.randoms(use_true_random=True),
           st.booleans(), st.booleans())
    def test_big_fractions(self, bits, rnd, negate, as_int):
        """p/q with |p| of ``bits`` bits and q < |p| uniform, or the int p."""
        p = rnd.randrange(2 ** (bits - 1), 2 ** bits) * (-1 if negate else 1)
        r = p if as_int else Fraction(p, rnd.randrange(1, abs(p)))
        p, q = r.numerator, r.denominator
        if p & q & 1:
            with pytest.raises(BothOdd):
                even_cf(r)
        elif sum(positive_cf(Fraction(abs(p), q)).entries) <= 4096:
            # the expansion has fewer entries than this sum; a uniform q
            # keeps it small
            assert even_cf(r).entries == division_loop(p, q)


def groups_of(cf):
    """The maximal groups (v, k) of equal type times |b|, entry by entry."""
    return tuple((v, len(list(run))) for v, run in groupby(
        map(mul, type_sequence(cf), map(abs, cf.entries))))


def same_as_division_loop(p, q):
    """``_even_entries(p, q)`` and ``even_cf(p/q)`` against
    ``division_loop(p, q)``: the entries, the groups of equal type times
    |b|, the value and the mirror image."""
    want = division_loop(p, q)
    entries = _even_entries(p, q)
    assert type(entries) is tuple and entries == want, (p, q)
    got = even_cf(Fraction(p, q))
    assert type(got.entries) is tuple and got.entries == want, (p, q)
    groups = groups_of(got)
    assert got.runs == groups, (p, q)
    assert run_value(got) == _value(want), (p, q)
    listed = EvenCF(want)
    assert got == listed and hash(got) == hash(listed)
    mirror = got.mirrored()
    assert mirror.entries == tuple(-b for b in want)
    assert mirror.runs == tuple((-v, k) for v, k in groups)


def outcome(read, p, q):
    """What ``read(p, q)`` gives: its entries, or the type and message of
    the exception it raises."""
    try:
        got = read(p, q)
    except (BothOdd, OutOfRange, NoEvenQuotient) as exc:
        return type(exc), str(exc)
    return getattr(got, "entries", got)


class TestRunReader:
    """``_even_entries`` reads a run of +-2 entries with one division; it
    must equal ``division_loop``, one ``even_division`` step per entry, and
    the groups derived from its entries must be the entries' groups."""

    def test_every_fraction_up_to_600(self):
        checked = 0
        for p in range(2, 601):
            for q in range(1, p):
                if gcd(p, q) == 1 and p * q % 2 == 0:
                    same_as_division_loop(p, q)
                    same_as_division_loop(-p, q)
                    checked += 2
        assert checked == 146062

    # no explain phase, as in the kernel's hypothesis tests
    @settings(max_examples=150, deadline=None,
              phases=tuple(p for p in Phase if p is not Phase.explain))
    @given(st.one_of(
        st.integers(2, 130).flatmap(
            lambda bits: st.tuples(st.integers(2 ** (bits - 1), 2 ** bits),
                                   st.integers(1, 2 ** bits))),
        # fractions made from positive entries up to 4096: long runs
        st.lists(st.one_of(st.integers(1, 4), st.integers(1, 4096)),
                 min_size=1, max_size=12).map(
            lambda a: (lambda r: (r.numerator, r.denominator))(eval_cf(a)))),
        st.booleans())
    def test_big_fractions(self, pq, negate):
        """p/q up to 2^130, and values with runs of up to about 4,096
        entries; a pair of odd numbers reads as the partner p/(p - q)."""
        p, q = pq
        g = gcd(p, q)
        p, q = p // g, q // g
        if p <= q:
            p, q = q + p, q  # any value above 1
        if p & q & 1:
            q = p - q
        if max(positive_cf(Fraction(p, q)).entries) > 4096:
            return  # a run longer than the division loop should walk
        same_as_division_loop(-p if negate else p, q)

    def test_a_run_is_one_group(self):
        cf = even_cf_for_link(Fraction(1000001, 1000000))
        assert cf.runs == groups_of(cf) == ((2, 1000000),)
        assert cf.m == 1000000
        assert cf.entries[:3] == (2, -2, 2) and cf.entries[-1] == -2
        assert set(map(type, cf.entries)) == {int}
        assert run_value(cf) == (1000001, 1000000)
        assert _even_entries(1000001, 1000000) == cf.entries
        # the groups take no part in equality, hash or repr, and mirroring
        # does not derive them
        listed = EvenCF(cf.entries)
        assert cf == listed and hash(cf) == hash(listed)
        assert repr(cf) == repr(listed)
        assert "runs" not in vars(cf.mirrored())
        with pytest.raises(TypeError):  # they are derived, not given
            EvenCF((2,), runs=((4, 1),))
        cf = even_cf(Fraction(27, 10))
        assert cf.runs == groups_of(cf) == ((2, 1), (-2, 2), (-4, 1))

    def test_every_pair_up_to_60_alike(self):
        """Any p/q with q >= 1, a common factor allowed: the reader gives
        the entries of the division loop, or raises its exception with its
        message.  Before the loop it refuses a pair of odd numbers and a
        value in [-1, 1]."""
        for p in range(-60, 61):
            for q in range(1, 60):
                got = outcome(_even_entries, p, q)
                if p & q & 1:
                    assert got[0] is BothOdd, (p, q)
                elif abs(p) <= q:
                    assert got[0] is OutOfRange, (p, q)
                else:
                    assert got == outcome(division_loop, p, q), (p, q)

    @pytest.mark.parametrize("p, q, error", [
        (3, 1, BothOdd), (9, 5, BothOdd), (1, 2, OutOfRange),
        (-2, 3, OutOfRange), (2, 2, OutOfRange), (6, 2, NoEvenQuotient),
        (-60, 4, NoEvenQuotient)])
    def test_raises_alike(self, p, q, error):
        """The reader raises ``error``, with the division loop's message
        when it is a ``NoEvenQuotient``."""
        want = outcome(_even_entries, p, q)
        assert want[0] is error
        if error is NoEvenQuotient:
            assert outcome(division_loop, p, q) == want


class TestEvenCFForLink:
    def test_even_product_uses_value_itself(self):
        assert even_cf_for_link(Fraction(27, 10)).entries == (2, 2, -2, 4)

    def test_both_odd_uses_negated_partner(self):
        assert even_cf_for_link(Fraction(3, 1)).entries == (-2, 2)

    def test_partner_value(self):
        got = even_cf_for_link(Fraction(5, 3))
        assert got == even_cf(Fraction(-5, 2))
        assert eval_cf(got.entries) == Fraction(-5, 2)
        # a negative r is the mirror image: the expansion of |r| negated
        assert even_cf_for_link(Fraction(-5, 3)) == got.mirrored()


class TestNumeratorRec:
    def test_integers(self):
        assert numerator_rec([2, 1, 2, 3]) == 27
        assert numerator_rec([2, 3, 4, 5, 6]) == 972
        assert numerator_rec([]) == 1
        assert numerator_rec([7]) == 7

    def test_ring_elements(self):
        x = HLPoly.monomial(1, 2)
        y = HLPoly.monomial(3, -4)
        assert numerator_rec([x, y]) == x * y + 1

    def test_matches_fraction_numerator(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    cf = positive_cf(Fraction(p, q))
                    assert numerator_rec(cf.entries) == p


class TestEulerMinding:
    def test_pair_deletion_expansion(self):
        # abcde + cde + ade + abe + abc + e + c + a at (2, 3, 5, 7, 11)
        a, b, c, d, e = 2, 3, 5, 7, 11
        expected = (a * b * c * d * e + c * d * e + a * d * e + a * b * e
                    + a * b * c + e + c + a)
        assert euler_minding([a, b, c, d, e]) == expected

    def test_small_cases(self):
        assert euler_minding([2, 1, 2, 3]) == 27
        assert euler_minding([7]) == 7
        assert euler_minding([]) == 1

    @given(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=8))
    def test_agrees_with_recursion(self, xs):
        assert euler_minding(xs) == numerator_rec(xs)


class TestSignAndType:
    def test_sign_sequence(self):
        assert sign_sequence(EvenCF((2, 4, 2))) == (
            1, 1, -1, -1, -1, -1, 1, 1)
        assert sign_sequence(EvenCF((2, 2, -2, 4))) == (
            1, 1, -1, -1, -1, -1, -1, -1, -1, -1)
        assert sign_sequence(EvenCF((2,))) == (1, 1)

    def test_sign_sequence_from_groups_is_per_entry(self):
        """Built from the groups, the sign sequence is |b_i| copies of each
        type, entry by entry."""
        checked = 0
        for entries in even_lists(14):
            cf = EvenCF(entries)
            want = tuple(t for t, b in zip(type_sequence(cf), entries)
                         for _ in range(abs(b)))
            assert sign_sequence(cf) == want, entries
            checked += 1
        assert checked == 1970

    def test_type_sequence(self):
        assert type_sequence(EvenCF((2, 4, 2))) == (1, -1, 1)
        assert type_sequence(EvenCF((2, 2, -2, 4))) == (1, -1, -1, -1)
        assert type_sequence(EvenCF((-2, 2))) == (-1, -1)

    def test_tau(self):
        assert tau((1, -1, -1, -1)) == 0
        assert tau(type_sequence(EvenCF((2, -2)))) == 1
        assert tau((1, 1, 1)) == 2


@st.composite
def reduced_fractions(draw, max_p=400):
    p = draw(st.integers(2, max_p))
    q = draw(st.integers(1, p - 1))
    g = gcd(p, q)
    return Fraction(p // g, q // g)


class TestRoundTrips:
    @given(reduced_fractions())
    def test_positive_round_trip(self, r):
        assert eval_cf(positive_cf(r).entries) == r

    @given(reduced_fractions())
    def test_even_round_trip_and_parity(self, r):
        if (r.numerator * r.denominator) % 2:
            with pytest.raises(BothOdd):
                even_cf(r)
            return
        cf = even_cf(r)
        assert eval_cf(cf.entries) == r
        assert even_cf(eval_cf(cf.entries)) == cf
        assert (r.numerator % 2 == 1) == (cf.m % 2 == 0)


class TestExpansionResults:
    """The expansions build their results without the validating
    constructor; each must equal what the constructor builds."""

    def test_equal_to_constructed(self):
        def same(x):
            assert type(x.entries) is tuple
            assert all(type(e) is int for e in x.entries)
            y = type(x)(x.entries)
            assert x == y and hash(x) == hash(y), x

        checked = 0
        for r in coprime_fractions(200):
            pos = positive_cf(r)
            same(pos)
            same(pos.long_form())
            if (r.numerator * r.denominator) % 2 == 0:
                for ev in (even_cf(r), even_cf(-r)):
                    same(ev)
                    same(ev.mirrored())
            checked += 1
        assert checked == 12231


# entries that probe the validators: zero, odd and negative odd values,
# evens of both signs, True, integral floats and non-integral ones
PROBE_ENTRIES = st.sampled_from([0, 1, 3, -1, -3, 2, -2, 4, -6, True, False,
                                 1.0, 2.0, -2.0, 3.0, 0.0, 2.5, -2.5])


def _outcome(make, arg):
    """(stored entries, None) or (None, exception type) for make(arg)."""
    try:
        return make(arg).entries, None
    except Exception as exc:
        return None, type(exc)


def _plain_expansion_error(fn, r):
    """The (type, message) that the Fraction-based definitions raise on r,
    or None when r has an expansion."""
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    if fn is positive_cf:
        if r < 1:
            return OutOfRange, f"need a rational >= 1, got {r}"
    elif fn is even_cf:
        if p % 2 == 1 and q % 2 == 1:
            return BothOdd, f"{r} has odd numerator and denominator"
        if abs(r) <= 1:
            return OutOfRange, f"need |r| > 1, got {r}"
    elif abs(r) <= 1:
        return OutOfRange, f"need |r| > 1, got {r}"
    return None


class TestConstructorsMatchPlainPredicates:
    @given(st.lists(PROBE_ENTRIES, max_size=6).map(tuple))
    def test_positive_cf_class(self, entries):
        ints = tuple(int(a) for a in entries)
        ok = (all(int(a) == a for a in entries) and bool(ints)
              and all(a >= 1 for a in ints))
        assert _outcome(PositiveCF, entries) == (
            (ints, None) if ok else (None, ValueError))

    @given(st.lists(PROBE_ENTRIES, max_size=6).map(tuple))
    def test_even_cf_class(self, entries):
        ints = tuple(int(b) for b in entries)
        ok = (all(int(b) == b for b in entries) and bool(ints)
              and all(b != 0 and b % 2 == 0 for b in ints))
        assert _outcome(EvenCF, entries) == (
            (ints, None) if ok else (None, ValueError))

    @given(st.sampled_from([positive_cf, even_cf, even_cf_for_link]),
           st.integers(-40, 40), st.integers(1, 40), st.booleans())
    def test_expansions_raise_alike(self, fn, p, q, as_int):
        r = p if as_int else Fraction(p, q)
        want = _plain_expansion_error(fn, r)
        try:
            got = fn(r)
        except (OutOfRange, BothOdd) as exc:
            assert (type(exc), str(exc)) == want
        else:
            assert want is None
            if fn is even_cf_for_link and r.numerator * r.denominator % 2:
                # the negated expansion of the partner p/(|p| - q)
                r = Fraction(-r.numerator, abs(r.numerator) - r.denominator)
            assert eval_cf(got.entries) == r
