"""The continued-fraction laws of ``verify.cfrac_sweep``, one fraction at a
time: each law holds at big-int sizes, and each can fail.  Also the engine
cross-check of ``verify.check_engines``, which compares packed results."""

import dataclasses
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from twobridge import cli, verify
from twobridge.cfrac import EvenCF, PositiveCF, positive_cf
from twobridge.errors import CrossCheckMismatch
from twobridge.laurent import Packed


def test_sweep_checks_each_fraction_once(monkeypatch):
    seen = []
    laws = verify._fraction_laws

    def counted(r):
        seen.append(r)
        laws(r)
    monkeypatch.setattr(verify, "_fraction_laws", counted)
    assert verify.cfrac_sweep(200) == 12231
    assert seen == list(verify.coprime_fractions(200))


@given(st.integers(2, 130), st.randoms(use_true_random=True))
def test_laws_hold_on_big_fractions(bits, rnd):
    """Reduced p/q with p of ``bits`` bits, p < 2^130, and q < p uniform."""
    p = rnd.randrange(2 ** (bits - 1), 2 ** bits)
    r = Fraction(p, rnd.randrange(1, p))
    # the even expansion has fewer entries than this sum
    if sum(positive_cf(r).entries) <= 4096:
        verify._fraction_laws(r)


def nth_call(fn, k, fault):
    """``fn`` with ``fault`` applied to the result of its k-th call only."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        out = fn(*args)
        return fault(out) if calls[0] == k else out
    return wrapped


def last_negated(entries):
    return entries[:-1] + (-entries[-1],)


# at 27/10 = [2, 1, 2, 3] = [2, 2, -2, 4] the laws call _value with the
# positive, long-form and even entries in that order, and _even_entries for
# the mirror law and then the tail law
FAULTS = {
    "positive round trip fails for 27/10":
        ("_value", 1, lambda pair: (pair[0] + 1, pair[1])),
    # equal as a Fraction, but not reduced
    "long form round trip fails for 27/10":
        ("_value", 2, lambda pair: (2 * pair[0], 2 * pair[1])),
    "even round trip fails for 27/10":
        ("_value", 3, lambda pair: (-pair[0], pair[1])),
    # the right value, as [2, 1, 2, 2, 1], with an odd length
    "parity law fails for 27/10":
        ("even_cf", 1, lambda ev: PositiveCF((2, 1, 2, 2, 1))),
    "mirror law fails for 27/10: even_cf(-r) is not the entrywise negation "
    "of even_cf(r)": ("_even_entries", 1, last_negated),
    "tail law fails for 27/10": ("_even_entries", 2, last_negated),
}


def test_laws_pass_without_a_fault():
    assert verify._fraction_laws(Fraction(27, 10)) is None


@pytest.mark.parametrize("message", FAULTS)
def test_each_law_can_fail(monkeypatch, message):
    name, k, fault = FAULTS[message]
    monkeypatch.setattr(verify, name, nth_call(getattr(verify, name), k, fault))
    with pytest.raises(CrossCheckMismatch) as info:
        verify._fraction_laws(Fraction(27, 10))
    assert str(info.value) == message


@pytest.mark.parametrize("extra", [lambda p: 1, lambda p: 1 << (p.s - 1)],
                         ids=["one unit", "overflow"])
@pytest.mark.parametrize("entries", [(2, 4), (-2, 2)])
def test_check_engines_compares_packed_results(monkeypatch, extra, entries):
    """One packed unit more, or a slot overflow, in the fpoly engine's result
    is a mismatch with the recursive engine, reported without a raise from
    the decode."""
    cf = EvenCF(entries)
    verify.check_engines(cf)
    real = verify.jones_via_f

    def faulty(cf):
        res = real(cf)
        p = res.packed
        return dataclasses.replace(
            res, packed=Packed(p.n + extra(p), p.h, p.s, p.bound))
    monkeypatch.setattr(verify, "jones_via_f", faulty)
    with pytest.raises(CrossCheckMismatch) as info:
        verify.check_engines(cf)
    assert info.value.engines == ("recursive", "fpoly")
    assert str(info.value).startswith(
        f"engines disagree on {list(entries)}: recursive: ")
    assert "; fpoly: " in str(info.value)


@pytest.mark.parametrize("entries", [(2, 4), (-2, 2)])
@pytest.mark.parametrize("fault", [lambda j, delta: (j + Fraction(1, 2), delta),
                                   lambda j, delta: (j, -delta)],
                         ids=["degree", "sign"])
def test_check_engines_checks_degree_and_sign(monkeypatch, entries, fault):
    """The closed-form degree and sign are checked against the engines'
    shared result on either sign of b_1: a degree one half unit off, or the
    other sign, is a mismatch."""
    real = verify.degree_and_sign
    monkeypatch.setattr(verify, "degree_and_sign", lambda cf: fault(*real(cf)))
    with pytest.raises(CrossCheckMismatch) as info:
        verify.check_engines(EvenCF(entries))
    assert info.value.engines == ("recursive", "degree_and_sign")
    assert str(info.value) == ("closed-form degree and sign disagree on "
                               f"{list(entries)}")


# one unit more: in the lowest slot of the packed recursion, and on the
# constant term of the specialized listing
ONE_MORE = {"f_recursive": lambda p: Packed(p.n + 1, p.h, p.s, p.bound),
            "specialize_y": lambda p: p + 1}


@pytest.mark.parametrize("name, message", [
    ("f_recursive", "two-term recursion disagrees on [2, 4]"),
    ("specialize_y", "matching enumeration disagrees on [2, 4]")])
def test_check_engines_checks_the_normalized_value(monkeypatch, name,
                                                   message):
    """The two-term recursion and the matching listing are each compared
    with the engines' normalized polynomial: one unit more is a mismatch."""
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name,
                        lambda *args: ONE_MORE[name](real(*args)))
    with pytest.raises(CrossCheckMismatch) as info:
        verify.check_engines(EvenCF((2, 4)))
    assert str(info.value) == message


def test_mismatch_names_first_difference_and_reproducer(monkeypatch, capsys):
    """A fault injected into the fpoly engine is reported with the highest
    exponent where the results differ, both coefficients there, and a CLI
    command that meets the same fault."""
    real = verify.jones_via_f

    def faulty(cf):
        # 2 in the slot of t^2, (4 - h)/2 slots above t^(h/2), turns -t^2
        # into +t^2, and the coefficients still sum to the bound 7, so both
        # sides decode
        res = real(cf)
        p = res.packed
        return dataclasses.replace(res, packed=Packed(
            p.n + (2 << p.s * ((4 - p.h) // 2)), p.h, p.s, p.bound))
    monkeypatch.setattr(verify, "jones_via_f", faulty)
    monkeypatch.setattr(cli, "jones_via_f", faulty)
    with pytest.raises(CrossCheckMismatch) as info:
        verify.check_engines(EvenCF((2, -4)))
    diff = "first difference at t^(2): recursive -1, fpoly 1"
    command = 'twobridge jones --even --engine all -- "[2,-4]"'
    assert str(info.value).endswith(f"; {diff}; reproduce with: {command}")
    assert cli.main(shlex.split(command)[1:]) == 3
    err = capsys.readouterr().err
    assert f"; {diff}; reproduce with: {command}\n" in err
