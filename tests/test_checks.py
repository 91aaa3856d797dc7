"""The two checks that every ``jones`` and ``fpoly`` request runs on its
result: the classical laws at roots of unity, read from four remainders of
the packed integer, and the Kauffman-bracket fingerprint modulo
2^61 - 2373.

The laws' four values must equal the digit-bucket values that
``tests/test_invariants.py`` reads from each digit run, and the bracket
must hold on every engine's result and fail on results off by a unit or a
monomial, as Kauffman's unscaled state model in ``tests/reference.py``
does.  A fault injected into an engine must make the request exit 3,
with the failed check named on stderr.
"""

import random
import signal
import tracemalloc
from fractions import Fraction
from itertools import groupby

import pytest

import twobridge.cli as cli
import twobridge.jones as jones
from twobridge.cfrac import EvenCF, even_cf_for_link, positive_cf
from twobridge.cli import ENGINES, _jones_engine
from twobridge.jones import JonesResult
from twobridge.laurent import Packed
from twobridge.verify import (BRACKET_PRIME, _remainder, bracket_holds,
                              law_failures, root_values)

from test_invariants import DRAWS, buckets, mod_phi12, results, z_poly
from test_cli import signed_fractions
from test_one_value import _answer
from reference import state_model_holds, twist


def is_prime(n):
    """Miller-Rabin with the first 13 primes as bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_the_prime_is_safe_and_2_generates():
    ell = BRACKET_PRIME
    assert ell == 2 ** 61 - 2373 and is_prime(ell) and is_prime(ell // 2)
    # the order of 2 divides ell - 1 = 2 (ell // 2), and is neither 2 nor
    # ell // 2; modulo 2^61 - 1 it is 61
    assert pow(2, 2, ell) != 1 and pow(2, ell // 2, ell) != 1
    assert pow(2, 61, 2 ** 61 - 1) == 1


def mod_phi(coeffs, m):
    """A polynomial in z of degree below m reduced by z^(m/2) = -1, for m a
    power of 2."""
    return [coeffs[k] - coeffs[k + m // 2] for k in range(m // 2)]


def test_root_values_are_the_bucket_values():
    checked = 0
    for rs in DRAWS.values():
        for r in rs:
            for res in results(r):
                run, h = res.run, res.packed.h
                one, minus, (a, b), (x, y) = root_values(res.packed)
                # V = z^h N(t) with z = t^(1/2): at t = 1, -1, i and w
                assert one == sum(run.digits)
                assert mod_phi(buckets(run, 4), 4) == mod_phi(
                    [minus if k == h % 4 else 0 for k in range(4)], 4)
                at_i = [0] * 8
                at_i[h % 8] += a
                at_i[(h + 2) % 8] += b
                assert mod_phi(buckets(run, 8), 8) == mod_phi(at_i, 8)
                assert mod_phi12(buckets(run, 12)) == mod_phi12(
                    z_poly({h % 12: x, (h + 2) % 12: y}))
                checked += 1
    assert checked == 3 * sum(map(len, DRAWS.values()))


def each_result(max_p=60):
    """Every engine's result on the reduced +-p/q with p <= max_p, with its
    determinant and oriented even expansion."""
    for r in signed_fractions(max_p):
        if abs(r) > 1:
            pos, ev = positive_cf(abs(r)), even_cf_for_link(r)
            for engine in ENGINES:
                yield _jones_engine(engine, r, pos, ev), r, ev


def test_laws_hold_and_catch_a_unit():
    for res, r, _ in each_result():
        p = abs(r.numerator)
        assert law_failures(res.packed, p) == [], (r, res.engine)
        wrong = Packed(res.packed.n + 1, res.packed.h, res.packed.s,
                       res.packed.bound)
        assert "V(1)" in law_failures(wrong, p), (r, res.engine)


def test_bracket_is_the_engine_value():
    checked = 0
    for res, r, ev in each_result():
        packed = res.packed
        assert bracket_holds(packed, ev.entries), (r, res.engine)
        # off by one unit, by the sign, by t^(1/2) or by t
        for wrong in (Packed(packed.n + 1, packed.h, packed.s, packed.bound),
                      packed.times(-1, 0), packed.times(1, 1),
                      packed.times(1, 2)):
            assert not bracket_holds(wrong, ev.entries), (r, res.engine)
        checked += 1
    assert checked == 3 * 2 * 1101  # reduced p/q > 1 with p <= 60, both signs


@pytest.mark.parametrize("bits", sorted(DRAWS))
def test_bracket_holds_on_random_results(bits):
    for r in DRAWS[bits]:
        ev = even_cf_for_link(r)
        for res in results(r):
            assert bracket_holds(res.packed, ev.entries), (r, res.engine)
            assert not bracket_holds(res.packed.times(1, 2), ev.entries)


def test_the_bracket_is_the_state_model():
    """The skein step gives the verdict of Kauffman's state model, with its
    writhe summed apart, on every engine result and on each faulted form of
    it: off by one unit, by the sign, by t^(1/2) or by t."""
    def cases():
        for res, _, ev in each_result():
            yield res.packed, ev.entries
        for rs in DRAWS.values():
            for r in rs:
                ev = even_cf_for_link(r)
                for res in results(r):
                    yield res.packed, ev.entries
    checked = 0
    for packed, entries in cases():
        for form in (packed, Packed(packed.n + 1, packed.h, packed.s,
                                    packed.bound),
                     packed.times(-1, 0), packed.times(1, 1),
                     packed.times(1, 2)):
            assert bracket_holds(form, entries) == state_model_holds(
                form, entries), entries
        checked += 1
    assert checked == 3 * (2 * 1101 + sum(map(len, DRAWS.values())))


@pytest.mark.parametrize("s", (8, 16, 32, 64, 72))
def test_the_scaled_state_step_is_the_skein_step(s):
    """(-A^3)^v times the state model's step matrix is
    [[0, t^v], [1, c (t^v - 1)]], c = t^(1/2) / (t + 1), for either sign of
    an even v, at A = 2^(s/4) modulo the prime."""
    ell = BRACKET_PRIME
    a = pow(2, s // 4, ell)
    ai = pow(a, -1, ell)
    t = pow(a, 4, ell)
    c = a * a * pow(t + 1, -1, ell) % ell
    for u in range(2, 251, 2):
        for v in (u, -u):
            tv = pow(t, v, ell)
            scale = pow(-a * a * a, v, ell)
            assert [scale * m % ell for m in twist(v, a, ai)] == [
                0, tv, 1, c * (tv - 1) % ell], (s, v)


def test_remainder_is_n_mod_m_for_any_modulus():
    """``_remainder(n, m, step)`` is n % m, and returns, for moduli of 2 to
    600 bits, also those much longer than ``step``: a fold is made only
    where it shortens n."""
    def hang(signum, frame):
        raise TimeoutError("_remainder did not return")
    rnd = random.Random(36)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        assert _remainder(3 ** 500, 2 ** 129 + 1) == 3 ** 500 % (2 ** 129 + 1)
        for bits in range(2, 601):
            m = rnd.getrandbits(bits - 1) | 1 << (bits - 1)
            for n in (3 ** 500, -7 ** 900, rnd.getrandbits(5000)):
                for step in (1, 8, 12 * 8, 12 * 32, 12 * 64):
                    assert _remainder(n, m, step) == n % m, (n, m, step)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_long_group_is_one_matrix_power():
    """A group of k equal signed entries, one matrix power on the bits of k,
    agrees with the engines on runs of 8, 9 and 10^4 entries, and on wide
    entries."""
    for entries in ((2, -2) * 4, (2, -2) * 4 + (2,), (-2, 2) * 5000,
                    (4, -4) * 6 + (6,), (-40, 6, -2, 30)):
        cf = EvenCF(entries)
        res = jones.jones_recursive(cf)
        assert bracket_holds(res.packed, entries), entries
        assert not bracket_holds(res.packed.times(1, 2), entries), entries


def test_the_groups_are_read_without_a_copy():
    """The groups of a run of 10^6 entries are counted as they are read: no
    list as long as the run is built."""
    small = jones.jones_recursive(EvenCF((2, -2))).packed
    entries = (2, -2) * 500_000
    tracemalloc.start()
    try:
        bracket_holds(small, entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def shifted(fn):
    """``fn`` with its result, packed or not, or its degree, moved by t."""
    def faulty(*args):
        got = fn(*args)
        if isinstance(got, JonesResult):  # mirror
            return JonesResult(got.packed.times(1, 2), got.engine)
        if isinstance(got, tuple):  # degree_and_sign
            return got[0] + 1, got[1]
        return got.times(1, 2)
    return faulty


# (engine, module, name, fault, value, failed checks): a result moved by a
# monomial keeps every law on a link; a start value off by 2 t^(1/2) does
# not.  Each fault runs under ``jones`` and under ``fpoly``, which prints
# the checked result over its leading term
ENGINE_FAULTS = [
    ("direct", jones, "specialized_f_positive", shifted, "10/3",
     "bracket check"),
    ("fpoly", jones, "degree_and_sign", shifted, "10/3", "bracket check"),
    ("direct", cli, "mirror", shifted, "-10/3", "bracket check"),
    ("fpoly", cli, "mirror", shifted, "-10/3", "bracket check"),
    ("recursive", jones, "_UNKNOTS",
     lambda unknots: (((-1, 1), (1, -1, 1)), unknots[1]), "10/3",
     "laws (V(1), |V(-1)|) and bracket checks"),
]


@pytest.mark.parametrize("engine, module, name, fault, value, failed",
                         ENGINE_FAULTS,
                         ids=[f"{f[0]}-{f[2]}" for f in ENGINE_FAULTS])
def test_an_engine_fault_exits_3_naming_the_check(monkeypatch, engine, module,
                                                  name, fault, value, failed):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    r = Fraction(value)
    for command in ("jones", "fpoly"):
        code, out, err = _answer([command, value, "--engine", engine])
        assert (code, out) == (3, ""), command
        assert err.startswith(f"cross-check mismatch [{command}]: engines "
                              f"disagree on {r}: recursive: ")
        # the reproducer repeats the failing check, which jones names
        assert err.endswith(f"; {failed} failed for {engine} on {r}; "
                            "reproduce with: twobridge jones --engine "
                            f"{engine} -- \"{r}\"\n")


def test_a_unit_fault_breaks_every_law(monkeypatch):
    """One more at the lowest coefficient of a knot moves every value that
    the laws read."""
    real = jones.specialized_f_positive

    def faulty(cf):
        p = real(cf)
        return Packed(p.n + 1, p.h, p.s, p.bound)
    monkeypatch.setattr(jones, "specialized_f_positive", faulty)
    code, _, err = _answer(["jones", "27/10"])
    assert code == 3
    assert ("; laws (V(1), |V(-1)|, V(i), |V(w)|) and bracket checks failed "
            "for direct on 27/10; ") in err


def test_a_fault_all_engines_share_fails_the_checks(monkeypatch):
    """The groups with the wrong parity move every engine alike on some
    links, such as 10/3, so ``--engine all`` agrees on a wrong answer; the
    bracket, which groups the signed entries itself, refuses it."""
    def runs(cf):
        values = list(cf.entries)
        values[0::2] = [-v for v in values[0::2]]
        return tuple((v, len(list(run))) for v, run in groupby(values))
    monkeypatch.setattr(EvenCF, "runs", property(runs))
    code, out, err = _answer(["jones", "10/3", "--engine", "all"])
    assert (code, out) == (3, "")
    assert err == ("cross-check mismatch [jones]: bracket check failed for "
                   "recursive, direct, fpoly on 10/3, on which all engines "
                   "agree; reproduce with: twobridge jones --engine all -- "
                   "\"10/3\"\n")
