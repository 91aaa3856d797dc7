"""A request is its signed value: every spelling of one link prints the same.

A fraction, its Euclid list, the long form of that list and its even list
name one 2-bridge link (the snake graphs of the even and of the positive
continued fraction of one value are isomorphic; Lee and Schiffler,
arXiv:1710.08063).  So ``cli.parse_input`` keeps only the value, a
mismatch report names it, and the work estimate counts Euclid's quotients:
the tests below pin all three.
"""

import contextlib
import io
import random
import shlex
from fractions import Fraction
from math import gcd

import pytest

import twobridge.cfrac as cfrac
import twobridge.cli as cli
import twobridge.jones as jones
from twobridge.cfrac import even_cf, even_cf_for_link, positive_cf
from twobridge.verify import coprime_fractions

from test_cli import fault_direct

COMMANDS = (["convert"], ["snake"], ["fpoly"], ["fpoly", "--full"],
            ["jones"], ["volume"])


def _listed(entries):
    return "[" + ",".join(map(str, entries)) + "]"


def spellings(r):
    """Every way to type the signed value r: the fraction; for r > 0 its
    Euclid list and that list's long form; and its even list when p*q is
    even, which for r < 0 is the negated even list of |r|."""
    p, q = abs(r.numerator), r.denominator
    out = [["--", f"{r.numerator}/{q}"]]
    if r > 0:
        pos = positive_cf(r)
        out += [["--positive", "--", _listed(cf.entries)]
                for cf in (pos, pos.long_form())]
    if p * q % 2 == 0:
        entries = even_cf(abs(r)).entries
        out.append(["--even", "--", _listed(e if r > 0 else -e
                                            for e in entries)])
    return out


def _answer(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_spelling_of_a_value_prints_the_same():
    values = [s * r for r in coprime_fractions(20) for s in (1, -1)]
    groups = differ = 0
    first = []
    for r in values:
        for command in COMMANDS:
            groups += 1
            answers = {inp[-1]: _answer([*command, *inp])
                       for inp in spellings(r)}
            if len(set(answers.values())) > 1:
                differ += 1
                first = first or [command, answers]
    assert groups == 1524
    assert differ == 0, first


def test_volume_reads_a_long_form_as_its_euclid_list():
    # [3,3,2,1] has an entry below 3, but its value's quotients do not
    want = _answer(["volume", "--", "[3,3,3]"])
    assert want[0] == 0
    assert _answer(["volume", "--", "[3,3,2,1]"]) == want


def test_a_long_even_list_is_counted_as_its_value():
    # [2,-2]*4500 is 9001/9000, of two Euclid quotients [1, 9000]: the work
    # estimate counts those, not the 9,000 even entries
    even = _answer(["jones", "--even", "--", ",".join(["2,-2"] * 4500)])
    assert even[0] == 0
    assert even == _answer(["jones", "9001/9000"])


@pytest.mark.parametrize("spellings", [
    [["27/10"], ["[2,1,2,3]"], ["2,1,2,3"], ["--positive", "[2,1,2,2,1]"],
     ["--even", "[2,2,-2,4]"]],
    [["--", "-27/10"], ["--even", "--", "[-2,-2,2,-4]"]]])
def test_a_mismatch_report_is_the_same_for_every_spelling(monkeypatch,
                                                          spellings):
    """A mismatch report names the value, and its reproducer meets the
    same fault with the same report."""
    fault_direct(monkeypatch, lambda p: 1)
    answers = {_answer(["jones", *argv]) for argv in spellings}
    assert len(answers) == 1, answers
    ((code, out, err),) = answers
    assert (code, out) == (3, "")
    command = err.rstrip("\n").rpartition("reproduce with: ")[2]
    assert _answer(shlex.split(command)[1:]) == (3, "", err)


@pytest.mark.parametrize("value", ["27/10", "-27/10", "7/3", "-7/3"])
@pytest.mark.parametrize("command, engine", [
    *(("jones", engine) for engine in ("direct", "recursive", "fpoly", "all")),
    ("fpoly", "direct")])
def test_a_request_expands_its_value_once(monkeypatch, command, engine,
                                          value):
    """The CLI orients a request once, for p*q even and for p and q both
    odd, and every engine places its result by that expansion."""
    calls = []
    real = cfrac._even_entries

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)
    monkeypatch.setattr(cfrac, "_even_entries", counted)
    cli.run(cli.Request(command, value, engine=engine))
    assert len(calls) == 1, calls


@pytest.mark.parametrize("command", ["convert", "fpoly", "jones"])
def test_minus_one_is_refused_as_one_is(command):
    assert _answer([command, "--", "-1"]) == (
        2, "", f"error [{command}]: need |r| > 1, got -1\n")


def _kernel_values():
    """The signed p/q with p <= 60, and seeded random 96-bit ones."""
    values = [s * r for r in coprime_fractions(60) for s in (1, -1)]
    rng = random.Random(96)
    while len(values) < 2400:
        p = rng.getrandbits(96) | 1 << 95
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            values.append(Fraction(rng.choice((1, -1)) * p, q))
    return values


def test_kernel_steps_within_the_euclid_count(monkeypatch):
    """The work estimate counts n, the Euclid quotients of |value|: each
    engine, as ``jones`` runs it, makes one kernel call of at most n steps,
    and ``fpoly`` of n + 1 (the partner's list), after ``recursive``'s two
    unknot start steps."""
    calls = []
    real = jones.continuant_packed

    def spy(steps, bound):
        calls.append(list(steps))
        return real(calls[-1], bound)
    monkeypatch.setattr(jones, "continuant_packed", spy)
    over = {"recursive": 0, "direct": 0, "fpoly": 1}
    for r in _kernel_values():
        pos = positive_cf(abs(r))
        even = even_cf_for_link(r)
        for engine, extra in over.items():
            calls.clear()
            cli._jones_engine(engine, r, pos, even)
            (steps,) = calls
            if engine == "recursive":
                assert tuple(steps[:2]) == jones._UNKNOTS
                steps = steps[2:]
            assert len(steps) <= pos.n + extra, (engine, r)
