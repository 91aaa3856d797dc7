"""The CLI's argv contract on short argvs from ``scripts/fuzz_argv.py``.

Every ``[command, *option, "--", s]`` with s of at most four characters over
``0-9/-,[] +_``, or for ``jones`` and ``fpoly`` a long list of one repeated
entry, exits 0, 1 or 2, lets no exception escape, and on a nonzero exit
writes a stderr that starts with ``error``.  The script runs the same check
on longer inputs.
"""

import importlib.util
from pathlib import Path

import pytest

import twobridge.cli as cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_argv.py"
spec = importlib.util.spec_from_file_location("fuzz_argv", SCRIPT)
fuzz = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fuzz)

ARGVS = list(fuzz.argvs(seed=21, count=600, max_len=4))


def test_short_argvs_keep_the_contract():
    codes = []
    breaches = []
    for argv in ARGVS:
        code, breach = fuzz.check(argv)
        codes.append(code)
        if breach:
            breaches.append(f"{breach}: {argv!r}")
    assert not breaches, "\n".join(breaches)
    # not vacuous: answers, usage errors and domain errors all occur
    assert {0, 1, 2} <= set(codes)


def test_draws_are_seeded_and_short():
    assert list(fuzz.argvs(21, 600, 4)) == ARGVS
    long_lists = 0
    for command, *option, dashes, s in ARGVS:
        assert command in cli.COMMANDS and dashes == "--"
        assert len(option) <= 2 and set(s) <= set(fuzz.ALPHABET)
        if len(s) > 4:  # one entry of 1, 2 or 3, repeated
            assert command in ("jones", "fpoly")
            entries = s.strip("[]").split(",")
            assert len(set(entries)) == 1 and entries[0] in "123"
            assert len(entries) in fuzz.LONG_COUNTS
            long_lists += 1
        if command == "verify":  # never a long sweep
            assert option[0] == "--max-sum"
            assert int(option[1]) in fuzz.MAX_SUMS
    assert {argv[0] for argv in ARGVS} == set(fuzz.COMMANDS) == set(
        cli.COMMANDS)
    assert long_lists  # the long-list path is drawn too


@pytest.mark.parametrize("fault, breach", [
    (lambda argv: 3, "exit 3"),
    (lambda argv: 2, "exit 2 with stderr ''"),
    (lambda argv: 1 // 0, "uncaught ZeroDivisionError"),
])
def test_check_flags_a_breach(monkeypatch, fault, breach):
    monkeypatch.setattr(cli, "main", fault)
    code, found = fuzz.check(["jones", "--", "3"])
    assert found.startswith(breach)


def test_check_flags_a_stall(monkeypatch):
    def stall(argv):
        while True:
            pass
    monkeypatch.setattr(cli, "main", stall)
    assert fuzz.check(["jones", "--", "3"], alarm=0.05) == (
        None, "alarm after 0.05 s")


def test_check_lets_an_interrupt_through(monkeypatch):
    def interrupt(argv):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "main", interrupt)
    with pytest.raises(KeyboardInterrupt):
        fuzz.check(["jones", "--", "3"])
