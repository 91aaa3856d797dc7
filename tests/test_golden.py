"""Golden CLI outputs: exit code and standard output of fixed commands.

The expected outputs in ``golden_cli.json`` were recorded before the engines
moved onto the shared continuant kernel, and the ``snake``, ``volume``,
``verify`` and negative-input cases before the sign and type sequences became
plain tuples, and the three ``JSON_CASES`` before the slot decode and the
JSON emitter moved to C, and the ``fpoly --full`` cases of negative and
alternating even continued fractions before snake graphs were stored as their
sign words; every refactoring must leave them byte-identical.
The cases cover ``jones`` in every format with every engine
on fractions (knots, links, both-odd values), positive and even continued
fractions (including negative even ones, which take the mirror paths), long
and wide inputs, plus ``fpoly``, ``convert``, ``snake``, ``volume``, a small
``verify`` sweep and a few failing commands.  Negative inputs go through
every command.  A negative even continued fraction is a mirror image
everywhere; a negative fraction such as -27/10 is refused by ``snake``,
``fpoly`` and ``convert``, read by ``volume`` as its absolute value, and by
``jones`` as the mirror image of its absolute value (the ``NEGATIVE_JONES``
records were added after the others, with no other record changed).  The
four ``convert 7/3`` and ``convert 3/1`` records were re-recorded when
``convert`` took the oriented even expansion that ``jones`` reads, which for
p and q both odd negates the expansion of the partner p/(p - q).

Regenerate the file (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from twobridge.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

JONES_INPUTS = (
    ["27/10"],                    # knot, p*q even
    ["7/3"],                      # knot, p and q odd: partner fraction
    ["10/3"],                     # two-component link
    ["[2,1,2,3]"],                # positive cf
    ["[3,1,1]"],                  # positive cf in its long form
    ["[2,2,-2,4]"],               # even cf, positive value
    ["[-2,2]"],                   # even cf, negative value (mirror path)
    ["[-4,2,-2]"],                # negative even cf of a link
    ["[2]"],                      # ambiguous, read as positive
    ["[2]", "--even"],            # Hopf link from its even cf
    ["[2,4]", "--even"],
    ["[1,2,3,1,1,4,2,1,1,1,5,2,3,1,2,2,1,3,1,1,2,6]"],  # long positive cf
    ["[" + ",".join(["3"] * 30) + "]"],
    ["[150]"],                    # wide entries: long q-integers
    ["[97,58]"],
    ["[41,120,3]"],
    ["[-40,6,-2,30]"],            # wide negative even cf
    ["[38,-24,2]"],
)
# negative fractions: the mirror images of 27/10 (p*q even) and of 7/3
# (p and q odd), all three engines cross-checked
NEGATIVE_JONES = (["-27/10"], ["-7/3"])
ENGINES = ("all", "recursive", "direct", "fpoly")
FORMATS = ("text", "json", "latex")

FPOLY_INPUTS = (
    ["27/10"], ["7/3"], ["10/3"], ["[2,1,2,3]"], ["[2,2,-2,4]"], ["[-2,2]"],
    ["[-4,2,-2]"], ["[2,4]", "--even"], ["[97,58]"], ["[-40,6,-2,30]"],
    ["-27/10"],
)
# the minimal matching starts on the first tile's west edge for [2,-2],
# [-2,2] and [2,-2,2], and on its south edge with first sign -1 for
# [-4,2,-2] and [-6,4]
FULL_INPUTS = (["[3]"], ["[2,-2]"], ["27/10"], ["[2,4]", "--even"],
               ["[-2,2]"], ["[-4,2,-2]"], ["[-6,4]"], ["[2,-2,2]"])
CONVERT_INPUTS = (
    ["27/10"], ["7/3"], ["3/1"], ["10/3"], ["[2,1,2,3]"], ["[3,1,1]"],
    ["[2,2,-2,4]"], ["[-2,2]"], ["[2,4]", "--even"], ["[-40,6,-2,30]"],
    ["-27/10"],
)
SNAKE_INPUTS = (
    ["27/10"], ["7/3"], ["10/3"], ["1"], ["[2]"], ["[2,1,2,3]"], ["[3,1,1]"],
    ["[2,2,-2,4]"], ["[-4,2,-2]"], ["[2,4]", "--even"], ["[97,58]"],
    ["-27/10"], ["[-2,2]"], ["[-40,6,-2,30]"],
)
VOLUME_INPUTS = (
    ["10/3"], ["[3,3,3]"], ["[3,4,5,3]"], ["[9,8,7,6,5]"], ["27/10"],
    ["-27/10"], ["[-2,2]"], ["[-40,6,-2,30]"],
)
FAILING = (
    ["jones", "1/2"],
    ["jones", "1/2", "--engine", "direct"],
    ["jones", "[2,x]"],
    ["jones", "[2,3,-2]"],
    ["fpoly", "1/2"],
    ["convert", "27/10", "--format", "latex"],
)
# JSON reports whose numbers take distinct paths: a jones result decoded
# from 32-bit slots, one decoded from slots wider than 64 bits, and floats
JSON_CASES = (
    ["jones", "[237,45,120,201]", "--positive", "--format", "json"],
    ["jones", "[" + ",".join(["3"] * 60) + "]", "--positive", "--format",
     "json"],
    ["volume", "[3,4,5]", "--format", "json"],
)


def _argv(command, inp, fmt):
    """CLI argv; a leading minus sign would read as an option, so such an
    input goes after ``--`` with the options first."""
    if inp[0].startswith("-"):
        return ["--format", fmt, command, "--", *inp]
    return [command, *inp, "--format", fmt]


def cases():
    out = []
    for inp in JONES_INPUTS:
        for engine in ENGINES:
            for fmt in FORMATS:
                out.append(["jones", *inp, "--engine", engine, "--format", fmt])
    for inp in NEGATIVE_JONES:
        for fmt in FORMATS:
            out.append(_argv("jones", inp, fmt))
    for inp in FPOLY_INPUTS:
        for fmt in FORMATS:
            out.append(_argv("fpoly", inp, fmt))
    for inp in FULL_INPUTS:
        for fmt in ("text", "json"):
            out.append(["fpoly", *inp, "--full", "--format", fmt])
    for inp in CONVERT_INPUTS:
        for fmt in ("text", "json"):
            out.append(_argv("convert", inp, fmt))
    for command, inputs in (("snake", SNAKE_INPUTS), ("volume", VOLUME_INPUTS)):
        for inp in inputs:
            for fmt in ("text", "json"):
                out.append(_argv(command, inp, fmt))
    for fmt in ("text", "json"):
        out.append(["verify", "--max-sum", "4", "--format", fmt])
    out.extend(FAILING)
    out.extend(JSON_CASES)
    return out


def run_cli(argv):
    """(exit code, standard output) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_unchanged(golden, argv):
    want = golden[tuple(argv)]
    code, out = run_cli(argv)
    assert code == want["exit"]
    assert out == want["stdout"]


if __name__ == "__main__":
    records = []
    for argv in cases():
        code, out = run_cli(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}")
