#!/usr/bin/env python3
"""A catalogue of one-edit faults (mutants) of ``src/twobridge``, and the
count of wrong ``jones`` and ``fpoly`` answers that each one gets past the
checks.

Each mutant is a (file, old text, new text) edit of a copy of the package;
the old text, its anchor, must occur exactly once in its file.  Every input
runs through ``cli.main`` in one process per mutant, as
``jones -- <value>`` (the default engine), as
``jones --engine all -- <value>`` and as ``fpoly -- <value>``.  An answer
is *caught* when the request exits nonzero, and *silent* when it exits 0
with output unlike that of the unmutated package.  The *verify* column
says whether ``verify.run_verify(12, 200)``, the sweeps of ``twobridge
verify``, raises in the mutated copy; it is for information and does not
change the exit status.  The inputs are every reduced p/q with
3 <= p <= 60 in both signs (2,200), and 40 seeded random +-p/q below each
of 2^16, 2^24, 2^40, 2^64 and 2^96: 2,400 in all.

Standard library only; the package is copied from ``src/`` of the checkout
that holds this script.  Example:

    python3 scripts/mutants.py

Exit status: 0 when every anchor occurs once and no mutant gives a silent
answer, under the default engine, under ``--engine all`` or from
``fpoly``; 1 otherwise (a missing or repeated anchor stops the run before
any mutant runs); 2 when a run fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import gcd
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"
TIMEOUT = 900  # seconds for the 7,200 requests of one mutant

MUTANTS = (
    ("jones.py", "_q(2, b1 - 1)", "_q(1, b1 - 1)"),
    ("jones.py", "if cf.n % 2 == 0:", "if cf.n % 2 == 1:"),
    ("jones.py", "(-1) ** (cf.m - pairs)", "(-1) ** (cf.m - pairs + 1)"),
    ("laurent.py", "r, m = (r << s) + n, m + 1", "r, m = (r << s) - n, m + 1"),
    ("laurent.py", "ck = cb if k & 1 else 1", "ck = cb"),
    ("cfrac.py", "_even_entries(-p, abs(p) - q) if p & q & 1",
     "_even_entries(p, abs(p) - q) if p & q & 1"),
    ("cfrac.py", "types[1::2] = [-t for t in types[1::2]]",
     "types[0::2] = [-t for t in types[0::2]]"),
    ("jones.py", "_UNKNOTS = (((-1, 1), (-1, -1, 1))",
     "_UNKNOTS = (((-1, 1), (1, -1, 1))"),
    ("jones.py", "Fraction(2 * (plus - pairs) - cf.m, 2)",
     "Fraction(2 * (plus - pairs) - cf.m + 2, 2)"),
    ("cfrac.py", "(n - (k - 1) * d) * (-b if k & 1 else b) // 2",
     "(n - (k - 1) * d) * (b if k & 1 else -b) // 2"),
    ("jones.py", "pairs += k - 1 + (last > 0)", "pairs += k - 1"),
    ("cfrac.py", "den + j * (x * num - 2 * den)",
     "den - j * (x * num - 2 * den)"),
    ("cfrac.py", "values[1::2] = map(neg, values[1::2])",
     "values[0::2] = map(neg, values[0::2])"),
)

# jones with the default engine, then with all three, then fpoly
MODES = (("jones",), ("jones", "--engine", "all"), ("fpoly",))


def inputs():
    """The 2,400 signed values, as the CLI reads them."""
    out = [s * Fraction(p, q) for p in range(3, 61) for q in range(1, p)
           if gcd(p, q) == 1 for s in (1, -1)]
    for bits in (16, 24, 40, 64, 96):
        rnd, drawn = random.Random(bits), 0
        while drawn < 40:
            p = rnd.randrange(3, 2 ** bits)
            q = rnd.randrange(1, p)
            if gcd(p, q) == 1:
                out.append(rnd.choice((1, -1)) * Fraction(p, q))
                drawn += 1
    return out


def worker(root):
    """Print, for each input and mode, the exit code and a digest of stdout
    of the package under ``root``, an exception escaping ``main`` read as
    exit code -1; then whether ``run_verify(12, 200)`` raises."""
    sys.path.insert(0, root)
    from twobridge.cli import main
    from twobridge.verify import run_verify
    answers = []
    for r in inputs():
        for mode in MODES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main([*mode, "--", str(r)])
                except Exception:  # a crash is a loud answer
                    code = -1
            answers.append((code, hashlib.sha256(
                out.getvalue().encode()).hexdigest()[:16]))
    try:
        run_verify(12, 200)
        raised = False
    except Exception:
        raised = True
    print(json.dumps([answers, raised]))


def answers(edit=None):
    """The worker's answers on a copy of the package with ``edit`` made,
    and whether its sweeps raise."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "twobridge"
        shutil.copytree(PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            path = copy / edit[0]
            path.write_text(path.read_text().replace(edit[1], edit[2]))
        done = subprocess.run([sys.executable, __file__, "--worker", tmp],
                              capture_output=True, text=True, timeout=TIMEOUT,
                              env=dict(os.environ,
                                       PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode:
        raise RuntimeError(done.stderr.strip().splitlines()[-1:])
    return json.loads(done.stdout)


def main() -> int:
    missing = [m for m in MUTANTS
               if (PACKAGE / m[0]).read_text().count(m[1]) != 1]
    for file, old, _ in missing:
        print(f"anchor not found exactly once in {file}: {old}")
    if missing:
        return 1
    try:
        right, raised = answers()
        if raised or any(code for code, _ in right):
            print("the unmutated package refuses an input or fails verify")
            return 2
        width = max(len(f"{file}: {new}") for file, _, new in MUTANTS)
        print(f"{'mutant':{width}}  default: caught silent   all: caught "
              "silent   fpoly: caught silent  verify")
        silent = [0] * len(MODES)
        raising = 0
        for edit in MUTANTS:
            got, raised = answers(edit)
            raising += raised
            counts = []
            for mode in range(len(MODES)):
                pairs = list(zip(got, right))[mode::len(MODES)]
                counts += [sum(1 for (code, _), _ in pairs if code),
                           sum(1 for (code, out), (_, want) in pairs
                               if not code and out != want)]
            silent = [total + n for total, n in zip(silent, counts[1::2])]
            print(f"{edit[0] + ': ' + edit[2]:{width}}  {counts[0]:>15,} "
                  f"{counts[1]:>6,}  {counts[2]:>11,} {counts[3]:>6,}  "
                  f"{counts[4]:>13,} {counts[5]:>6,}  "
                  f"{'raises' if raised else 'passes'}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"a run failed: {exc}")
        return 2
    print(f"{len(MUTANTS)} mutants on {len(right) // len(MODES):,} inputs; "
          f"{silent[0]} silent answers under the default engine, {silent[1]} "
          f"under --engine all, {silent[2]} from fpoly; verify raises for "
          f"{raising}")
    return 1 if any(silent) else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2])
    else:
        sys.exit(main())
