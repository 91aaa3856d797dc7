#!/usr/bin/env python3
"""Seeded in-process fuzz of the ``twobridge`` CLI on short argvs and on
long entry lists.

Each argv is ``[command, *option, "--", s]``: a command, at most one
option, and an input s of at most :data:`MAX_LEN` characters over
``0-9/-,[] +_``.  Half of the inputs are uniform strings over that
alphabet; the other half are shaped like a number, a fraction or an entry
list, with numbers of up to nine digits, so that large values are drawn
often.  A share :data:`LONG_SHARE` of the ``jones`` and ``fpoly`` inputs
is instead one entry of 1, 2 or 3 repeated 300 to 20,000 times
(:data:`LONG_COUNTS`), bare or in brackets: a long list of a few tiles per
entry, which stays far under the tile budget, and falls on both sides of
the work budget (1,128 ones, 732 twos, 577 threes).  ``verify``, which takes no
input and whose cost is set by ``--max-sum`` alone, always gets
``--max-sum`` from :data:`MAX_SUMS`, none of which starts a long sweep,
and half of the time an empty input.

Every argv runs through ``cli.main`` in this process, with its output
captured, under an alarm of :data:`ALARM` seconds, in a process whose
address space ``RLIMIT_AS`` caps at :data:`MEMORY_MB`.  The contract:

* the exit code is 0, 1 or 2 (3 is an engine disagreement);
* no exception escapes ``main``, a ``MemoryError`` under the cap included;
* on a nonzero exit, stderr starts with ``error``.

Standard library only; ``twobridge`` is imported from ``src/`` of the
checkout that holds this script.  Example:

    python3 scripts/fuzz_argv.py --count 20000 --seed 1

Exit status: 0 when every argv keeps the contract, 1 when one breaks it
(an alarm, an uncaught exception, another exit code or stderr), each such
argv printed on its own line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import signal
import sys
from collections import Counter
from pathlib import Path

ALPHABET = "0123456789/-,[] +_"
MAX_LEN = 9  # characters of an input
ALARM = 10.0  # seconds one argv may take
MEMORY_MB = 2048  # RLIMIT_AS of this process
COMMANDS = ("convert", "snake", "fpoly", "jones", "volume", "verify")
OPTIONS = ((), ("--even",), ("--positive",), ("--full",),
           *(("--engine", e) for e in ("recursive", "direct", "fpoly", "all")),
           *(("--format", f) for f in ("text", "json", "latex")))
# below 2, small, and above the sweep budget
MAX_SUMS = (-1, 0, 1, 2, 17, 10 ** 9)
LONG_SHARE = 0.05  # of the jones and fpoly argvs
# repeats of a long list's entry: answered ones near the work budget, and
# refused ones up to lists that ran for minutes before it
LONG_COUNTS = (300, 500, 1000, 2000, 8000, 20000)


class Stalled(Exception):
    pass


def _number(rng: random.Random) -> str:
    """A signed or unsigned int of 1 to 9 digits, most of them long."""
    digits = rng.randint(1, 9)
    return rng.choice(("", "-", "+")) + str(rng.randrange(10 ** digits))


def _input(rng: random.Random, max_len: int) -> str:
    """An input of at most ``max_len`` characters over :data:`ALPHABET`."""
    if rng.random() < 0.5:
        return "".join(rng.choice(ALPHABET)
                       for _ in range(rng.randint(0, max_len)))
    kind = rng.randrange(3)
    if kind == 0:
        s = _number(rng)
    elif kind == 1:
        s = f"{_number(rng)}/{_number(rng)}"
    else:
        s = ",".join(_number(rng) for _ in range(rng.randint(1, 4)))
        if rng.random() < 0.5:
            s = f"[{s}]"
    return s[:max_len]


def _long_list(rng: random.Random) -> str:
    """One entry of 1, 2 or 3, repeated one of :data:`LONG_COUNTS` times."""
    s = ",".join([str(rng.randint(1, 3))] * rng.choice(LONG_COUNTS))
    return f"[{s}]" if rng.random() < 0.5 else s


def argvs(seed: int, count: int, max_len: int = MAX_LEN):
    """``count`` argvs ``[command, *option, "--", s]``, the same for a seed;
    a share :data:`LONG_SHARE` of the ``jones`` and ``fpoly`` inputs are
    long entry lists, whatever ``max_len``."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(COMMANDS)
        if command == "verify":
            option = ("--max-sum", str(rng.choice(MAX_SUMS)))
            s = _input(rng, max_len) if rng.random() < 0.5 else ""
        else:
            option = rng.choice(OPTIONS)
            if (command in ("jones", "fpoly")
                    and rng.random() < LONG_SHARE):
                s = _long_list(rng)
            else:
                s = _input(rng, max_len)
        yield [command, *option, "--", s]


def _stall(signum, frame):
    raise Stalled


def check(argv, alarm: float = ALARM):
    """``(exit code, breach)`` of one argv; the breach is None when the argv
    keeps the contract, else a line that names what went wrong."""
    from twobridge import cli

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stall)
    signal.setitimer(signal.ITIMER_REAL, alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Stalled:
        return None, f"alarm after {alarm:g} s"
    except (Exception, SystemExit) as exc:  # MemoryError included
        return None, f"uncaught {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code not in (0, 1, 2):
        return code, f"exit {code}: {err.getvalue().strip()[:200]}"
    if code and not err.getvalue().startswith("error"):
        return code, f"exit {code} with stderr {err.getvalue()[:200]!r}"
    return code, None


def cap_memory(megabytes: int):
    """Cap this process's address space at ``megabytes``, never above the
    hard limit already in place."""
    import resource

    want = megabytes << 20
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        want = min(want, hard)
    if soft == resource.RLIM_INFINITY or want < soft:
        resource.setrlimit(resource.RLIMIT_AS, (want, hard))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cap_memory(MEMORY_MB)
    codes, breaches, long_lists = Counter(), 0, 0
    for one in argvs(args.seed, args.count):
        code, breach = check(one)
        codes[code] += 1
        long_lists += len(one[-1]) > MAX_LEN
        if breach:
            breaches += 1
            s = one[-1]  # a long list is shown by its head and length
            cut = f" (input of {len(s)} characters)" if len(s) > 60 else ""
            print(f"{breach}: {[*one[:-1], s[:60]]!r}{cut}", flush=True)
    print(f"{args.count} argvs, seed {args.seed}, inputs of up to "
          f"{MAX_LEN} characters and {long_lists} long entry lists: "
          f"{breaches} broke the contract; "
          f"exit codes {dict(sorted(codes.items(), key=str))}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
