"""Command-line front end.

Commands:

* ``convert``  - positive and even expansions, sign/type data, knot or link;
* ``snake``    - ASCII snake graph, tile count, matching count;
* ``fpoly``    - specialized (default) or full matching generating function;
* ``jones``    - Jones polynomial from a chosen engine, or all of them;
* ``verify``   - exhaustive cross-check sweeps up to a bound;
* ``volume``   - hyperbolic volume bounds.

Input is a fraction ``p/q``, a bracketed list ``[c1,c2,...]``, or a bare
comma list, of which the parser keeps only the signed value, so every
spelling of one value prints the same, a mismatch report included; a
negative one is a mirror image.  ``--even`` and ``--positive`` only refuse
an entry list that is not of their kind.

Exit codes: 0 success, 1 usage or parse error, 2 domain error, 3 engine
cross-check mismatch, 141 (128 + SIGPIPE) when the reader of the output has
gone.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import verify as verify_mod
from .cfrac import (EvenCF, PositiveCF, Rat, eval_cf, even_cf_for_link,
                    positive_cf, sign_sequence, type_sequence)
from .errors import (BudgetExceeded, CrossCheckMismatch, OutOfRange,
                     ParseError, TwoBridgeError)
from .jones import (JonesResult, boundary_coefficients, cross_check,
                    jones_direct, jones_recursive, jones_via_f, mirror,
                    specialized_f_even, specialized_f_positive,
                    volume_bounds)
from .laurent import _exp_str, _interleave, latex_from_text, text_from_terms
from .snake import (MAX_SUM_BUDGET, check_budget, check_tiles, check_work,
                    count_matchings, f_polynomial, height_subsets,
                    render_ascii, snake_from_positive)

COMMANDS = ("convert", "snake", "fpoly", "jones", "verify", "volume")


@dataclass(frozen=True)
class Request:
    command: str
    input: str
    engine: str = "all"
    hint: str = None
    max_sum: int = 10
    full: bool = False


def parse_input(s: str, hint: str = None) -> Rat:
    """The signed value of ``p/q``, ``[c1,...]`` or ``c1,...``.

    An entry list must be all even and nonzero or all >= 1, or of the kind
    ``hint`` ("even" or "positive") names.  Both kinds read as
    c1 + 1/(c2 + ...), so a list valid as both has one value.
    """
    s = s.strip()
    if not s:
        raise ParseError("empty input", 0)
    if "/" in s:
        try:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        except ValueError as exc:
            raise ParseError(f"bad fraction {s!r}: {exc}", 0) from None
        except ZeroDivisionError:
            raise ParseError(f"bad fraction {s!r}: zero denominator",
                             0) from None
    body = s
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("unbalanced brackets", len(s) - 1)
        body = s[1:-1]
    elif "," not in s:
        try:
            return Fraction(int(s))
        except ValueError:
            raise ParseError(f"not a number or entry list: {s!r}", 0) from None
    offset = 1 if s.startswith("[") else 0
    if not body.strip():
        raise ParseError("empty entry list", offset)
    entries = []
    pos = 0
    for chunk in body.split(","):
        try:
            entries.append(int(chunk.strip()))
        except ValueError:
            raise ParseError(f"bad entry {chunk.strip()!r}",
                             offset + pos) from None
        pos += len(chunk) + 1
    can_even = all(e and e % 2 == 0 for e in entries)
    can_pos = all(e >= 1 for e in entries)
    if hint == "even" and not can_even:
        raise ParseError(f"{entries} is not an even continued fraction", offset)
    if hint == "positive" and not can_pos:
        raise ParseError(f"{entries} is not a positive continued fraction",
                         offset)
    if not (can_even or can_pos):
        raise ParseError(f"{entries} is neither a positive nor an even "
                         "continued fraction", offset)
    return eval_cf(entries)


@contextmanager
def _all_digits():
    """Lift Python's limit on the digits of an int turned into text (4,300
    by default) for the block: a result can have more, while argv is parsed
    under the limit.  Pythons before 3.10.7 have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class _Terms(tuple):
    """(exponent, coefficient) pairs with the ``exps`` and ``coeffs`` they
    were zipped from: :func:`_exp_str` strings and exact ints, which
    :func:`_json` writes with one format and no checks."""

    def __new__(cls, exps, coeffs):
        self = super().__new__(cls, zip(exps, coeffs))
        self.exps, self.coeffs = exps, coeffs
        return self


class _Plain(str):
    """A polynomial's text or LaTeX: nothing in it needs a JSON escape."""


def _poly_payload(exps, coeffs):
    """(coefficient pairs, text) of a polynomial from its exponent strings
    and coefficients, highest exponent first."""
    with _all_digits():
        return _Terms(exps, coeffs), _Plain(text_from_terms(exps, coeffs))


def _rat_payload(r: Rat):
    return {"num": r.numerator, "den": r.denominator}


def _jones_engine(engine: str, r: Rat, pos: PositiveCF,
                  even: EvenCF) -> JonesResult:
    """One engine, given the value r, Euclid's quotients of |r| and the
    oriented even cf of r.  A negative value is the mirror of |r|: the
    closed-form engines run on |r| and mirror their result, while the
    recursion runs on the negated entries, as a check of that rule."""
    if engine == "recursive":
        return jones_recursive(even)
    if engine == "fpoly":
        res = jones_via_f(even if r > 0 else even.mirrored())
    elif engine == "direct":
        res = jones_direct(pos)
    else:
        raise ParseError(f"unknown engine {engine!r}")
    return res if r > 0 else mirror(res)


def run(req: Request) -> dict:
    """Execute a request; returns a report dict ready for :func:`emit`."""
    if req.command == "verify":
        if req.max_sum < 1:
            raise OutOfRange(f"--max-sum must be at least 1, got {req.max_sum}")
        if req.max_sum > MAX_SUM_BUDGET:
            raise BudgetExceeded(f"--max-sum {req.max_sum} is beyond budget "
                                 f"{MAX_SUM_BUDGET}")
        counts = verify_mod.run_verify(max_sum=req.max_sum,
                                       max_p=max(4 * req.max_sum, 20))
        return {"command": "verify", "max_sum": req.max_sum,
                "checks": counts, "failures": 0}

    # the request is the signed value, however it was spelled: Euclid's
    # quotients of |value| and the oriented even expansion derive from it
    r = parse_input(req.input, req.hint)
    if abs(r) < 1:  # only a fraction can be; the message keeps its sign
        raise OutOfRange(f"need a rational >= 1, got {r}")
    pos = positive_cf(abs(r))
    if req.command != "volume":  # whose work does not grow with the tiles
        check_tiles(pos.d)
    if req.command == "jones" or (req.command == "fpoly" and not req.full):
        # every engine steps at most once per Euclid quotient, fpoly once
        # more, whatever spelling was given
        check_work(pos.n, pos.d, r.numerator)
    report = {"command": req.command, "input": req.input}

    if req.command == "convert":
        report["value"] = _rat_payload(r)
        report["positive_cf"] = list(pos.entries)
        ev = even_cf_for_link(r)
        ev_value = ev.value()
        report["even_cf"] = list(ev.entries)
        report["even_cf_value"] = _rat_payload(ev_value)
        report["substituted"] = ev_value != r
        report["sign_sequence"] = list(sign_sequence(ev))
        report["type_sequence"] = list(type_sequence(ev))
        report["classification"] = ("knot" if r.numerator % 2 else
                                    "2-component link")
        return report

    if req.command == "snake":
        g = snake_from_positive(pos)
        report["value"] = _rat_payload(abs(r))
        report["tile_count"] = g.d
        report["step_word"] = g.step_word()
        report["matching_count"] = count_matchings(g)
        report["ascii"] = render_ascii(g)
        return report

    if req.command == "fpoly":
        if req.full:
            # the listing is p heights of d tiles, known before the graph is;
            # its refusal prints p, which can be long
            with _all_digits():
                check_budget(abs(r.numerator), pos.d)
            subsets = height_subsets(f_polynomial(snake_from_positive(pos)))
            report["full"] = True
            report["terms"] = [[tiles, 1] for tiles in subsets]
            # every coefficient is 1: y1*y3 for [1, 3], 1 for no tiles
            report["text"] = " + ".join(["y" + "*y".join(map(str, tiles))
                                         if tiles else "1"
                                         for tiles in subsets])
            return report
        F = (specialized_f_positive(pos) if r > 0
             else specialized_f_even(even_cf_for_link(r)))
        report["full"] = False
        report["coefficients"], text = _poly_payload(
            *F.read().exps_and_coeffs())
        report["text"] = text
        report["latex"] = _Plain(latex_from_text(text))
        return report

    if req.command == "jones":
        engines = ((["recursive", "direct", "fpoly"]) if req.engine == "all"
                   else [req.engine])
        ev = even_cf_for_link(r)
        res = cross_check([_jones_engine(name, r, pos, ev)
                           for name in engines], r)
        report["value"] = _rat_payload(abs(r))
        report["positive_cf"] = list(pos.entries)
        report["even_cf"] = list(ev.entries)
        report["degree"] = _exp_str(int(2 * res.degree))
        report["leading_sign"] = res.leading_sign
        report["width"] = _exp_str(res.run.width())
        report["coefficients"], text = _poly_payload(
            *res.run.exps_and_coeffs())
        report["engine"] = req.engine
        report["checks"] = {name: "ok" for name in engines}
        report["text"] = text
        report["latex"] = _Plain(latex_from_text(text))
        return report

    if req.command == "volume":
        # the volume is mirror invariant, so a negative value reads as |value|
        lower, upper = volume_bounds(pos)
        report["positive_cf"] = list(pos.entries)
        report["lower"] = lower
        report["upper"] = upper
        report["boundary_coefficients"] = list(boundary_coefficients(pos))
        return report

    raise ParseError(f"unknown command {req.command!r}")


def _json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2)`` without its pure-Python encoder.

    With ``indent`` set, the standard library encodes in Python; here strings
    go through its C string encoder and ints through ``int.__repr__``, and
    every other scalar through ``json.dumps`` itself.  A list of exact ints
    takes one join, :class:`_Terms` one format, and :class:`_Plain` quotes
    alone.  Dict keys must be strings, as in every report; others raise
    ``TypeError``.  ``indent`` is the prefix of the lines that hold ``obj``.
    """
    kind = type(obj)
    if kind is _Plain:
        return '"' + obj + '"'
    if kind is _Terms:
        if not obj:
            return "[]"
        inner = indent + "  "
        pair = f'[\n{inner}  "%s",\n{inner}  %d\n{inner}]'
        # brackets in the template, so the long text is written once
        return ("[\n" + inner + (",\n" + inner).join([pair] * len(obj))
                + "\n" + indent + "]") % _interleave(obj.exps, obj.coeffs)
    if isinstance(obj, str):
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        if set(map(type, obj)) == {int}:  # exact ints: one join
            return ("[\n" + inner + (",\n" + inner).join(
                map(int.__repr__, obj)) + "\n" + indent + "]")
        return ("[\n" + inner + (",\n" + inner).join(
            [_json(x, inner) for x in obj]) + "\n" + indent + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # one join of all the parts: a long value is copied once
        parts = ["{\n" + inner]
        for k, v in obj.items():
            parts += (_encode_str(k), ": ", _json(v, inner), ",\n" + inner)
        parts[-1] = "\n" + indent + "}"
        return "".join(parts)
    return json.dumps(obj)


def emit(report: dict, fmt: str) -> str:
    """Render a report as text, json, or latex (deterministic per input).

    JSON output is byte-identical to ``json.dumps(report, indent=2)``.
    """
    if fmt == "json":
        return _json(report)
    if fmt == "latex":
        if "latex" not in report:
            raise ParseError(f"no latex form for {report['command']!r} output")
        return report["latex"]
    command = report["command"]
    lines = []
    if command == "convert":
        v = report["value"]
        lines.append(f"value: {v['num']}/{v['den']}")
        lines.append(f"positive cf: {report['positive_cf']}")
        ev_line = f"even cf: {report['even_cf']}"
        if report["substituted"]:
            w = report["even_cf_value"]
            ev_line += f"  (substituted partner fraction {w['num']}/{w['den']})"
        lines.append(ev_line)
        fmt_signs = lambda signs: "(" + ",".join("+" if s > 0 else "-"
                                                 for s in signs) + ")"
        lines.append(f"sign sequence: {fmt_signs(report['sign_sequence'])}")
        lines.append(f"type sequence: {fmt_signs(report['type_sequence'])}")
        lines.append(f"classification: {report['classification']}")
    elif command == "snake":
        lines.append(report["ascii"])
        lines.append(f"tiles: {report['tile_count']}  "
                     f"steps: {report['step_word'] or '-'}  "
                     f"matchings: {report['matching_count']}")
    elif command == "fpoly":
        lines.append(report["text"])
    elif command == "jones":
        lines.append(report["text"])
        lines.append(f"degree: {report['degree']}  "
                     f"leading sign: {report['leading_sign']:+d}  "
                     f"width: {report['width']}  engine: {report['engine']}")
    elif command == "verify":
        for name, count in report["checks"].items():
            lines.append(f"{name}: {count} inputs checked")
        lines.append("failures: 0")
    elif command == "volume":
        lines.append(f"positive cf: {report['positive_cf']}")
        lines.append(f"{report['lower']:.5f} < volume < {report['upper']:.5f}")
    return "\n".join(lines)


_NEGATIVE_INPUT = re.compile(r"^-\d+(/-?\d+|(,-?\d+)*)$")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    # a fixed usage line also spares parse_intermixed_args from formatting
    # one on every call
    parser = _Parser(prog="twobridge",
                     usage=f"%(prog)s {{{','.join(COMMANDS)}}} [input] "
                           "[options]",
                     description="Exact Jones polynomials of 2-bridge links "
                                 "from continued fractions.")
    # read negative inputs such as -27/10 and -2,2 as positionals, not options
    parser._negative_number_matcher = _NEGATIVE_INPUT
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", nargs="?", default="",
                        help="fraction p/q, bracketed list [c1,c2,...], or "
                             "bare comma list")
    parser.add_argument("--engine", default="all",
                        choices=("recursive", "direct", "fpoly", "all"))
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "latex"))
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--even", action="store_true",
                       help="refuse an entry list that is not an even cf")
    group.add_argument("--positive", action="store_true",
                       help="refuse an entry list that is not a positive cf")
    parser.add_argument("--max-sum", type=int, default=10,
                        help="sweep bound for the verify command")
    parser.add_argument("--full", action="store_true",
                        help="fpoly: emit the full tile-variable polynomial")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    where = ""
    try:
        # options may come after the input, and the input after ``--``
        args = parser.parse_intermixed_args(argv)
        where = f" [{args.command}]"
        if args.command == "verify":
            if args.input:
                raise ParseError("command 'verify' takes no input")
        elif not args.input:
            raise ParseError(f"command {args.command!r} needs an input")
        hint = "even" if args.even else ("positive" if args.positive else None)
        req = Request(command=args.command, input=args.input,
                      engine=args.engine, hint=hint,
                      max_sum=args.max_sum, full=args.full)
        report = run(req)
        with _all_digits():
            out = emit(report, args.format)
        del report  # not held while the output is encoded and written
    except ParseError as exc:
        print(f"error{where}: {exc}", file=sys.stderr)
        return 1
    except CrossCheckMismatch as exc:
        print(f"cross-check mismatch{where}: {exc}", file=sys.stderr)
        return 3
    except TwoBridgeError as exc:
        print(f"error{where}: {exc}", file=sys.stderr)
        return 2
    try:
        print(out)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        # the exit flush then writes what is left nowhere, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())
