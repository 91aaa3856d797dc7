import ast
import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from twobridge.cfrac import (EvenCF, PositiveCF, even_cf, even_cf_for_link,
                             positive_cf)
from twobridge.cli import (ENGINES, Request, _all_digits, _json,
                           _poly_payload, build_parser, emit, main,
                           parse_input, run)
from twobridge.errors import (BudgetExceeded, CrossCheckMismatch, OutOfRange,
                              ParseError, TwoBridgeError)
from twobridge.laurent import HLPoly, Packed
from twobridge.verify import coprime_fractions


class TestParseInput:
    def test_fraction(self):
        assert parse_input("27/10") == Fraction(27, 10)

    def test_bare_integer(self):
        assert parse_input("7") == Fraction(7)

    def test_even_forced_by_content(self):
        assert parse_input("[2,2,-2,4]") == Fraction(27, 10)

    def test_positive_forced_by_content(self):
        assert parse_input("[2,1,2,3]") == Fraction(27, 10)
        assert parse_input("2,1,2,3") == Fraction(27, 10)

    def test_hint_resolution(self):
        assert parse_input("[2,4]", hint="even") == Fraction(9, 4)
        assert parse_input("[2,4]", hint="positive") == Fraction(9, 4)

    def test_ambiguous_without_hint(self):
        # a list valid as both has one value, whichever kind it is read as
        assert parse_input("[2,4]") == Fraction(9, 4)

    def test_hint_must_fit(self):
        with pytest.raises(ParseError):
            parse_input("[2,-2]", hint="positive")
        with pytest.raises(ParseError):
            parse_input("[2,3]", hint="even")

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_input("[2,x,4]")
        assert exc.value.position == 3
        with pytest.raises(ParseError):
            parse_input("[2,3,-2]")  # neither positive nor even
        with pytest.raises(ParseError) as exc:
            parse_input("27/0")
        assert str(exc.value) == ("bad fraction '27/0': zero denominator "
                                  "(at position 0)")
        with pytest.raises(ParseError):
            parse_input("")

    @pytest.mark.parametrize("text", ["[]", "[ ]"])
    def test_empty_entry_list(self, text):
        with pytest.raises(ParseError) as exc:
            parse_input(text)
        assert str(exc.value) == "empty entry list (at position 1)"

    def test_every_spelling_parses_to_its_value(self):
        """A fraction, its Euclid list and its even list parse to one
        Fraction, the signed value, under every hint they fit."""
        listed = lambda entries: "[" + ",".join(map(str, entries)) + "]"
        for r in coprime_fractions(40):
            p, q = r.numerator, r.denominator
            euclid = listed(positive_cf(r).entries)
            spellings = [(f"{p}/{q}", None, r), (f"-{p}/{q}", None, -r),
                         (euclid, None, r), (euclid, "positive", r)]
            if p * q % 2 == 0:
                ev = even_cf(r).entries
                spellings += [(listed(ev), "even", r),
                              (listed(-e for e in ev), "even", -r)]
            for s, hint, want in spellings:
                got = parse_input(s, hint)
                assert type(got) is Fraction and got == want, (s, hint)


class TestRun:
    def test_jones_text(self):
        report = run(Request("jones", "[-2,2]"))
        assert emit(report, "text").splitlines()[0] == "t^(-1) + t^(-3) - t^(-4)"

    def test_jones_all_engines_agree(self):
        report = run(Request("jones", "27/10", engine="all"))
        assert report["checks"] == {"recursive": "ok", "direct": "ok",
                                    "fpoly": "ok", "laws": "ok",
                                    "bracket": "ok"}
        assert report["degree"] == "1"
        assert report["leading_sign"] == 1
        assert report["width"] == "8"

    def test_jones_single_engine(self):
        for engine in ("recursive", "direct", "fpoly"):
            report = run(Request("jones", "[3]", engine=engine,
                                 hint="positive"))
            assert report["text"] == "t^(-1) + t^(-3) - t^(-4)", engine

    def test_a_list_of_both_kinds_has_one_value(self):
        for command in ("jones", "snake", "fpoly", "convert", "volume"):
            assert run(Request(command, "[4,6]")) == run(
                Request(command, "[4,6]", hint="positive")), command

    def test_hopf_latex(self):
        report = run(Request("jones", "[2]", engine="recursive", hint="even"))
        assert emit(report, "latex") == "-t^{5/2}-t^{1/2}"

    def test_convert(self):
        report = run(Request("convert", "27/10"))
        assert report["positive_cf"] == [2, 1, 2, 3]
        assert report["even_cf"] == [2, 2, -2, 4]
        assert report["type_sequence"] == [1, -1, -1, -1]
        assert report["classification"] == "knot"
        assert not report["substituted"]

    def test_convert_substitution_notice(self):
        report = run(Request("convert", "3/1"))
        assert report["even_cf"] == [-2, 2]
        assert report["substituted"]
        assert report["even_cf_value"] == {"num": -3, "den": 2}
        assert "substituted" in emit(report, "text")

    def test_convert_mirror_orientation_input(self):
        report = run(Request("convert", "[-2,2]"))
        assert report["value"] == {"num": -3, "den": 2}
        assert report["positive_cf"] == [1, 2]
        assert report["even_cf"] == [-2, 2]
        assert report["classification"] == "knot"

    def test_snake(self):
        report = run(Request("snake", "27/10"))
        assert report["tile_count"] == 7
        assert report["matching_count"] == 27
        assert report["step_word"] == "RRRUUR"
        assert report["ascii"].count("+--+") > 0

    def test_fpoly_specialized(self):
        report = run(Request("fpoly", "[2,-2]", hint="even"))
        assert report["text"] == "1 - t^(-1) - t^(-3)"

    def test_fpoly_full(self):
        report = run(Request("fpoly", "[3]", hint="positive", full=True))
        assert report["terms"] == [[[], 1], [[1], 1], [[1, 2], 1]]
        assert report["text"] == "1 + y1 + y1*y2"
        report = run(Request("fpoly", "[2,2]", hint="positive", full=True))
        assert report["text"] == "1 + y1 + y3 + y1*y3 + y1*y2*y3"

    def test_volume(self):
        report = run(Request("volume", "[3,3,3]", hint="positive"))
        assert report["lower"] == 0.35367
        assert report["upper"] == 30 * 1.0149 * 2

    def test_verify(self):
        report = run(Request("verify", "", max_sum=4))
        assert report["failures"] == 0
        assert all(count > 0 for count in report["checks"].values())
        assert emit(report, "text").splitlines()[-1] == "failures: 0"

    def test_engine_all_never_disagrees(self):
        from math import gcd

        from twobridge.verify import even_lists
        for entries in even_lists(8, max_abs=4):
            text = "[" + ",".join(map(str, entries)) + "]"
            assert main(["jones", text, "--engine", "all"]) == 0, entries
        for p in range(2, 40):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    assert main(["jones", f"{p}/{q}", "--engine", "all"]) == 0


def parent_poly_payload(terms):
    """The coefficient pairs as the CLI built them before they came from the
    digit run: one loop over the (half units, coefficient) terms, highest
    first."""
    return [[str(u // 2) if u % 2 == 0 else f"{u}/2", c] for u, c in terms]


def barred_pairs(pairs):
    """The coefficient pairs of the bar involution t^(1/2) -> t^(-1/2):
    every exponent string negated, so the order reverses."""
    return [[e if e == "0" else e[1:] if e[0] == "-" else "-" + e, c]
            for e, c in reversed(pairs)]


@st.composite
def packed_runs(draw):
    """(Packed, terms): up to 10 slots on one grid, zero slots included,
    on struct (16, 64 bits) and byte (136 bits) widths, and the nonzero
    terms, highest first."""
    s = draw(st.sampled_from((16, 64, 136)))
    edge = (1 << (s - 2)) - 1
    digits = draw(st.lists(st.sampled_from((0, 1, -1, edge, -edge))
                           | st.integers(-edge, edge), max_size=10))
    h = 2 * draw(st.integers(-12, 2)) + draw(st.integers(0, 1))
    n = sum(c << (s * i) for i, c in enumerate(digits))
    terms = [(h + 2 * i, c) for i, c in enumerate(digits) if c][::-1]
    return Packed(n, h, s, max(1, sum(map(abs, digits)))), terms


@st.composite
def gapped_terms(draw):
    """Up to 8 terms with gaps, on both grids, zero coefficients left out,
    highest first."""
    units = draw(st.lists(st.integers(-30, 30), unique=True, max_size=8))
    coeffs = [draw(st.integers(-10 ** 30, 10 ** 30)) for _ in units]
    return [(u, c) for u, c in sorted(zip(units, coeffs), reverse=True) if c]


class TestPolyPayload:
    """The report's pairs and text against the per-term loops they replace."""

    @given(packed_runs())
    def test_digit_runs(self, packed_terms):
        packed, terms = packed_terms
        pairs, text, latex = _poly_payload(*packed.read().exps_and_coeffs())
        assert list(map(list, pairs)) == parent_poly_payload(terms)
        assert text == HLPoly(dict(terms)).to_text()
        assert latex == HLPoly(dict(terms)).to_latex()
        report = {"coefficients": pairs, "text": text}
        assert _json(report) == json.dumps(report, indent=2)

    @given(gapped_terms())
    def test_gapped_and_mixed_polynomials(self, terms):
        poly = HLPoly(dict(terms))
        pairs, text, latex = _poly_payload(*poly.exps_and_coeffs())
        assert list(map(list, pairs)) == parent_poly_payload(terms)
        assert text == poly.to_text()
        assert latex == poly.to_latex()


class TestJsonFormat:
    def test_polynomial_payload_round_trip(self):
        report = run(Request("jones", "[-2,2]"))
        payload = json.loads(emit(report, "json"))
        assert payload["coefficients"] == [["-1", 1], ["-3", 1], ["-4", -1]]
        # the pairs and the text are one polynomial, given in half units
        want = HLPoly({-2: 1, -6: 1, -8: -1})
        assert payload["coefficients"] == list(
            map(list, zip(*want.exps_and_coeffs())))
        assert payload["text"] == want.to_text() == "t^(-1) + t^(-3) - t^(-4)"

    def test_half_integer_exponents(self):
        report = run(Request("jones", "[2]", hint="even"))
        payload = json.loads(emit(report, "json"))
        assert payload["coefficients"] == [["1/2", -1], ["5/2", -1]][::-1]
        want = HLPoly({5: -1, 1: -1})
        assert payload["coefficients"] == list(
            map(list, zip(*want.exps_and_coeffs())))
        assert payload["text"] == want.to_text() == "-t^(5/2) - t^(1/2)"

    def test_deterministic(self):
        a = emit(run(Request("jones", "27/10")), "json")
        b = emit(run(Request("jones", "27/10")), "json")
        assert a == b


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-10 ** 400, 10 ** 400)
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([-0.0, 0.0, 1e300, 5e-324])
                | st.text()
                | st.sampled_from(["", "\"quoted\"", "back\\slash",
                                   "\x00\x1f\x7f\n\t", "\u00e9\u2603\U0001f600"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


class Int(int):
    """An int subclass: the emitter's exact-int paths must pass it by."""


json_strings = (st.text() | st.sampled_from(
    ["", "\"", "a\\b", "\x00\n\t", "\u00e9", "\u2603", "\U0001f600",
     "-7/2", "0"]))
json_ints = st.integers() | st.integers(-10 ** 400, 10 ** 400)
# one bool, float, int subclass, None or string among exact ints keeps a
# list off the exact-int path
int_intruders = (st.booleans() | st.integers().map(Int) | st.floats()
                 | st.none() | json_strings)
int_lists = st.lists(json_ints, max_size=6)
pair_lists = st.lists(st.tuples(json_strings, json_ints).map(list)
                      | st.tuples(json_strings, json_ints), max_size=6)


@st.composite
def near_homogeneous(draw):
    """An int list or a pair list, often with one item swapped for a near
    miss: an intruder, a reversed pair, a pair of three or a nested list."""
    items = draw(int_lists | pair_lists)
    if items and draw(st.booleans()):
        i = draw(st.integers(0, len(items) - 1))
        if type(items[i]) is int:
            items[i] = draw(int_intruders | int_lists)
        else:
            key, value = items[i]
            items[i] = draw(st.sampled_from([
                [key, draw(int_intruders)], [draw(int_intruders), value],
                [value, key], [key, value, value], (key,), [[key, value]]]))
    return items


class TestJsonEmitter:
    """``emit(report, "json")`` must be ``json.dumps(report, indent=2)``."""

    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert _json(value) == json.dumps(value, indent=2)

    @given(near_homogeneous(), st.sampled_from((None, "list", "dict")))
    def test_int_and_pair_lists(self, items, wrap):
        # the exact-int path and untyped pairs, with one element, empty, and
        # inside a list or a report-like dict
        value = {"list": [items, [1]], "dict": {"coefficients": items},
                 None: items}[wrap]
        assert _json(value) == json.dumps(value, indent=2)

    def test_bools_and_int_subclasses_keep_their_form(self):
        for value in ([True, False], [1, True], [Int(3), 4], [Int(5)],
                      [["x", True]], [["x", Int(2)]], [("x", 1), ["y", False]],
                      [[Int(1), 1]], [["x", 1], ["y", 2, 3]], [[]], [["x"]]):
            assert _json(value) == json.dumps(value, indent=2)

    def test_empty_containers(self):
        for value in ({}, [], (), {"a": {}, "b": [[]]}, [{}, ()]):
            assert _json(value) == json.dumps(value, indent=2)

    def test_inline_lists(self):
        # lists of exact ints take one join; bools, floats, None, strings,
        # empty and nested lists keep the recursive path
        for value in ([[True, 1]], [[1.5, "a"]], [[]], [("x", 2)],
                      [[None, 1], ["a", [1]], (3, "b"), 4],
                      {"c": [["-1/2", 10 ** 40], ["0", -1]]}):
            assert _json(value) == json.dumps(value, indent=2)
        # untyped [str, int] pairs, and near misses, recurse item by item
        for value in ([["a\"b", 1]], [["x", True]], [[1, "x"]], [("x", 2)],
                      [["x", 2, 3]], [["x", 2.0]], [["é", -10 ** 40]]):
            assert _json(value) == json.dumps(value, indent=2)

    def test_unencodable_values_raise(self):
        for value in ({"a": {1, 2}}, [object()], {(1, 2): 3}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _json(value)
        with pytest.raises(TypeError):  # reports have string keys only
            _json({1: 2})

    def test_reports(self):
        for req in (Request("jones", "[97,58]", hint="positive"),
                    Request("volume", "[3,4,5]", hint="positive"),
                    Request("convert", "7/3"), Request("verify", "", max_sum=3)):
            report = run(req)
            assert emit(report, "json") == json.dumps(report, indent=2)


def jones_and_fpoly_requests():
    """Every engine's ``jones`` request and the specialized ``fpoly`` one on
    coprime p/q <= 60 of both signs, the golden inputs and three wide
    lists."""
    from test_golden import FPOLY_INPUTS, JONES_INPUTS
    wide = ("[250,250,250,250]", "[97,58]", "[-40,6,-2,30]")
    inputs = [(str(r), None) for r in coprime_fractions(60)]
    inputs += [(s[1:] if s[0] == "-" else "-" + s, None) for s, _ in inputs]
    inputs += [(argv[0], "even" if "--even" in argv else None)
               for argv in JONES_INPUTS + FPOLY_INPUTS]
    inputs += [(s, None) for s in wide]
    for text, hint in inputs:
        for engine in ("all", "recursive", "direct", "fpoly"):
            yield Request("jones", text, engine=engine, hint=hint)
        yield Request("fpoly", text, hint=hint)


class TestTypedPayload:
    """The typed coefficient pairs and text are written unchecked, so every
    report that holds them must still be exactly ``json.dumps``."""

    def test_reports_match_json_dumps(self):
        requests = list(jones_and_fpoly_requests())
        assert len(requests) > 10000
        for req in requests:
            report = run(req)
            assert emit(report, "json") == json.dumps(report, indent=2), req

    def test_zero_polynomial_and_constant(self):
        for exps, coeffs in (([], []), (["0"], [1]), (["-7/2"], [-10 ** 40])):
            pairs, text, latex = _poly_payload(exps, coeffs)
            report = {"coefficients": pairs, "text": text, "latex": latex}
            assert _json(report) == json.dumps(report, indent=2)

    def test_typed_values_are_built_only_from_exps_and_coeffs(self):
        # every mention of the typed classes and of _poly_payload in the
        # package, outside the class statements, by the statement or the
        # comparison that holds it: run feeds _poly_payload exps_and_coeffs
        # output once, for jones and fpoly alike, and _json tests the types
        names = {"_Terms", "_Plain", "_poly_payload"}
        uses = []
        for path in sorted((SRC / "twobridge").glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                if getattr(top, "name", None) in names:
                    top = getattr(top, "body", [])[-1]  # _poly_payload's return
                parents = {child: node for node in ast.walk(top)
                           for child in ast.iter_child_nodes(node)}
                for node in ast.walk(top):
                    if isinstance(node, ast.Name) and node.id in names:
                        while not isinstance(node, (ast.stmt, ast.Compare)):
                            node = parents[node]
                        uses.append((path.name, ast.unparse(node)))
        payload = ("pairs, text, latex = "
                   "_poly_payload(*poly.exps_and_coeffs())")
        returned = ("return (_Terms(exps, coeffs), _Plain(text), "
                    "_Plain(latex_from_text(text)))")
        assert sorted(uses) == sorted(("cli.py", use) for use in (
            returned, returned, returned, "kind is _Plain", "kind is _Terms",
            payload))


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["jones", "[-2,2]"]) == 0
        assert "t^(-1) + t^(-3) - t^(-4)" in capsys.readouterr().out

    def test_engine_all_cross_check(self, capsys):
        assert main(["jones", "27/10", "--engine", "all"]) == 0
        capsys.readouterr()

    def test_a_list_of_both_kinds_draws_one_graph(self, capsys):
        assert main(["snake", "[2,4]"]) == 0
        out = capsys.readouterr().out
        assert "tiles: 5" in out  # the value 9/4 = [2,4]: d = 2 + 4 - 1

    def test_even_flag(self, capsys):
        assert main(["snake", "[2,4]", "--even"]) == 0
        out = capsys.readouterr().out
        assert "tiles: 5" in out  # same-sign junction keeps all tiles

    def test_usage_error(self, capsys):
        assert main(["jones"]) == 1
        assert main(["jones", "[2,x]"]) == 1
        assert main(["jones", "[]"]) == main(["jones", "[ ]"]) == 1
        assert capsys.readouterr().err.count("empty entry list") == 2

    def test_domain_error(self, capsys):
        assert main(["volume", "[2,3]"]) == 2  # entry below 3
        assert main(["convert", "1/2"]) == 2
        capsys.readouterr()
        # one entry is the (2, a) torus link: not hyperbolic, no bounds
        for value in ("5", "3"):
            assert _main_output(["volume", value], capsys)[:2] == (2, "")

    def test_mismatch_exit_code(self):
        # engines never disagree honestly; check the mapping directly
        from twobridge.cli import main as cli_main
        import twobridge.cli as cli_mod
        original = cli_mod.run
        cli_mod.run = lambda req: (_ for _ in ()).throw(
            CrossCheckMismatch("forced"))
        try:
            assert cli_main(["jones", "[2]"]) == 3
        finally:
            cli_mod.run = original

    def test_full_fpoly_budget(self, capsys):
        # [a] is a zigzag of a - 1 tiles with only a matchings; the budget
        # bounds the listing, a height masks of a - 1 bits each
        with pytest.raises(BudgetExceeded):
            run(Request("fpoly", "[100000]", hint="positive", full=True))
        assert main(["fpoly", "[100000]", "--full"]) == 2
        assert ("100000 matchings x 99999 tiles exceed budget 64000000"
                in capsys.readouterr().err)

    def test_full_fpoly_budget_before_the_graph(self, capsys, monkeypatch):
        # p x d is checked from the continued fraction alone: a graph of
        # 999,999 tiles is never built
        import twobridge.cli as cli

        def no_graph(*args):
            raise AssertionError("graph built before the budget check")
        monkeypatch.setattr(cli, "snake_from_positive", no_graph)
        assert main(["fpoly", "1000000", "--full"]) == 2
        assert ("error [fpoly]: 1000000 matchings x 999999 tiles "
                "exceed budget 64000000" in capsys.readouterr().err)
        # an even cf counts its tiles without the gluing
        assert main(["fpoly", "[2,-500000,2]", "--full"]) == 2
        assert ("1999996 matchings x 500001 tiles exceed budget 64000000"
                in capsys.readouterr().err)

    def test_snake_drawing_budget(self, capsys, monkeypatch):
        # [1000000000] is refused from its tile count alone
        import tracemalloc

        import twobridge.cli as cli

        def no_graph(*args):
            raise AssertionError("graph built before the budget check")
        with monkeypatch.context() as patched:
            patched.setattr(cli, "snake_from_positive", no_graph)
            assert main(["snake", "1000000000"]) == 2
        assert ("error [snake]: the snake graph has 999999999 tiles, beyond "
                "budget 1048576" in capsys.readouterr().err)
        # [7000] passes that bound but is a zigzag 3500 tiles high and wide;
        # its canvas rows alone would take 7001 lists of 10501 pointers
        tracemalloc.start()
        try:
            assert main(["snake", "7000"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert ("3500 tiles high and 3500 wide has 73517501 cells, beyond "
                "budget 64000000" in capsys.readouterr().err)

    def test_full_fpoly_past_sixty_three_tiles(self, capsys):
        assert main(["fpoly", "[70]", "--full", "--format", "json"]) == 0
        terms = json.loads(capsys.readouterr().out)["terms"]
        assert len(terms) == 70
        assert terms[-1] == [list(range(1, 70)), 1]

    def test_latex_unavailable(self, capsys):
        assert main(["convert", "27/10", "--format", "latex"]) == 1
        capsys.readouterr()


class TestParser:
    def test_rejects_unknown_command(self):
        parser = build_parser()
        with pytest.raises(ParseError):
            parser.parse_args(["frobnicate", "1/2"])


class TestUsageErrorsAreTyped:
    """Every error that ``run`` and ``emit`` raise is a ``TwoBridgeError``;
    a usage error is a ``ParseError`` and exits 1 with its own message."""

    def test_unknown_engine(self):
        with pytest.raises(ParseError, match="^unknown engine 'bogus'$"):
            run(Request("jones", "27/10", engine="bogus"))

    def test_unknown_command(self):
        with pytest.raises(ParseError, match="^unknown command 'bogus'$"):
            run(Request("bogus", "27/10"))

    def test_latex_of_a_convert_report(self, capsys):
        report = run(Request("convert", "27/10"))
        with pytest.raises(ParseError,
                           match="^no latex form for 'convert' output$"):
            emit(report, "latex")
        assert main(["convert", "27/10", "--format", "latex"]) == 1
        assert capsys.readouterr().err == (
            "error [convert]: no latex form for 'convert' output\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--max-sum", "16"], ["fpoly", "4181", "--full"],
        ["convert", "27/10"], ["snake", "27/10"], ["volume", "27/10"]])
    def test_latex_refused_before_run(self, monkeypatch, capsys, argv):
        import twobridge.cli as cli

        def no_run(req):
            raise AssertionError(f"run called on {req}")
        monkeypatch.setattr(cli, "run", no_run)
        assert main([*argv, "--format", "latex"]) == 1
        assert capsys.readouterr().err == (
            f"error [{argv[0]}]: no latex form for {argv[0]!r} output\n")

    def test_parse_error_is_a_twobridge_error(self):
        assert issubclass(ParseError, TwoBridgeError)


# every step that grows with the tile count: the even expansion, the graph
# builds and the engines
WORK = ("even_cf_for_link", "snake_from_positive", "jones_recursive",
        "jones_direct", "jones_via_f")


class TestTileBudget:
    """``convert``, ``snake``, ``fpoly`` and ``jones`` refuse a snake graph of
    |value| with more than ``TILE_BUDGET`` tiles before any work that grows
    with it."""

    @pytest.mark.parametrize("argv, tiles", [
        (["jones", "--", "+50487435"], 50487434),
        (["convert", "--", "502401163"], 502401162),
        (["fpoly", "--", "6530183"], 6530182),
        (["snake", "--", "7999999"], 7999998),
        (["convert", "--", f"{2 ** 130 + 1}/{2 ** 130}"], 2 ** 130),
        (["jones", "--even", "--", "[2,-2000000,2]"], 2000001),
        (["fpoly", "--", "[1048577,1]"], 1048577),
        (["jones", "--", "-1048578"], 1048577)])
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, tiles):
        import twobridge.cli as cli

        def no_work(*args):
            raise AssertionError("work began before the tile check")
        for name in WORK:
            monkeypatch.setattr(cli, name, no_work)
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error [{argv[0]}]: the snake graph has {tiles} tiles, beyond "
            "budget 1048576\n")

    def test_limit(self, monkeypatch):
        import twobridge.cli as cli
        from twobridge.snake import TILE_BUDGET, check_tiles
        assert TILE_BUDGET == 2 ** 20
        check_tiles(TILE_BUDGET)
        with pytest.raises(BudgetExceeded):
            check_tiles(TILE_BUDGET + 1)

        class Checked(Exception):
            pass

        def record(tiles):
            raise Checked(tiles)  # the count, before any work
        monkeypatch.setattr(cli, "check_tiles", record)

        # jones 1000001 still answers; 1048577 is the largest integer that
        # does, also as a positive or an even cf
        def tiles(s, hint=None):
            with pytest.raises(Checked) as checked:
                run(Request("jones", s, hint=hint))
            return checked.value.args[0]
        assert tiles("1000001") == 1000000
        for s in ("1048577", "[1048577]", "[1048576,1]", "-1048577"):
            assert tiles(s) == TILE_BUDGET
        assert tiles("[2,-1048576]", "even") == TILE_BUDGET
        # |value| < 1 is refused before the check, for every command
        with pytest.raises(OutOfRange, match="^need a rational >= 1, got 1/3$"):
            run(Request("jones", "1/3"))

    @pytest.mark.parametrize("command", ["convert", "snake", "fpoly", "jones"])
    def test_boundary(self, capsys, monkeypatch, command):
        import twobridge.snake as snake
        monkeypatch.setattr(snake, "TILE_BUDGET", 10)
        assert main([command, "11"]) == 0
        assert main([command, "12"]) == 2
        assert capsys.readouterr().err == (
            f"error [{command}]: the snake graph has 11 tiles, beyond "
            "budget 10\n")


class TestWorkBudget:
    """``jones`` and the specialized ``fpoly`` refuse a value whose kernel
    estimate, entries x (tiles + 2) x (numerator bits + 2), is beyond
    ``WORK_BUDGET``, before any work that grows with it: a long entry list
    stays far under the tile budget."""

    @pytest.mark.parametrize("command", ["jones", "fpoly"])
    @pytest.mark.parametrize("entry, count, estimate", [
        # a list of ones counts as its Euclid list, [1]*7998 + [2]
        ("1", 8000, "7999 entries x 8001 slots x 5556 bits"),
        ("1000", 1000, "1000 entries x 1000001 slots x 9968 bits")])
    def test_refused_before_any_work(self, capsys, monkeypatch, command,
                                     entry, count, estimate):
        import twobridge.cli as cli

        def no_work(*args):
            raise AssertionError("work began before the work check")
        for name in WORK:
            monkeypatch.setattr(cli, name, no_work)
        start = time.perf_counter()
        assert main([command, "--", ",".join([entry] * count)]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error [{command}]: {estimate} exceed budget 1000000000\n")

    @pytest.mark.parametrize("command", ["jones", "fpoly"])
    def test_alternating_even_list_counts_its_positive_entries(
            self, capsys, monkeypatch, command):
        # [4,-4]*222 has 444 even entries but a positive cf [3,1,2,1,...,3]
        # of 887, which the closed forms step through
        from twobridge.snake import WORK_BUDGET
        assert 444 * 1334 * 846 <= WORK_BUDGET < 887 * 1334 * 846
        assert main([command, "--even", "--", ",".join(["4,-4"] * 221)]) == 0
        capsys.readouterr()
        import twobridge.cli as cli

        def no_work(*args):
            raise AssertionError("work began before the work check")
        for name in WORK:
            monkeypatch.setattr(cli, name, no_work)
        assert main([command, "--even", "--", ",".join(["4,-4"] * 222)]) == 2
        assert capsys.readouterr().err == (
            f"error [{command}]: 887 entries x 1334 slots x 846 bits exceed "
            f"budget 1000000000\n")

    def test_limit(self, capsys, monkeypatch):
        import twobridge.cli as cli
        from twobridge.snake import WORK_BUDGET, check_work
        assert WORK_BUDGET == 10 ** 9
        check_work(1, WORK_BUDGET // 4 - 2, 3)  # 1 x 250,000,000 x 4
        with pytest.raises(BudgetExceeded):
            check_work(1, WORK_BUDGET // 4 - 1, 3)
        # 1128 ones, Euclid's [1]*1126 + [2], are 998,820,655 and still
        # answer; 1129 are refused
        assert main(["jones", "--", ",".join(["1"] * 1128)]) == 0
        assert main(["jones", "--", ",".join(["1"] * 1129)]) == 2
        assert capsys.readouterr().err.endswith(
            "1128 entries x 1130 slots x 786 bits exceed budget "
            "1000000000\n")

        class Checked(Exception):
            pass

        def record(*args):
            check_work(*args)
            raise Checked(*args)
        monkeypatch.setattr(cli, "check_work", record)
        # jones 1048577, at the tile budget, passes the work check; fpoly
        # --full and the other commands do not take it
        with pytest.raises(Checked) as checked:
            run(Request("jones", "1048577"))
        assert checked.value.args == (1, 1048576, 1048577)
        with pytest.raises(Checked) as checked:
            run(Request("fpoly", "[-2,2]", hint="even"))
        assert checked.value.args == (2, 2, -3)
        for command in ("convert", "snake", "volume"):
            run(Request(command, "[3,4,5,3]"))
        run(Request("fpoly", "[3,4,5,3]", full=True))


# the ring operators of HLPoly, which no runtime path calls
RING = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__")
# made before the fixture below refuses to make one
ONE = HLPoly.monomial()


class TestNoRingArithmetic:
    """Every polynomial route returns a ``Packed``, compared as integers and
    read as a digit run, so no command and no sweep builds an ``HLPoly``,
    nor adds, negates or multiplies one."""

    @pytest.fixture(autouse=True)
    def no_ring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an HLPoly ring operator ran")

        def refuse_new(*args, **kwargs):
            raise AssertionError("an HLPoly was built")
        for name in RING:
            monkeypatch.setattr(HLPoly, name, refuse)
        # HLPoly(...) runs __init__; the ring operators and bar make their
        # results without it.  (A patched __new__ cannot be undone: the
        # class keeps calling it with the constructor's arguments.)
        for name in ("__init__", "bar"):
            monkeypatch.setattr(HLPoly, name, refuse_new)

    @pytest.mark.parametrize("argv", [
        ["jones", "27/10"], ["jones", "--", "-27/10"],
        ["jones", "--even", "[2,2,-2,4]"], ["fpoly", "27/10"],
        ["fpoly", "--even", "[-2,2]"], ["fpoly", "--full", "27/10"],
        ["snake", "27/10"], ["convert", "27/10"], ["volume", "[3,4,5,3]"],
        ["jones", "--engine", "all", "--", "-27/10"],
        ["--format", "json", "jones", "27/10"],
        ["--format", "latex", "fpoly", "27/10"]])
    def test_commands(self, capsys, argv):
        assert main(argv) == 0

    def test_verify(self):
        from twobridge.verify import run_verify
        assert run_verify(8, 32) == {
            "engine_agreement": 78, "matchings_vs_numerators": 255,
            "even_vs_positive_graphs": 217, "continued_fraction_laws": 323}

    def test_operators_refuse(self):
        with pytest.raises(AssertionError, match="ring operator"):
            ONE * 2

    def test_construction_refuses(self):
        with pytest.raises(AssertionError, match="HLPoly was built"):
            HLPoly({0: 1})
        with pytest.raises(AssertionError, match="HLPoly was built"):
            HLPoly.monomial()
        with pytest.raises(AssertionError, match="HLPoly was built"):
            ONE.bar()


def _main_output(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNegativeInputs:
    """A leading minus sign reads as an input, not an option, wherever the
    input stands; every spelling answers like ``--format F CMD -- INPUT``."""

    @pytest.mark.parametrize("command", ["snake", "fpoly", "convert", "volume",
                                         "jones"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("value", ["-27/10", "-2,2", "-40,6,-2,30"])
    def test_spellings_agree(self, capsys, command, fmt, value):
        want = _main_output(["--format", fmt, command, "--", value], capsys)
        assert want[0] != 1, want  # the reference spelling reaches run
        for argv in ([command, value, "--format", fmt],
                     [command, "--format", fmt, "--", value],
                     [command, "--format", fmt, value]):
            assert _main_output(argv, capsys) == want, argv

    def test_volume_reads_a_negative_value_as_its_mirror(self, capsys):
        # -13/4 = [-4,2,-2,2] is the mirror of 13/4 = [3,4]
        want = _main_output(["volume", "[3,4]"], capsys)
        assert want[0] == 0
        assert want[1].splitlines()[0] == "positive cf: [3, 4]"
        for value in ("[-4,2,-2,2]", "-13/4"):
            assert _main_output(["volume", value], capsys) == want, value

    @pytest.mark.parametrize("argv, message", [
        (["jones", "--", "-1/2"], "need a rational >= 1, got -1/2"),
        (["snake", "--", "-1/2"], "need a rational >= 1, got -1/2"),
        (["fpoly", "--", "-2/3"], "need a rational >= 1, got -2/3"),
        (["convert", "--", "-1/2"], "need a rational >= 1, got -1/2"),
        (["volume", "--", "-1/3"], "need a rational >= 1, got -1/3"),
        (["jones", "--", "-1"], "need |r| > 1, got -1"),
        (["jones", "1"], "need |r| > 1, got 1"),
        (["convert", "1"], "need |r| > 1, got 1"),
        (["fpoly", "1"], "need |r| > 1, got 1")])
    def test_refusal_names_the_signed_value(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error [{argv[0]}]: {message}\n"

    @pytest.mark.parametrize("command", ["convert", "snake", "fpoly"])
    def test_a_negative_fraction_answers_as_its_even_list(self, capsys,
                                                          command):
        # -27/10 = [-2,-2,2,-4]: one value, one answer
        want = _main_output([command, "--even", "--", "[-2,-2,2,-4]"], capsys)
        assert want[0] == 0
        assert _main_output([command, "--", "-27/10"], capsys) == want

    def test_text_format_spelling(self, capsys):
        want = _main_output(["--format", "text", "snake", "--", "-27/10"],
                            capsys)
        assert _main_output(["snake", "-27/10"], capsys) == want
        assert want == _main_output(["snake", "--even", "--", "-2,-2,2,-4"],
                                    capsys)
        assert want[0] == 0 and want[2] == ""

    def test_jones_reads_a_negative_fraction_as_its_mirror(self):
        # -p/q is the mirror image of p/q: the bar involution, and the link
        # of the negated oriented even continued fraction
        for r in coprime_fractions(40):
            want = run(Request("jones", f"{r.numerator}/{r.denominator}"))
            got = run(Request("jones", f"-{r.numerator}/{r.denominator}"))
            negated = [-b for b in want["even_cf"]]
            by_list = run(Request("jones", str(negated).replace(" ", ""),
                                  hint="even"))
            pairs = list(map(list, got["coefficients"]))
            assert pairs == barred_pairs(want["coefficients"]), r
            assert pairs == list(map(list, by_list["coefficients"])), r
            assert got["even_cf"] == by_list["even_cf"] == negated, r
            assert got["value"] == want["value"], r

    def test_options_still_parse(self, capsys):
        assert main(["jones", "-2,2", "--bogus"]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_convert_names_the_link_that_jones_computes(capsys):
    """``jones --even`` on the even cf that ``convert p/q`` prints answers
    as ``jones p/q`` does, for every reduced p/q > 1 with p <= 60: the
    expansion carries the link and its orientation, not its mirror."""
    fractions = [(p, q) for p in range(2, 61) for q in range(1, p)
                 if gcd(p, q) == 1]
    assert len(fractions) == 1101
    wrong = []
    for p, q in fractions:
        code, out, _ = _main_output(
            ["convert", f"{p}/{q}", "--format", "json"], capsys)
        assert code == 0, (p, q)
        entries = ",".join(map(str, json.loads(out)["even_cf"]))
        by_list = _main_output(["jones", "--even", "--", f"[{entries}]"],
                               capsys)
        want = _main_output(["jones", f"{p}/{q}"], capsys)
        assert by_list[0] == want[0] == 0, (p, q)
        if by_list[1].splitlines()[0] != want[1].splitlines()[0]:
            wrong.append(f"{p}/{q}")
    assert wrong == []


def fault_direct(monkeypatch, extra):
    """Make ``jones_direct`` add ``extra(packed)`` to its packed integer."""
    import twobridge.cli as cli
    real = cli.jones_direct

    def faulty(*args):
        res = real(*args)
        p = res.packed
        return dataclasses.replace(
            res, packed=Packed(p.n + extra(p), p.h, p.s, p.bound))
    monkeypatch.setattr(cli, "jones_direct", faulty)


class TestPackedCrossCheck:
    """The engines agree on packed integers, and a request decodes once."""

    def test_one_packed_unit_is_a_mismatch(self, capsys, monkeypatch):
        fault_direct(monkeypatch, lambda p: 1)
        assert main(["jones", "7/3", "--engine", "all"]) == 3
        right = "t^(-1) - t^(-2) + 2*t^(-3) - t^(-4) + t^(-5) - t^(-6)"
        assert capsys.readouterr().err == (
            f"cross-check mismatch [jones]: engines disagree on 7/3: "
            f"recursive: {right}; "
            f"direct: t^(-1) - t^(-2) + 2*t^(-3) - t^(-4) + t^(-5); "
            f"fpoly: {right}; "
            f"first difference at t^(-6): recursive -1, direct 0; "
            f"reproduce with: twobridge jones --engine all -- \"7/3\"\n")
        with pytest.raises(CrossCheckMismatch) as info:
            run(Request("jones", "7/3"))
        assert info.value.engines == ("recursive", "direct", "fpoly")

    def test_overflowing_slots_are_a_mismatch(self, capsys, monkeypatch):
        fault_direct(monkeypatch, lambda p: 1 << (p.s - 1))
        assert main(["jones", "27/10"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cross-check mismatch [jones]: engines disagree "
                              "on 27/10: recursive: t^(1) - 2 + ")
        assert "; direct: overflows its slots (coefficients sum to " in err
        assert "; fpoly: t^(1) - 2 + " in err

    @pytest.mark.parametrize("value, engine", [
        ("27/10", "all"), ("10/3", "all"), ("[2,2,-2,4]", "all"),
        ("[" + ",".join(["3"] * 60) + "]", "all"),  # slots beyond 64 bits
        ("7/3", "all"), ("[96,57]", "all"), ("[-2,2]", "all"),
        ("-27/10", "all"), ("-27/10", "direct")])
    def test_one_decode_per_request(self, capsys, monkeypatch, value, engine):
        """The report is made from one read of the printed result's digits;
        no engine reads its own result, and the bar involution of the fpoly
        engine (p and q odd) and of ``mirror`` (a negative value) works on
        the packed integer."""
        import twobridge.laurent as laurent
        calls = []
        real = laurent._read_digits

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(laurent, "_read_digits", counted)
        assert main(["jones", value, "--engine", engine]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("value, matchings", [
        ("27/10", 27), ("[70]", 70), ("[2,-2,4]", 10)])
    def test_one_listing_per_full_fpoly(self, capsys, monkeypatch, fmt,
                                        value, matchings):
        """``fpoly --full`` lists the tile sets once, and reads each height
        through one ``bin``: the terms and the text come from that list."""
        import twobridge.cli as cli
        import twobridge.snake as snake
        listings, reads = [], []
        real_list, real_bin = snake.height_subsets, bin

        def counted_list(F):
            listings.append(len(F))
            return real_list(F)

        def counted_bin(h):
            reads.append(h)
            return real_bin(h)
        monkeypatch.setattr(cli, "height_subsets", counted_list)
        monkeypatch.setattr(snake, "bin", counted_bin, raising=False)
        assert main(["fpoly", value, "--full", "--format", fmt]) == 0
        capsys.readouterr()
        assert listings == [matchings]
        assert len(set(reads)) == len(reads) == matchings


def faulty_first_step(b1):
    """The kernel's first step with q^1 in place of q^2: a formula fault
    shared by ``jones_direct`` and ``jones_via_f``, not by the recursion."""
    import twobridge.jones as jones
    return (1, 0), jones._q(1, b1 - 1)


def signed_fractions(max_p):
    """Every reduced p/q with 1 <= q < p <= max_p, and its negative."""
    for r in coprime_fractions(max_p):
        yield from (r, -r)


class TestEnginesApart:
    """``direct`` and ``fpoly`` are two routes to one polynomial: ``fpoly``
    takes F through the reflection identity, so no two engines hand the
    kernel the same steps, and a fault in the shared formula shows."""

    def test_no_two_engines_share_a_kernel_call(self, monkeypatch):
        import twobridge.jones as jones
        calls = []
        real = jones.continuant_packed

        def recorded(steps, *args):
            calls.append(tuple(steps))
            return real(steps, *args)
        monkeypatch.setattr(jones, "continuant_packed", recorded)
        shared = []
        for r in signed_fractions(60):
            seen = []
            for engine in ("recursive", "direct", "fpoly"):
                calls.clear()
                run(Request("jones", str(r), engine=engine))
                seen.append(tuple(calls))
            if len(set(seen)) < 3:
                shared.append(r)
        # the Hopf link 2/1 is its own partner 2/(2 - 1)
        assert shared == [Fraction(2), Fraction(-2)]

    def test_a_shared_formula_fault_splits_direct_from_fpoly(
            self, capsys, monkeypatch):
        """The two engines give two results, and the checks of a request
        refuse each wrong one: the recursion has no first step."""
        import twobridge.jones as jones
        from twobridge.cli import _jones_engine
        monkeypatch.setattr(jones, "_first_step", faulty_first_step)
        same = []
        for r in signed_fractions(40):
            pos, ev = positive_cf(abs(r)), even_cf_for_link(r)
            right, direct, fpoly = (_jones_engine(engine, r, pos, ev)
                                    for engine in ENGINES)
            if direct.packed == fpoly.packed:
                same.append(r)
            for res in (direct, fpoly):
                wrong = res.packed != right.packed
                code = main(["jones", str(r), "--engine", res.engine])
                assert code == 3 * wrong, (r, res.engine)
                assert (f" failed for {res.engine} on {r};" in
                        capsys.readouterr().err) == wrong
        assert same == []


class TestFpolyIsTheCheckedJonesResult:
    """``fpoly`` prints the checked ``jones`` result over its leading term,
    F = V / (its leading term) by the paper's theorem, so it prints what F's
    own closed forms give, under every ``--engine`` choice, and a wrong
    count of matchings exits 3."""

    def test_it_prints_the_reference_route(self, capsys):
        from reference import specialized_f
        from test_mutants import mutants
        values = [*signed_fractions(60), *mutants.inputs()[2200:]]
        assert len(values) == 2 * 1101 + 200
        for r in values:
            want = f"{specialized_f(r).read()}\n"
            for engine in ("direct", "recursive", "fpoly", "all"):
                assert main(["fpoly", "--engine", engine, "--", str(r)]) == 0
                assert capsys.readouterr().out == want, (r, engine)

    def test_snake_checks_its_matching_count(self, capsys, monkeypatch):
        import twobridge.cli as cli
        real = cli.count_matchings
        monkeypatch.setattr(cli, "count_matchings", lambda g: real(g) + 1)
        assert main(["snake", "--", "-27/10"]) == 3
        assert capsys.readouterr() == ("", (
            "cross-check mismatch [snake]: 28 matchings vs numerator 27 on "
            "-27/10\n"))
        with pytest.raises(CrossCheckMismatch) as exc:
            run(Request("snake", "27/10"))
        assert exc.value.engines == ("matchings", "numerator")
        assert exc.value.value == Fraction(27, 10)

    def test_the_full_listing_checks_its_length(self, capsys, monkeypatch):
        import twobridge.cli as cli
        real = cli.height_subsets
        monkeypatch.setattr(cli, "height_subsets", lambda F: real(F)[1:])
        assert main(["fpoly", "--full", "27/10"]) == 3
        assert capsys.readouterr() == ("", (
            "cross-check mismatch [fpoly]: 26 matchings vs numerator 27 on "
            "27/10\n"))
        with pytest.raises(CrossCheckMismatch) as exc:
            run(Request("fpoly", "-27/10", full=True))
        assert exc.value.engines == ("matchings", "numerator")
        assert exc.value.value == Fraction(-27, 10)


class TestOneReadPerResult:
    """A checked result's digits are read once: ``normalized`` is a view of
    that read, and ``check_engines`` compares the two-term recursion with
    the result as packed integers."""

    @pytest.fixture
    def reads(self, monkeypatch):
        import twobridge.laurent as laurent
        real, calls = laurent._read_digits, []

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(laurent, "_read_digits", counted)
        return calls

    @pytest.mark.parametrize("value, sign", [("27/10", 1), ("2", -1)])
    def test_fpoly(self, reads, value, sign):
        assert run(Request("jones", value))["leading_sign"] == sign
        reads.clear()
        assert run(Request("fpoly", value))["coefficients"][0] == ("0", 1)
        assert len(reads) == 1

    def test_jones_with_every_engine(self, reads):
        run(Request("jones", "27/10", engine="all"))
        assert len(reads) == 1

    def test_check_engines(self, reads):
        from twobridge.verify import check_engines, engine_sweep
        check_engines(EvenCF((2, 2, -2, 4)))
        assert len(reads) == 1
        reads.clear()
        assert engine_sweep(8) == len(reads) > 0


OVERFLOWING_DIRECT = (
    "import dataclasses\n"
    "from twobridge import cli\n"
    "from twobridge.laurent import Packed\n"
    "real = cli.jones_direct\n"
    "def faulty(*args):\n"
    "    res = real(*args)\n"
    "    p = res.packed\n"
    "    return dataclasses.replace(res, packed=Packed(\n"
    "        p.n + (1 << (p.s - 1)), p.h, p.s, p.bound))\n"
    "cli.jones_direct = faulty\n"
    "raise SystemExit(cli.main(['jones', '{value}']))\n"
)


@pytest.mark.parametrize("value", ["27/10", "[" + ",".join(["3"] * 60) + "]"])
def test_overflow_fault_exits_3_under_optimize(value):
    """The overflow report needs no assert: under ``python -O`` too the
    faulty side reads as overflowing and the exit code is 3."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", OVERFLOWING_DIRECT.format(value=value)],
        env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.startswith("cross-check mismatch [jones]: engines "
                                 "disagree on ")
    assert "; direct: overflows its slots (coefficients sum to " in out.stderr


FAULTY_FIRST_STEP = (
    "from twobridge import cli, jones\n"
    "jones._first_step = lambda b1: ((1, 0), jones._q(1, b1 - 1))\n"
    "raise SystemExit(cli.main(['jones', '27/10']))\n"
)


def test_formula_fault_exits_3_under_optimize():
    """A fault in the formula that ``direct`` and ``fpoly`` share is caught
    by their cross-check under ``python -O`` too, with exit code 3."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", FAULTY_FIRST_STEP],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr.startswith("cross-check mismatch [jones]: engines "
                                 "disagree on 27/10: ")


class TestVerifyBound:
    @pytest.mark.parametrize("max_sum", [1, 0, -3])
    def test_nonpositive_bound_fails_before_any_sweep(self, capsys, monkeypatch,
                                                      max_sum):
        import twobridge.cli as cli_mod

        def no_sweep(**kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli_mod.verify_mod, "run_verify", no_sweep)
        with pytest.raises(OutOfRange):
            run(Request("verify", "", max_sum=max_sum))
        assert main(["verify", "--max-sum", str(max_sum)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error [verify]: --max-sum must be at least "
                                f"2, got {max_sum}\n")


    def test_bound_above_the_budget_fails_before_any_sweep(
            self, capsys, monkeypatch):
        import twobridge.cli as cli_mod
        from twobridge.snake import MAX_SUM_BUDGET

        def no_sweep(**kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli_mod.verify_mod, "run_verify", no_sweep)
        assert MAX_SUM_BUDGET == 16
        with pytest.raises(BudgetExceeded):
            run(Request("verify", "", max_sum=17))
        assert main(["verify", "--max-sum", "17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error [verify]: --max-sum 17 is beyond "
                                "budget 16\n")
        # the budget itself still runs its sweeps
        monkeypatch.setattr(cli_mod.verify_mod, "run_verify",
                            lambda **kwargs: kwargs)
        assert run(Request("verify", "", max_sum=16))["checks"] == {
            "max_sum": 16, "max_p": 64}

    def test_input_is_refused(self, capsys, monkeypatch):
        import twobridge.cli as cli_mod

        def no_sweep(**kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli_mod.verify_mod, "run_verify", no_sweep)
        assert main(["verify", "garbage", "--max-sum", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error [verify]: command 'verify' takes no "
                                "input\n")


class TestLongResults:
    """Results, and a refusal that names a count, of more digits than Python
    turns an int into text by default (4,300) are printed; the input is
    still parsed under that limit."""

    ONES = ",".join(["1"] * 30000)

    @pytest.fixture(scope="class")
    def matchings(self):
        from twobridge.snake import count_matchings, snake_from_positive
        count = count_matchings(snake_from_positive(PositiveCF((1,) * 30000)))
        assert count.bit_length() > 4300 * 3.33  # beyond 4,300 digits
        return count

    def test_convert(self, capsys, matchings):
        limit = sys.get_int_max_str_digits()
        assert main(["convert", self.ONES]) == 0
        assert sys.get_int_max_str_digits() == limit
        value = capsys.readouterr().out.splitlines()[0]
        assert value.startswith("value: ")
        num, den = value[len("value: "):].split("/")
        with _all_digits():
            assert int(num) == matchings

    def test_snake(self, capsys, matchings):
        limit = sys.get_int_max_str_digits()
        assert main(["snake", self.ONES]) == 0
        assert sys.get_int_max_str_digits() == limit
        last = capsys.readouterr().out.splitlines()[-1]
        with _all_digits():
            assert last.endswith(f"  matchings: {matchings}")

    def test_listing_refusal(self, capsys, matchings):
        assert main(["fpoly", "--full", self.ONES]) == 2
        err = capsys.readouterr().err
        with _all_digits():
            assert err == (f"error [fpoly]: {matchings} matchings x 29999 "
                           "tiles exceed budget 64000000\n")

    def test_poly_payload(self):
        big = 10 ** 5000 + 1
        pairs, text, latex = _poly_payload(["1", "0"], [big, -1])
        assert list(pairs) == [("1", big), ("0", -1)]
        assert text.endswith("*t^(1) - 1") and len(text) > 5000
        assert latex.endswith("t-1") and len(latex) > 5000

    def test_input_keeps_the_limit(self, capsys):
        assert main(["jones", "1" * 5000]) == 1
        assert capsys.readouterr().err.startswith("error [jones]: ")


GOLDEN = Path(__file__).with_name("golden_cli.json")
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module", ["twobridge", "twobridge.cli"])
def test_python_m_runs_the_cli(module):
    golden = {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}
    want = golden[("jones", "27/10", "--engine", "direct", "--format", "text")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", module, "jones", "27/10"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (want["exit"],
                                                        want["stdout"], "")


@pytest.mark.parametrize("argv", [["jones", "100001", "--format", "json"],
                                  ["jones", "27/10"]])
def test_closed_stdout_exits_141(argv):
    """Output to a pipe whose reader has gone, several MB or a short line,
    exits 128 + SIGPIPE with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "twobridge", *argv],
                             stdout=write_end, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=str(SRC)),
                             timeout=120)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (141, b"")
