"""Output checks that do not share the engines' derivation.

The CLI already cross-checks its three engines against one another (exit
code 3), but the engines come from one derivation.  These checks use only
classical knot invariants and the benchmark's own integer arithmetic:

* the value p/q printed by the CLI is the integer continuant of the input;
* V(1) = (-2)^(components - 1), where the link of p/q is a knot when p is
  odd and has two components otherwise;
* |V(-1)|^2 = p^2 with t^(1/2) = i, since |V(-1)| is the determinant p;
* ``degree`` and ``leading_sign`` name the leading term of ``coefficients``,
  which lists nonzero coefficients by strictly decreasing exponent.
"""

from __future__ import annotations

import json


def continuant(entries):
    """(p, q) with p/q = [a_1, ..., a_n], by the two-term integer recurrence."""
    p_prev, p = 1, entries[0]
    q_prev, q = 0, 1
    for a in entries[1:]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def canonical(entries):
    """The Euclidean form of a positive continued fraction: [.., a, 1] -> [.., a+1]."""
    entries = list(entries)
    if len(entries) > 1 and entries[-1] == 1:
        entries[-2:] = [entries[-2] + 1]
    return entries


def half_units(exponent: str) -> int:
    """Exponent string as printed by the CLI ("3", "-7/2") in units of t^(1/2)."""
    if exponent.endswith("/2"):
        return int(exponent[:-2])
    return 2 * int(exponent)


# i^u for u mod 4, as (real, imaginary)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def check_jones_output(entries, returncode, text):
    """Problems found in one ``jones --positive --format json`` output.

    Returns ``(problems, report)``: a list of one-line descriptions, empty
    when every check passes, and the parsed report (``None`` if unreadable).
    """
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        report = json.loads(text)
        coefficients = [(half_units(e), int(c)) for e, c in report["coefficients"]]
        degree = half_units(report["degree"])
        leading_sign = int(report["leading_sign"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], None

    problems = []
    p, q = continuant(entries)
    if report.get("value") != {"num": p, "den": q}:
        problems.append(f"value {report.get('value')} is not {p}/{q}")
    if report.get("positive_cf") != canonical(entries):
        problems.append("positive_cf is not the input's Euclidean form")
    if set(report.get("checks", {}).values()) != {"ok"}:
        problems.append(f"engine checks {report.get('checks')}")
    if not coefficients:
        return problems + ["zero polynomial"], report
    exps = [u for u, _ in coefficients]
    if any(a <= b for a, b in zip(exps, exps[1:])) or 0 in (c for _, c in coefficients):
        problems.append("coefficients are not nonzero terms by decreasing exponent")
    if (degree, leading_sign) != coefficients[0]:
        problems.append(f"degree/leading_sign {report['degree']}/{leading_sign} "
                        f"disagree with leading term {report['coefficients'][0]}")

    components = 1 if p % 2 else 2
    v1 = sum(c for _, c in coefficients)
    if v1 != (-2) ** (components - 1):
        problems.append(f"V(1) = {v1}, want {(-2) ** (components - 1)}")
    re = im = 0
    for u, c in coefficients:
        x, y = _I_POWERS[u % 4]
        re += c * x
        im += c * y
    if re * re + im * im != p * p:
        problems.append(f"|V(-1)|^2 = {re * re + im * im}, want p^2 = {p * p}")
    return problems, report
