#!/usr/bin/env python3
"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

Each pair runs ``perfbench/run.py`` once in each checkout, back to back, and
alternates which side goes first.  For every end-to-end metric of
``BENCHMARK.json`` it prints the parent's and the change's medians, the
parent's quartiles and the pairs the change won, and whether the gain rule
holds: the change wins at least 9 of every 10 pairs, and its median beats the
parent's by more than the parent's interquartile range.  A metric whose
median is worse than the parent's by more than its bound is flagged.  A
metric whose parent runs spread wider than its bound (interquartile range
over median) is unresolved, since the bound cannot be told apart from the
noise, unless every run of the change beats every run of the parent.

Example:
    python3 scripts/ab_pairs.py ../parent . --workload wide_entry --seed 91 \\
        --seconds 10 --pairs 10

A run that has not finished after four times ``--seconds`` plus two minutes
is stopped and counts as failed.  Runs write no bytecode, as in the
benchmark, and a checkout with a ``__pycache__`` under ``src/`` is refused:
its runs would read bytecode from an earlier import instead of the source.

Exit status: 0 when every run succeeded and no metric is beyond its bound,
1 when a metric is beyond its bound, 2 when a run failed, or when
``--pairs`` or ``--seconds`` is out of range or a checkout holds bytecode
(checked before any run).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


class RunFailed(Exception):
    pass


def last_json_line(text: str) -> dict:
    """The last line of ``text`` that parses as a JSON object."""
    for line in reversed(text.splitlines()):
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                continue
    raise RunFailed("no JSON result line")


def run_timeout(seconds: float) -> float:
    """How long a run of ``seconds`` may take, setup included."""
    return 4 * seconds + 120


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """{metric: value} of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    timeout = run_timeout(seconds)
    try:
        out = subprocess.run(argv, cwd=checkout, capture_output=True,
                             text=True, timeout=timeout, env=dict(
                                 os.environ, PYTHONDONTWRITEBYTECODE="1"))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{checkout}: no result after {timeout:g} s") from None
    if out.returncode:
        raise RunFailed(f"{checkout}: exit {out.returncode}\n{out.stderr}")
    result = last_json_line(out.stdout)
    if not result.get("correct", False):
        raise RunFailed(f"{checkout}: {result.get('failed')} of "
                        f"{result.get('attempted')} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    """(first, third) quartile; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(parent_runs, change_runs, specs):
    """One row per metric of ``specs`` (the ``end_to_end`` entries of
    BENCHMARK.json) from paired runs: ``parent_runs[i]`` and
    ``change_runs[i]`` are the {metric: value} of pair i."""
    rows = []
    pairs = len(parent_runs)
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        old = [run[name] for run in parent_runs]
        new = [run[name] for run in change_runs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        old_median, new_median = statistics.median(old), statistics.median(new)
        q1, q3 = quartiles(old)
        gain = old_median - new_median if lower else new_median - old_median
        worse = -gain / abs(old_median) if old_median else 0.0
        spread = (q3 - q1) / abs(old_median) if old_median else 0.0
        all_better = (max(new) < min(old)) if lower else (min(new) > max(old))
        rows.append({
            "name": name, "parent": old_median, "change": new_median,
            "q1": q1, "q3": q3, "wins": wins, "pairs": pairs,
            "gain_holds": 10 * wins >= 9 * pairs and gain > q3 - q1,
            "beyond_bound": worse > spec["bound"],
            "unresolved": spread > spec["bound"] and not all_better,
        })
    return rows


def report(rows) -> str:
    lines = [f"{'metric':20s} {'parent':>11s} {'change':>11s} "
             f"{'parent IQR':>23s} {'wins':>7s}  verdict"]
    for r in rows:
        verdict = []
        if r["gain_holds"]:
            verdict.append("gain holds")
        if r["beyond_bound"]:
            verdict.append("WORSE BEYOND BOUND")
        if r["unresolved"]:
            verdict.append("unresolved")
        lines.append(f"{r['name']:20s} {r['parent']:11.5g} "
                     f"{r['change']:11.5g} "
                     f"{r['q1']:11.5g}-{r['q3']:<11.5g} "
                     f"{r['wins']:>3d}/{r['pairs']:<3d}  "
                     + (", ".join(verdict) or "-"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.partition("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.seconds <= 0:
        parser.error(f"--seconds must be positive, got {args.seconds:g}")
    for checkout in (args.parent, args.change):
        stale = sorted((checkout / "src").rglob("__pycache__"))
        if stale:
            print(f"ab_pairs: stale bytecode in {stale[0]}: remove every "
                  f"__pycache__ under {checkout / 'src'}", file=sys.stderr)
            return 2
    specs = json.loads(
        (args.change / "BENCHMARK.json").read_text())["end_to_end"]

    parent_runs, change_runs = [], []
    try:
        for i in range(args.pairs):
            sides = [(args.parent, parent_runs), (args.change, change_runs)]
            for checkout, runs in sides[::-1] if i % 2 else sides:
                runs.append(run_once(checkout, args.workload, args.seed,
                                     args.seconds))
            print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)
    except RunFailed as exc:
        print(f"ab_pairs: run failed: {exc}", file=sys.stderr)
        return 2
    rows = summarize(parent_runs, change_runs, specs)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs")
    print(report(rows))
    return 1 if any(r["beyond_bound"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
