"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest perfbench -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from oracle import check_jones_output, continuant
from workloads import LongCF, Sweep, WideEntry

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "long_cf": LongCF(requests=12, min_len=3, max_len=8),
    "wide_entry": WideEntry(requests=8, lo=20, hi=40),
    "sweep": Sweep(max_sum=4, max_p=12,
                   counts=(("engine_agreement", 8), ("matchings_vs_numerators", 15),
                           ("even_vs_positive_graphs", 31),
                           ("continued_fraction_laws", 45))),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run the tiny workloads, writing records under tmp_path."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    for name, workload in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, workload)
    return tmp_path


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(tiny, name, trace):
    record = run.run_workload(name, seed=3, seconds=0, trace=trace)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:  # a slope over so few tiny inputs may take any sign
        assert all(m["value"] > 0 for k, m in record["metrics"].items()
                   if k != "crossing_exponent")
    written = json.loads((tiny / f"{name}-seed3-trace{trace}.json").read_text())
    assert written["output_sha256"] == record["output_sha256"]


def test_inputs_follow_the_seed():
    for workload in (LongCF(), WideEntry()):
        assert workload.make_inputs(5) == workload.make_inputs(5)
        assert workload.make_inputs(5) != workload.make_inputs(6)
        assert len(workload.make_inputs(5)) >= 100


def test_sweep_with_a_wrong_pinned_count_fails(tiny, monkeypatch):
    counts = dict(TINY["sweep"].counts)
    counts["matchings_vs_numerators"] += 1
    wrong = Sweep(max_sum=4, max_p=12, counts=tuple(counts.items()))
    monkeypatch.setitem(run.WORKLOADS, "sweep", wrong)
    record = run.run_workload("sweep", seed=1, seconds=0, trace=0)
    assert not record["correct"]
    assert record["failed"] == counts["matchings_vs_numerators"]


def _jones_json(entries):
    from twobridge import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["jones", "[" + ",".join(map(str, entries)) + "]",
                       "--positive", "--format", "json"])
    return rc, buf.getvalue()


@pytest.mark.parametrize("entries", [(2, 1, 2, 3), (3, 4, 1), (5,), (2, 2)])
def test_oracle_accepts_real_outputs(entries):
    rc, text = _jones_json(entries)
    problems, report = check_jones_output(entries, rc, text)
    assert problems == []
    assert report["value"]["num"] == continuant(entries)[0]


def test_oracle_flags_one_changed_coefficient():
    entries = (2, 1, 2, 3)
    rc, text = _jones_json(entries)
    report = json.loads(text)
    report["coefficients"][2][1] += 1
    problems, _ = check_jones_output(entries, rc, json.dumps(report))
    assert any(p.startswith("V(1)") for p in problems)


def test_oracle_flags_a_wrong_degree_and_exit_code():
    entries = (3, 4, 1)
    rc, text = _jones_json(entries)
    report = json.loads(text)
    report["degree"] = "100"
    problems, _ = check_jones_output(entries, rc, json.dumps(report))
    assert any("leading term" in p for p in problems)
    assert check_jones_output(entries, 3, text)[0] == ["exit code 3"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_cf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_sweep_wall_time_covers_the_input_generators(tiny):
    """A sweep pass's work includes the verify generators, which no latency covers."""
    workload = TINY["sweep"]
    mods, inputs, _ = run.setup(workload, seed=1)
    result = workload.run_pass(mods, inputs)
    assert result.failed == 0
    assert result.work_ns > sum(result.latencies_ns)
