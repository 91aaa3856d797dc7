"""The summary arithmetic of ``scripts/ab_pairs.py`` on canned results.

No benchmark runs here: the pairs are made-up metric values.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

SPECS = [{"name": "wall_s", "better": "lower", "bound": 0.2},
         {"name": "throughput_per_s", "better": "higher", "bound": 0.2}]


def runs(wall, throughput):
    return [{"wall_s": w, "throughput_per_s": t}
            for w, t in zip(wall, throughput)]


def row(rows, name):
    return next(r for r in rows if r["name"] == name)


def test_clear_gain_on_ten_pairs():
    parent = runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [100] * 10)
    change = runs([8, 9, 8, 9, 8, 9, 8, 9, 8, 9], [110] * 10)
    rows = ab_pairs.summarize(parent, change, SPECS)
    wall = row(rows, "wall_s")
    assert (wall["parent"], wall["change"], wall["wins"]) == (12, 8.5, 10)
    # exclusive quartiles of 10, 10, 11, 11, 12, 12, 13, 13, 14, 14
    assert (wall["q1"], wall["q3"]) == (10.75, 13.25)
    assert wall["gain_holds"] and not wall["beyond_bound"]
    tput = row(rows, "throughput_per_s")
    assert tput["wins"] == 10 and tput["q3"] - tput["q1"] == 0
    assert tput["gain_holds"]


def test_nine_of_ten_wins_is_enough_eight_is_not():
    parent = runs([10] * 10, [100] * 10)
    change = runs([5] * 9 + [11], [100] * 10)
    wall = row(ab_pairs.summarize(parent, change, SPECS), "wall_s")
    assert wall["gain_holds"]
    change = runs([5] * 8 + [11, 11], [100] * 10)
    wall = row(ab_pairs.summarize(parent, change, SPECS), "wall_s")
    assert wall["wins"] == 8 and not wall["gain_holds"]


def test_gap_must_exceed_the_parent_iqr():
    # every pair won, but the medians differ by 1 against an IQR of 2.5
    parent = runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [100] * 10)
    change = runs([9.9, 10.9, 11.9, 12.9, 13.9] * 2, [100] * 10)
    wall = row(ab_pairs.summarize(parent, change, SPECS), "wall_s")
    assert wall["wins"] == 10 and not wall["gain_holds"]


def test_worse_beyond_bound_in_either_direction():
    parent = runs([10] * 4, [100] * 4)
    change = runs([12.1] * 4, [79] * 4)
    rows = ab_pairs.summarize(parent, change, SPECS)
    assert row(rows, "wall_s")["beyond_bound"]
    assert row(rows, "throughput_per_s")["beyond_bound"]
    change = runs([11.9] * 4, [81] * 4)
    rows = ab_pairs.summarize(parent, change, SPECS)
    assert not any(r["beyond_bound"] or r["gain_holds"] for r in rows)
    assert "WORSE" not in ab_pairs.report(rows)


def test_spread_wider_than_the_bound_is_unresolved():
    # parent IQR 10.75-13.25 around a median of 12: 21 % against a 20 % bound
    parent = runs([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [100] * 10)
    change = runs([11, 12, 13, 14, 15] * 2, [100] * 10)
    rows = ab_pairs.summarize(parent, change, SPECS)
    wall = row(rows, "wall_s")
    assert wall["unresolved"] and not wall["beyond_bound"]
    assert not row(rows, "throughput_per_s")["unresolved"]
    assert "unresolved" in ab_pairs.report(rows).splitlines()[1]
    # unless every change run beats every parent run
    change = runs([9.9] * 10, [100] * 10)
    wall = row(ab_pairs.summarize(parent, change, SPECS), "wall_s")
    assert not wall["unresolved"]


def test_spread_within_the_bound_is_resolved():
    # IQR 1 around a median of 10 is 10 %, inside the 20 % bound
    parent = runs([9.5, 10.5] * 5, [100, 120] * 5)
    change = runs([10.5, 11.5] * 5, [100] * 10)
    rows = ab_pairs.summarize(parent, change, SPECS)
    assert not any(r["unresolved"] for r in rows)
    assert "unresolved" not in ab_pairs.report(rows)


def test_one_pair_has_zero_iqr():
    rows = ab_pairs.summarize(runs([10], [100]), runs([9], [101]), SPECS)
    wall = row(rows, "wall_s")
    assert (wall["q1"], wall["q3"], wall["wins"]) == (10, 10, 1)
    assert wall["gain_holds"]


def test_last_json_line():
    text = '# comment\n{"a": 1}\nwall_s 0.3 s\n{"correct": true}\n'
    assert ab_pairs.last_json_line(text) == {"correct": True}
    with pytest.raises(ab_pairs.RunFailed):
        ab_pairs.last_json_line("# nothing\n{broken\n")


def test_failed_run_exits_2(tmp_path):
    # a checkout whose benchmark fails at once
    for side in ("parent", "change"):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("raise SystemExit(1)\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPECS}))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "sweep", "--seed", "1",
         "--pairs", "1"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "run failed" in out.stderr


def test_hung_run_times_out_and_exits_2(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    timeouts = []

    def hang(argv, timeout=None, **kwargs):
        timeouts.append(timeout)
        raise subprocess.TimeoutExpired(argv, timeout)

    monkeypatch.setattr(ab_pairs.subprocess, "run", hang)
    assert ab_pairs.main([str(tmp_path), str(tmp_path), "--workload", "sweep",
                          "--seed", "1", "--seconds", "8"]) == 2
    # the first run fails, and the comparison stops there
    assert timeouts == [4 * 8 + 120]
    err = capsys.readouterr().err
    assert "run failed" in err and "no result after 152 s" in err


@pytest.mark.parametrize("option, value, message", [
    ("--pairs", "0", "--pairs must be at least 1, got 0"),
    ("--pairs", "-3", "--pairs must be at least 1, got -3"),
    ("--seconds", "0", "--seconds must be positive, got 0"),
    ("--seconds", "-1.5", "--seconds must be positive, got -1.5")])
def test_out_of_range_arguments_fail_before_any_run(tmp_path, option, value,
                                                    message):
    # a benchmark that leaves a mark when it runs
    for side in ("parent", "change"):
        bench = tmp_path / side / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("open('ran', 'w').close()\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPECS}))
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "sweep", "--seed", "1",
         f"{option}={value}"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    assert not list(tmp_path.glob("*/ran"))


@pytest.mark.parametrize("side", ["parent", "change"])
def test_stale_bytecode_fails_before_any_run(tmp_path, side):
    # a benchmark that leaves a mark when it runs, and bytecode in one
    # checkout's package
    for name in ("parent", "change"):
        bench = tmp_path / name / "perfbench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("open('ran', 'w').close()\n")
        (tmp_path / name / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": SPECS}))
    cache = tmp_path / side / "src" / "pkg" / "__pycache__"
    cache.mkdir()
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"),
         str(tmp_path / "change"), "--workload", "sweep", "--seed", "1",
         "--pairs", "1"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert f"stale bytecode in {cache}" in out.stderr
    assert not list(tmp_path.glob("*/ran"))


def test_runs_write_no_bytecode(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    envs = []

    def fail(argv, env=None, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(argv, 1, "", "")

    monkeypatch.setattr(ab_pairs.subprocess, "run", fail)
    assert ab_pairs.main([str(tmp_path), str(tmp_path), "--workload", "sweep",
                          "--seed", "1"]) == 2
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1"]
