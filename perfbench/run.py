"""Benchmark of twobridge: end-to-end metrics, or per-layer metrics when traced.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload long_cf --seed 1 --seconds 30 --trace 0

Workloads are ``long_cf``, ``wide_entry`` and ``sweep`` (see workloads.py and
README.md).  A run imports ``twobridge`` from ``src/`` of the checkout that
holds this file, generates its inputs from the seed, runs one warm-up pass
outside the timings, then repeats the input set until ``--seconds`` have
passed, checking every output.  Times are calibrated against a reference
loop (see REFERENCE_NS).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half traced and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (machine, output digest, spans of
the last traced pass) is written under ``.bench_out/``.

Exit codes: 0 when every output is correct, 1 when some output is wrong,
2 when ``twobridge`` cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracer import COUNTERS, SPAN_NAMES, Tracer
from workloads import SWEEPS, LongCF, Sweep, WideEntry, reference_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
# Times are calibrated: a measured time t is reported as t * REFERENCE_NS / g,
# where g is the gauge (see gauge()) of the reference loop runs next to it.
# Other load on a shared machine slows both alike, so the ratio holds still
# while raw times drift by tens of percent; the unit reads as time on a
# machine whose reference loop takes 1 ms.
REFERENCE_NS = 1_000_000
GAUGE_WINDOW = 5  # reference samples on each side of an operation

WORKLOADS = {"long_cf": LongCF(), "wide_entry": WideEntry(), "sweep": Sweep()}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "crossing_exponent": "log/log",
}
SIZE_NAMES = ("laurent.max_terms", "laurent.max_coeff_bits")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units["laurent.max_terms"] = "count"
    units["laurent.max_coeff_bits"] = "bits"
    for sweep in SWEEPS:
        units[f"verify.{sweep}.checks_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- set-up -----------------------------------------------------------------

def import_twobridge(names):
    """Import ``names`` afresh; returns {"twobridge": pkg, "cli": ..., ...}."""
    for key in [k for k in sys.modules if k.partition(".")[0] == "twobridge"]:
        del sys.modules[key]
    for name in names:
        importlib.import_module(name)
    pkg = sys.modules["twobridge"]
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"twobridge came from {pkg.__file__}, not from {SRC}")
    return {key.rpartition(".")[2]: mod for key, mod in sys.modules.items()
            if key.partition(".")[0] == "twobridge"}


def setup(workload, seed):
    """Import twobridge and make the inputs, several times.

    Returns the modules, the inputs and the median calibrated seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter_ns()
        mods = import_twobridge(workload.modules)
        inputs = workload.make_inputs(seed)
        elapsed = perf_counter_ns() - start
        times.append(elapsed * REFERENCE_NS / gauge([reference_ns() for _ in range(3)]))
        gc.collect()  # free the previous import's modules before the next
    return mods, inputs, statistics.median(times) / 1e9


# -- measurement ------------------------------------------------------------

def timed_passes(workload, mods, inputs, seconds, tracer=None):
    """Repeat whole passes until ``seconds`` have passed (at least one)."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.clear_spans()
        passes.append(workload.run_pass(mods, inputs, tracer))
    return passes


def gauge(reference):
    """The machine's speed from reference loop times: their mean without the
    lowest and the highest tenth.

    The reference time spreads widely and changes within milliseconds on a
    shared machine; a mean follows the share of time spent slow, where a
    median jumps between the fast and the slow times.
    """
    reference = sorted(reference)
    cut = len(reference) // 10
    return statistics.fmean(reference[cut:len(reference) - cut])


def calibrated(result):
    """Per-operation latencies of one pass, calibrated, in ns.

    Each latency is scaled by REFERENCE_NS over the gauge of the reference
    samples taken nearest to it.
    """
    g = result.reference_ns
    local = [gauge(g[max(0, i - GAUGE_WINDOW):i + GAUGE_WINDOW + 1])
             for i in range(len(g))]
    return [ns * REFERENCE_NS / local[j]
            for ns, j in zip(result.latencies_ns, result.gauge)]


def pass_seconds(result):
    """A pass's calibrated time without its reference loops and checks, in seconds."""
    return result.work_ns * REFERENCE_NS / gauge(result.reference_ns) / 1e9


def scaling_slope(points):
    """Least-squares slope of log latency on log crossings, (crossings, ns) points."""
    return statistics.linear_regression([math.log(c) for c, _ in points],
                                        [math.log(ns) for _, ns in points]).slope


def end_to_end(setup_s, peak_rss_mb, passes):
    """End-to-end metrics from the measured passes.

    Every input runs once per pass.  The latency percentiles are taken over
    the calibrated latencies of all operations of all passes.  The scaling
    slope uses each input's median latency over the passes.  ``wall_s`` is
    the median over the passes of the calibrated time of the whole input set.
    """
    latencies = [calibrated(p) for p in passes]
    samples = sorted(ns for pass_ns in latencies for ns in pass_ns)
    per_input = [statistics.median(ns) for ns in zip(*latencies)]
    scaling = [(c, ns) for c, ns in zip(passes[0].crossings, per_input)
               if c is not None]
    wall_s = statistics.median(pass_seconds(p) for p in passes)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "throughput_per_s": len(per_input) / wall_s,
        "latency_p50_ms": statistics.median(samples) / 1e6,
        "latency_p90_ms": statistics.quantiles(samples, n=10)[8] / 1e6,
        "peak_rss_mb": peak_rss_mb,
        "crossing_exponent": scaling_slope(scaling),
    }, len(samples)


def per_layer(tracer, traced, untraced, sizes):
    """Per-layer metrics, per traced pass; times calibrated by the passes' gauge."""
    n = len(traced)
    scale = REFERENCE_NS / gauge([g for p in traced for g in p.reference_ns]) / n / 1e9
    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.self_s"] = tracer.self_ns[i] * scale
        metrics[f"{name}.total_s"] = tracer.total_ns[i] * scale
        metrics[f"{name}.calls"] = tracer.calls[i] / n
    for name, value in tracer.counts.items():
        metrics[name] = value / n
    metrics.update(sizes)
    counts = traced[-1].counts or {}
    for sweep in SWEEPS:
        seconds = metrics[f"verify.{sweep}.total_s"]
        metrics[f"verify.{sweep}.checks_per_s"] = (
            counts.get(sweep, 0) / seconds if seconds else 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(pass_seconds(p) for p in traced)
        / statistics.median(pass_seconds(p) for p in untraced))
    return metrics


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result record (see main)."""
    workload = WORKLOADS[name]
    mods, inputs, setup_s = setup(workload, seed)
    warmup = timed_passes(workload, mods, inputs, 0)
    # the program's peak; a pass holds one output at a time, and the later
    # passes add only the benchmark's own timings
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        untraced = timed_passes(workload, mods, inputs, seconds / 2)
        tracer = Tracer()
        tracer.install(mods)
        try:
            traced = timed_passes(workload, mods, inputs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        measured = untraced + traced
    else:
        measured = timed_passes(workload, mods, inputs, seconds)
    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failed for p in measured)
    sizes = {key: max(p.sizes.get(key, 0) for p in measured) for key in SIZE_NAMES}
    digests = [p.digest for p in warmup + measured]
    if trace:
        units = per_layer_units()
        metrics = per_layer(tracer, traced, untraced, sizes)
        samples = None
    else:
        units = END_TO_END_UNITS
        metrics, samples = end_to_end(setup_s, peak_rss_mb, measured)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine(),
        "output_sha256": digests[0],
        "passes": {"warmup": 1, "measured": len(measured)},
        "latency_samples": samples,
        "uncalibrated": {
            "pass_wall_s_median": statistics.median(p.work_ns for p in measured) / 1e9,
            "reference_ms_median": statistics.median(
                g for p in measured for g in p.reference_ns) / 1e6,
        },
        "error_rate": failed / attempted,
        "correct": failed == 0 and len(set(digests)) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        tracer.write_spans(stem.with_suffix(".spans.csv.gz"))
    return record


def machine():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout's git repository, read from .git; or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as exc:
        print(f"perfbench: cannot import twobridge: {exc}", file=sys.stderr)
        return 2

    m = record["machine"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"# python {m['python']}  nproc {m['nproc']}  {m['platform']}  "
          f"commit {m['git_commit']}")
    print(f"# passes: 1 warm-up, {record['passes']['measured']} measured")
    print(f"# output_sha256 {record['output_sha256']}")
    print(f"# error_rate {record['error_rate']} ({record['failed']} of "
          f"{record['attempted']} operations failed)")
    if record["latency_samples"] is not None:
        print(f"# latency: {record['latency_samples']} samples, every input once "
              f"in each of {record['passes']['measured']} passes")
    raw = record["uncalibrated"]
    print(f"# uncalibrated: median pass {raw['pass_wall_s_median']:.4f} s, "
          f"reference loop {raw['reference_ms_median']:.4f} ms")
    for name, metric in record["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
