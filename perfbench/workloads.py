"""Seeded inputs and one pass over them, for each workload.

A pass runs the workload's whole fixed input set once through a public
entry point and returns its time, the latency of each operation, and the
verdict of the checks and the digest of its outputs.

* ``long_cf``: ``twobridge jones <cf> --positive --format json`` on positive
  continued fractions with 20-100 entries drawn from the Gauss-Kuzmin law
  clipped to 1..6 (about 50-300 crossings).  Many engine steps, and
  coefficients grow to hundreds of bits.
* ``wide_entry``: the same command on continued fractions with 1-4 entries,
  each in 20..250.  Few steps, each a product with a long q-integer [b]_q.
* ``sweep``: ``verify.run_verify`` at fixed bounds; thousands of tiny inputs,
  so it is overhead-bound.  Its inputs are exhaustive; the seed changes
  nothing.

Lengths, entry counts and entry values are drawn one per stratum, so that
every seed gives about the same amount of work: other seeds change the
inputs, not the size of the task.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter_ns

from oracle import check_jones_output

# Gauss-Kuzmin law P(a = k) = -log2(1 - 1/(k+1)^2); values above 5 clip to 6
_GK_CDF = list(accumulate(-math.log2(1 - 1 / (k + 1) ** 2) for k in range(1, 6)))


def gauss_kuzmin(u) -> int:
    """The partial quotient at quantile u of the Gauss-Kuzmin law clipped to 1..6."""
    for k, bound in enumerate(_GK_CDF, start=1):
        if u < bound:
            return k
    return 6


def gauss_kuzmin_entries(rng, n):
    """n partial quotients by systematic sampling, in random order.

    Each value k occurs n*P(k) times, rounded up or down, so the entry sum
    (the crossing number) of a length-n list hardly depends on the seed.
    """
    u = rng.random()
    entries = [gauss_kuzmin((j + u) / n) for j in range(n)]
    rng.shuffle(entries)
    return tuple(entries)


def reference_loop():
    """Fixed pure-Python work of about a millisecond: integer arithmetic and dict stores."""
    acc = 0
    table = {}
    for i in range(6000):
        acc += i * i
        table[i & 255] = acc
    return acc


def reference_ns() -> int:
    """Time of one run of the reference loop, the benchmark's speed gauge."""
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


@dataclass(frozen=True)
class PassResult:
    work_ns: int         # the pass's time without reference loops and checks
    latencies_ns: list   # per operation, in input order
    gauge: list          # per operation, index into reference_ns
    reference_ns: list   # reference loop times, in the order they were taken
    crossings: list      # per operation, its crossing number, or None
    attempted: int
    failed: int
    sizes: dict          # largest output sizes: laurent.max_terms, max_coeff_bits
    digest: str          # sha256 of the outputs in input order
    counts: dict = None  # sweep check counts by sweep name


class JonesWorkload:
    """Shared pass for the two ``twobridge jones`` workloads."""

    modules = ("twobridge.cli",)

    def argv(self, entries):
        return ["jones", "[" + ",".join(map(str, entries)) + "]",
                "--positive", "--format", "json"]

    def run_pass(self, mods, inputs, tracer=None) -> PassResult:
        """Every request once, each followed by one run of the reference loop.

        Each output is checked by the oracle and added to the digest right
        after its request, outside the timed work, and then dropped, so the
        process holds one output at a time.
        """
        main = mods["cli"]
        latencies, gauge = [], []
        digest = hashlib.sha256()
        failed = terms = bits = excluded = 0
        begin = perf_counter_ns()
        for i, (entries, argv) in enumerate(inputs):
            if tracer is not None:
                tracer.request = i
            buf = io.StringIO()
            start = perf_counter_ns()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main.main(argv)
            except Exception as exc:  # a crash is a failed request, not a stop
                rc = f"uncaught {exc!r}"
            end = perf_counter_ns()
            latencies.append(end - start)
            text = buf.getvalue()
            digest.update(text.encode())
            problems, report = check_jones_output(entries, rc, text)
            if problems:
                failed += 1
                print(f"# wrong output for {list(entries)}: {'; '.join(problems)}",
                      file=sys.stderr)
            if report is not None:
                coefficients = report["coefficients"]
                terms = max(terms, len(coefficients))
                bits = max([bits] + [abs(int(c)).bit_length() for _, c in coefficients])
            gauge.append(reference_ns())
            excluded += perf_counter_ns() - end
        work = perf_counter_ns() - begin - excluded
        return PassResult(work, latencies, list(range(len(gauge))), gauge,
                          [sum(entries) for entries, _ in inputs],
                          len(inputs), failed,
                          {"laurent.max_terms": terms, "laurent.max_coeff_bits": bits},
                          digest.hexdigest())


@dataclass(frozen=True)
class LongCF(JonesWorkload):
    requests: int = 100
    min_len: int = 20
    max_len: int = 100

    def make_inputs(self, seed):
        rng = random.Random(f"long_cf:{seed}")
        width = (self.max_len - self.min_len + 1) / self.requests
        lengths = [self.min_len + int((i + rng.random()) * width)
                   for i in range(self.requests)]
        rng.shuffle(lengths)
        cfs = [gauss_kuzmin_entries(rng, n) for n in lengths]
        return [(cf, self.argv(cf)) for cf in cfs]


MAX_ENTRIES = 4  # wide_entry continued fractions have 1..MAX_ENTRIES entries


@dataclass(frozen=True)
class WideEntry(JonesWorkload):
    requests: int = 100
    lo: int = 20
    hi: int = 250

    def make_inputs(self, seed):
        """``requests // MAX_ENTRIES`` requests of each entry count 1..MAX_ENTRIES.

        Entries are stratified over lo..hi.  The layout is fixed: which
        strata meet in one request and the parity of each entry, since the
        parities shape the even continued fraction and with it most of the
        engines' work.  The seed picks each entry inside its stratum, with
        that parity, and the order of the requests.
        """
        layout = random.Random("wide_entry layout")
        rng = random.Random(f"wide_entry:{seed}")
        cfs = []
        for n in range(1, MAX_ENTRIES + 1):
            rows = self.requests // MAX_ENTRIES
            width = (self.hi - self.lo + 1) / rows
            columns = []
            for _ in range(n):
                strata = list(range(rows))
                layout.shuffle(strata)
                column = []
                for k in strata:
                    stratum = range(self.lo + int(k * width), self.lo + int((k + 1) * width))
                    parity = layout.randrange(2)
                    column.append(rng.choice([v for v in stratum if v % 2 == parity]))
                columns.append(column)
            cfs.extend(zip(*columns))
        rng.shuffle(cfs)
        return [(cf, self.argv(cf)) for cf in cfs]


# sweep inputs checked per run of the reference loop, and the runs of it
# before and after the sweeps
GAUGE_EVERY = 64
GAUGE_EDGE = 5

# the verify generators the sweeps take their inputs from
_SWEEP_SOURCES = ("even_lists", "positive_lists", "coprime_fractions")
SWEEPS = {  # check name -> verify function
    "engine_agreement": "engine_sweep",
    "matchings_vs_numerators": "matching_sweep",
    "even_vs_positive_graphs": "even_graph_sweep",
    "continued_fraction_laws": "cfrac_sweep",
}


@dataclass(frozen=True)
class Sweep:
    """``verify.run_verify(max_sum, max_p)`` with its check counts pinned."""

    max_sum: int = 12
    max_p: int = 200
    counts: tuple = (("engine_agreement", 674),
                     ("matchings_vs_numerators", 4083),
                     ("even_vs_positive_graphs", 8156),
                     ("continued_fraction_laws", 12231))

    modules = ("twobridge.verify",)

    def make_inputs(self, seed):
        """None: the sweeps enumerate their inputs, whatever the seed."""
        return None

    def failed(self, counts):
        """Failed checks: a sweep whose count is not the pinned one, or a
        pass that raised (``counts`` None), fails all of its checks."""
        pinned = dict(self.counts)
        if counts is None or set(counts) != set(pinned):
            return sum(pinned.values())
        failed = sum(n for name, n in pinned.items() if counts[name] != n)
        if failed:
            print(f"# sweep counts {counts}, pinned {pinned}", file=sys.stderr)
        return failed

    def run_pass(self, mods, inputs, tracer=None) -> PassResult:
        """One ``run_verify`` call, timing each checked input.

        Each sweep iterates a generator of ``verify``; the generator is
        replaced for the call by one that notes the time from handing out an
        input to being asked for the next, which is the time to check it, and
        runs the reference loop before every GAUGE_EVERY-th input.  A traced
        pass runs it only before and after the sweeps, where no span is open.
        The even-graph sweep skips fractions with p and q odd, which are not
        checks and get no sample.  The pass's work is the whole call, the
        generators included, without the reference loops run inside it.
        """
        verify = mods["verify"]
        if tracer is not None:
            tracer.request = -1
        ops = []      # (crossings or None, latency ns, gauge index), in time order
        gauge = [reference_ns() for _ in range(GAUGE_EDGE)]
        every = GAUGE_EVERY if tracer is None else None
        current = [None]
        saved = {}

        def timed_source(fn):
            def source(*args, **kwargs):
                sweep = current[0]
                jones = sweep == "engine_agreement"
                skip_odd = sweep == "even_vs_positive_graphs"
                for item in fn(*args, **kwargs):
                    if tracer is not None:
                        tracer.request += 1
                    if every and not len(ops) % every:
                        gauge.append(reference_ns())
                    start = perf_counter_ns()
                    yield item
                    ns = perf_counter_ns() - start
                    if not (skip_odd and item.numerator * item.denominator % 2):
                        ops.append((sum(map(abs, item)) if jones else None,
                                    ns, len(gauge) - 1))
            return source

        def marked(sweep, fn):
            def run(*args, **kwargs):
                current[0] = sweep
                return fn(*args, **kwargs)
            return run

        for attr in _SWEEP_SOURCES:
            saved[attr] = getattr(verify, attr)
            setattr(verify, attr, timed_source(saved[attr]))
        for sweep, attr in SWEEPS.items():
            saved[attr] = getattr(verify, attr)
            setattr(verify, attr, marked(sweep, saved[attr]))
        begin = perf_counter_ns()
        try:
            counts = verify.run_verify(max_sum=self.max_sum, max_p=self.max_p)
        except Exception:  # a mismatch fails the pass, not the run
            traceback.print_exc()
            counts = None
        finally:
            work = perf_counter_ns() - begin - sum(gauge[GAUGE_EDGE:])
            for attr, fn in saved.items():
                setattr(verify, attr, fn)
        gauge.extend(reference_ns() for _ in range(GAUGE_EDGE))
        crossings, latencies, gauge_of = map(list, zip(*ops)) if ops else ([], [], [])
        output = json.dumps(counts, sort_keys=True)
        return PassResult(work, latencies, gauge_of, gauge, crossings,
                          sum(n for _, n in self.counts), self.failed(counts), {},
                          hashlib.sha256(output.encode()).hexdigest(), counts)
