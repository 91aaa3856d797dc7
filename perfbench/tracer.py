"""Span tracer for the per-layer run.

The tracer wraps public callables of the ``twobridge`` modules from outside:
the package binds names with ``from .x import y``, so each function is
replaced under every module attribute that refers to it, and ``HLPoly``
operators are replaced on the class.  Each call records a span (name, start,
end, parent span, request) in flat arrays kept in memory; self time is the
span's duration minus the time covered by its child spans.  ``total`` counts
only the outermost call of a name, so a name nested in itself is not counted
twice.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from time import perf_counter_ns

# span name -> (module, attributes); every attribute is one public callable
FUNCTIONS = (
    ("cli.main", "cli", ("main",)),
    ("cli.run", "cli", ("run",)),
    ("cli.emit", "cli", ("emit",)),
    ("cli.parse_input", "cli", ("parse_input",)),
    ("cfrac.eval_cf", "cfrac", ("eval_cf",)),
    ("cfrac.expand", "cfrac", ("positive_cf", "even_cf", "even_cf_for_link")),
    ("cfrac.numerator_rec", "cfrac", ("numerator_rec",)),
    ("cfrac.euler_minding", "cfrac", ("euler_minding",)),
    ("jones.recursive", "jones", ("jones_recursive",)),
    ("jones.direct", "jones", ("jones_direct",)),
    ("jones.fpoly", "jones", ("jones_via_f",)),
    ("jones.degree_and_sign", "jones", ("degree_and_sign",)),
    ("jones.specialized_f", "jones", ("specialized_f_positive", "specialized_f_even")),
    ("jones.f_recursive", "jones", ("f_recursive",)),
    ("laurent.q_integer", "laurent", ("q_integer",)),
    ("laurent.q_power", "laurent", ("q_power",)),
    ("laurent.specialize_y", "laurent", ("specialize_y",)),
    ("snake.construct", "snake", ("snake_from_positive", "snake_from_even")),
    ("snake.count_matchings", "snake", ("count_matchings",)),
    ("snake.enumerate", "snake", ("f_polynomial", "enumerate_matchings")),
    ("verify.check_engines", "verify", ("check_engines",)),
    ("verify.engine_agreement", "verify", ("engine_sweep",)),
    ("verify.matchings_vs_numerators", "verify", ("matching_sweep",)),
    ("verify.even_vs_positive_graphs", "verify", ("even_graph_sweep",)),
    ("verify.continued_fraction_laws", "verify", ("cfrac_sweep",)),
)

# span name -> HLPoly attributes
HLPOLY_METHODS = (
    ("laurent.mul", ("__mul__", "__rmul__")),
    ("laurent.add", ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("laurent.render", ("to_text", "to_latex")),
)

SPAN_NAMES = tuple(n for n, _, _ in FUNCTIONS) + tuple(n for n, _ in HLPOLY_METHODS)
COUNTERS = ("laurent.mul.term_products", "snake.matchings_enumerated")


def term_count(x) -> int:
    """Number of terms of an HLPoly operand; a nonzero int operand has one."""
    if isinstance(x, int):
        return 1 if x else 0
    terms = getattr(x, "_terms", None)
    return len(terms) if isinstance(terms, dict) else len(x.items())


def _mul_products(args, result):
    return term_count(args[0]) * term_count(args[1])


def _matchings(args, result):
    # f_polynomial: one height monomial per matching (heights determine
    # matchings); enumerate_matchings: one list entry per matching
    return len(result)


_COUNTS = {
    "laurent.mul": ("laurent.mul.term_products", _mul_products),
    "snake.enumerate": ("snake.matchings_enumerated", _matchings),
}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        n = len(self.names)
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.calls = [0] * n
        self._active = [0] * n
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self._stack = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._undo = []

    def clear_spans(self):
        for arr in (self.span_name, self.span_parent, self.span_request,
                    self.span_start, self.span_end):
            del arr[:]

    def wrap(self, name, fn):
        nid = self.names.index(name)
        stack, active = self._stack, self._active
        self_ns, total_ns, calls = self.self_ns, self.total_ns, self.calls
        s_name, s_parent, s_request = self.span_name, self.span_parent, self.span_request
        s_start, s_end = self.span_start, self.span_end
        counter, count = _COUNTS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_request.append(tracer.request)
            s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            active[nid] += 1
            start = perf_counter_ns()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                s_end[idx] = end
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                active[nid] -= 1
                if not active[nid]:
                    total_ns[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                tracer.counts[counter] += count(args, result)
            return result

        return wrapper

    def install(self, mods):
        """Wrap every callable of FUNCTIONS and HLPOLY_METHODS.

        ``mods`` maps short module names ("cli", "cfrac", ...) to modules;
        every one of them is searched for bindings of each function.  Spans
        of modules the workload did not import stay empty.
        """
        for name, modname, attrs in FUNCTIONS:
            if modname not in mods:
                continue
            for attr in attrs:
                fn = getattr(mods[modname], attr)
                wrapper = self.wrap(name, fn)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
        cls = mods["laurent"].HLPoly
        for name, attrs in HLPOLY_METHODS:
            wrappers = {}
            for attr in attrs:
                fn = cls.__dict__[attr]
                if fn not in wrappers:
                    wrappers[fn] = self.wrap(name, fn)
                self._undo.append((cls, attr, fn))
                setattr(cls, attr, wrappers[fn])

    def uninstall(self):
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def write_spans(self, path):
        """Write the recorded spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,request,name,start_ns,end_ns\n")
            names = self.names
            for i, (nid, parent, req, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_request,
                    self.span_start, self.span_end)):
                out.write(f"{i},{parent},{req},{names[nid]},{start},{end}\n")
