"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of relog from outside: every binding of a
traced function in a loaded ``relog`` module is replaced by a wrapper that
records a span (name, call site, start, end, parent) and passes arguments,
results and exceptions through unchanged.  Nothing under ``src/`` is edited,
and the untraced run never installs a wrapper.

Spans stay in memory until the round ends; ``summarize`` turns them into
per-layer numbers and ``write_spans`` stores them as one tab-separated file.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

import relog.errors
import relog.interp


def _length(args, result, error):
    return None if error else (len(result),)


def _entails_counts(args, result, error):
    """Holds, fails and valuations scanned.  The valuations are computed from
    outside: the whole grid of every algebra when the entailment holds;
    otherwise the grids of the algebras before the countermodel's one plus
    the countermodel's lexicographic rank + 1."""
    if error is not None:
        return None
    algebras, premises, conclusion = args[:3]
    names = sorted(set(conclusion.variables()).union(
        *[p.variables() for p in premises]))
    k = len(names)
    if result.holds:
        return 1, 0, sum(a.size ** k for a in algebras)
    model = result.countermodel
    rank = 0
    for name in names:
        rank = rank * model.algebra.size + model.valuation[name]
    before = 0
    for a in algebras:
        if a is model.algebra:
            break
        before += a.size ** k
    return 0, 1, before + rank + 1


def _interpolant_counts(args, result, error):
    """Candidates scanned, and the outcome when no interpolant is returned."""
    if error is None:
        return result.scanned, 0, 0, 0
    if isinstance(error, (relog.errors.NoSharedVariables, relog.errors.NotEntailed)):
        return 0, 1, 0, 0
    if isinstance(error, relog.errors.InterpolantNotFound):
        return error.scanned, 0, 1, 0
    if isinstance(error, relog.errors.CapExceeded):
        return 0, 0, 0, 1
    return None


# (module, function, counts, counter) for every traced public function.  The
# span name is "<module>.<function>" and its layer is the module; the counter
# turns (args, result, error) into values for the named counts.
TRACED_FUNCTIONS = (
    ("algebra", "builtin", (), None),
    ("algebra", "power", (), None),
    ("algebra", "subalgebra", (), None),
    ("algebra", "quotient", (), None),
    ("subcon", "congruence_lattice", ("congruences",), _length),
    ("subcon", "principal_congruence", (), None),
    ("subcon", "all_subuniverses", ("universes",), _length),
    ("subcon", "generated_subuniverse", (), None),
    ("subcon", "check_cep_pair", ("witnesses",), _length),
    ("subcon", "hs_class", ("classes",), _length),
    ("subcon", "check_cep_class", ("checked", "failed"),
     lambda args, result, error: None if error else (result[2], len(result[1]))),
    ("morph", "isomorphisms", ("found",), _length),
    ("morph", "automorphisms", ("found",), _length),
    ("morph", "embeddings", ("found",), _length),
    ("logic", "parse_formula", (), None),
    ("logic", "entails", ("holds", "fails", "valuations"), _entails_counts),
    ("logic", "verify_countermodel", (), None),
    ("interp", "free_algebra", ("elements",),
     lambda args, result, error: None if error else (result.element_count,)),
    ("interp", "maehara_interpolant", ("scanned", "rejected", "not_found", "cap_exceeded"),
     _interpolant_counts),
    ("interp", "verify_interpolant", (), None),
    ("reproduce", "run_claims_suite", (), None),
    ("cli", "main", (), None),
)

# FreeAlgebra.ensure is the one entry into the uniform-cost closure that
# grows it element by element; its span is the free-closure layer boundary.
FREE_CLOSURE = "interp.free_closure"

# Every span name a summary reports, with the counts each one carries.
SPAN_COUNTS = {f"{m}.{f}": keys for m, f, keys, _ in TRACED_FUNCTIONS}
SPAN_COUNTS[FREE_CLOSURE] = ("admitted",)
LAYERS = ("bench", "algebra", "subcon", "morph", "logic", "interp", "reproduce", "cli")

# Free-closure spans averaged for the marginal cost per admitted element.
MARGINAL_CHUNK = 50


class Tracer:
    """Collects spans for one round; `install` wraps, `uninstall` restores."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, site, start, end, parent, counts]
        self._stack = []
        self._restore = []

    def enter(self, name, site="bench"):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def exit(self, index, counts=None):
        span = self.spans[index]
        span[3] = perf_counter()
        span[5] = counts
        self._stack.pop()

    def _wrap(self, fn, name, site, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name, site)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.spans[index][3] = perf_counter()
                self._stack.pop()
                if counter is not None:
                    self.spans[index][5] = counter(args, result, error)
        return traced

    def install(self):
        """Wrap every binding of each traced function in every loaded relog module."""
        for module_name, _, _, _ in TRACED_FUNCTIONS:
            importlib.import_module(f"relog.{module_name}")
        modules = [(name, module) for name, module in list(sys.modules.items())
                   if module is not None and (name == "relog" or name.startswith("relog."))]
        for module_name, func_name, _, counter in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"relog.{module_name}"], func_name)
            span_name = f"{module_name}.{func_name}"
            for name, module in modules:
                site = name.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, self._wrap(original, span_name, site, counter))
                        self._restore.append((module, attr, original))
        original_ensure = relog.interp.FreeAlgebra.ensure

        @functools.wraps(original_ensure)
        def ensure(fa, element_id):
            before = len(fa.vectors)
            index = self.enter(FREE_CLOSURE, "interp")
            try:
                return original_ensure(fa, element_id)
            finally:
                self.exit(index, (len(fa.vectors) - before,))

        relog.interp.FreeAlgebra.ensure = ensure
        self._restore.append((relog.interp.FreeAlgebra, "ensure", original_ensure))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def summarize(spans):
    """Per-span-name calls, busy and self time and counts, per-layer self
    time, and the derived rates, as a flat {metric: value} dict."""
    child_time = [0.0] * len(spans)
    for name, site, start, end, parent, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for name, keys in SPAN_COUNTS.items():
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        for key in keys:
            out[f"{name}.{key}"] = 0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = 0.0
    out["interp.entails.busy_s"] = 0.0
    admitting = []
    for index, (name, site, start, end, parent, counts) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        out[f"layer.{name.partition('.')[0]}.self_s"] += own
        keys = SPAN_COUNTS.get(name)
        if keys is None:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{name}.self_s"] += own
        for key, value in zip(keys, counts or ()):
            out[f"{name}.{key}"] += value
        if name == "logic.entails" and site == "interp":
            out["interp.entails.busy_s"] += duration
        if name == FREE_CLOSURE and counts[0]:
            admitting.append((duration, counts[0]))
    busy = out["logic.entails.busy_s"]
    out["logic.entails.valuations_per_s"] = out["logic.entails.valuations"] / busy if busy else 0.0
    last = admitting[-MARGINAL_CHUNK:]
    admitted = sum(n for _, n in last)
    out[f"{FREE_CLOSURE}.marginal_us_per_element"] = (
        1e6 * sum(d for d, _ in last) / admitted if admitted else 0.0)
    out["trace.spans"] = len(spans)
    return out


def write_spans(path, run_id, spans):
    """One line per span: run id, index, name, site, start, end, parent."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("run_id\tindex\tname\tsite\tstart\tend\tparent\n")
        for index, (name, site, start, end, parent, _) in enumerate(spans):
            handle.write(f"{run_id}\t{index}\t{name}\t{site}\t{start:.9f}\t{end:.9f}\t{parent}\n")
