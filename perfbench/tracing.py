"""Per-layer tracing of one CLI analysis from outside the program.

Public functions of each epinteract layer are replaced, at the module
attribute their caller looks up, by wrappers that record a span (name,
start, end, parent) and count the call. The originals are put back when the
``installed`` block ends. Spans stay in memory; ``layer_metrics`` turns them
into totals, self times and counts.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

LAYERS = ("data", "model", "fitting", "measures", "simci", "cli")

# (module, attribute, span name, observation taken from the return value).
# The module is where the caller looks the name up, so e.g. the CLI's call to
# simulate is traced at epinteract.cli.simulate.
TRACE_POINTS = (
    ("epinteract.cli", "main", "cli.main", None),
    ("epinteract.cli", "load_fixture", "data.load", "records"),
    ("epinteract.data:Dataset", "from_csv", "data.load", "records"),
    ("epinteract.cli", "covariate_distribution", "data.covariate_distribution", "patterns"),
    ("epinteract.cli", "parse_formula", "model.parse_formula", None),
    ("epinteract.cli", "expand_dataset", "model.expand_dataset", None),
    ("epinteract.model", "build_design_row", "model.build_design_row", None),
    ("epinteract.measures", "build_design_row", "model.build_design_row", None),
    ("epinteract.cli", "fit", "fitting.fit", "iterations"),
    ("epinteract.fitting", "log_likelihood", "fitting.log_likelihood", None),
    ("epinteract.fitting", "score", "fitting.score", None),
    ("epinteract.fitting", "observed_information", "fitting.observed_information", None),
    ("epinteract.fitting", "deviance", "fitting.deviance", None),
    ("epinteract.fitting", "robust_covariance", "fitting.robust_covariance", None),
    ("epinteract.cli", "simulate", "simci.simulate", None),
    ("epinteract.simci", "cholesky", "simci.cholesky", "jitter"),
    ("epinteract.simci", "batch_measures", "measures.batch_measures", "clamped_draws"),
    ("epinteract.simci", "measure_set", "measures.measure_set", None),
    ("epinteract.cli", "measure_set", "measures.measure_set", None),
    ("epinteract.measures", "risk_table", "measures.risk_table", None),
    ("epinteract.simci", "percentile_interval", "simci.percentile_interval", None),
    ("epinteract.cli", "export_draws_csv", "simci.export_draws_csv", None),
    ("epinteract.cli", "histogram", "simci.histogram", None),
    ("epinteract.cli", "summary_dict", "simci.summary_dict", None),
)


def _observe(kind, result):
    """Value recorded from a traced call's return value, or None."""
    if kind == "records":
        return len(getattr(result, "records", ()))
    if kind == "patterns":
        return len(getattr(result, "weights", {}))
    if kind == "iterations":
        return getattr(result, "iterations", None)
    if kind in ("jitter", "clamped_draws") and isinstance(result, tuple) and len(result) == 2:
        return result[1]
    return None


class Tracer:
    """Spans of one analysis: each is [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.observed = {}
        self._stack = []

    def wrap(self, name, fn, observe=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.calls[name] += 1
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                value = _observe(observe, result)
                if value is not None:
                    self.observed[observe] = self.observed.get(observe, 0) + value
            return result

        return traced


def _resolve(target):
    """The module, or class within it, named by target; None if absent."""
    module_name, _, class_name = target.partition(":")
    obj = sys.modules.get(module_name)
    return getattr(obj, class_name, None) if class_name else obj


def _patch(owner, attr, make_wrapper):
    """Replace owner.attr by make_wrapper(function); returns the restore
    action, or None when the attribute does not exist."""
    static = None if owner is None else inspect.getattr_static(owner, attr, None)
    if static is None:
        return None
    if isinstance(static, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(static.__func__)))
    else:
        setattr(owner, attr, make_wrapper(static))
    return lambda: setattr(owner, attr, static)


@contextmanager
def installed(tracer: Tracer):
    """Trace every point of TRACE_POINTS that exists; restore on exit.
    Points that the program no longer has are listed on stderr."""
    restores, missing = [], []
    try:
        for target, attr, name, observe in TRACE_POINTS:
            restore = _patch(_resolve(target), attr,
                             lambda fn, n=name, o=observe: tracer.wrap(n, fn, o))
            if restore is None:
                missing.append(f"{target}.{attr}")
            else:
                restores.append(restore)
        if missing:
            print(f"trace: not traced (absent): {', '.join(missing)}", file=sys.stderr)
        yield tracer
    finally:
        for restore in reversed(restores):
            restore()


@contextmanager
def heap_peak(target, attr, peaks: list):
    """Append the tracemalloc peak, in bytes, of every call to target.attr.
    tracemalloc runs only inside those calls."""
    def make_wrapper(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured

    restore = _patch(_resolve(target), attr, make_wrapper)
    try:
        yield
    finally:
        if restore is not None:
            restore()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals, self times and counts of one traced analysis.

    A name's total counts only its outermost spans, so a traced function
    that calls another traced function of the same name is not counted
    twice. Self time is a span's duration minus its direct children's.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    total, self_time = Counter(), Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            total[name] += end - start
    layer_self = Counter()
    for name, value in self_time.items():
        layer_self[name.split(".", 1)[0]] += value

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "cli"}
    for name in ("cli.main", "simci.simulate", "measures.batch_measures"):
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_time[name]
    for name in ("data.load", "data.covariate_distribution", "model.parse_formula",
                 "model.expand_dataset", "model.build_design_row", "fitting.fit",
                 "measures.measure_set", "simci.cholesky", "simci.percentile_interval",
                 "simci.export_draws_csv", "simci.histogram"):
        m[f"{name}.s"] = total[name]
    for name in ("model.build_design_row", "fitting.observed_information",
                 "fitting.log_likelihood", "fitting.deviance", "measures.measure_set",
                 "measures.risk_table"):
        m[f"{name}.calls"] = tracer.calls[name]
    m["data.records"] = tracer.observed.get("records", 0)
    m["data.patterns"] = tracer.observed.get("patterns", 0)
    m["fitting.fit.iterations"] = tracer.observed.get("iterations", 0)
    m["simci.cholesky.jitter"] = tracer.observed.get("jitter", 0.0)
    m["measures.clamped_draws"] = tracer.observed.get("clamped_draws", 0)
    # every span's self time belongs to exactly one layer, so the layers'
    # self times must add up to the root span
    m["trace.self_sum_error_s"] = sum(layer_self.values()) - total["cli.main"]
    return m
