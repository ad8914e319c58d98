"""Outside-in layer tracing for the benchmark.

A Tracer wraps a fixed list of public abset functions, one per layer
boundary, and records a span for each call: name, start, end, parent
span and op id.  Spans stay in memory and the latest op's spans are
written out when the run ends.  Wrappers are installed only for the
duration of one traced op and are removed again afterwards, so untraced
ops in the same process run the original code.

A function imported by name (``from .words import prefix_counts``) is
bound in the importing module too, so every abset module namespace that
holds the original object is patched, not only the defining one.
"""

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

# (module, attribute) of every spanned function.  "IndexSet.contains"
# names a method; the class binds it twice, as `contains` and as
# `__contains__` (the `in` operator).  `exact` and `errors` get no spans:
# `exact` is leaf arithmetic called from every other layer, so its cost
# is part of its callers' self time, and so is the time spent in the
# generator `words.letters`.
SPANNED = (
    ("cli", "main"),
    ("reporting", "write_json"),
    ("katznelson", "build_stages"),
    ("katznelson", "verify_stage"),
    ("katznelson", "dimension_bracket"),
    ("katznelson", "enumerate_E"),
    ("thin_orbit", "build_stages"),
    ("thin_orbit", "deleted_union"),
    ("thin_orbit", "restricted_covering"),
    ("words", "prefix_counts"),
    ("words", "evaluate_end"),
    ("index_sets", "IndexSet.contains"),
    ("diophantine", "parse_value"),
    ("diophantine", "minima_sequence"),
    ("diophantine", "integer_ratio_scan"),
    ("diophantine", "orbit_of_word"),
    ("diophantine", "orbit_separation_check"),
    ("diophantine", "dichotomy_scan"),
    ("dimension", "grid_covering"),
    ("dimension", "maximal_separated_subset"),
    ("dimension", "box_dim_series"),
    ("dimension", "assouad_probe_windows"),
)

OP_SPAN = "op"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


# Work counts read from a spanned call's arguments and result, summed
# per op.  Each entry maps a span name to f(args, result) -> {key: n}.
def _covering_counts(args, rep):
    # the unrestricted contrast survey draws one sample per random pick
    return {"evals": 2 * rep["samples_random"] + rep["samples_deterministic"],
            "cells": rep["cells_restricted"] + rep["cells_unrestricted"]}


def _points_in(args, _):
    return {"points_in": len(args[0])}


def _window_counts(args, reps):
    return {"points_in": len(args[0]),
            "anchors_probed": sum(r["anchors_probed"] for r in reps),
            "anchors_total": sum(r["anchors_total"] for r in reps)}


COUNTERS = {
    "reporting.write_json": lambda args, _: {"bytes": os.path.getsize(args[0])},
    "katznelson.enumerate_E": lambda _, sample: {"points": len(sample)},
    "thin_orbit.restricted_covering": _covering_counts,
    "diophantine.integer_ratio_scan": lambda _, rep: {
        "pairs": rep.pairs_examined, "qualifying": len(rep.qualifying)},
    "diophantine.orbit_separation_check": lambda _, rep: {
        "pairs": rep.pairs_checked, "undecided": rep.undecided},
    "dimension.grid_covering": _points_in,
    "dimension.maximal_separated_subset": _points_in,
    "dimension.box_dim_series": _points_in,
    "dimension.assouad_probe_windows": _window_counts,
}


class Tracer:
    """Spans and work counts of the traced ops of one run.

    `spans` holds the spans of the latest traced op; when an op ends its
    self times are added to `self_s` and its duration to `op_s`, so
    memory stays bounded by one op.
    """

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op id)
        self.self_s = {}     # span name -> summed self time
        self.op_s = []       # duration of each traced op
        self.calls = {}      # span name -> number of calls
        self.counts = {}     # "span.key" -> summed count
        self.ops = 0
        self._stack = []     # (span index, layer) of the open spans

    # -- patching ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name) for every binding of
        every spanned function in the loaded abset modules."""
        for module, _ in SPANNED:
            importlib.import_module(f"abset.{module}")
        mods = [mod for name, mod in sys.modules.items()
                if name.startswith("abset.") and mod is not None]
        out = []
        for module, attr in SPANNED:
            name = span_name(module, attr)
            home = sys.modules[f"abset.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                owners = [cls]
            else:
                fn = getattr(home, attr)
                owners = mods
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        out.append((owner, key, fn, name))
        return out

    def _wrap(self, name, fn):
        spans, stack, calls, counts = (self.spans, self._stack, self.calls,
                                       self.counts)
        op = self.ops
        layer = name.split(".")[0]
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent, caller = stack[-1]
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, op)
                calls[name] += 1
            # work is counted where it enters a layer, not again when the
            # layer calls itself (box_dim_series -> grid_covering)
            if counter is not None and caller != layer:
                for key, n in counter(args, result).items():
                    full = f"{name}.{key}"
                    counts[full] = counts.get(full, 0) + n
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def traced_op(self):
        """Run one op with every spanned function wrapped, under a root
        span named OP_SPAN; the originals are back in place on exit,
        also when the op raises."""
        self.ops += 1
        self.spans = [None]          # the root span, filled in at the end
        self._stack = [(0, OP_SPAN)]
        patched = []
        try:
            for owner, key, fn, name in self._targets():
                setattr(owner, key, self._wrap(name, fn))
                patched.append((owner, key, fn))
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self.spans[0] = (OP_SPAN, start, end, -1, self.ops)
                self._fold()
        finally:
            for owner, key, fn in reversed(patched):
                setattr(owner, key, fn)

    def _fold(self):
        """Add each span's self time (its duration minus the part its
        child spans cover) to `self_s`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + (end - start) - child[sid])
        name, start, end, _, _ = self.spans[0]
        self.op_s.append(end - start)

    def write(self, path: str) -> None:
        """The latest op's spans as tab-separated rows: id, name, start,
        end, parent, op (times in seconds of the process's perf_counter)."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{parent}\t{op}\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """The per-layer metrics of a traced run, per traced op:
    name -> (value, unit).  Self times of all spans plus `unattributed.s`
    (the op span's own self time) add up to `traced_op.s`."""
    n = tracer.ops
    selfs = tracer.self_s
    count = {k: v / n for k, v in tracer.counts.items()}
    out = {f"{span_name(m, a)}.s": (selfs.get(span_name(m, a), 0.0) / n, "s")
           for m, a in SPANNED}
    for name in ("words.prefix_counts", "index_sets.contains"):
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / n, "count")

    def c(key):
        return count.get(key, 0)

    cov = "thin_orbit.restricted_covering"
    ratio = "diophantine.integer_ratio_scan"
    sep = "diophantine.orbit_separation_check"
    win = "dimension.assouad_probe_windows"
    out.update({
        "reporting.report_bytes": (c("reporting.write_json.bytes"), "bytes"),
        "katznelson.enumerate_E.points": (c("katznelson.enumerate_E.points"),
                                          "count"),
        f"{cov}.evals": (c(f"{cov}.evals"), "count"),
        f"{cov}.cells_per_eval": (_ratio(c(f"{cov}.cells"), c(f"{cov}.evals")),
                                  "ratio"),
        f"{ratio}.pairs": (c(f"{ratio}.pairs"), "count"),
        f"{ratio}.qualifying_ratio": (
            _ratio(c(f"{ratio}.qualifying"), c(f"{ratio}.pairs")), "ratio"),
        f"{sep}.pairs": (c(f"{sep}.pairs"), "count"),
        f"{sep}.undecided_ratio": (
            _ratio(c(f"{sep}.undecided"), c(f"{sep}.pairs")), "ratio"),
        "dimension.points_in": (sum(v for k, v in count.items()
                                    if k.startswith("dimension.")
                                    and k.endswith(".points_in")), "count"),
        f"{win}.anchors_total": (c(f"{win}.anchors_total"), "count"),
        f"{win}.anchor_ratio": (
            _ratio(c(f"{win}.anchors_probed"), c(f"{win}.anchors_total")),
            "ratio"),
        "unattributed.s": (selfs.get(OP_SPAN, 0.0) / n, "s"),
        "traced_op.s": (sum(tracer.op_s) / n, "s"),
        "trace_overhead.s": (overhead_s, "s"),
    })
    return out
