"""In-memory span tracer for the verdict benchmark.

The tracer wraps the package's public entry points from outside the
package: each function is replaced in every module namespace that binds
it (including names bound by ``from ... import``), and each method is
replaced on every class of its module that defines it.  A name that no
longer exists is skipped.  Spans are named by layer and operation
(``oracle.cond_sample``), never by class or function, so that the metric
names survive a change in which classes or functions implement a layer.

A span is ``(name, start, end, parent, verdict, a, b, c)``; ``parent`` is
the index of the enclosing span (-1 at the root) and ``verdict`` the
identifier of the verdict being traced.  The counts ``a, b, c`` depend on
the layer:

* ``model.*``: a = rows returned;
* ``oracle.*``: a = rows returned, b = queries charged, c = zero-support
  hits charged (both read from the oracle's ledger around the call);
* ``meantest.test``: a = statistic levels evaluated, b = pairs compared
  (sum of q^2 over those levels).

Everything runs on one thread, so spans nest strictly and the self time of
a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time

PACKAGE = "hypercube_tester"

# (span name, defining module, attribute)
FUNCTIONS = (
    ("harness.trial", "harness", "run_trial"),
    ("uniformity.node", "uniformity", "subcond_uni"),
    ("uniformity.edge", "uniformity", "edge_tester"),
    ("meantest.test", "meantest", "mean_tester"),
    ("meantest.test", "meantest", "gaussian_mean_tester"),
)

# (layer, modules whose classes are wrapped, method names)
METHODS = (
    (
        "oracle",
        ("oracle",),
        (
            "sample",
            "cond_sample",
            "estimate_edge_biases",
            "draw_restriction_sigma",
            "draw_restriction_fixed",
            "restricted",
        ),
    ),
    ("model", ("model", "zoo"), ("sample", "cond_sample", "edge_bias")),
)

# oracle operations that draw from the target and charge the ledger
ORACLE_DRAWS = (
    "oracle.sample",
    "oracle.cond_sample",
    "oracle.estimate_edge_biases",
    "oracle.draw_restriction_sigma",
    "oracle.draw_restriction_fixed",
)


def _first(result):
    # model draws return (array, zero-support flag)
    return result[0] if isinstance(result, tuple) else result


def _draw_rows(result) -> int:
    arr = _first(result)
    return arr.shape[0] if arr.ndim == 2 else 1


def _vector_rows(result) -> int:
    return len(_first(result))


ROWS = {
    "sample": _draw_rows,
    "cond_sample": _draw_rows,
    "edge_bias": _vector_rows,
    "estimate_edge_biases": _vector_rows,
    "draw_restriction_sigma": lambda result: 1,
    "draw_restriction_fixed": lambda result: 1,
    "restricted": lambda result: 0,
}


def _verdict_work(verdict) -> tuple[int, int]:
    """(levels evaluated, pairs compared) from a mean or gaussian verdict."""
    trace = verdict.trace
    levels = len(trace.get("z_levels", trace.get("reps", ())))
    q = int(trace.get("q", 0))
    return levels, levels * q * q


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.verdict = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, parent, a=0, b=0, c=0):
        self._stack.pop()
        self.spans[idx] = (name, start, time.perf_counter(), parent, self.verdict, a, b, c)

    def wrap_function(self, name: str, fn):
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            a = b = 0
            try:
                result = fn(*args, **kwargs)
                if name == "meantest.test":
                    a, b = _verdict_work(result)
                return result
            finally:
                self._close(idx, name, start, parent, a, b)

        return traced

    def _wrap_method(self, layer: str, op: str, fn):
        name = f"{layer}.{op}"
        rows = ROWS[op]
        if layer != "oracle":

            def traced(obj, *args, **kwargs):
                idx, parent = self._open()
                start = time.perf_counter()
                a = 0
                try:
                    result = fn(obj, *args, **kwargs)
                    a = rows(result)
                    return result
                finally:
                    self._close(idx, name, start, parent, a)

            return traced

        def traced_oracle(obj, *args, **kwargs):
            idx, parent = self._open()
            q0, z0 = obj.queries, obj.zero_support_hits
            start = time.perf_counter()
            a = 0
            try:
                result = fn(obj, *args, **kwargs)
                a = rows(result)
                return result
            finally:
                self._close(
                    idx, name, start, parent, a,
                    obj.queries - q0, obj.zero_support_hits - z0,
                )

        return traced_oracle

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == PACKAGE]
        for name, home, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), attr, None)
            if original is None:
                continue
            traced = self.wrap_function(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        for layer, homes, ops in METHODS:
            for home in homes:
                module = importlib.import_module(f"{PACKAGE}.{home}")
                for _, cls in inspect.getmembers(module, inspect.isclass):
                    if cls.__module__ != module.__name__:
                        continue
                    for op in ops:
                        original = cls.__dict__.get(op)
                        if inspect.isfunction(original):
                            self._patch(cls, op, self._wrap_method(layer, op, original))
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: str) -> None:
        """Write every span as gzip'd CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,verdict,name,start_s,end_s,parent,a,b,c\n")
            for i, (name, start, end, parent, verdict, a, b, c) in enumerate(self.spans):
                fh.write(
                    f"{i},{verdict},{name},{start - t0:.9f},{end - t0:.9f},{parent},{a},{b},{c}\n"
                )


def aggregate(spans: list, verdicts: set) -> dict:
    """Per span name, over the spans of the given verdicts: self time, total
    duration, count and summed counts; ``outer_*`` keeps only oracle calls not
    made from inside another oracle call, so nested calls are not counted twice."""
    child = [0.0] * len(spans)
    for name, start, end, parent, verdict, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, verdict, a, b, c) in enumerate(spans):
        if verdict not in verdicts:
            continue
        row = out.setdefault(
            name,
            {"self": 0.0, "total": 0.0, "count": 0, "a": 0, "b": 0,
             "outer_count": 0, "outer_a": 0, "outer_b": 0, "outer_c": 0, "roots": 0},
        )
        dur = end - start
        row["self"] += dur - child[i]
        row["total"] += dur
        row["count"] += 1
        row["a"] += a
        row["b"] += b
        if parent < 0:
            row["roots"] += 1
        if parent < 0 or not spans[parent][0].startswith("oracle."):
            row["outer_count"] += 1
            row["outer_a"] += a
            row["outer_b"] += b
            row["outer_c"] += c
    return out


def layer_metrics(agg: dict, verdicts: int) -> dict:
    """The per-layer metrics, normalised per verdict, from ``aggregate``."""

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def total(prefix, key):
        return sum(row[key] for name, row in agg.items() if name.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    mean_self = total("meantest.", "self")
    draws = sum(get(op, "outer_count") for op in ORACLE_DRAWS)
    restrictions = get("oracle.draw_restriction_sigma", "outer_count") + get(
        "oracle.draw_restriction_fixed", "outer_count"
    )
    return {
        "meantest.self_s": (mean_self / verdicts, "s"),
        "meantest.pairs_per_s": (ratio(total("meantest.", "b"), mean_self), "1/s"),
        "meantest.levels_per_verdict": (total("meantest.", "a") / verdicts, "count"),
        "model.sample_s": (get("model.sample", "self") / verdicts, "s"),
        "model.cond_sample_s": (get("model.cond_sample", "self") / verdicts, "s"),
        "model.edge_bias_s": (get("model.edge_bias", "self") / verdicts, "s"),
        "model.rows_drawn": (
            (get("model.sample", "a") + get("model.cond_sample", "a")) / verdicts, "count"
        ),
        "oracle.self_s": (total("oracle.", "self") / verdicts, "s"),
        "oracle.calls": (draws / verdicts, "count"),
        "oracle.rows_per_call": (
            ratio(sum(get(op, "outer_a") for op in ORACLE_DRAWS), draws), "count"
        ),
        "oracle.zero_support_ratio": (
            ratio(
                sum(get(op, "outer_c") for op in ORACLE_DRAWS),
                sum(get(op, "outer_b") for op in ORACLE_DRAWS),
            ),
            "ratio",
        ),
        "uniformity.node_self_s": (get("uniformity.node", "self") / verdicts, "s"),
        "uniformity.nodes_per_verdict": (get("uniformity.node", "count") / verdicts, "count"),
        "uniformity.restriction_use_ratio": (
            ratio(get("oracle.restricted", "outer_count"), restrictions), "ratio"
        ),
        "uniformity.edge_self_s": (get("uniformity.edge", "self") / verdicts, "s"),
        "uniformity.edge_pairs": (
            get("oracle.estimate_edge_biases", "outer_a") / verdicts, "count"
        ),
        "harness.overhead_s": (get("harness.trial", "self") / verdicts, "s"),
        "harness.overhead_share": (
            ratio(get("harness.trial", "self"), get("harness.trial", "total")), "ratio"
        ),
    }
