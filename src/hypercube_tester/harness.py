"""Experiment harness: grid runs over (n, eps), CSV/JSON reporting, and a
query-scaling diagnostic.

An experiment is described by an :class:`ExperimentSpec` (usually loaded from
a JSON file).  ``run_experiment`` executes ``trials`` independent trials per
grid cell, each with its own deterministic RNG stream and its own oracle, and
produces

* a CSV with one row per trial (grid cell parameters, decision, query count,
  wall time, and per-level statistics when the tester reports them), and
* a JSON summary with per-cell accept rates and query statistics.

Trials run one after another in one process, and the spec alone fixes the
result: reruns of a spec yield byte-identical CSV bodies once the wall-time
column is stripped (see ``csv_body_without_wall_time``).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .meantest import (
    GaussianDraw,
    MeanTestConfig,
    gaussian_mean_tester,
    gaussian_required_samples,
    mean_tester,
)
from .model import Decision, TestVerdict, as_int
from .oracle import ScondOracle
from .rng import stream
from .uniformity import PRESETS, edge_tester, subcond_uni
from .zoo import resolve_gaussian_source, resolve_target

TESTERS = ("meantest", "subconduni", "gaussian", "edge")

CSV_HEADER = "n,eps,trial,decision,queries,wall_time_s,z_levels,tau_levels"

# the log-log slope of the paper's sqrt(n) / eps^2 mean-testing bound, which
# a scaling report gives beside the fitted one
REFERENCE_SLOPE = 0.5


@dataclass
class ExperimentSpec:
    """Declarative description of a grid experiment."""

    tester: str
    distribution: str
    n: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    trials: int = 1
    seed: int = 0
    preset: str = "practical"
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if self.tester not in TESTERS:
            raise ValueError(f"tester must be one of {TESTERS}, got {self.tester!r}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {list(PRESETS)}, got {self.preset!r}")
        for name in ("n", "eps"):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        self.n = [as_int(v, "n") for v in self.n]
        self.eps = [float(v) for v in self.eps]
        if not self.n or not self.eps:
            raise ValueError("grid needs at least one n and one eps value")
        if any(v < 1 for v in self.n):
            raise ValueError("n values must be positive")
        if any(not 0.0 < v <= 1.0 for v in self.eps):
            raise ValueError("eps values must lie in (0, 1]")
        self.trials = as_int(self.trials, "trials")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        self.seed = as_int(self.seed, "seed")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")

    def to_dict(self) -> dict:
        """The spec's fields, leaving out output paths that are not set."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        missing = {"tester", "distribution", "n", "eps"} - set(doc)
        if missing:
            raise ValueError(f"spec is missing required fields: {sorted(missing)}")
        return cls(**doc)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _float_repr(x: float) -> str:
    return "%.17g" % float(x)


def _join_levels(values) -> str:
    return ";".join(_float_repr(v) for v in values)


def execute_trial(
    spec: ExperimentSpec,
    cell_index: int,
    n: int,
    eps: float,
    trial: int,
    mean_overrides: dict | None = None,
) -> TestVerdict:
    """Run one trial on its own stream and oracle; return its verdict.

    ``mean_overrides`` are extra ``MeanTestConfig`` keywords (``q``, ``k0``)
    for the mean tester.
    """
    rng = stream(spec.seed, cell_index, trial)
    if spec.tester == "gaussian":
        source = resolve_gaussian_source(spec.distribution, n)
        draw = GaussianDraw(source, rng, gaussian_required_samples(n, eps))
        return gaussian_mean_tester(draw, eps)
    oracle = ScondOracle(resolve_target(spec.distribution, n), rng)
    if spec.tester == "meantest":
        cfg = MeanTestConfig(eps, preset=spec.preset, **(mean_overrides or {}))
        verdict = mean_tester(oracle, cfg)
    elif spec.tester == "subconduni":
        verdict = subcond_uni(oracle, eps, PRESETS[spec.preset])
    else:  # edge
        verdict = edge_tester(oracle, eps, PRESETS[spec.preset].edge)
    return verdict


def run_trial(spec: ExperimentSpec, cell_index: int, n: int, eps: float, trial: int) -> dict:
    """Execute one trial and return its CSV row fields as a dict."""
    t0 = time.perf_counter()
    verdict = execute_trial(spec, cell_index, n, eps, trial)
    wall = time.perf_counter() - t0
    z_levels = verdict.trace.get("z_levels", [])
    tau_levels = verdict.trace.get("tau_levels", [])
    return {
        "n": n,
        "eps": eps,
        "trial": trial,
        "decision": verdict.decision.value,
        "queries": verdict.queries_used,
        "wall_time_s": wall,
        "z_levels": _join_levels(z_levels),
        "tau_levels": _join_levels(tau_levels),
    }


def _write_json(doc, path: str) -> None:
    """Write ``doc`` as JSON with indent 2, sorted keys and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every trial of every grid cell in turn; write CSV/JSON if paths
    are set.

    Returns ``{"csv": str, "summary": dict, "rows": list[dict]}``.  Each
    trial draws from its own stream, fixed by (seed, cell, trial), so the
    result depends on the spec alone.
    """
    cells = [(n, eps) for n in spec.n for eps in spec.eps]
    rows = [
        run_trial(spec, cell_index, n, eps, trial)
        for cell_index, (n, eps) in enumerate(cells)
        for trial in range(spec.trials)
    ]
    csv_text = _rows_to_csv(rows)
    summary = _summarize(spec, cells, rows)

    if spec.out_csv is not None:
        with open(spec.out_csv, "w") as fh:
            fh.write(csv_text)
    if spec.out_json is not None:
        _write_json(summary, spec.out_json)
    return {"csv": csv_text, "summary": summary, "rows": rows}


def _rows_to_csv(rows: list) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["n"]),
                    _float_repr(r["eps"]),
                    str(r["trial"]),
                    r["decision"],
                    str(r["queries"]),
                    _float_repr(r["wall_time_s"]),
                    r["z_levels"],
                    r["tau_levels"],
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _summarize(spec: ExperimentSpec, cells: list, rows: list) -> dict:
    cell_docs = []
    total_queries = 0
    for cell_index, (n, eps) in enumerate(cells):
        cell_rows = rows[cell_index * spec.trials : (cell_index + 1) * spec.trials]
        queries = np.array([r["queries"] for r in cell_rows], dtype=np.float64)
        decisions = [r["decision"] for r in cell_rows]
        accepts = decisions.count(Decision.ACCEPT.value)
        rejects = decisions.count(Decision.REJECT.value)
        errors = decisions.count(Decision.ERROR.value)
        t = len(cell_rows)
        accept_rate = accepts / t
        se_rate = math.sqrt(accept_rate * (1.0 - accept_rate) / t)
        mean_q = float(queries.mean())
        se_q = float(queries.std(ddof=1) / math.sqrt(t)) if t > 1 else 0.0
        cell_docs.append(
            {
                "n": n,
                "eps": eps,
                "trials": t,
                "accepts": accepts,
                "rejects": rejects,
                "errors": errors,
                "accept_rate": accept_rate,
                "accept_rate_se": se_rate,
                "mean_queries": mean_q,
                "median_queries": float(np.median(queries)),
                "se_queries": se_q,
                "total_queries": int(queries.sum()),
            }
        )
        total_queries += int(queries.sum())
    return {
        "tester": spec.tester,
        "distribution": spec.distribution,
        "preset": spec.preset,
        "seed": spec.seed,
        "trials_per_cell": spec.trials,
        "cells": cell_docs,
        "total_queries": total_queries,
    }


def csv_body_without_wall_time(csv_text: str) -> str:
    """Strip the wall-time column so reruns can be compared byte-for-byte."""
    out = []
    for line in csv_text.splitlines():
        parts = line.split(",")
        del parts[5]
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def scaling_report(cells: list) -> dict:
    """Least-squares slope of log(mean queries) against log(n).

    ``cells`` are summary cell dicts (needs ``n`` and ``mean_queries``).
    Requires at least three distinct n values; ``REFERENCE_SLOPE`` is
    included for comparison, never asserted.
    """
    by_n: dict[int, list] = {}
    for c in cells:
        by_n.setdefault(int(c["n"]), []).append(float(c["mean_queries"]))
    if len(by_n) < 3:
        raise ValueError("scaling report needs at least three distinct n values")
    ns = sorted(by_n)
    mean_q = [float(np.mean(by_n[n])) for n in ns]
    if any(q <= 0 for q in mean_q):
        raise ValueError("mean queries must be positive to fit a log-log slope")
    logs_n = np.log(np.array(ns, dtype=np.float64))
    logs_q = np.log(np.array(mean_q, dtype=np.float64))
    slope, intercept = np.polyfit(logs_n, logs_q, 1)
    return {
        "n_values": ns,
        "mean_queries": mean_q,
        "slope": float(slope),
        "intercept": float(intercept),
        "reference_slope": REFERENCE_SLOPE,
        "slope_minus_reference": float(slope - REFERENCE_SLOPE),
    }
