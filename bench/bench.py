"""Verdict benchmark: wall time, queries and correctness of tester verdicts.

Run from the repository root:

    python3 bench/bench.py --workload mean --seed 1 --seconds 20 --trace 0

A workload pairs a null target, which the tester should accept, with a far
target, which it should reject.  Each round runs one null verdict and then
the workload's far verdicts; trial t of cell c (0 = null, 1 = far) draws
from ``rng.stream(seed, c, t)``.  The number of rounds is fixed by
``--seconds`` and the workload's nominal round time, so one seed always
gives the same verdicts.  Load comes from this one process and thread.
Times are divided by a host-speed factor (see ``HostSpeed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as
many rounds, each verdict once untraced and once under the span tracer of
``spans.py``, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; every line before it is for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 5
WARMUP_SEED = 0
WARMUP_TRIAL = 1 << 30  # warm-up trial indices lie far above any timed trial
MIN_ROUNDS = 11  # the tail percentile needs at least 10 null samples beyond it
TAIL_BEYOND = 10
MAX_WRONG_SHARE = 1.0 / 3.0  # every tester promises to be right 2/3 of the time
COVERAGE_TOLERANCE = 0.02  # traced self times must cover the traced verdict time
REF_NOMINAL_S = 0.0085  # median reference-kernel time on the baseline host
REF_SHARE = 0.04  # kernel time per second of measured work
HOST_WINDOW = 4  # kernel timings on each side of an interval in its local factor


@dataclass(frozen=True)
class Workload:
    tester: str  # a harness tester, or "direct" for subcond_uni without the harness
    n: int
    null: tuple  # (distribution, eps) the tester should accept
    far: tuple  # (distribution, eps) the tester should reject
    round_s: float  # nominal seconds per round at the baseline commit
    far_per_round: int = 1  # cheap far verdicts run several times per null verdict


WORKLOADS = {
    # the only workload that runs statistic levels 1-3; moderate oracle draws
    "mean": Workload("meantest", 64, ("uniform", 0.5), ("planted_product:0.25", 0.25), 0.20),
    # level-0 statistic at large q (1449 per half, 3 repetitions), no oracle
    "gaussian": Workload("gaussian", 32, ("standard", 0.5), ("shift:1.0", 0.5), 1.20),
    # edge base case: target sampling and edge biases, statistic unused
    "edge": Workload("subconduni", 128, ("uniform", 0.5), ("noisy_parity:2:0.3", 0.5), 0.95, 8),
    # restriction draws, restricted oracles, recursion nodes; no preset reaches it
    "recursion": Workload("direct", 64, ("uniform", 0.5), ("two_point", 0.5), 1.33, 4),
}


def recursion_config(uniformity):
    """The shrunk configuration that forces the recursive case at n=64,
    eps=0.5 (REC_CFG of tests/test_uniformity.py): sigma is 1/2 and every
    loop is cut to unit-test size."""
    return uniformity.SubCondConfig(
        c0=2.0 / 625.0,
        l_formula=lambda n, eps: 4,
        r_factor=0.3,
        t_override=3,
        mean_q_override=200,
        mean_k0_override=0,
        edge=uniformity.EdgeConfig(c_h=0.5, c1=0.25, c2=0.05, c3=22.4, c_beta=1.0),
    )


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < cap:
            cap = int(value)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "hypercube_tester" / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypercube_tester
    from hypercube_tester import harness, oracle, rng, uniformity

    if Path(hypercube_tester.__file__).resolve().parent != SRC / "hypercube_tester":
        sys.exit(f"bench: imported {hypercube_tester.__file__}, not the package under {SRC}")
    return harness, oracle, rng, uniformity


class LedgerProbe:
    """Sees each tester call the harness makes, so the ledger can be checked
    without changing the harness.  Each probe looks the tester up in its home
    module at call time, so a tracer installed there still sees the call."""

    NAMES = ("mean_tester", "gaussian_mean_tester", "subcond_uni", "edge_tester")

    def __init__(self, harness):
        self.calls: list = []
        for name in self.NAMES:
            fn = getattr(harness, name, None)
            if fn is not None:
                setattr(harness, name, self._probe(sys.modules[fn.__module__], name))

    def _probe(self, home, name):
        def probe(*args, **kwargs):
            verdict = getattr(home, name)(*args, **kwargs)
            self.calls.append((args[0], verdict))
            return verdict

        return probe


class Runner:
    """Builds one workload's cells and runs single verdicts on them."""

    def __init__(self, mods, w: Workload, seed: int, probe: LedgerProbe):
        self.harness, self.oracle, self.rng, self.uniformity = mods
        self.w = w
        self.probe = probe
        self.cells = (w.null, w.far)
        if w.tester == "direct":
            self.cfg = recursion_config(self.uniformity)
            self.targets = [self.harness.resolve_target(dist, w.n) for dist, _ in self.cells]
        else:
            self.specs = {
                s: [
                    self.harness.ExperimentSpec(
                        tester=w.tester, distribution=dist, n=[w.n], eps=[eps], seed=s
                    )
                    for dist, eps in self.cells
                ]
                for s in (seed, WARMUP_SEED)
            }
        self.seed = seed
        self.trial_fn = self.direct_trial if w.tester == "direct" else self.harness_trial

    def direct_trial(self, cell: int, trial: int, seed: int):
        oracle = self.oracle.ScondOracle(self.targets[cell], self.rng.stream(seed, cell, trial))
        verdict = self.uniformity.subcond_uni(oracle, self.cells[cell][1], self.cfg)
        return oracle, verdict, verdict.queries_used

    def harness_trial(self, cell: int, trial: int, seed: int):
        return self.harness.run_trial(
            self.specs[seed][cell], cell, self.w.n, self.cells[cell][1], trial
        )

    def verdict(self, cell: int, trial: int, seed: int | None = None, trial_fn=None):
        """Run one verdict; returns (seconds, decision, queries, problem)."""
        seed = self.seed if seed is None else seed
        fn = trial_fn or self.trial_fn
        calls = self.probe.calls
        mark = len(calls)
        t0 = time.perf_counter()
        try:
            out = fn(cell, trial, seed)
        except Exception as exc:  # a verdict that raises counts as failed
            return time.perf_counter() - t0, "exception", 0, repr(exc)
        seconds = time.perf_counter() - t0
        if self.w.tester == "direct":
            oracle, verdict, queries = out
        else:
            seen = calls[mark:]
            del calls[mark:]
            if len(seen) != 1:
                return seconds, out["decision"], out["queries"], f"{len(seen)} tester calls"
            oracle, verdict = seen[0]
            queries = out["queries"]
        return seconds, verdict.decision.value, queries, self.ledger_problem(oracle, verdict, queries)

    def ledger_problem(self, oracle, verdict, queries) -> str | None:
        if self.w.tester == "gaussian":
            samples = oracle.shape[0]  # the gaussian tester takes the samples, not an oracle
            return None if queries == samples else f"queries {queries} != samples {samples}"
        if not oracle.queries == verdict.queries_used == queries:
            return f"ledger {oracle.queries} != verdict {verdict.queries_used} / row {queries}"
        tree = verdict.trace.get("tree")
        if tree is not None and self.uniformity.trace_query_sum(tree) != queries:
            return f"trace_query_sum {self.uniformity.trace_query_sum(tree)} != {queries}"
        return None


def setup_once(mods, w, seed, probe):
    """Build specs or targets, then one untimed warm-up verdict per cell."""
    runner = Runner(mods, w, seed, probe)
    for cell in (0, 1):
        runner.verdict(cell, WARMUP_TRIAL, seed=WARMUP_SEED)
    return runner


def tail(samples: list) -> tuple[float, int]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it."""
    s = sorted(samples)
    pct = math.floor(100 * (len(s) - TAIL_BEYOND) / len(s))
    return s[math.ceil(pct * len(s) / 100) - 1], pct


class Tally:
    """Verdict outcomes of one run: wrong, failed and the (decision, queries) digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = [0, 0]
        self.count = [0, 0]
        self.queries = 0
        self.problems: list = []
        self.digest = hashlib.sha256()

    def add(self, cell, trial, decision, queries, problem):
        self.attempted += 1
        self.count[cell] += 1
        self.queries += queries
        self.digest.update(f"{cell},{trial},{decision},{queries}\n".encode())
        expected = "accept" if cell == 0 else "reject"
        if problem is not None or decision not in ("accept", "reject"):
            self.failed += 1
            self.problems.append(f"cell {cell} trial {trial}: {decision} {problem or ''}")
        if problem is not None or decision != expected:
            self.wrong[cell] += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(
            wrong <= MAX_WRONG_SHARE * count for wrong, count in zip(self.wrong, self.count)
        )


class HostSpeed:
    """How fast the shared host runs, from a fixed reference kernel that uses
    no package code, timed right after each measured interval.

    The local factor of an interval is the median kernel time around it
    (the timings taken right after it and HOST_WINDOW on each side) over
    REF_NOMINAL_S: above 1 the host is slower than when the baseline was
    taken.  An interval divided by its factor reads in seconds at the
    baseline host speed, which absorbs the slow and fast spells of a shared
    machine; a change to the package does not change the kernel."""

    def __init__(self, numpy):
        self.np = numpy
        self.samples: list[float] = []
        self.intervals: list[tuple] = []  # (seconds, first sample, end sample)
        self._owed = 0.0
        self._kernel()  # the first run pays one-off costs; keep it out of the samples

    def _kernel(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        signs = 2 * (np.random.default_rng(0).random((300, 64)) < 0.5).astype(np.int8) - 1
        gram = signs.astype(np.int64) @ signs.astype(np.int64).T
        int((gram * gram).sum())
        for row in signs:
            np.flatnonzero(row > 0)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - t0

    def measured(self, seconds: float) -> int:
        """Record an interval of `seconds`, then time the kernel until it has
        run for REF_SHARE of all intervals so far (a short interval may add no
        timing).  Returns the interval's index for ``normalised``."""
        first = len(self.samples)
        self._owed += REF_SHARE * seconds
        while self._owed > 0.0:
            self.samples.append(self._kernel())
            self._owed -= self.samples[-1]
        self.intervals.append((seconds, first, len(self.samples)))
        return len(self.intervals) - 1

    def factor(self, index: int) -> float:
        """Only valid once the run's timings are all taken."""
        _, first, end = self.intervals[index]
        around = self.samples[max(0, first - HOST_WINDOW) : end + HOST_WINDOW]
        return statistics.median(around) / REF_NOMINAL_S

    def normalised(self, index: int) -> float:
        return self.intervals[index][0] / self.factor(index)


def schedule(rounds: int, far_per_round: int):
    """(cell, trial) in run order: each round one null verdict, then its far verdicts."""
    for r in range(rounds):
        yield 0, r
        for j in range(far_per_round):
            yield 1, r * far_per_round + j


def plain_run(runner, rounds, host, import_s, setups) -> dict:
    tally = Tally()
    intervals = ([], [])
    for cell, trial in schedule(rounds, runner.w.far_per_round):
        seconds, decision, queries, problem = runner.verdict(cell, trial)
        intervals[cell].append(host.measured(seconds))
        tally.add(cell, trial, decision, queries, problem)
    times = [[host.normalised(i) for i in ids] for ids in intervals]
    raw = [[host.intervals[i][0] for i in ids] for ids in intervals]
    null_tail, pct = tail(times[0])
    raw_tail, _ = tail(raw[0])
    busy, raw_busy = sum(times[0] + times[1]), sum(raw[0] + raw[1])
    fail_rate = sum(tally.wrong) / tally.attempted
    # the import is module loading and file reads, which the kernel does not
    # track, so it enters setup_s as measured
    setup_s = import_s + statistics.median(host.normalised(i) for i in setups)
    raw_setup_s = import_s + statistics.median(host.intervals[i][0] for i in setups)
    # name: (host-normalised value, raw wall-clock value or None, unit)
    metrics = {
        "null_p50_s": (statistics.median(times[0]), statistics.median(raw[0]), "s"),
        "null_tail_s": (null_tail, raw_tail, "s"),
        "far_p50_s": (statistics.median(times[1]), statistics.median(raw[1]), "s"),
        "verdicts_per_s": (tally.attempted / busy, tally.attempted / raw_busy, "1/s"),
        "queries_per_verdict": (tally.queries / tally.attempted, None, "count"),
        "correct_rate": (1.0 - fail_rate, None, "ratio"),
        "setup_s": (setup_s, raw_setup_s, "s"),
    }
    notes = {
        "null_tail_s": f"p{pct} of {len(times[0])} null verdicts, {TAIL_BEYOND} beyond it",
        "far_p50_s": f"median of {len(times[1])} far verdicts",
        "verdicts_per_s": f"{tally.attempted} verdicts in {raw_busy:.3f} s",
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups with warm-up",
    }
    print(
        f"  host factor median {statistics.median(host.samples) / REF_NOMINAL_S:.4f} over "
        f"{len(host.samples)} reference-kernel timings; each time is divided by its local "
        f"factor, raw wall-clock values in brackets"
    )
    for name, (value, raw_value, unit) in metrics.items():
        if name == "correct_rate":
            print(
                f"  {'fail_rate':<22}{fail_rate:<14.6g}ratio  {tally.wrong[0]} null rejects, "
                f"{tally.wrong[1]} far accepts or failures of {tally.attempted} verdicts; "
                f"{tally.failed} failed"
            )
        shown = "" if raw_value is None else f"[raw {raw_value:.6g}] "
        print(f"  {name:<22}{value:<14.6g}{unit:<6} {shown}{notes.get(name, '')}")
    print(f"  digest sha256:{tally.digest.hexdigest()} over (decision, queries) in trial order")
    report_problems(tally)
    return result_line(tally, {name: (v, unit) for name, (v, _, unit) in metrics.items()})


def traced_run(workload, runner, rounds) -> dict:
    import spans

    tracer = spans.Tracer()
    # the tracer wraps harness.run_trial itself; a direct workload's own trial
    # function stands in for it
    traced_trial = (
        tracer.wrap_function("harness.trial", runner.trial_fn)
        if runner.w.tester == "direct"
        else runner.trial_fn
    )
    tally = Tally()
    plain, traced = [], []
    null_ids, timed = set(), {}
    for k, (cell, trial) in enumerate(schedule(rounds, runner.w.far_per_round)):
        outcomes = [None, None]
        for side in (k % 2, 1 - k % 2):  # alternate which side runs first
            if side == 0:
                outcomes[0] = runner.verdict(cell, trial)
                continue
            tracer.verdict = k
            with tracer:
                outcomes[1] = runner.verdict(cell, trial, trial_fn=traced_trial)
            timed[k] = outcomes[1][0]
            if cell == 0:
                null_ids.add(k)
        for seconds, decision, queries, problem in outcomes:
            tally.add(cell, trial, decision, queries, problem)
        if outcomes[0][1:3] != outcomes[1][1:3]:
            tally.failed += 1
            tally.problems.append(f"cell {cell} trial {trial}: traced verdict differs")
        if cell == 0:
            plain.append(outcomes[0][0])
            traced.append(outcomes[1][0])

    agg = spans.aggregate(tracer.spans, set(timed))
    metrics = spans.layer_metrics(agg, len(timed))
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    null_agg = spans.aggregate(tracer.spans, null_ids)
    covered = sum(row["self"] for row in null_agg.values())
    coverage = covered / sum(timed[v] for v in null_ids)
    roots = sum(row["roots"] for row in agg.values())
    if roots != len(timed) or abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        tally.failed += 1
        tally.problems.append(f"trace covers {coverage:.4f} of null time with {roots} roots")

    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:<14.6g}{unit}")
    print(
        f"  per-layer self times cover {coverage:.4f} of the traced null-verdict time "
        f"(tolerance {COVERAGE_TOLERANCE}); {len(tracer.spans)} spans over {len(timed)} verdicts"
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{runner.seed}.csv.gz"
    tracer.write(str(path))
    print(f"  spans written to {path.relative_to(ROOT)}")
    report_problems(tally)
    return result_line(tally, metrics)


def report_problems(tally: Tally) -> None:
    for line in tally.problems[:20]:
        print(f"  problem: {line}")


def result_line(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        ap.error("--seed must be a non-negative 63-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    blas_threads = cap_blas_threads()
    t0 = time.perf_counter()
    mods = import_package()
    import_s = time.perf_counter() - t0
    import numpy

    w = WORKLOADS[args.workload]
    rounds = round(args.seconds / w.round_s)
    # a traced run times each verdict twice and reports no tail
    rounds = max(1, rounds // 2) if args.trace else max(MIN_ROUNDS, rounds)
    probe = LedgerProbe(mods[0])
    host = HostSpeed(numpy)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner = setup_once(mods, w, args.seed, probe)
        setups.append(host.measured(time.perf_counter() - t0))

    print(
        f"workload {args.workload}: tester {w.tester} n={w.n}, null {w.null[0]} eps {w.null[1]}, "
        f"far {w.far[0]} eps {w.far[1]}; seed {args.seed}, {rounds} rounds"
    )
    print(
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, blas threads {blas_threads}"
    )

    if args.trace:
        result = traced_run(args.workload, runner, rounds)
    else:
        result = plain_run(runner, rounds, host, import_s, setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
