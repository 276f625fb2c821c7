"""Command-line interface.

Subcommands
-----------
run         execute a grid experiment described by a JSON spec file
zoo         list the built-in target distributions or emit one to a file
meantest    run the mean tester directly against a target
subconduni  run the recursive uniformity tester directly against a target
theorylab   brute-force check one of the small-n structural facts

Exit codes: 0 success, 1 usage error, 2 runtime error (including a theory
check that finds a counterexample).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .blowup import explicit_moments, gram_moments
from .harness import ExperimentSpec, _join_levels, execute_trial, run_experiment
from .model import DensePmf, Decision, ProductDistribution
from .rng import stream
from .theory import (
    SCALE,
    ZERO,
    build_orientation,
    check_greedy_property,
    evaluate_robust_pisier,
    greedy_ordering_valid,
    probe_restriction_theorem,
    random_dense_pmf,
    verify_chain_rule,
    verify_contributing_bias,
    verify_graph_to_mean,
    verify_khintchine,
    verify_variance_bound,
)
from .uniformity import PRESETS
from .zoo import (
    ZooEntry,
    instantiate,
    parse_spec_string,
    save_entry,
    zoo_kinds,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _int_or_auto(text: str):
    if text == "auto":
        return None
    return int(text)


def _write_json(doc, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(header: str, rows: list, path: str | None) -> None:
    text = "\n".join([header] + rows) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    spec = ExperimentSpec.from_json_file(args.spec)
    result = run_experiment(spec, workers=args.workers)
    for cell in result["summary"]["cells"]:
        print(
            f"n={cell['n']} eps={cell['eps']:g}: "
            f"accept {cell['accepts']}/{cell['trials']} "
            f"(reject {cell['rejects']}, error {cell['errors']}), "
            f"mean queries {cell['mean_queries']:.1f}"
        )
    if spec.out_csv:
        print(f"csv written to {spec.out_csv}")
    if spec.out_json:
        print(f"summary written to {spec.out_json}")
    return 0


# ---------------------------------------------------------------------------
# zoo


def _cmd_zoo(args) -> int:
    if args.zoo_cmd == "list":
        for kind, doc in sorted(zoo_kinds().items()):
            print(f"{kind:16s} {doc}")
        return 0
    # emit
    entry = parse_spec_string(args.kind)
    instantiate(entry, args.n)  # validate the entry at this dimension
    save_entry(entry, args.out)
    print(f"zoo entry {entry.kind!r} written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# meantest / subconduni


def _cli_trials(args, tester: str, mean_overrides: dict | None = None):
    """Yield (trial, verdict) for a one-cell spec built from the flags."""
    spec = ExperimentSpec(
        tester=tester,
        distribution=args.dist,
        n=[args.n],
        eps=[args.eps],
        trials=args.trials,
        seed=args.seed,
        preset=args.preset,
    )
    for trial in range(spec.trials):
        yield trial, execute_trial(spec, 0, spec.n[0], spec.eps[0], trial, mean_overrides)


def _cmd_meantest(args) -> int:
    rows = []
    accepts = 0
    total_queries = 0
    overrides = {"q": args.q, "k0": args.k0}
    for trial, verdict in _cli_trials(args, "meantest", mean_overrides=overrides):
        accepts += verdict.decision is Decision.ACCEPT
        total_queries += verdict.queries_used
        rows.append(
            ",".join(
                [
                    str(trial),
                    verdict.decision.value,
                    str(verdict.queries_used),
                    _join_levels(verdict.trace["z_levels"]),
                    _join_levels(verdict.trace["tau_levels"]),
                ]
            )
        )
    _write_csv("trial,decision,queries,z_levels,tau_levels", rows, args.out)
    print(
        f"meantest: accept {accepts}/{args.trials}, total queries {total_queries}",
        file=sys.stderr,
    )
    return 0


def _cmd_subconduni(args) -> int:
    rows = []
    traces = []
    accepts = errors = 0
    total_queries = 0
    for trial, verdict in _cli_trials(args, "subconduni"):
        accepts += verdict.decision is Decision.ACCEPT
        errors += verdict.decision is Decision.ERROR
        total_queries += verdict.queries_used
        rows.append(f"{trial},{verdict.decision.value},{verdict.queries_used}")
        traces.append(verdict.trace["tree"])
    _write_csv("trial,decision,queries", rows, args.out)
    if args.trace:
        _write_json(traces, args.trace)
    print(
        f"subconduni: accept {accepts}/{args.trials} (errors {errors}), "
        f"total queries {total_queries}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# theorylab


_SIGMAS = (0.25, 0.5, 0.75)


def _random_pmfs(n, cases, rng):
    """(c, p) for each case c, with p a fresh random PMF; each p is drawn
    only when its case is reached, so a case's own draws follow its PMF."""
    for c in range(cases):
        yield c, random_dense_pmf(rng, n)


def _ratio_extras(reports):
    finite = np.array([rep.ratio for rep in reports if math.isfinite(rep.ratio)])
    return {
        "min_ratio": float(finite.min()) if finite.size else None,
        "max_ratio": float(finite.max()) if finite.size else None,
        "mean_ratio": float(finite.mean()) if finite.size else None,
        "note": "ratios reported only; nothing asserted",
    }


def _verifier_totals(reports):
    failures = sum(len(rep.failures) for rep in reports)
    return failures == 0, failures, sum(rep.nonvacuous for rep in reports), {}


def _check_chain(n, cases, rng):
    pmfs = _random_pmfs(n, cases, rng)
    reps = [verify_chain_rule(p, _SIGMAS[c % len(_SIGMAS)]) for c, p in pmfs]
    failures = sum(rep.lhs > rep.rhs + 1e-9 for rep in reps)
    return failures == 0, failures, cases, {"max_ratio": max([0.0] + [r.ratio for r in reps])}


def _check_probe(n, cases, rng):
    pmfs = _random_pmfs(n, cases, rng)
    reps = [probe_restriction_theorem(p, _SIGMAS[c % len(_SIGMAS)]) for c, p in pmfs]
    return True, 0, cases, _ratio_extras(reps)


def _check_pisier(n, cases, rng):
    pmfs = _random_pmfs(n, cases, rng)
    reps = [evaluate_robust_pisier(p, s=1.0, rng=rng) for _, p in pmfs]
    return True, 0, cases, _ratio_extras(reps)


def _check_greedy(n, cases, rng):
    failures = 0
    nonvac = 0
    for _, p in _random_pmfs(n, cases, rng):
        graphs = build_orientation(p)
        n_v = 1 << n
        if graphs.u.size != n * (1 << (n - 1)):
            failures += 1
            continue
        for k in graphs.scales():
            sel = (graphs.cls == SCALE) & (graphs.kappa == k)
            if not greedy_ordering_valid(
                n_v, graphs.u[sel], graphs.v[sel], graphs.orderings[k]
            ):
                failures += 1
        scales = graphs.scales()
        if scales:
            kappa = int(scales[rng.integers(len(scales))])
            out_deg = graphs.out_degrees(SCALE, kappa)
            size_u = int(rng.integers(1, n_v))
            big_u = rng.choice(n_v, size=size_u, replace=False)
            rest = np.setdiff1d(np.arange(n_v), big_u)
            v = int(rest[rng.integers(rest.size)])
            g = max(1, int(out_deg[big_u].max()))
            nonvac += 1
            if not check_greedy_property(graphs, kappa, big_u, v, g):
                failures += 1
    return failures == 0, failures, nonvac, {}


def _check_graphmean(n, cases, rng):
    # a case draws its t after its PMF
    pmfs = _random_pmfs(n, cases, rng)
    return _verifier_totals(
        [verify_graph_to_mean(p, int(rng.integers(1, n)), trials=10, rng=rng) for _, p in pmfs]
    )


def _check_contributing(n, cases, rng):
    pmfs = _random_pmfs(n, cases, rng)
    return _verifier_totals([verify_contributing_bias(p, trials=10, rng=rng) for _, p in pmfs])


def _check_variance(n, cases, rng):
    targets = {
        "uniform": DensePmf.uniform(n),
        "planted": ProductDistribution(np.full(n, 0.3)).dense(),
        "random": random_dense_pmf(rng, n),
    }
    batches = max(200, cases)
    failures = 0
    extras = {}
    for name, p in targets.items():
        rep = verify_variance_bound(p, q=10, batches=batches, rng=rng)
        failures += not rep.ok
        extras[name] = {
            "z_mean": rep.extras["z_mean"],
            "mu_sq": rep.extras["mu_sq"],
            "z_var": rep.extras["z_var"],
            "bound": rep.extras["bound"],
        }
    return failures == 0, failures, len(targets), extras


def _check_blowupfact(n, cases, rng):
    failures = 0
    for _, p in _random_pmfs(n, cases, rng):
        for k in (0, 1):
            mu_sq_k, frob_sq_k = gram_moments(p, k)
            mu_sq_next, _ = gram_moments(p, k + 1)
            ok = math.isclose(mu_sq_next, frob_sq_k, rel_tol=1e-9, abs_tol=1e-12)
            if n ** (2 ** (k + 1)) <= 1 << 10:
                em = explicit_moments(p, k)
                ok &= math.isclose(em[0], mu_sq_k, rel_tol=1e-9, abs_tol=1e-12)
                ok &= math.isclose(em[1], frob_sq_k, rel_tol=1e-9, abs_tol=1e-12)
            failures += not ok
    return failures == 0, failures, cases, {}


def _check_khintchine(n, cases, rng):
    failures = 0
    for _ in range(cases):
        m = int(rng.integers(1, 13))
        a = rng.standard_normal(m)
        failures += not verify_khintchine(a)
    return failures == 0, failures, cases, {}


# each check and its smallest n: graphmean draws t from 1..n-1 and
# contributing needs two coordinates
_CHECKS = {
    "chain": (_check_chain, 1),
    "pisier": (_check_pisier, 1),
    "greedy": (_check_greedy, 1),
    "graphmean": (_check_graphmean, 2),
    "contributing": (_check_contributing, 2),
    "variance": (_check_variance, 1),
    "blowupfact": (_check_blowupfact, 1),
    "khintchine": (_check_khintchine, 1),
    "probe": (_check_probe, 1),
}


def _cmd_theorylab(args) -> int:
    # a check over no case, or on a cube too small for it, would report ok
    # having checked nothing, or crash
    check, min_n = _CHECKS[args.check]
    if args.cases < 1:
        raise UsageError(f"theorylab: --cases must be at least 1, got {args.cases}")
    if args.n < min_n:
        raise UsageError(f"theorylab {args.check}: --n must be at least {min_n}, got {args.n}")
    rng = stream(args.seed, 0, 0)
    ok, failures, nonvac, extras = check(args.n, args.cases, rng)
    report = {
        "check": args.check,
        "n": args.n,
        "cases": args.cases,
        "seed": args.seed,
        "ok": bool(ok),
        "failures": int(failures),
        "nonvacuous": int(nonvac),
        "extras": extras,
    }
    if args.report:
        _write_json(report, args.report)
    status = "ok" if ok else "FAIL"
    print(
        f"theorylab {args.check}: {status} "
        f"({failures} failures / {nonvac} non-vacuous cases)"
    )
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypercube-tester", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a grid experiment from a JSON spec")
    p_run.add_argument("--spec", required=True, help="path to the experiment JSON")
    p_run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="parallel worker processes (default 1 = sequential; capped by HT_THREADS)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_zoo = sub.add_parser("zoo", help="inspect or emit built-in distributions")
    zoo_sub = p_zoo.add_subparsers(dest="zoo_cmd", parser_class=_Parser)
    zoo_sub.add_parser("list", help="list available kinds")
    p_emit = zoo_sub.add_parser("emit", help="write a zoo entry to a JSON file")
    p_emit.add_argument(
        "--kind", required=True, help="kind shorthand, e.g. planted_product:0.25"
    )
    p_emit.add_argument("--n", type=int, required=True, help="dimension to validate at")
    p_emit.add_argument("--out", required=True, help="output JSON path")
    p_zoo.set_defaults(func=_cmd_zoo)

    p_mean = sub.add_parser("meantest", help="run the mean tester")
    p_mean.add_argument("--dist", required=True, help="zoo shorthand or JSON file")
    p_mean.add_argument("--eps", type=float, required=True)
    p_mean.add_argument("--n", type=int, required=True)
    p_mean.add_argument("--q", type=_int_or_auto, default=None, help="samples per side, or 'auto'")
    p_mean.add_argument("--k0", type=_int_or_auto, default=None, help="top level, or 'auto'")
    p_mean.add_argument("--trials", type=int, default=1)
    p_mean.add_argument("--seed", type=int, default=0)
    p_mean.add_argument("--preset", choices=list(PRESETS), default="practical")
    p_mean.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_mean.set_defaults(func=_cmd_meantest)

    p_sc = sub.add_parser("subconduni", help="run the recursive uniformity tester")
    p_sc.add_argument("--dist", required=True, help="zoo shorthand or JSON file")
    p_sc.add_argument("--eps", type=float, required=True)
    p_sc.add_argument("--n", type=int, required=True)
    p_sc.add_argument("--trials", type=int, default=1)
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--preset", choices=list(PRESETS), default="practical")
    p_sc.add_argument("--trace", default=None, help="JSON path for recursion traces")
    p_sc.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_sc.set_defaults(func=_cmd_subconduni)

    p_lab = sub.add_parser("theorylab", help="brute-force a structural fact at small n")
    p_lab.add_argument("--check", required=True, choices=sorted(_CHECKS))
    p_lab.add_argument("--n", type=int, default=4)
    p_lab.add_argument("--cases", type=int, default=100)
    p_lab.add_argument("--seed", type=int, default=0)
    p_lab.add_argument("--report", default=None, help="JSON report path")
    p_lab.set_defaults(func=_cmd_theorylab)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) == "zoo" and getattr(args, "zoo_cmd", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return int(args.func(args) or 0)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: bad files, bad values, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
