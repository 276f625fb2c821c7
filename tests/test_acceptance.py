"""Acceptance gate: end-to-end statistical and exactness criteria.

Each test covers one numbered criterion, prints a single ``[PASS]``/``[FAIL]``
line with its headline numbers and elapsed time, and then asserts.  Accept or
reject rates are checked against a one-sided 99% binomial band around the
2/3 target rate, so a healthy implementation fails a criterion here with
probability below 1% even at the band edge (and far less in practice, since
the measured rates sit near 0 or 1).  All randomness is seeded; reruns are
deterministic.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hypercube_tester.blowup import (
    explicit_moments,
    gram_moments,
    uniform_sigma_frob_sq_bound,
    uniform_sigma_frob_sq_exact,
    z_statistic_naive,
)
from hypercube_tester.harness import (
    ExperimentSpec,
    csv_body_without_wall_time,
    run_experiment,
    scaling_report,
)
from hypercube_tester.meantest import (
    MeanTestConfig,
    SampleBatch,
    erf_lower_bound_holds,
    gaussian_mean_tester,
    gaussian_required_samples,
)
from hypercube_tester.model import Decision, DensePmf, ProductDistribution
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.theory import (
    SCALE,
    build_orientation,
    check_greedy_property,
    greedy_ordering_valid,
    random_dense_pmf,
    verify_chain_rule,
    verify_contributing_bias,
    verify_graph_to_mean,
    verify_khintchine,
    verify_variance_bound,
)
from hypercube_tester.uniformity import SubCondConfig, edge_tester, subcond_uni
from hypercube_tester.zoo import GaussianSource, TwoPointDistribution

REPORTS_DIR = Path(__file__).resolve().parents[1] / "reports"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("HT_SEED", raising=False)
    monkeypatch.delenv("HT_THREADS", raising=False)


def _criterion(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    print(line)
    assert ok, line


def _band_floor(trials: int, rate: float = 2.0 / 3.0) -> int:
    """One-sided 99% lower band on a binomial count at the target rate."""
    return math.ceil(trials * rate - 2.576 * math.sqrt(trials * rate * (1.0 - rate)))


def biased_edge_pmf(n: int, atom_index: int = 0, coord: int = 0) -> DensePmf:
    """Mass 2/2^n on one point, 0 on its coord-neighbor, uniform elsewhere."""
    mass = np.full(1 << n, 2.0**-n)
    partner = atom_index ^ (1 << (n - 1 - coord))
    mass[atom_index] = 2.0 ** (1 - n)
    mass[partner] = 0.0
    return DensePmf(n, mass)


# ---------------------------------------------------------------------------
# criterion 1: exact small-n lemma suite


def test_criterion_1_exact_lemma_suite():
    t0 = time.perf_counter()
    parts = []

    # subcube decomposition of total variation: lhs <= rhs, exactly
    rng = stream(11, 0, 0)
    sigmas = (0.25, 0.5, 0.75)
    chain_fail = 0
    for i in range(100):
        p = random_dense_pmf(rng, 2 + i % 7)
        rep = verify_chain_rule(p, sigmas[i % 3])
        chain_fail += rep.lhs > rep.rhs + 1e-9
    parts.append(f"chain {chain_fail}/100 violations")

    # tensor-square factorization: next-level mean energy == current
    # covariance energy, and the explicit route agrees with the Gram route
    rng = stream(11, 1, 0)
    blow_fail = 0
    for i in range(60):
        p = random_dense_pmf(rng, 2 + i % 3)
        for k in (0, 1):
            mu_k, frob_k = gram_moments(p, k)
            mu_next, _ = gram_moments(p, k + 1)
            ok = math.isclose(mu_next, frob_k, rel_tol=1e-9, abs_tol=1e-12)
            em_mu, em_frob = explicit_moments(p, k)
            ok &= math.isclose(em_mu, mu_k, rel_tol=1e-9, abs_tol=1e-12)
            ok &= math.isclose(em_frob, frob_k, rel_tol=1e-9, abs_tol=1e-12)
            blow_fail += not ok
    parts.append(f"blowup {blow_fail}/120")

    # uniform covariance energy: exact value below the closed-form bound
    uni_fail = 0
    for n in range(1, 6):
        for k in (0, 1):
            exact = uniform_sigma_frob_sq_exact(n, k)
            ok = exact <= uniform_sigma_frob_sq_bound(n, k) * (1 + 1e-12)
            ok &= math.isclose(
                exact, gram_moments(DensePmf.uniform(n), k)[1], rel_tol=1e-9
            )
            uni_fail += not ok
    parts.append(f"uniform-moment {uni_fail}/10")

    # first-absolute-moment bound for sign averages
    rng = stream(11, 2, 0)
    kh_fail = 0
    for i in range(100):
        a = rng.standard_normal(1 + i % 12) * (0.1, 1.0, 10.0)[i % 3]
        kh_fail += not verify_khintchine(a, tol=1e-12)
    parts.append(f"khintchine {kh_fail}/100")

    # edge classification + greedy deletion orderings on all edges
    rng = stream(11, 3, 0)
    orient_fail = 0
    greedy_nonvac = 0
    for i in range(1000):
        m = 2 + i % 7
        p = random_dense_pmf(rng, m)
        g = build_orientation(p)
        n_v = 1 << m
        if g.u.size != m * (1 << (m - 1)):
            orient_fail += 1
            continue
        for kappa in g.scales():
            sel = (g.cls == SCALE) & (g.kappa == kappa)
            if not greedy_ordering_valid(n_v, g.u[sel], g.v[sel], g.orderings[kappa]):
                orient_fail += 1
        scales = g.scales()
        if scales:
            kappa = int(scales[rng.integers(len(scales))])
            out_deg = g.out_degrees(SCALE, kappa)
            big_u = rng.choice(n_v, size=int(rng.integers(1, n_v)), replace=False)
            rest = np.setdiff1d(np.arange(n_v), big_u)
            v = int(rest[rng.integers(rest.size)])
            bound = max(1, int(out_deg[big_u].max()))
            greedy_nonvac += 1
            if not check_greedy_property(g, kappa, big_u, v, bound):
                orient_fail += 1
    parts.append(f"orientation+greedy {orient_fail}/1000 ({greedy_nonvac} probes)")

    # directed uneven/scale edges force conditional means away from zero
    rng = stream(11, 4, 0)
    gm_fail = gm_nonvac = 0
    for i in range(600):
        if gm_nonvac >= 1000:
            break
        p = random_dense_pmf(rng, 3 + i % 4, alpha=0.1)
        rep = verify_graph_to_mean(p, int(rng.integers(1, p.n)), trials=25, rng=rng)
        gm_fail += len(rep.failures)
        gm_nonvac += rep.nonvacuous
    parts.append(f"graph-mean {gm_fail} fails/{gm_nonvac} nonvac")

    rng = stream(11, 5, 0)
    cb_fail = cb_nonvac = 0
    for i in range(600):
        if cb_nonvac >= 1000:
            break
        p = random_dense_pmf(rng, 3 + i % 4, alpha=0.1)
        rep = verify_contributing_bias(p, trials=25, rng=rng)
        cb_fail += len(rep.failures)
        cb_nonvac += rep.nonvacuous
    parts.append(f"contributing {cb_fail} fails/{cb_nonvac} nonvac")

    elapsed = time.perf_counter() - t0
    ok = (
        chain_fail == 0
        and blow_fail == 0
        and uni_fail == 0
        and kh_fail == 0
        and orient_fail == 0
        and gm_fail == 0
        and gm_nonvac >= 1000
        and cb_fail == 0
        and cb_nonvac >= 1000
        and elapsed < 120.0
    )
    _criterion(1, "exact small-n lemma suite", ok, "; ".join(parts) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: pairing-statistic moment bands


def test_criterion_2_statistic_moment_bands():
    t0 = time.perf_counter()
    targets = {
        "uniform": DensePmf.uniform(6),
        "planted": ProductDistribution(np.full(6, 0.3)).dense(),
        "two_point": TwoPointDistribution(np.ones(6, dtype=np.int8)).dense(),
    }
    rng = stream(21, 0, 0)
    held = 0
    total = 0
    fails = []
    for name, p in targets.items():
        for q in (10, 20):
            for level in (0, 1):
                total += 1
                rep = verify_variance_bound(p, q=q, batches=10_000, rng=rng, level=level)
                if rep.ok:
                    held += 1
                else:
                    fails.append((name, q, level))
    elapsed = time.perf_counter() - t0
    ok = held == total and elapsed < 300.0
    _criterion(
        2,
        "statistic mean within 4 SE and variance below bound (1e4 batches)",
        ok,
        f"{held}/{total} bands held{'' if not fails else ' missed ' + str(fails)}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: mean tester operating points


def test_criterion_3_mean_tester_operating_points():
    t0 = time.perf_counter()
    trials = 200
    uniform = ProductDistribution.uniform(64)
    accepts = 0
    for t in range(trials):
        v = mean_tester_run(uniform, 0.5, stream(31, 0, t))
        accepts += v.decision is Decision.ACCEPT
    planted = ProductDistribution(np.full(64, 0.25))
    rejects = 0
    for t in range(trials):
        v = mean_tester_run(planted, 0.25, stream(31, 1, t))
        rejects += v.decision is Decision.REJECT
    elapsed = time.perf_counter() - t0
    floor = _band_floor(trials)
    ok = accepts >= floor and rejects >= floor and elapsed < 300.0
    _criterion(
        3,
        "mean tester: uniform n=64 eps=0.5 accepts, planted 0.25 rejects",
        ok,
        f"accepts {accepts}/{trials}, rejects {rejects}/{trials}, floor {floor}; {elapsed:.1f}s",
    )


def mean_tester_run(target, eps, rng):
    from hypercube_tester.meantest import mean_tester

    return mean_tester(ScondOracle(target, rng), MeanTestConfig(eps))


# ---------------------------------------------------------------------------
# criterion 4: fast statistic equals the explicit tensor route


def test_criterion_4_statistic_equivalence():
    t0 = time.perf_counter()
    rng = stream(41, 0, 0)
    worst = 0.0
    for b in range(100):
        n = 2 + b % 5
        q = 2 + b % 7
        level = b % 3
        xs = rng.choice((-1, 1), size=(q, n)).astype(np.int8)
        ys = rng.choice((-1, 1), size=(q, n)).astype(np.int8)
        fast = SampleBatch(xs, ys).numerator(level) / (q * q)
        slow = z_statistic_naive(xs, ys, level)
        worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _criterion(
        4,
        "Gram-power statistic == explicit tensor statistic",
        ok,
        f"worst relative gap {worst:.2e} over 100 batches; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: recursive uniformity tester operating points


def test_criterion_5_subcond_uniformity_operating_points():
    t0 = time.perf_counter()
    cfg = SubCondConfig()
    trials = 100

    accepts = 0
    for t in range(trials):
        oracle = ScondOracle(ProductDistribution.uniform(64), stream(51, 0, t))
        accepts += subcond_uni(oracle, 0.5, cfg).decision is Decision.ACCEPT

    tp_rejects = 0
    for t in range(trials):
        target = TwoPointDistribution(np.ones(64, dtype=np.int8))
        oracle = ScondOracle(target, stream(51, 1, t))
        tp_rejects += subcond_uni(oracle, 0.25, cfg).decision is Decision.REJECT

    pl_rejects = 0
    for t in range(trials):
        oracle = ScondOracle(ProductDistribution(np.full(64, 0.25)), stream(51, 2, t))
        pl_rejects += subcond_uni(oracle, 0.25, cfg).decision is Decision.REJECT

    elapsed = time.perf_counter() - t0
    floor = _band_floor(trials)
    ok = (
        accepts >= floor
        and tp_rejects >= floor
        and pl_rejects >= floor
        and elapsed < 1200.0
    )
    _criterion(
        5,
        "uniformity tester: uniform accepts, two-point and planted reject (n=64)",
        ok,
        f"accepts {accepts}/{trials}, two-point rejects {tp_rejects}/{trials}, "
        f"planted rejects {pl_rejects}/{trials}, floor {floor}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: edge tester operating points


def test_criterion_6_edge_tester_operating_points():
    t0 = time.perf_counter()
    edge_cfg = SubCondConfig().edge
    trials = 100

    accepts = 0
    for t in range(trials):
        oracle = ScondOracle(ProductDistribution.uniform(16), stream(61, 0, t))
        accepts += edge_tester(oracle, 0.5, edge_cfg).decision is Decision.ACCEPT

    rejects = 0
    for t in range(trials):
        oracle = ScondOracle(biased_edge_pmf(8), stream(61, 1, t))
        rejects += edge_tester(oracle, 0.25, edge_cfg).decision is Decision.REJECT

    elapsed = time.perf_counter() - t0
    floor = _band_floor(trials)
    ok = accepts >= floor and rejects >= floor
    _criterion(
        6,
        "edge tester: uniform n=16 accepts, planted heavy edge n=8 rejects",
        ok,
        f"accepts {accepts}/{trials}, rejects {rejects}/{trials}, floor {floor}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: gaussian mean tester operating points


def test_criterion_7_gaussian_operating_points():
    t0 = time.perf_counter()
    n, eps, trials = 32, 0.5, 100
    budget = gaussian_required_samples(n, eps)

    accepts = 0
    for t in range(trials):
        samples = GaussianSource(n).sample(stream(71, 0, t), budget)
        accepts += gaussian_mean_tester(samples, eps).decision is Decision.ACCEPT

    shifted = GaussianSource(n, np.full(n, 1.0 / math.sqrt(n)))  # mean norm 1 > eps
    rejects = 0
    for t in range(trials):
        samples = shifted.sample(stream(71, 1, t), budget)
        rejects += gaussian_mean_tester(samples, eps).decision is Decision.REJECT

    grid = np.linspace(-8.0, 8.0, 10_001)
    erf_ok = bool(erf_lower_bound_holds(grid).all())

    elapsed = time.perf_counter() - t0
    floor = _band_floor(trials)
    ok = accepts >= floor and rejects >= floor and erf_ok
    _criterion(
        7,
        "gaussian tester: N(0,I) accepts, unit mean shift rejects; erf bound grid",
        ok,
        f"accepts {accepts}/{trials}, rejects {rejects}/{trials}, floor {floor}, "
        f"erf grid {'ok' if erf_ok else 'VIOLATED'}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: query scaling artifact


def test_criterion_8_scaling_artifact():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        tester="subconduni",
        distribution="uniform",
        n=[16, 32, 64],
        eps=[0.5],
        trials=5,
        seed=81,
    )
    summary = run_experiment(spec)["summary"]
    report = scaling_report(summary["cells"], reference_slope=0.5)
    REPORTS_DIR.mkdir(exist_ok=True)
    out = REPORTS_DIR / "scaling_subconduni.json"
    doc = {
        "experiment": spec.to_dict(),
        "cells": summary["cells"],
        "scaling": report,
        "note": (
            "At these dimensions the tester resolves every run through its "
            "single-coordinate base case, whose query budget grows like "
            "n * polylog(n) / eps^2; the fitted log-log slope therefore sits "
            "near 2 rather than the sqrt(n) reference slope of 0.5, which "
            "describes the sample budget of the top-level mean test alone. "
            "The slope is reported, not asserted."
        ),
    }
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    elapsed = time.perf_counter() - t0
    increasing = all(
        a < b for a, b in zip(report["mean_queries"], report["mean_queries"][1:])
    )
    ok = (
        out.exists()
        and report["n_values"] == [16, 32, 64]
        and math.isfinite(report["slope"])
        and increasing
    )
    _criterion(
        8,
        "query-scaling report written",
        ok,
        f"slope {report['slope']:.2f} vs reference {report['reference_slope']}, "
        f"mean queries {['%.3g' % q for q in report['mean_queries']]}, "
        f"artifact {out.name}; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: deterministic reruns


def test_criterion_9_rerun_byte_identity():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        tester="meantest",
        distribution="uniform",
        n=[16],
        eps=[0.5],
        trials=5,
        seed=914,
    )
    first = csv_body_without_wall_time(run_experiment(spec)["csv"])
    second = csv_body_without_wall_time(run_experiment(spec)["csv"])
    elapsed = time.perf_counter() - t0
    ok = first == second
    _criterion(
        9,
        "same-seed rerun is byte-identical (wall time stripped)",
        ok,
        f"{len(first.encode())} bytes compared; {elapsed:.1f}s",
    )
