"""Recursive subcube-conditional uniformity testing.

The top-level routine distinguishes p = uniform from dtv(p, uniform) > eps
using subcube-conditional samples. At each level it draws random
restrictions; restrictions with few free coordinates feed a mean tester
(is the conditional mean far from zero?), while those with many free
coordinates trigger recursion at a doubled distance parameter. When the
dimension is too small for the restriction machinery to bite
(e^(-sigma n / 10) > eps / 8), a direct edge tester takes over: it samples
points, re-draws single coordinates conditionally, and rejects when any
conditional edge bias is larger than a level-dependent threshold.

The constant presets are declared once, in `PRESETS` (with the mean
tester's sample rules in `meantest.Q_RULES` under the same names); the
harness, the CLI and the spec validation all read that table. "practical"
uses constants small enough to run at desk scale; "paper" documents the
conservative constant trail (its sigma is so small that any runnable
dimension lands in the base case, so it is for inspection, not
experiments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .meantest import MeanTestConfig, mean_tester
from .model import Decision, TestVerdict
from .oracle import ScondOracle

EDGE_PAIR_CHUNK = 512


def _force_odd(x: int) -> int:
    x = int(x)
    return x if x % 2 == 1 else x + 1


def _log2_at_least_one(x: float) -> float:
    return max(math.log2(x), 1.0)


@dataclass(frozen=True)
class EdgeConfig:
    """Constants for the edge tester: H = ceil(c_h log2(n/eps)) levels,
    m_h = ceil(c1 2^h log2(n/eps)) pairs, b_h = ceil(c2 2^-h n log2^2(n/eps)/eps^2)
    conditional draws per pair, threshold theta_h = c3 eps sqrt(2^h/n)/log2(n/eps),
    bucket floor 2^-h >= c_beta eps^2/(n log2^2 n)."""

    c_h: float = 2.0
    c1: float = 2.0
    c2: float = 25.0
    c3: float = 1.0
    c_beta: float = 1.0


@dataclass(frozen=True)
class SubCondConfig:
    c0: float = 2.0  # sigma = min(1, 1/(c0 log2^4(16/eps)))
    c_l: float = 4.0  # L = ceil(c_l sqrt(n)/eps * log2^2(n/eps))
    l_formula: Callable[[int, float], int] | None = None
    r_factor: float = 3.0  # mean-test repetitions r = odd(ceil(r_factor log2(n/eps)))
    # recursion repetitions t = odd(t_override); None = odd(100 ceil(log2(16/eps)))
    t_override: int | None = 15
    max_depth: int = 12
    mean_preset: str = "practical"
    mean_q_override: int | None = None
    mean_k0_override: int | None = None
    edge: EdgeConfig = field(default_factory=EdgeConfig)

    def sigma(self, eps: float) -> float:
        return min(1.0, 1.0 / (self.c0 * math.log2(16.0 / eps) ** 4))

    def big_l(self, n: int, eps: float) -> int:
        if self.l_formula is not None:
            return max(1, int(self.l_formula(n, eps)))
        lg = _log2_at_least_one(n / eps)
        return max(1, math.ceil(self.c_l * math.sqrt(n) / eps * lg * lg))

    def r_reps(self, n: int, eps: float) -> int:
        return _force_odd(math.ceil(self.r_factor * _log2_at_least_one(n / eps)))

    def t_reps(self, eps: float) -> int:
        if self.t_override is not None:
            return _force_odd(self.t_override)
        return _force_odd(100 * math.ceil(math.log2(16.0 / eps)))

    def mean_config(self, eps: float) -> MeanTestConfig:
        return MeanTestConfig(
            eps=eps,
            preset=self.mean_preset,
            q=self.mean_q_override,
            k0=self.mean_k0_override,
        )


# theta_h * sqrt(b_h) == c3 * sqrt(c2): the "practical" pair, the EdgeConfig
# defaults (c2=25, c3=1), puts the reject threshold at 5 standard errors of
# the bias estimate; the "paper" pair (c2=400, c3=1/4) also gives 5 but with
# far more draws.
PRESETS = {
    "practical": SubCondConfig(),
    "paper": SubCondConfig(
        c0=1e11,
        c_l=1e4,  # polylog headroom; this preset is documentation-only
        t_override=None,
        mean_preset="paper",
        edge=EdgeConfig(c_h=2.0, c1=2.0, c2=400.0, c3=0.25, c_beta=1.0),
    ),
}


def base_case_applies(n: int, eps: float, sigma: float) -> bool:
    return math.exp(-sigma * n / 10.0) > eps / 8.0


def edge_tester(oracle: ScondOracle, eps: float, cfg: EdgeConfig | None = None) -> TestVerdict:
    """Reject when some conditional single-coordinate bias is large.

    Levels run from heavy-mass buckets (few pairs, many draws each) down to
    light ones; the first pair whose estimated |bias| exceeds theta_h ends
    the run with Reject.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    cfg = cfg or EdgeConfig()
    n = oracle.n
    start = oracle.queries
    lg = _log2_at_least_one(n / eps)
    lg_n = _log2_at_least_one(n)
    big_h = math.ceil(cfg.c_h * lg)
    floor = cfg.c_beta * eps * eps / (n * lg_n * lg_n)
    levels = []
    fired = None
    for h in range(big_h + 1):
        if 2.0**-h < floor:
            break
        m_h = math.ceil(cfg.c1 * 2.0**h * lg)
        b_h = math.ceil(cfg.c2 * 2.0**-h * n * lg * lg / (eps * eps))
        theta = cfg.c3 * eps * math.sqrt(2.0**h / n) / lg
        max_est = 0.0
        done = 0
        while done < m_h and fired is None:
            m = min(EDGE_PAIR_CHUNK, m_h - done)
            points = oracle.sample(m)
            coords = oracle.rng.integers(0, n, size=m)
            ests = oracle.estimate_edge_biases(points, coords, b_h)
            abs_ests = np.abs(ests)
            max_est = max(max_est, float(abs_ests.max()))
            hits = np.flatnonzero(abs_ests > theta)
            if hits.size:
                i = int(hits[0])
                fired = {"h": h, "coord": int(coords[i]), "est": float(ests[i])}
            done += m
        levels.append({"h": h, "m": m_h, "b": b_h, "theta": theta, "max_est": max_est})
        if fired is not None:
            break
    decision = Decision.REJECT if fired is not None else Decision.ACCEPT
    trace = {"kind": "edge", "levels": levels, "fired": fired}
    return TestVerdict(decision, oracle.queries - start, trace)


def subcond_uni(
    oracle: ScondOracle,
    eps: float,
    cfg: SubCondConfig | None = None,
    _depth: int = 0,
) -> TestVerdict:
    """Recursive uniformity tester (Accept / Reject / Error verdicts)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    cfg = cfg or SubCondConfig()
    eps = min(eps, 0.5)
    n = oracle.n
    start = oracle.queries
    node = {
        "depth": _depth,
        "n": n,
        "eps": eps,
        "branch": None,
        "verdict": None,
        "queries": 0,
        "children": [],
    }

    def finish(decision: Decision) -> TestVerdict:
        node["queries"] = oracle.queries - start
        node["verdict"] = decision.value
        return TestVerdict(decision, node["queries"], {"tree": node})

    if _depth > cfg.max_depth:
        node["branch"] = "depth-exceeded"
        return finish(Decision.ERROR)

    sigma = cfg.sigma(eps)
    node["sigma"] = sigma

    if base_case_applies(n, eps, sigma):
        node["branch"] = "base-case"
        inner = edge_tester(oracle, eps, cfg.edge)
        node["edge"] = inner.trace
        return finish(inner.decision)

    big_l = cfg.big_l(n, eps)
    r = cfg.r_reps(n, eps)
    node["L"] = big_l
    node["r"] = r

    # restrictions with few stars: test the conditional mean directly
    mean_loop = []
    node["branch"] = "mean-loop"
    node["mean_loop"] = mean_loop
    for j in range(1, math.ceil(math.log2(2 * big_l)) + 1):
        s_j = math.ceil(8.0 * big_l * math.log2(2 * big_l) * 2.0**-j)
        eps_j = 2.0**-j
        stats = {"j": j, "restrictions": s_j, "tested": 0, "majority_rejects": 0}
        mean_loop.append(stats)
        mean_cfg = cfg.mean_config(eps_j)
        for _ in range(s_j):
            rho = oracle.draw_restriction_sigma(sigma)
            if rho.stars.size == 0:
                continue
            stats["tested"] += 1
            sub = oracle.restricted(rho)
            rejects = sum(
                mean_tester(sub, mean_cfg).decision is Decision.REJECT for _ in range(r)
            )
            if 2 * rejects > r:
                stats["majority_rejects"] += 1
                return finish(Decision.REJECT)

    # restrictions with many stars: recurse at doubled distance
    t = cfg.t_reps(eps)
    node["t"] = t
    rec_loop = []
    node["branch"] = "recursion-loop"
    node["recursion_loop"] = rec_loop
    for j in range(1, math.ceil(math.log2(4.0 / eps)) + 1):
        s_j = math.ceil((32.0 / eps) * math.log2(4.0 / eps) * 2.0**-j)
        eps_j = 2.0**-j
        stats = {"j": j, "restrictions": s_j, "recursed": 0}
        rec_loop.append(stats)
        for _ in range(s_j):
            rho = oracle.draw_restriction_sigma(sigma)
            k = rho.stars.size
            if not 0 < k <= 2.0 * sigma * n:
                continue
            stats["recursed"] += 1
            sub = oracle.restricted(rho)
            rejects = 0
            for _ in range(t):
                verdict = subcond_uni(sub, eps_j, cfg, _depth + 1)
                node["children"].append(verdict.trace["tree"])
                if verdict.decision is Decision.ERROR:
                    node["branch"] = "child-error"
                    return finish(Decision.ERROR)
                if verdict.decision is Decision.REJECT:
                    rejects += 1
            if 2 * rejects > t:
                return finish(Decision.REJECT)

    node["branch"] = "accept"
    return finish(Decision.ACCEPT)


def trace_query_sum(tree: dict) -> int:
    """Sum of query counts attributed to each node exclusively (a node's
    total minus its children's totals), over the whole tree; equals the
    root total by construction and is asserted in tests."""
    own = tree["queries"] - sum(c["queries"] for c in tree["children"])
    return own + sum(trace_query_sum(c) for c in tree["children"])
