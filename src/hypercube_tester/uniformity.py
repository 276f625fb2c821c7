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

The exact laws stand beside their rules: `edge_null_accept`, the edge
tester's uniform accept rate, and `majority_vote_law`, the law of `_vote`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .meantest import MeanTestConfig, _mean_tests
from .model import Decision, TestVerdict, as_int
from .oracle import ScondOracle

# the edge tester draws a level in blocks of pairs; a block is the most
# pairs whose points matrix, one int8 row of the root dimension per pair,
# fits in this many bytes (4,096 pairs at n = 128). With 1 MiB, a block's
# arrays together come near glibc's trim threshold, and whether every block
# faulted its pages in again depended on the process's earlier allocations
# (BENCH_edge_blocks.json, block_size_exploration).
EDGE_BLOCK_BYTES = 1 << 19


def _force_odd(x: int) -> int:
    x = int(x)
    return x if x % 2 == 1 else x + 1


def _log2_at_least_one(x: float) -> float:
    return max(math.log2(x), 1.0)


class EdgeLevel(NamedTuple):
    """One edge-tester level: m pairs, b conditional draws per pair, threshold
    theta, and count threshold c: a pair with p draws of +1 fires when
    |2p - b| >= c, that is when |2p - b| / b > theta (c = b + 1 if never)."""

    h: int
    m: int
    b: int
    theta: float
    c: int


def _count_threshold(b: int, theta: float) -> int:
    """The smallest d in 0..b with d / b > theta, else b + 1. For b < 2^53,
    int / int and the tester's float (2.0 p - b) / b are both the correctly
    rounded quotient, which never decreases in d."""
    return bisect.bisect_right(range(b + 1), theta, key=lambda d: d / b)


def _edge_fire_prob(b: int, c: int) -> float:
    """P(|2X - b| >= c) for X ~ Binomial(b, 1/2) and a level's count
    threshold c >= 1 (``EdgeLevel.c``).

    The event is X <= k or X >= b - k with k = (b - c) // 2, two disjoint
    tails of equal mass, so f = 2 P(X <= k), and 0 when k < 0 (c = b + 1).
    The tail is summed from k down by the ratio P(x - 1) / P(x) =
    x / (b - x + 1), starting from P(k) by ``math.lgamma``, until the terms
    no longer change the sum.
    """
    k = (b - c) // 2
    if k < 0:
        return 0.0
    term = math.exp(
        math.lgamma(b + 1) - math.lgamma(k + 1) - math.lgamma(b - k + 1) - b * math.log(2.0)
    )
    tail = 0.0
    for x in range(k, -1, -1):
        if tail + term == tail:
            break
        tail += term
        term *= x / (b - x + 1)
    return 2.0 * tail


class Bucket(NamedTuple):
    """One restriction bucket: s restrictions tested at distance eps."""

    j: int
    s: int
    eps: float


def _dyadic_buckets(count: int, total: float) -> tuple[Bucket, ...]:
    """Buckets j = 1..count with s_j = ceil(total 2^-j) at eps_j = 2^-j."""
    return tuple(Bucket(j, math.ceil(total * 2.0**-j), 2.0**-j) for j in range(1, count + 1))


@dataclass(frozen=True)
class EdgeConfig:
    """Constants for the edge tester; `levels` turns them into its schedule."""

    c_h: float = 2.0
    c1: float = 2.0
    c2: float = 25.0
    c3: float = 1.0
    c_beta: float = 1.0

    def __post_init__(self):
        # a zero or negative constant leaves no level or no pair, and the
        # tester would accept without a query
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"EdgeConfig.{f.name} must be finite and positive, got {value!r}")

    @functools.lru_cache(maxsize=256)
    def levels(self, n: int, eps: float) -> tuple[EdgeLevel, ...]:
        """Levels h = 0..ceil(c_h log2(n/eps)) with m_h = ceil(c1 2^h log2(n/eps))
        pairs, b_h = ceil(c2 2^-h n log2^2(n/eps)/eps^2) conditional draws per
        pair and threshold theta_h = c3 eps sqrt(2^h/n)/log2(n/eps), with its
        count threshold c_h (see ``EdgeLevel``), stopping at the bucket floor
        2^-h >= c_beta eps^2/(n log2^2 n).

        Schedules are memoised per (config, n, eps) in a bounded cache: a
        recursive verdict runs hundreds of edge testers on a few (n, eps).
        An n < 1, an eps outside (0, 1] or an (n, eps) that leaves no level
        raises on every call."""
        if n < 1 or not 0.0 < eps <= 1.0:
            raise ValueError(f"edge levels need n >= 1 and eps in (0, 1], got n={n}, eps={eps}")
        lg = _log2_at_least_one(n / eps)
        lg_n = _log2_at_least_one(n)
        floor = self.c_beta * eps * eps / (n * lg_n * lg_n)
        out = []
        for h in range(math.ceil(self.c_h * lg) + 1):
            if 2.0**-h < floor:
                break
            m = math.ceil(self.c1 * 2.0**h * lg)
            b = math.ceil(self.c2 * 2.0**-h * n * lg * lg / (eps * eps))
            theta = self.c3 * eps * math.sqrt(2.0**h / n) / lg
            out.append(EdgeLevel(h, m, b, theta, _count_threshold(b, theta)))
        if not out:
            raise ValueError(f"the bucket floor leaves no edge level at n={n}, eps={eps}")
        return tuple(out)


def edge_null_accept(n: int, eps: float, cfg: EdgeConfig | None = None) -> float:
    """Exact probability that ``edge_tester`` accepts the uniform target
    on n coordinates: prod_h (1 - f_h)^(m_h) over ``cfg.levels(n, eps)``.

    On the uniform target each pair's +1 count X is Binomial(b_h, 1/2) and
    the pairs are independent, so the product is exact; f_h is the chance
    that one level-h pair fires (see ``_edge_fire_prob``). An accepted run
    spends exactly sum_h m_h (1 + b_h) queries over the same levels.
    """
    cfg = cfg or EdgeConfig()
    log_accept = 0.0
    for lv in cfg.levels(n, eps):
        f = _edge_fire_prob(lv.b, lv.c)
        if f >= 1.0:
            return 0.0
        log_accept += lv.m * math.log1p(-f)
    return math.exp(log_accept)


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

    def __post_init__(self):
        # a negative t runs no recursion and rejects on 2*0 > t; a nan or
        # negative c0 puts sigma outside (0, 1]
        for name in ("c0", "c_l", "r_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SubCondConfig.{name} must be finite and positive, got {value!r}")
        if self.t_override is not None and as_int(self.t_override, "SubCondConfig.t_override") < 1:
            raise ValueError(f"SubCondConfig.t_override must be >= 1, got {self.t_override!r}")
        # an integer depth budget; a negative one gives ERROR at the root,
        # before any query
        as_int(self.max_depth, "SubCondConfig.max_depth")
        # the mean fields are read only when a mean loop runs, possibly after
        # queries were spent; check them now with the mean config's own rules
        MeanTestConfig(
            eps=1.0, preset=self.mean_preset, q=self.mean_q_override, k0=self.mean_k0_override
        )

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

    def base_case(self, n: int, eps: float) -> bool:
        """Whether the dimension is too small for restrictions to bite:
        e^(-sigma n / 10) > eps / 8."""
        return math.exp(-self.sigma(eps) * n / 10.0) > eps / 8.0

    def mean_buckets(self, n: int, eps: float) -> tuple[Bucket, ...]:
        """Mean-loop buckets j = 1..ceil(log2 2L), s_j = ceil(8 L log2(2L) 2^-j)."""
        big_l = self.big_l(n, eps)
        lg = math.log2(2 * big_l)
        return _dyadic_buckets(math.ceil(lg), 8.0 * big_l * lg)

    def recursion_buckets(self, eps: float) -> tuple[Bucket, ...]:
        """Recursion-loop buckets j = 1..ceil(log2(4/eps)),
        s_j = ceil((32/eps) log2(4/eps) 2^-j)."""
        lg = math.log2(4.0 / eps)
        return _dyadic_buckets(math.ceil(lg), (32.0 / eps) * lg)


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


def edge_tester(oracle: ScondOracle, eps: float, cfg: EdgeConfig | None = None) -> TestVerdict:
    """Reject when some conditional single-coordinate bias is large.

    This is the one-repetition case of ``_edge_tests``, which runs the
    repetitions of a restriction's base-case children along one axis; with
    one repetition it draws the stream exactly as described here.

    Levels run from heavy-mass buckets (few pairs, many draws each) down to
    light ones. A pair whose count p of +1 draws out of b_h has
    |2p - b_h| >= c_h fires (``EdgeLevel``): decisions compare integers,
    and the float estimates (2p - b_h) / b_h only fill the trace. The first
    firing pair ends the run with Reject, and the trace's ``fired`` names
    its level, its index ``pair`` within the level, its coordinate and its
    estimate. A block is checked by its largest and smallest counts alone.

    A level's m_h pairs are drawn in blocks of EDGE_BLOCK_BYTES // rho.n
    pairs (4,096 at n = 128), where rho.n is the root dimension: a target
    that reads its points gets a view's points expanded to it, and that
    points matrix is the largest array of a block (the uniform product
    builds none). Fewer, larger blocks spend less on per-call overhead;
    above n = 2048 (blocks of fewer than 256 pairs) the effect is
    unmeasured (BENCH_edge_blocks.json, large_n).
    A block is one ``oracle.edge_block`` call, which draws the block's
    points as ``sample`` would, then its coordinates by ``rng.integers``,
    then each pair's +1 count, and returns the coordinates and counts; a
    recursive verdict runs thousands of blocks of a few pairs each, so the
    fixed cost per call matters.
    A block is drawn, counted and charged whole. An accepted run spends
    exactly sum_h m_h (1 + b_h) queries. A rejecting run stops after the
    block that holds the firing pair: past the fired level's earlier
    blocks it spends at most one block of pairs, (1 + b_h) queries each,
    and it is charged for every draw it made.
    """
    return _edge_tests(oracle, eps, cfg or EdgeConfig(), 1)[0]


def _edge_tests(oracle: ScondOracle, eps: float, cfg: EdgeConfig, reps: int) -> list[TestVerdict]:
    """reps independent edge testers on one view, one verdict each, run
    along a repetition axis.

    The repetitions walk the levels in step. At each block of a level, one
    ``oracle.edge_block`` call draws the pairs of every live repetition,
    repetition after repetition in the order of their index, and the
    counts are split per repetition by a reshape. A repetition stops at its
    own first firing pair; the others go on. Per repetition a block holds
    max(1, EDGE_BLOCK_BYTES // rho.n // reps) pairs, so a block's points
    matrix stays within the byte cap, and one repetition draws the blocks,
    in the order and at the charges, of ``edge_tester``. Each verdict is
    charged what its own blocks drew, so an accepted repetition spends
    exactly sum_h m_h (1 + b_h) queries.
    """
    schedule = cfg.levels(oracle.n, eps)
    block = max(1, EDGE_BLOCK_BYTES // oracle.rho.n // reps)
    levels = [[] for _ in range(reps)]
    fired = [None] * reps
    queries = [0] * reps
    live = list(range(reps))
    for lv in schedule:
        b, c = lv.b, lv.c
        entered = live
        top = [0] * reps  # largest |2p - b| per repetition
        done = 0
        while done < lv.m and live:
            m = min(block, lv.m - done)
            coords, plus = oracle.edge_block(len(live) * m, b)
            plus = plus.reshape(len(live), m)
            # each repetition's largest and smallest count, by direct reduces:
            # the array methods add a Python-level call per block
            his = np.maximum.reduce(plus, axis=1).tolist()
            los = np.minimum.reduce(plus, axis=1).tolist()
            for row, (rep, hi, lo) in enumerate(zip(live, his, los)):
                queries[rep] += m * (1 + b)
                top[rep] = max(top[rep], 2 * hi - b, b - 2 * lo)
                if top[rep] >= c:
                    # counts of b <= 64 come as uint8, where 2 * counts wraps
                    counts = plus[row].astype(np.int64)
                    i = int(np.flatnonzero(np.abs(2 * counts - b) >= c)[0])
                    fired[rep] = {
                        "h": lv.h,
                        "pair": done + i,
                        "coord": int(coords[row * m + i]),
                        "est": (2.0 * int(counts[i]) - b) / b,
                    }
            live = [rep for rep in live if fired[rep] is None]
            done += m
        entry = {"h": lv.h, "m": lv.m, "b": b, "theta": lv.theta}
        for rep in entered:
            levels[rep].append({**entry, "max_est": top[rep] / b})
        if not live:
            break
    return [
        TestVerdict(
            Decision.ACCEPT if f is None else Decision.REJECT,
            spent,
            {"kind": "edge", "levels": reached, "fired": f},
        )
        for reached, f, spent in zip(levels, fired, queries)
    ]


def _base_cases(
    oracle: ScondOracle, eps: float, cfg: SubCondConfig, depth: int, reps: int
) -> list[TestVerdict] | None:
    """The one base-case rule of ``subcond_uni``, for the root and for each
    restriction's children: a view within the depth budget whose dimension
    is too small for restrictions to bite (``SubCondConfig.base_case``) gets
    reps verdicts, each with its own tree node, from one batched edge
    tester; any other view gets None and no draw."""
    if depth > cfg.max_depth or not cfg.base_case(oracle.n, eps):
        return None
    # a lone base case goes through the public entry, so a tracer that
    # wraps ``edge_tester`` still sees it
    if reps == 1:
        inners = [edge_tester(oracle, eps, cfg.edge)]
    else:
        inners = _edge_tests(oracle, eps, cfg.edge, reps)
    sigma = cfg.sigma(eps)
    return [
        TestVerdict(
            inner.decision,
            inner.queries_used,
            {
                "tree": {
                    "depth": depth,
                    "n": oracle.n,
                    "eps": eps,
                    "branch": "base-case",
                    "verdict": inner.decision.value,
                    "queries": inner.queries_used,
                    "children": [],
                    "sigma": sigma,
                    "edge": inner.trace,
                }
            },
        )
        for inner in inners
    ]


def _children(
    view: ScondOracle, eps: float, cfg: SubCondConfig, depth: int, reps: int
) -> Iterable[TestVerdict]:
    """reps children of a recursion-loop restriction on its view: base cases
    batched (``_base_cases``), or else recursive verdicts, produced one at a
    time as they are read."""
    return _base_cases(view, eps, cfg, depth, reps) or (
        subcond_uni(view, eps, cfg, depth) for _ in range(reps)
    )


def _vote(
    reps: int, run: Callable[[int], Iterable[TestVerdict]]
) -> tuple[Decision, list[TestVerdict]]:
    """The majority decision of an odd number reps of repetitions, taken
    curtailed, and the verdicts of the repetitions that ran.

    ``run(k)`` gives k more verdicts. The vote asks for need = (reps + 1) // 2
    first, then, while neither side holds need, for need - max(accepts,
    rejects) more: the fewest that could fix the vote, so no repetition runs
    once it is fixed, and at most reps run. Its decision is the majority of
    all reps verdicts on every outcome, since the repetitions left out could
    not change it. The first ``ERROR`` ends the vote at once with ``ERROR``;
    a repetition that never ran gives none.
    """
    need = (reps + 1) // 2
    verdicts = []
    votes = {Decision.ACCEPT: 0, Decision.REJECT: 0}
    lead = 0
    while lead < need:
        for verdict in run(need - lead):
            verdicts.append(verdict)
            if verdict.decision is Decision.ERROR:
                return Decision.ERROR, verdicts
            votes[verdict.decision] += 1
        lead = max(votes.values())
    decision = Decision.REJECT if votes[Decision.REJECT] >= need else Decision.ACCEPT
    return decision, verdicts


def majority_vote_law(p: float, t: int) -> tuple[float, float]:
    """Exact (P(accept), expected repetitions run) of the curtailed majority
    vote of ``_vote`` over an odd number t of repetitions that each accept
    with probability p, independently.

    No request of ``_vote`` carries a side past need = (t + 1) // 2, so the
    vote stops when one side first holds need: accept wins after need + j
    runs, j < need, with probability C(need - 1 + j, j) p^need (1 - p)^j,
    and reject with p and 1 - p swapped. The accept probability is that of
    a majority of all t repetitions; at t = 3 the expected runs are
    2 + 2p(1 - p). Terms below the normal floats (past t = 2043 at p = 1/2)
    lose mass, and then the law raises ValueError.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"the vote needs an odd number of repetitions, got t={t}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    need = (t + 1) // 2
    accept_wins, reject_wins = p**need, (1.0 - p) ** need
    accept = runs = mass = 0.0
    for j in range(need):
        accept += accept_wins
        mass += accept_wins + reject_wins
        runs += (need + j) * (accept_wins + reject_wins)
        ratio = (need + j) / (j + 1)
        accept_wins *= ratio * (1.0 - p)
        reject_wins *= ratio * p
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"the vote law's terms underflow at t={t}, p={p}")
    return accept, runs


def subcond_uni(
    oracle: ScondOracle,
    eps: float,
    cfg: SubCondConfig | None = None,
    _depth: int = 0,
) -> TestVerdict:
    """Recursive uniformity tester (Accept / Reject / Error verdicts).

    A view past the depth budget gives ``ERROR`` before any query; whether
    a view is a base case, ``_base_cases`` alone decides.

    A restriction is tested by a majority vote over its r mean tests or its
    t children, and the vote stops once it is decided (``_vote``): it runs
    (r + 1) // 2 or (t + 1) // 2 repetitions first, then the fewest more
    that could fix it, so a restriction whose first repetitions agree runs
    no other. Each loop's trace entries count the repetitions that ran, in
    ``runs``. The repetitions of one request run batched. The k mean tests
    of a request draw their 2qk rows in one ``sample`` call
    (``meantest._mean_tests``), which reads the stream of k draws on product
    and dense targets. When a recursion-loop restriction's children are
    base cases, the k children of a request are one edge tester over a
    repetition axis (``_edge_tests``): each child stops at its own first
    firing pair, is charged what its own blocks drew and keeps its own
    tree node. The children's draws interleave, so their streams differ
    from edge testers run one after another; their laws and their charges
    do not. Children that recurse run one after another, and the first
    ``ERROR`` ends the verdict.
    """
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

    base = _base_cases(oracle, eps, cfg, _depth, 1)
    if base:
        return base[0]

    sigma = cfg.sigma(eps)
    node["sigma"] = sigma
    big_l = cfg.big_l(n, eps)
    r = cfg.r_reps(n, eps)
    node["L"] = big_l
    node["r"] = r

    # restrictions with few stars: test the conditional mean directly
    mean_loop = []
    node["branch"] = "mean-loop"
    node["mean_loop"] = mean_loop
    for bucket in cfg.mean_buckets(n, eps):
        stats = {
            "j": bucket.j,
            "restrictions": bucket.s,
            "tested": 0,
            "majority_rejects": 0,
            "runs": 0,
        }
        mean_loop.append(stats)
        mean_cfg = MeanTestConfig(
            eps=bucket.eps,
            preset=cfg.mean_preset,
            q=cfg.mean_q_override,
            k0=cfg.mean_k0_override,
        )
        for _ in range(bucket.s):
            rho = oracle.draw_restriction_sigma(sigma)
            if rho.stars.size == 0:
                continue
            stats["tested"] += 1
            sub = oracle.restricted(rho)
            decision, verdicts = _vote(r, functools.partial(_mean_tests, sub, mean_cfg))
            stats["runs"] += len(verdicts)
            if decision is Decision.REJECT:
                stats["majority_rejects"] += 1
                return finish(Decision.REJECT)

    # restrictions with many stars: recurse at doubled distance
    t = cfg.t_reps(eps)
    node["t"] = t
    rec_loop = []
    node["branch"] = "recursion-loop"
    node["recursion_loop"] = rec_loop
    for bucket in cfg.recursion_buckets(eps):
        stats = {"j": bucket.j, "restrictions": bucket.s, "recursed": 0, "runs": 0}
        rec_loop.append(stats)
        for _ in range(bucket.s):
            rho = oracle.draw_restriction_sigma(sigma)
            k = rho.stars.size
            if not 0 < k <= 2.0 * sigma * n:
                continue
            stats["recursed"] += 1
            sub = oracle.restricted(rho)
            decision, children = _vote(
                t, functools.partial(_children, sub, bucket.eps, cfg, _depth + 1)
            )
            stats["runs"] += len(children)
            node["children"] += [child.trace["tree"] for child in children]
            if decision is Decision.ERROR:
                node["branch"] = "child-error"
                return finish(Decision.ERROR)
            if decision is Decision.REJECT:
                return finish(Decision.REJECT)

    node["branch"] = "accept"
    return finish(Decision.ACCEPT)


def trace_query_sum(tree: dict) -> int:
    """Sum of query counts attributed to each node exclusively (a node's
    total minus its children's totals), over the whole tree; equals the
    root total by construction and is asserted in tests."""
    own = tree["queries"] - sum(c["queries"] for c in tree["children"])
    return own + sum(trace_query_sum(c) for c in tree["children"])
