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
import decimal
import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .meantest import MeanTestConfig, mean_tester
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


class _FairLaw(NamedTuple):
    """The law of Y = |2X - b| for X ~ Binomial(b, 1/2), as a fair level of
    count threshold c reads it (``_fair_law``). Y takes the values
    b % 2, b % 2 + 2, ...; ``below`` holds log P(Y <= y | Y < c) at the
    values below c, and ``above`` and ``log_cdf`` hold -P(Y > y | Y >= c)
    and log P(Y <= y) at the values from ``first``, the least at or above c.
    Each ascends and ends at 0, so ``bisect`` inverts it, and each stops
    where the mass left above it no longer shows in a double."""

    log_miss: float  # log(1 - P(Y >= c)), -inf when every pair fires
    first: int
    below: tuple[float, ...]
    above: tuple[float, ...]
    log_cdf: tuple[float, ...]


def _folded_masses(b: int, y: int, stop: int) -> list[float]:
    """The masses of Y = y, y + 2, ... up to stop (Y = |2X - b| as in
    ``_FairLaw``) up to one factor, by the ratio P(x + 1) / P(x) =
    (b - x) / (x + 1) of X = (b + y) / 2, doubled from Y = 0 to Y = 2,
    which have one and two values of X. Past Y = 2 the masses fall, so the
    run stops once a term times b, a bound on the rest, is below 2^-64 of
    the sum."""
    out, term, total = [], 1.0, 0.0
    while y <= stop:
        out.append(term)
        total += term
        x = (b + y) // 2
        term *= (b - x) / (x + 1) * (2 if y == 0 else 1)
        y += 2
        if term * b < total * 2.0**-64:
            break
    return out


def _shares(masses: list[float]) -> list[tuple[float, float]]:
    """Each entry's (share of the sum at or before it, share after it), each
    summed from its own side so that neither loses a small value."""
    total = sum(masses)
    upto = itertools.accumulate(masses)
    after = reversed(list(itertools.accumulate(reversed(masses[1:]), initial=0.0)))
    return [(lo / total, hi / total) for lo, hi in zip(upto, after)]


@functools.lru_cache(maxsize=1024)
def _fair_law(b: int, c: int) -> _FairLaw:
    """The ``_FairLaw`` of a level with b draws per pair and count threshold
    c, built once per (b, c): a recursive verdict settles thousands of
    levels on a few schedules. P(Y >= c) is ``_edge_fire_prob(b, c)``, the
    number ``edge_null_accept`` reads, or 1 when no value of Y lies below c."""
    first = c + (c - b) % 2
    body = _folded_masses(b, b % 2, c - 1)
    fire = _edge_fire_prob(b, c) if body else 1.0
    tail = _shares(_folded_masses(b, first, b)) if fire else []
    return _FairLaw(
        math.log1p(-fire) if fire < 1.0 else -math.inf,
        first,
        tuple(math.log(lo) if lo < hi else math.log1p(-hi) for lo, hi in _shares(body)),
        tuple(-hi for _, hi in tail),
        tuple(math.log1p(-fire * hi) for _, hi in tail),
    )


class _FairStep(NamedTuple):
    """One level of a fair edge run with what ``_fair_run`` reads of it,
    worked out once per schedule (``EdgeConfig._fair_steps``)."""

    fire: float  # 1 - (1 - f)^m, the chance that some pair of the level fires
    m: int
    below: tuple[float, ...]  # the law's ``below``
    ests: tuple[float, ...]  # y / b for the values y of Y that ``below`` holds
    charge: int  # m (1 + b), the queries of a level that does not fire
    trace: dict  # the level's trace entry but its max_est; copied, never changed
    lv: EdgeLevel
    law: _FairLaw


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

    @functools.lru_cache(maxsize=256)
    def _fair_steps(self, n: int, eps: float) -> tuple[_FairStep, ...]:
        """``levels(n, eps)`` with each level's fair constants: its fire
        chance, its ``_fair_law`` and its trace entry, in a bounded cache
        like ``levels``, so a fair run works none of them out."""
        steps = []
        for lv in self.levels(n, eps):
            law = _fair_law(lv.b, lv.c)
            fire = -math.expm1(lv.m * law.log_miss)
            ests = tuple((lv.b % 2 + 2 * i) / lv.b for i in range(len(law.below)))
            trace = {"h": lv.h, "m": lv.m, "b": lv.b, "theta": lv.theta}
            steps.append(_FairStep(fire, lv.m, law.below, ests, lv.m * (1 + lv.b), trace, lv, law))
        return tuple(steps)


def edge_null_accept(n: int, eps: float, cfg: EdgeConfig | None = None) -> float:
    """Exact probability that ``edge_tester`` accepts the uniform target
    on n coordinates: prod_h (1 - f_h)^(m_h) over ``cfg.levels(n, eps)``.

    On the uniform target each pair's +1 count X is Binomial(b_h, 1/2) and
    the pairs are independent, so the product is exact; f_h is the chance
    that one level-h pair fires (see ``_edge_fire_prob``). An accepted run
    spends exactly sum_h m_h (1 + b_h) queries over the same levels.
    """
    cfg = cfg or PRESETS["practical"].edge
    log_accept = 0.0
    for lv in cfg.levels(n, eps):
        f = _edge_fire_prob(lv.b, lv.c)
        if f >= 1.0:
            return 0.0
        log_accept += lv.m * math.log1p(-f)
    return math.exp(log_accept)


def _too_small(sigma: float, n: int, eps: float) -> bool:
    """``SubCondConfig.base_case`` at a sigma already worked out."""
    return math.exp(-sigma * n / 10.0) > eps / 8.0


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
        return _too_small(self.sigma(eps), n, eps)

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


# theta_h * sqrt(b_h) >= c3 * sqrt(c2), not ==, by the ceil in b_h: the
# "practical" pair, the EdgeConfig defaults (c2=25, c3=1), puts the reject
# threshold at 5 or more standard errors of the bias estimate; the "paper"
# pair (c2=400, c3=1/4) also gives 5 but with far more draws.
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

# the shrunk config: both presets land in the base case for every n <=
# 34,657 at eps 0.5, and this one forces the recursive case at n = 64,
# eps 0.5 with every loop cut to unit-test size; the children resolve
# through the base case one level down. Not a preset, so no spec or CLI
# value names it; the tests and demo 04 run it.
SHRUNK = SubCondConfig(
    c0=2.0 / 625.0,  # sigma(0.5) = 1/2 instead of 1/1250
    l_formula=lambda n, eps: 4,
    r_factor=0.3,
    t_override=3,
    mean_q_override=200,
    mean_k0_override=0,
    # the depth-1 children's edge tester keeps 5-standard-error thresholds
    edge=EdgeConfig(c_h=0.5, c1=0.25, c2=0.05, c3=22.4, c_beta=1.0),
)


def edge_tester(oracle: ScondOracle, eps: float, cfg: EdgeConfig | None = None) -> TestVerdict:
    """Reject when some conditional single-coordinate bias is large.

    This is the one edge loop: every base case of ``subcond_uni``, at the
    root or as a restriction's child, runs it once.

    Levels run from heavy-mass buckets (few pairs, many draws each) down to
    light ones. A pair whose count p of +1 draws out of b_h has
    |2p - b_h| >= c_h fires (``EdgeLevel``): decisions compare integers,
    and the float estimates (2p - b_h) / b_h only fill the trace. The first
    firing pair ends the run with Reject, and the trace's ``fired`` names
    its level, its index ``pair`` within the level, its coordinate and its
    estimate. Each level is settled by ``_drawn_level``; on a target with
    ``fair_edges`` the whole run is drawn from its law (``_fair_run``).

    A level's m_h pairs are drawn in blocks of
    max(1, EDGE_BLOCK_BYTES // rho.n) pairs (4,096 at n = 128), where rho.n
    is the root dimension: a target that reads its points gets a view's
    points expanded to it, and that points matrix is the largest array of a
    block. Fewer, larger blocks
    spend less on per-call overhead; above n = 2048 (blocks of fewer than
    256 pairs) the effect is unmeasured (BENCH_edge_blocks.json, large_n).
    A block is one ``oracle.edge_block`` call, which draws the block's
    points as ``sample`` would, then its coordinates by ``rng.integers``,
    then each pair's +1 count, and returns the coordinates and counts.
    A block is drawn, counted and charged whole. An accepted run spends
    exactly sum_h m_h (1 + b_h) queries. A rejecting run stops after the
    block that holds the firing pair: past the fired level's earlier
    blocks it spends at most one block of pairs, (1 + b_h) queries each,
    and it is charged for every draw it made.

    On a target with ``fair_edges`` (the uniform product, and so every view
    of it and every recursion leaf on it) each pair's count is
    Binomial(b_h, 1/2) whatever its point, and the run is drawn from the
    exact law of its levels' counts instead: one ``rng.random(2L)`` for its
    L levels gives each level whether it fires, its first firing pair and
    its largest |2p - b_h|, and a level that fires draws its pair's estimate
    and coordinate (``_fair_level``). Its verdict, trace and charge have
    the law of the blocks', the charge still counting whole blocks; it
    reads other stream words (BENCH_edge_law.json).
    """
    cfg = cfg or PRESETS["practical"].edge
    if oracle.target.fair_edges:
        levels, fired, queries = _fair_run(oracle, cfg._fair_steps(oracle.n, eps))
    else:
        levels, fired, queries = _drawn_run(oracle, cfg.levels(oracle.n, eps))
    return TestVerdict(
        Decision.ACCEPT if fired is None else Decision.REJECT,
        queries,
        {"kind": "edge", "levels": levels, "fired": fired},
    )


def _block(oracle: ScondOracle) -> int:
    """The pairs of an edge block on this view, max(1, EDGE_BLOCK_BYTES //
    rho.n), rho.n the root dimension; a run reads its schedule first, which
    refuses a 0-dimensional view."""
    return max(1, EDGE_BLOCK_BYTES // oracle.rho.n)


def _drawn_run(oracle: ScondOracle, schedule: tuple[EdgeLevel, ...]) -> tuple:
    """(level traces, fired or None, queries) of a run whose levels are
    settled one after another by ``_drawn_level``, up to the first fire."""
    block = _block(oracle)
    levels, fired, queries = [], None, 0
    for lv in schedule:
        top, pairs, fired = _drawn_level(oracle, lv, block)
        queries += pairs * (1 + lv.b)
        levels.append({"h": lv.h, "m": lv.m, "b": lv.b, "theta": lv.theta, "max_est": top / lv.b})
        if fired is not None:
            break
    return levels, fired, queries


def _drawn_level(oracle: ScondOracle, lv: EdgeLevel, block: int) -> tuple:
    """One level from drawn blocks: (largest |2p - b|, pairs drawn, fired or
    None).

    Each block is one ``oracle.edge_block`` call of up to block pairs,
    checked by its largest and smallest counts alone; no block is drawn past
    the one that holds the first firing pair.
    """
    b, c = lv.b, lv.c
    top = done = 0
    while done < lv.m:
        m = min(block, lv.m - done)
        coords, plus = oracle.edge_block(m, b)
        # by direct reduces: the array methods add a Python-level call per block
        hi, lo = int(np.maximum.reduce(plus)), int(np.minimum.reduce(plus))
        top = max(top, 2 * hi - b, b - 2 * lo)
        done += m
        if top >= c:
            i = int(np.flatnonzero(np.abs(2 * plus - b) >= c)[0])
            fired = {
                "h": lv.h,
                "pair": done - m + i,
                "coord": int(coords[i]),
                "est": (2.0 * int(plus[i]) - b) / b,
            }
            return top, done, fired
    return top, done, None


def _fair_run(oracle: ScondOracle, steps: tuple[_FairStep, ...]) -> tuple:
    """``_drawn_run`` on a view whose every edge bias is 0, drawn from the
    exact law of each level's m i.i.d. Y = |2X - b|, X ~ Binomial(b, 1/2)
    (``_fair_law``).

    One ``rng.random(2L)`` gives every level of the L-level schedule its two
    uniforms (u, v), the words that L calls of ``rng.random(2)`` would read.
    A level fires when u < 1 - (1 - f)^m; one that does not has as its
    largest Y the largest of m values of Y given Y < c, by inversion of v,
    and is charged its m (1 + b) queries. The first level that fires is
    settled by ``_fair_level`` and ends the run; the words drawn for the
    levels after it are left unused. The oracle's ledger is charged once,
    at the end.
    """
    words = iter(oracle.rng.random(2 * len(steps)).tolist())
    levels, fired, queries = [], None, 0
    for step, u, v in zip(steps, words, words):
        if u < step.fire:
            top, fired, charge = _fair_level(oracle, step, u, v)
            levels.append(dict(step.trace, max_est=top / step.lv.b))
            queries += charge
            break
        est = step.ests[bisect.bisect_left(step.below, math.log1p(-v) / step.m)]
        levels.append(dict(step.trace, max_est=est))
        queries += step.charge
    oracle.ledger.queries += queries
    return levels, fired, queries


def _fair_level(oracle: ScondOracle, step: _FairStep, u: float, v: float) -> tuple:
    """The level of a fair run that fires, given its uniforms u < step.fire
    and v: (largest Y, fired, queries charged), what ``_drawn_level`` returns
    for a level whose pairs are all fair.

    u gives the first firing pair i by inversion of the geometric law,
    truncated to m. Then one ``rng.random(2)`` draws the firing pair's Y
    given Y >= c and its sign, and ``rng.integers`` its coordinate. The
    largest Y is the larger of that pair's and of the pairs after it in its
    block, which are unconditioned, by inversion of v. The pairs charged
    are those up to the end of the firing pair's block, as a drawn block is
    charged, 1 + b queries each.
    """
    lv, law = step.lv, step.law
    m, b = lv.m, lv.b
    i = min(m - 1, int(math.log1p(-u) / law.log_miss))
    block = _block(oracle)
    pairs = min(m, (i // block + 1) * block)
    w, sign = oracle.rng.random(2).tolist()
    y = law.first + 2 * bisect.bisect_left(law.above, w - 1.0)
    rest = pairs - i - 1
    top = y
    if rest:
        top = max(y, law.first + 2 * bisect.bisect_left(law.log_cdf, math.log1p(-v) / rest))
    fired = {
        "h": lv.h,
        "pair": i,
        "coord": int(oracle.rng.integers(0, oracle.n)),
        "est": (y if sign < 0.5 else -y) / b,
    }
    return top, fired, pairs * (1 + b)


def _vote(reps: int, run: Callable[[], TestVerdict]) -> tuple[Decision, list[TestVerdict]]:
    """The majority decision of an odd number reps of repetitions, taken
    curtailed, and the verdicts of the repetitions that ran.

    ``run()`` gives the verdict of one more repetition. The vote runs them
    one after another and stops once one side holds need = (reps + 1) // 2,
    so no repetition runs once the vote is fixed, and at most reps run. Its
    decision is the majority of all reps verdicts on every outcome, since
    the repetitions left out could not change it. The first ``ERROR`` ends
    the vote at once with ``ERROR``.
    """
    need = (reps + 1) // 2
    verdicts = []
    accepts = rejects = 0
    while accepts < need and rejects < need:
        verdict = run()
        verdicts.append(verdict)
        if verdict.decision is Decision.ACCEPT:
            accepts += 1
        elif verdict.decision is Decision.REJECT:
            rejects += 1
        else:
            return Decision.ERROR, verdicts
    return (Decision.ACCEPT if accepts == need else Decision.REJECT), verdicts


def majority_vote_law(p: float, t: int) -> tuple[float, float]:
    """Exact (P(accept), expected repetitions run) of the curtailed majority
    vote of ``_vote`` over an odd number t of repetitions that each accept
    with probability p, independently.

    The vote stops when one side first holds need = (t + 1) // 2: accept
    wins after need + j runs, j < need, with probability
    C(need - 1 + j, j) p^need (1 - p)^j, and reject with p and 1 - p
    swapped. The accept probability is that of a majority of all t
    repetitions; at t = 3 the expected runs are 2 + 2p(1 - p). The terms
    are carried as 34-digit decimal floats, whose exponent range holds
    every term however far below the normal floats it lies, so a far tail
    keeps its relative precision: before its rounding to a float, each
    result lies within a relative 1e-30 of the exact law.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError(f"the vote needs an odd number of repetitions, got t={t}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    need = (t + 1) // 2
    with decimal.localcontext() as ctx:
        ctx.prec = 34
        accept_p = decimal.Decimal(p)  # the float's exact value
        reject_p = 1 - accept_p
        accept_wins, reject_wins = accept_p**need, reject_p**need
        accept = runs = decimal.Decimal(0)
        for j in range(need):
            accept += accept_wins
            runs += (need + j) * (accept_wins + reject_wins)
            ratio = decimal.Decimal(need + j) / (j + 1)
            accept_wins *= ratio * reject_p
            reject_wins *= ratio * accept_p
        return float(accept), float(runs)


def subcond_uni(
    oracle: ScondOracle,
    eps: float,
    cfg: SubCondConfig | None = None,
    _depth: int = 0,
) -> TestVerdict:
    """Recursive uniformity tester (Accept / Reject / Error verdicts).

    A view past the depth budget gives ``ERROR`` before any query. A view
    whose dimension is too small for restrictions to bite
    (``SubCondConfig.base_case``) is a base case: one ``edge_tester`` run,
    whose trace the node keeps under ``edge``.

    Each random restriction is one ``oracle.draw_view(sigma)`` call, the
    view on it, which on a target with ``fair_edges`` draws only its star
    count. A restriction is tested by a majority vote over its r mean tests
    or its t children. Every repetition is one tester call, run one after
    another: a mean test is one ``mean_tester`` call, and a child is one
    ``subcond_uni`` node one level deeper, base cases included. The vote
    stops once one side holds a majority of all its repetitions
    (``_vote``), so a restriction whose first (r + 1) // 2 or (t + 1) // 2
    repetitions agree runs no other; the first ``ERROR`` ends the verdict.
    Each loop's trace entries count the repetitions that ran, in ``runs``.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    cfg = cfg or PRESETS["practical"]
    eps = min(eps, 0.5)
    n = oracle.n
    start = oracle.queries
    sigma = cfg.sigma(eps)
    if _depth <= cfg.max_depth and _too_small(sigma, n, eps):
        # a base case's node is built whole once its one edge run is done
        inner = edge_tester(oracle, eps, cfg.edge)
        queries = oracle.queries - start
        leaf = {
            "depth": _depth,
            "n": n,
            "eps": eps,
            "branch": "base-case",
            "verdict": inner.decision.value,
            "queries": queries,
            "children": [],
            "sigma": sigma,
            "edge": inner.trace,
        }
        return TestVerdict(inner.decision, queries, {"tree": leaf})
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
            sub = oracle.draw_view(sigma)
            if sub.n == 0:
                continue
            stats["tested"] += 1
            decision, verdicts = _vote(r, lambda: mean_tester(sub, mean_cfg))
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
            sub = oracle.draw_view(sigma)
            if not 0 < sub.n <= 2.0 * sigma * n:
                continue
            stats["recursed"] += 1
            decision, children = _vote(t, lambda: subcond_uni(sub, bucket.eps, cfg, _depth + 1))
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
