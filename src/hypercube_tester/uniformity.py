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

The exact laws stand beside their rules: `edge_reject_prob`, the edge
tester's reject rate on any root with an edge spectrum, `edge_null_accept`,
its uniform accept rate, and `majority_vote_law`, the law of `_vote`.
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
from .model import UNIFORM_SPECTRUM, Decision, Restriction, TestVerdict, as_int
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


@functools.lru_cache(maxsize=4096)
def _edge_fire_prob(b: int, c: int, beta: float = 0.0) -> float:
    """F(b, c, beta) = P(|2X - b| >= c) for X ~ Binomial(b, (1 + beta)/2)
    and a level's count threshold c >= 1 (``EdgeLevel.c``): the chance that
    a pair of edge bias beta fires, the one tail sum that the exact laws
    and the law route read.

    The event is X <= k or X >= b - k with k = (b - c) // 2, so F is 0 when
    k < 0 (c = b + 1) and 1 when every value of |2X - b| is at least c. At
    beta = 0 the two tails have equal mass, f = 2 P(X <= k), and the tail
    is summed from k down by the ratio P(x - 1) / P(x) = x / (b - x + 1),
    starting from P(k) by ``math.lgamma``, until the terms no longer change
    the sum. Otherwise F = P(X <= k) + P(b - X <= k), each by
    ``_binomial_cdf``.
    """
    k = (b - c) // 2
    if k < 0:
        return 0.0
    if c <= b % 2:
        return 1.0
    if beta:
        p, q = (1.0 + abs(beta)) / 2.0, (1.0 - abs(beta)) / 2.0
        return min(1.0, _binomial_cdf(b, p, q, k) + _binomial_cdf(b, q, p, k))
    term = math.exp(
        math.lgamma(b + 1) - math.lgamma(k + 1) - math.lgamma(b - k + 1) - b * math.log(2.0)
    )
    return 2.0 * _sum_down(b, k, term, 1.0)


def _sum_down(b: int, k: int, term: float, ratio: float) -> float:
    """sum_{x <= k} P(x) for P(k) = term and P(x - 1) / P(x) =
    x / (b - x + 1) * ratio, added from x = k down until a term no longer
    changes the sum; the terms must fall from the first."""
    tail = 0.0
    for x in range(k, -1, -1):
        if tail + term == tail:
            break
        tail += term
        term *= x / (b - x + 1) * ratio
    return tail


def _binomial_cdf(b: int, p: float, q: float, k: int) -> float:
    """P(X <= k) for X ~ Binomial(b, p), with q = 1 - p given apart so that
    a small q keeps its digits. Below the mean, P(x) falls as x goes down
    from k, and the tail is summed from k down as in ``_edge_fire_prob``;
    when k is at or above (b + 1) p it is 1 - P(b - X <= b - k - 1), whose
    terms fall from their first."""
    if k >= b or p == 0.0:
        return 1.0
    if k < 0 or q == 0.0:
        return 0.0
    flip = k >= (b + 1) * p
    if flip:
        p, q, k = q, p, b - k - 1
    term = math.exp(
        math.lgamma(b + 1) - math.lgamma(k + 1) - math.lgamma(b - k + 1)
        + k * math.log(p) + (b - k) * math.log(q)
    )
    tail = _sum_down(b, k, term, q / p)
    return 1.0 - tail if flip else tail


def _pair_fire_prob(b: int, c: int, law: tuple) -> float:
    """The chance that one pair of a level fires, sum_j w_j F(b, c, beta_j)
    over the classes of an ``EdgeSpectrum.law``."""
    return sum(w * _edge_fire_prob(b, c, beta) for w, beta in law)


# a mass below e^-46 (about 2^-66) of the largest of its part is dropped
# from a class's tables: beside that largest it no longer shows in a double
_LOG_NEGLIGIBLE = 46.0

def _binomial_run(b: int, p: float, q: float, lo: int, hi: int) -> tuple:
    """(x, log P(X = x)) for X ~ Binomial(b, p), 0 < p < 1, over the
    integers of [lo, hi] where the masses show: out from the largest mass
    of the range, at the mode clipped to it and found by ``math.lgamma``,
    by cumulative sums of the log ratio log P(x + 1) - log P(x) =
    log((b - x) / (x + 1)) + log(p / q), as far as the masses stay within
    e^-46 of it. Empty when lo > hi."""
    if lo > hi:
        return np.zeros(0, np.int64), np.zeros(0)
    a = min(max(math.floor((b + 1) * p), lo), hi)
    top = (
        math.lgamma(b + 1) - math.lgamma(a + 1) - math.lgamma(b - a + 1)
        + a * math.log(p) + (b - a) * math.log(q)
    )
    step = math.log(p) - math.log(q)
    width = int(10.0 * math.sqrt(b * p * q)) + 16
    while True:
        x = np.arange(max(lo, a - width), min(hi, a + width) + 1)
        rise = np.log(b - x[:-1]) - np.log(x[:-1] + 1.0) + step
        logs = np.concatenate(([0.0], np.cumsum(rise)))
        logs += top - logs[a - x[0]]
        keep = logs >= top - _LOG_NEGLIGIBLE
        # the masses fall away from a, so the kept ones are one run
        if (x[0] == lo or not keep[0]) and (x[-1] == hi or not keep[-1]):
            return x[keep], logs[keep]
        width *= 2


def _folded(b: int, runs: list) -> tuple[int, np.ndarray]:
    """The law of Y = |2X - b| from runs of (x, log P(X = x)): (y0, shares),
    the shares of y0, y0 + 2, ... up to the largest value kept, summing to
    1, with every mass below e^-46 of the largest dropped (a value between
    two kept ones whose masses were dropped has share 0); (0, empty) when
    the runs are empty."""
    x = np.concatenate([r[0] for r in runs])
    if not x.size:
        return 0, np.zeros(0)
    logs = np.concatenate([r[1] for r in runs])
    keep = logs >= logs.max() - _LOG_NEGLIGIBLE
    y = np.abs(2 * x[keep] - b)
    y0 = int(y.min())
    mass = np.bincount((y - y0) // 2, weights=np.exp(logs[keep] - logs.max()))
    return y0, mass / mass.sum()


def _after(share: np.ndarray) -> np.ndarray:
    """Each entry's sum of the shares after it, summed from the top so that
    a small one keeps its digits; 0 at the last."""
    return np.concatenate((np.cumsum(share[:0:-1])[::-1], np.zeros(min(1, share.size))))


class _ClassLaw(NamedTuple):
    """The law of Y = |2X - b| for X ~ Binomial(b, (1 + a)/2), the count of
    a pair of edge bias +-a, as a level of b draws per pair and count
    threshold c reads it (``_class_laws``). Y takes the values b % 2,
    b % 2 + 2, ...; ``below`` holds log P(Y <= y | Y < c) at the values from
    ``first`` and ``above`` holds -P(Y > y | Y >= c) at the values from
    ``top``. Each ascends and ends at 0, so ``bisect`` inverts it, and each
    stops where the masses left no longer show beside its part's largest."""

    fire: float  # F(b, c, a) = P(Y >= c), ``_edge_fire_prob``
    first: int
    below: tuple[float, ...]
    top: int
    above: tuple[float, ...]


# the tables ``_class_laws`` keeps: a table holds about 9.5 standard
# deviations of Y on each side of its part's largest mass, so one schedule's
# tables take 0.5-0.9 MiB at n = 128 and 2-3.7 MiB at n = 1024 under the
# practical preset, and the cache at most about 30 and 100 MiB
_CLASS_TABLES = 512


@functools.lru_cache(maxsize=_CLASS_TABLES)
def _class_laws(b: int, c: int, a: float) -> _ClassLaw:
    """The ``_ClassLaw`` of bias +-a, a >= 0, on a level (b, c), built once
    per (b, c, a) and shared by every spectrum with a class of that |beta|;
    the uniform product reads a = 0 alone. The body holds X in (k, b - k)
    and the tail the rest, k = (b - c) // 2; at a = 1, Y = b. ``below`` is
    log of the share at or before y while that is the smaller side, else
    log1p of minus the share after it, each summed from its own side."""
    k = (b - c) // 2
    fire = _edge_fire_prob(b, c, a)
    if a == 1.0:
        sure, none = (b, np.ones(1)), (0, np.zeros(0))
        (first, body), (top, tail) = (none, sure) if k >= 0 else (sure, none)
    else:
        p, q = (1.0 + a) / 2.0, (1.0 - a) / 2.0
        lo = max(k, -1) + 1
        first, body = _folded(b, [_binomial_run(b, p, q, lo, b - lo)])
        top, tail = _folded(b, [_binomial_run(b, p, q, 0, k), _binomial_run(b, p, q, b - k, b)])
    upto, after = np.cumsum(body), _after(body)
    # np.where reads both sides, and the side not taken may be out of domain
    with np.errstate(divide="ignore", invalid="ignore"):
        below = np.where(upto < after, np.log(upto), np.log1p(-after))
    return _ClassLaw(fire, first, tuple(below.tolist()), top, tuple((-_after(tail)).tolist()))


class _Firing(NamedTuple):
    """A class of a spectrum that can fire, as the firing pair of a level
    reads it (``_law_level``)."""

    cls: int  # the class's index in the spectrum, for its stars
    a: float  # |beta|, the key of its ``_class_laws`` table
    sign: int  # the sign of its bias, +1 at 0
    log_r: float  # log r, r = (1 + |beta|) / (1 - |beta|)


class _LawStep:
    """One level of an edge run drawn from the law of a spectrum, with what
    ``_law_run`` reads of it, kept per schedule and spectrum law
    (``EdgeConfig._law_steps``): a few numbers per class, and no table but
    a fair level's.

    Class j fires with F_j = F(b, c, beta_j) (``_edge_fire_prob``), so a
    pair fires with f = sum_j w_j F_j (``_pair_fire_prob``). Classes of
    equal |beta| share their ``_class_laws`` table, which the run reads at
    run time, and are grouped by it: ``body`` holds (share, |beta|) of the
    pairs that do not fire, share = sum w_j (1 - F_j) / (1 - f) over the
    group, and ``tail`` (sum w_j F_j, |beta|) of all pairs, so that a law
    of one |beta| has one of each, its mass F_j. A level whose pairs span
    J >= 2 groups splits them among the groups by one multinomial on these
    shares or masses (``_body_max``, ``_rest_max``). ``firing`` holds
    a ``_Firing`` of each class that can fire and ``picks`` their
    cumulative shares w_j F_j / f, () for one. ``fair`` holds the fair
    table's ``below`` and the estimate y / b at each of its values, for a
    level whose pairs that do not fire are all fair: a uniform recursion
    reads thousands of levels on a few schedules. Every table the level can
    read is built with the step, so a run builds none: a verdict's time
    does not hang on which levels the verdicts before it reached. Slots,
    not a NamedTuple: a run reads five fields per level, and a slot is about
    three times faster to read.
    """

    __slots__ = ("lv", "m", "charge", "trace", "log_miss", "fire", "body", "tail", "firing",
                 "picks", "fair")

    def __init__(self, lv: EdgeLevel, law: tuple):
        self.lv, self.m = lv, lv.m
        self.charge = lv.m * (1 + lv.b)  # the queries of a level that does not fire
        # the level's trace entry but its max_est; copied, never changed
        self.trace = {"h": lv.h, "m": lv.m, "b": lv.b, "theta": lv.theta}
        fires = [_edge_fire_prob(lv.b, lv.c, beta) for _, beta in law]
        body, tail, firing = {}, {}, []
        for j, ((w, beta), fj) in enumerate(zip(law, fires)):
            a = abs(beta)
            if w * (1.0 - fj) > 0.0:
                body[a] = body.get(a, 0.0) + w * (1.0 - fj)
            if w * fj > 0.0:
                tail[a] = tail.get(a, 0.0) + w * fj
                log_r = math.inf if a == 1.0 else math.log1p(a) - math.log1p(-a)
                firing.append((w * fj, _Firing(j, a, -1 if beta < 0 else 1, log_r)))
        # a pair that does not fire has a value of Y below c, which some
        # class of F_j < 1 takes; with none, every pair fires
        f = _pair_fire_prob(lv.b, lv.c, law)
        if f >= 1.0 or not body:
            f = 1.0
        self.log_miss = math.log1p(-f) if f < 1.0 else -math.inf
        self.fire = -math.expm1(lv.m * self.log_miss)  # the chance that some pair fires
        miss = sum(body.values())
        self.body = tuple((x / miss, a) for a, x in body.items())
        self.tail = tuple((x, a) for a, x in tail.items())
        self.firing = tuple(t for _, t in firing)
        self.picks = ()
        if len(firing) > 1:
            total = sum(x for x, _ in firing)
            self.picks = (*itertools.accumulate(x / total for x, _ in firing[:-1]), 1.0)
        # every table the level can read, built with the step: a run builds none
        laws = {a: _class_laws(lv.b, lv.c, a) for a in {*body, *tail}}
        self.fair = None
        if tuple(body) == (0.0,):
            law = laws[0.0]
            self.fair = law.below, tuple((law.first + 2 * i) / lv.b for i in range(len(law.below)))


def _body_max(step: _LawStep, t: float, rng: np.random.Generator) -> int:
    """The largest Y of a level's m pairs, none of which fires. A body of
    one class bisects its ``below`` at t = log(1 - v) / m and reads no
    stream word. A body of J >= 2 classes splits the m pairs among them by
    one ``rng.multinomial`` on ``step.body``'s shares; one ``rng.random(J)``
    gives each class a uniform u, and each class of k >= 1 pairs the
    largest of its k values by bisecting its ``below`` at log(1 - u) / k."""
    b, c = step.lv.b, step.lv.c
    if len(step.body) == 1:
        law = _class_laws(b, c, step.body[0][1])
        return law.first + 2 * bisect.bisect_left(law.below, t)
    counts = rng.multinomial(step.m, [share for share, _ in step.body]).tolist()
    top = 0
    for (_, a), k, u in zip(step.body, counts, rng.random(len(step.body)).tolist()):
        if k:
            law = _class_laws(b, c, a)
            top = max(top, law.first + 2 * bisect.bisect_left(law.below, math.log1p(-u) / k))
    return top


def _rest_max(step: _LawStep, rest: int, v: float, rng: np.random.Generator) -> int:
    """The largest Y of the rest >= 1 unconditioned pairs after a level's
    firing pair in its block, as a bound from the tail: the least tail value
    stands for every value below c. A tail of one class, mass F, gives the
    least tabled y with log(1 - F P(Y > y | Y >= c)) >= log(1 - v) / rest
    and reads no stream word. A tail of J >= 2 classes gives each class its
    firing pairs among the rest by one ``rng.multinomial`` on ``step.tail``'s
    masses and 1 - f; one ``rng.random(J)`` gives each class a uniform u,
    and each class of k >= 1 firing pairs the largest of its k values by
    bisecting its ``above`` at (1 - u)^(1/k) - 1."""
    b, c = step.lv.b, step.lv.c
    laws = [(mass, _class_laws(b, c, a)) for mass, a in step.tail]
    if len(laws) == 1:
        ((mass, law),) = laws
        # where every pair fires, P(Y <= y) rounds to 0 at the first tabled
        # values: log 0, which no t reaches
        return law.top + 2 * bisect.bisect_left(
            law.above,
            math.log1p(-v) / rest,
            key=lambda x: math.log1p(mass * x) if mass * x > -1.0 else -math.inf,
        )
    counts = rng.multinomial(rest, [mass for mass, _ in laws] + [math.exp(step.log_miss)]).tolist()
    top = min(law.top for _, law in laws)
    for (_, law), k, u in zip(laws, counts, rng.random(len(laws)).tolist()):
        if k:
            i = bisect.bisect_left(law.above, math.expm1(math.log1p(-u) / k))
            top = max(top, law.top + 2 * i)
    return top


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
    def _law_steps(self, n: int, eps: float, law: tuple) -> tuple[_LawStep, ...] | None:
        """``levels(n, eps)`` with each level's constants on a spectrum's
        law (``_LawStep``): its fire chance, its class shares and its trace
        entry, in a bounded cache like ``levels``, so a run on a law seen
        before works none of them out. A step holds a few numbers per class
        and at most the fair table of its (b, c); it builds the tables its
        level can read in ``_class_laws``, which shares them by |beta|, so a
        recursion that meets a new law at most leaves (a parity's weights
        |S & stars| / k move with k) builds no table for it.

        None when the law's distinct |beta| need more tables for the
        schedule than ``_class_laws`` keeps: a run would then rebuild them
        at every level, and the edge tester draws blocks instead. A
        near-uniform product of 64 distinct means at n = 128 (960 tables)
        took 170 ms a verdict on the law route and 254 ms on blocks, one of
        32 means (480 tables) 1.4 ms and 235 ms (BENCH_edge_spectrum.json)."""
        levels = self.levels(n, eps)
        if len({abs(beta) for _, beta in law}) * len(levels) > _CLASS_TABLES:
            return None
        return tuple(_LawStep(lv, law) for lv in levels)


def _log_edge_accept(law: tuple, n: int, eps: float, cfg: EdgeConfig | None) -> float:
    """log P(``edge_tester`` accepts) on a root whose spectrum has law law:
    sum_h m_h log(1 - f_h), f_h = ``_pair_fire_prob``, or -inf once some
    f_h is 1."""
    cfg = cfg or PRESETS["practical"].edge
    log_accept = 0.0
    for lv in cfg.levels(n, eps):
        f = _pair_fire_prob(lv.b, lv.c, law)
        if f >= 1.0:
            return -math.inf
        log_accept += lv.m * math.log1p(-f)
    return log_accept


def edge_null_accept(n: int, eps: float, cfg: EdgeConfig | None = None) -> float:
    """Exact probability that ``edge_tester`` accepts the uniform target
    on n coordinates: prod_h (1 - f_h)^(m_h) over ``cfg.levels(n, eps)``,
    the complement of ``edge_reject_prob`` on ``UNIFORM_SPECTRUM``.

    On the uniform target each pair's +1 count X is Binomial(b_h, 1/2) and
    the pairs are independent, so the product is exact; f_h is the chance
    that one level-h pair fires (see ``_edge_fire_prob``). An accepted run
    spends exactly sum_h m_h (1 + b_h) queries over the same levels.
    """
    return math.exp(_log_edge_accept(UNIFORM_SPECTRUM.law, n, eps, cfg))


def edge_reject_prob(target, n: int, eps: float, cfg: EdgeConfig | None = None) -> float:
    """Exact probability that ``edge_tester`` rejects the root of target on
    n coordinates: 1 - prod_h (1 - sum_j w_j F(b_h, c_h, beta_j))^(m_h) over
    the classes (w_j, beta_j) of the root's ``edge_spectrum``.

    The pairs are independent, and a pair's count is Binomial(b_h,
    (1 + beta)/2) with beta drawn from the spectrum, so the product is
    exact; F is the per-pair tail sum that the law route reads
    (``_edge_fire_prob``). A target whose dimension is not n, or whose root
    has no spectrum, is refused before any sum.
    """
    if as_int(n, "n") != target.n:
        raise ValueError(f"n must be the target's dimension {target.n}, got n={n}")
    spectrum = target.edge_spectrum(Restriction.all_stars(target.n))
    if spectrum is None:
        raise ValueError(f"the {type(target).__name__} target gives no edge spectrum at its root")
    return -math.expm1(_log_edge_accept(spectrum.law, n, eps, cfg))


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
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got eps={eps}")
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
        if not n >= 1:
            raise ValueError(f"n must be at least 1, got n={n}")
        return _too_small(self.sigma(eps), n, eps)

    def mean_buckets(self, n: int, eps: float) -> tuple[Bucket, ...]:
        """Mean-loop buckets j = 1..ceil(log2 2L), s_j = ceil(8 L log2(2L) 2^-j)."""
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got eps={eps}")
        big_l = self.big_l(n, eps)
        lg = math.log2(2 * big_l)
        return _dyadic_buckets(math.ceil(lg), 8.0 * big_l * lg)

    def recursion_buckets(self, eps: float) -> tuple[Bucket, ...]:
        """Recursion-loop buckets j = 1..ceil(log2(4/eps)),
        s_j = ceil((32/eps) log2(4/eps) 2^-j)."""
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got eps={eps}")
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
    estimate. Each level is settled by ``_drawn_level``; on a view with an
    edge spectrum the whole run is drawn from its law (``_law_run``).

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

    On a view whose target gives its ``edge_spectrum`` (the uniform
    product and every view of it, a product with no mean of +-1, a noisy
    parity) each pair's count is Binomial(b_h, (1 + beta)/2) with its bias
    beta drawn from the spectrum's classes, whatever its point, and the run
    is drawn from the exact law of its levels' counts instead: one
    ``rng.random(2L)`` for its L levels gives each level whether it fires,
    its first firing pair and, where its pairs are of one |beta| group, its
    largest |2p - b_h|; a level of J >= 2 groups splits its pairs among
    them by one ``rng.multinomial`` and takes the largest of the groups'
    own inversions of one ``rng.random(J)``. A level that fires draws its
    pair's class, estimate and coordinate (``_law_level``).
    Its verdict, trace and charge have the law of the blocks', the charge
    still counting whole blocks; it reads other stream words
    (BENCH_edge_law.json, BENCH_edge_spectrum.json). A spectrum whose
    classes' tables for the schedule overflow the class cache draws blocks
    (``EdgeConfig._law_steps``).
    """
    cfg = cfg or PRESETS["practical"].edge
    spectrum = oracle.target.edge_spectrum(oracle.rho)
    steps = None if spectrum is None else cfg._law_steps(oracle.n, eps, spectrum.law)
    if steps is None:
        levels, fired, queries = _drawn_run(oracle, cfg.levels(oracle.n, eps))
    else:
        levels, fired, queries = _law_run(oracle, steps, spectrum.coords)
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


def _law_run(oracle: ScondOracle, steps: tuple[_LawStep, ...], coords: tuple) -> tuple:
    """``_drawn_run`` on a view with an edge spectrum, drawn from the exact
    law of each level's m i.i.d. Y = |2X - b|, X ~ Binomial(b, (1 + beta)/2)
    with beta drawn from the spectrum (``_LawStep``); coords holds each
    class's stars (``EdgeSpectrum.coords``).

    One ``rng.random(2L)`` gives every level of the L-level schedule its two
    uniforms (u, v), the words that L calls of ``rng.random(2)`` would read.
    A level fires when u < 1 - (1 - f)^m; one that does not has as its
    largest Y the largest of m values of Y given Y < c (``_body_max``): by
    inversion of v when those pairs are of one |beta| group, else class by
    class from words drawn when the level is read. It is charged its
    m (1 + b) queries. The first level that fires is
    settled by ``_law_level`` and ends the run; the words drawn for the
    levels after it are left unused. The oracle's ledger is charged once,
    at the end.
    """
    words = iter(oracle.rng.random(2 * len(steps)).tolist())
    levels, fired, queries = [], None, 0
    for step, u, v in zip(steps, words, words):
        if u < step.fire:
            top, fired, charge = _law_level(oracle, step, u, v, coords)
            levels.append(dict(step.trace, max_est=top / step.lv.b))
            queries += charge
            break
        fair, t = step.fair, math.log1p(-v) / step.m
        if fair is None:
            est = _body_max(step, t, oracle.rng) / step.lv.b
        else:
            est = fair[1][bisect.bisect_left(fair[0], t)]
        levels.append(dict(step.trace, max_est=est))
        queries += step.charge
    oracle.ledger.queries += queries
    return levels, fired, queries


def _law_level(oracle: ScondOracle, step: _LawStep, u: float, v: float, coords: tuple) -> tuple:
    """The level of a law run that fires, given its uniforms u < step.fire
    and v: (largest Y, fired, queries charged), what ``_drawn_level`` returns.

    u gives the first firing pair i by inversion of the geometric law,
    truncated to m. Then one ``rng.random(2)`` gives two uniforms (w, s);
    on a spectrum of several classes that can fire, one ``rng.random()``
    draws the pair's class j in proportion to w_j F_j. The pair's Y given
    Y >= c is class j's by inversion of w, and its sign is the sign of
    beta_j when s < P(2X - b = +-y | Y = y) = 1 / (1 + r^-y), r = (1 +
    |beta_j|) / (1 - |beta_j|), which is 1/2 at beta = 0. Then
    ``rng.integers`` draws its coordinate from class j's stars. The largest
    Y is the larger of that pair's and of the pairs after it in its block,
    which are unconditioned (``_rest_max``): by inversion of v on a tail of
    one |beta| group, else class by class from a split of those pairs
    drawn after the star, so the fired pair's words come first. The pairs
    charged are those up to the end of the firing pair's block, as a drawn
    block is charged, 1 + b queries each.
    """
    lv, rng = step.lv, oracle.rng
    m, b = lv.m, lv.b
    i = min(m - 1, int(math.log1p(-u) / step.log_miss))
    block = _block(oracle)
    pairs = min(m, (i // block + 1) * block)
    w, s = rng.random(2).tolist()
    pick = step.firing[bisect.bisect_right(step.picks, rng.random()) if step.picks else 0]
    law = _class_laws(b, lv.c, pick.a)
    y = law.top + 2 * bisect.bisect_left(law.above, w - 1.0)
    stars = coords[pick.cls]
    coord = rng.integers(0, oracle.n) if stars is None else stars[rng.integers(0, stars.size)]
    rest = pairs - i - 1
    top = max(y, _rest_max(step, rest, v, rng)) if rest else y
    sign = pick.sign if s < 1.0 / (1.0 + math.exp(-y * pick.log_r)) else -pick.sign
    fired = {"h": lv.h, "pair": i, "coord": int(coord), "est": sign * y / b}
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
    view on it, which on a target with ``column_means`` (a product with no
    mean of +-1) draws only its star mask, or only its star count when
    every coordinate has the same mean. A restriction is tested by a
    majority vote over its r mean tests or its t children. Every repetition
    is one tester call, run one after another: a mean test is one
    ``mean_tester`` call, and a child is one ``subcond_uni`` node one level
    deeper, base cases included. The vote
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
