"""Mean testing on the hypercube via the paired-sample statistic.

Given 2q i.i.d. samples split into halves X and Y, the level-k statistic

    Z_k = (1/q^2) * sum_{i,j} <x_i, y_j>^(2^k)

has expectation ||mu(bl^k p)||^2, where bl is the tensor-square map from
the blowup module; raising inner products to the 2^k-th power avoids
materializing n^(2^k) coordinates. The tester compares Z_k against a
threshold schedule tau_k at levels k = 0..k0 and rejects at the first
exceedance.

`numerators(draw, q, k)`, the one public entry to the statistic, gives the
level-k numerator of each batch of a draw of 2qr sign rows. Each level has
one exact route, which the mean test takes too, reading a level only when
its decision needs it:

* Level 0 by column sums: sum_{i,j} <x_i, y_j> = <sum_i x_i, sum_j y_j>,
  which costs O(qn) instead of the O(q^2 n) Gram product. Each column is
  summed in the narrowest signed type that holds q (int16 below 2^15), and
  the dot is an int64 one wherever q^2 n < 2^63 proves it cannot wrap. The
  gaussian tester keeps only each block's per-column +1 counts, from which
  it forms the same column sums.
* Levels >= 1 from the histogram of all q^2 inner products over the n+1
  values they can take, built once per batch from Hamming distances: each
  half is packed into 64-bit words with a bit set where the entry is +1,
  and <x, y> = n - 2 popcount(x XOR y). The distances are summed over the
  words in the smallest unsigned type that holds n and counted one block
  of rows at a time, so the route is integer work throughout, with no
  float, no BLAS and no thread pool. Each level is an exact Python-int sum
  over the histogram. The histogram is built on the first read of a level
  >= 1 and never when only level 0 is read, so a level-0 reject and the
  gaussian reduction build none.

The schedule holds each tau_k as an exact Fraction, however far past the
float range it grows, so `TauSchedule.exceeded` decides the strict
`Z_k > tau_k` at every level by one integer comparison,
`num * den(tau_k) > numer(tau_k) * q^2`. Floats appear only in traces.

A reduction for Gaussian mean testing is included: screen per-coordinate
second moments, map samples through sign(), and run the hypercube tester
at a reduced distance parameter. The screen reads a batch count that grows
with n, so that its exact reject rate on N(0, I) stays at most 1%. Of its
samples the tester keeps only each column's +1 count in each q-row block.
A `GaussianDraw` of N(mu, I) draws only the screen's rows; past them, each
column's +1 count in a block of r rows is exactly Binomial(r, Phi(mu_i)),
and the draw hands the tester those counts, so its memory does not grow
with the sample budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import Decision, TestVerdict, _entries_in, as_int
from .oracle import ScondOracle

TAU_RECURSION_COEFF = Fraction(1, 5000)

# pairs per row block of the Gram histogram: a block's XOR temporary is
# 512 KiB of uint64 words, and the q x q distance matrix never exists whole
GRAM_BLOCK_CELLS = 1 << 16

# practical preset: the two terms of the sample bound q >= max{...} carry
# calibrated constants; the first is forced by completeness at level 1
# (tau_1 must clear the blown-up uniform mean n with room to spare), the
# second mirrors the soundness bound's shape.
C_COMP_PRACTICAL = 500.0
C_SOUND_PRACTICAL = 48.0
Q_MIN_PRACTICAL = 150
C_PAPER = 8.0

# gaussian reduction
SCREEN_MIN_BATCHES = 9
SCREEN_BATCH_SIZE = 16  # even, so a batch's chi-square tail is a finite Poisson sum
SCREEN_THRESHOLD = 1.5  # midpoint between E[x_i^2] <= 1 and > 2
SCREEN_NULL_REJECT = 0.01  # the screen's largest exact N(0, I) reject rate
GAUSS_Q_COEFF = 64.0
GAUSS_REPS = 3


def _gram_histogram(halves: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(inner product, count) over all q^2 pairs (x_i, y_j) of one checked
    int8 (2, q, n) batch, in ascending order of inner product with zero
    counts dropped; for levels >= 1."""
    _, q, n = halves.shape
    xw, yw = _sign_words(halves)
    words = xw.shape[1]
    rows = max(1, GRAM_BLOCK_CELLS // q)
    dtype = np.min_scalar_type(n)
    counts = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, q, rows):
        block = xw[lo : lo + rows]
        # zero-filled, so n = 0 (no words) counts every pair at distance 0
        dist = np.zeros((block.shape[0], q), dtype=dtype)
        for w in range(words):
            dist += np.bitwise_count(block[:, w, None] ^ yw[:, w])
        counts += np.bincount(dist.ravel(), minlength=n + 1)
    counts = counts.tolist()
    # distance d is inner product n - 2d: descending d is ascending <x, y>
    return tuple((n - 2 * d, counts[d]) for d in range(n, -1, -1) if counts[d])


def _level_numerator(histogram: tuple[tuple[int, int], ...], k: int) -> int:
    """The exact level-k numerator sum c v^(2^k) over a Gram histogram."""
    return sum(c * v ** (1 << k) for v, c in histogram)


def _draw_batches(draw: np.ndarray, q: int) -> np.ndarray:
    """A draw of 2qr sign rows as r batches: an int8 (r, 2, q, n) array
    whose batch i holds rows [2qi, 2qi + q) as X and [2qi + q, 2q(i + 1))
    as Y. The one check of samples, once per draw: a 2-D array of r >= 1
    batches whose every raw entry is -1 or +1 (the int8 cast would turn 257
    or 1.7 into 1)."""
    raw = np.asarray(draw)
    if raw.ndim != 2:
        raise ValueError(f"a draw must be a 2-D array of sign rows, got shape {raw.shape}")
    rows, n = raw.shape
    if rows == 0 or rows % (2 * q):
        raise ValueError(f"a draw needs a positive multiple of 2q = {2 * q} rows, got {rows}")
    if not _entries_in(raw, (-1, 1)):
        raise ValueError("samples must be sign vectors")
    # sized, not inferred: reshape(-1, ...) cannot infer an axis when n = 0
    return raw.astype(np.int8, copy=False).reshape(rows // (2 * q), 2, q, n)


def _level0_numerators(batches: np.ndarray) -> list[int]:
    """<sum x, sum y> of every batch of an int8 (r, 2, q, n) array. Every
    partial column sum is at most q in size, so each column is summed in the
    narrowest signed type that holds q (int16 below 2^15, int32 below 2^31)
    and widened once to int64; ``_paired_dots`` reads q as its bound, so
    this is exact for any q."""
    q = batches.shape[2]
    dtype = np.int16 if q < 1 << 15 else np.int32 if q < 1 << 31 else np.int64
    return _paired_dots(batches.sum(axis=2, dtype=dtype).astype(np.int64), q)


def _paired_dots(sums: np.ndarray, bound: int | None = None) -> list[int]:
    """<s_x, s_y> of every pair of an int64 (r, 2, n) column-sum array,
    exact. Given a bound on every entry's size with bound^2 n < 2^63, no
    partial sum of the products can reach 2^63 in size, and each dot is an
    int64 sum; otherwise, or with no bound, each is a sum of Python ints."""
    if bound is not None and bound * bound * sums.shape[-1] < 1 << 63:
        return np.vecdot(sums[:, 0], sums[:, 1]).tolist()
    return [sum(a * b for a, b in zip(sx, sy)) for sx, sy in sums.tolist()]


def numerators(draw: np.ndarray, q: int, k: int) -> list[int]:
    """The exact level-k numerator sum_{i,j} <x_i, y_j>^(2^k) of each batch
    of a draw of 2qr sign rows, batch i holding rows [2qi, 2qi + q) as X and
    [2qi + q, 2q(i + 1)) as Y. The draw is checked once, not once per batch:
    it must be 2-D, hold a positive multiple of 2q rows and have only -1 and
    +1 entries."""
    q, k = as_int(q, "q"), as_int(k, "k")
    if q < 1 or k < 0:
        raise ValueError(f"numerators need q >= 1 and k >= 0, got q={q}, k={k}")
    batches = _draw_batches(draw, q)
    if k == 0:
        return _level0_numerators(batches)
    return [_level_numerator(_gram_histogram(b), k) for b in batches]


def _sign_words(signs: np.ndarray) -> np.ndarray:
    """uint64 words along the last axis, ceil(n / 64) per row, with bit j of
    a row's words set where its entry j is +1; the padding bits past n are 0
    in every row, so they never differ."""
    packed = np.packbits(signs > 0, axis=-1, bitorder="little")
    words = -(-signs.shape[-1] // 64)
    out = np.zeros(signs.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def _trace_float(num: int, den: int) -> float:
    """num / den (den > 0) correctly rounded for traces, +-inf past the
    float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _exceeds(num: int, q: int, tau: Fraction) -> bool:
    """num / q^2 > tau, in integers."""
    return num * tau.denominator > tau.numerator * q * q


@dataclass(frozen=True)
class TauSchedule:
    """tau_0 = eps^2 n / 2 and tau_k = a q^2 tau_{k-1}^2 with
    a = TAU_RECURSION_COEFF, held as exact Fractions, and the trace's floats
    of them, worked out once: ``tau_levels`` (each tau_k correctly rounded,
    inf past the float range) and ``tau_levels_log2`` (log2 tau_k)."""

    eps: float
    n: int
    q: int
    k0: int
    taus: tuple = field(init=False)
    tau_levels: tuple = field(init=False, repr=False, compare=False)
    tau_levels_log2: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        # integers, so every tau_k is an exact Fraction
        for name in ("n", "q", "k0"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.q < 1 or self.k0 < 0 or self.n < 1:
            raise ValueError("need q >= 1, k0 >= 0, n >= 1")
        # eps^2 n / 2 from the float's exact ratio, built as one Fraction
        a, b = self.eps.as_integer_ratio()
        taus = [Fraction(a * a * self.n, 2 * b * b)]
        step = TAU_RECURSION_COEFF * (self.q * self.q)
        for _ in range(self.k0):
            taus.append(step * taus[-1] ** 2)
        object.__setattr__(self, "taus", tuple(taus))
        floats = tuple(_trace_float(*t.as_integer_ratio()) for t in taus)
        log2s = tuple(math.log2(t.numerator) - math.log2(t.denominator) for t in taus)
        object.__setattr__(self, "tau_levels", floats)
        object.__setattr__(self, "tau_levels_log2", log2s)

    def exceeded(self, k: int, num: int) -> bool:
        """Z_k = num / q^2 > tau_k, exact at every level."""
        return _exceeds(num, self.q, self.taus[k])


def default_k0(n: int) -> int:
    if n <= 2:
        return 0
    return max(0, math.ceil(math.log2(math.log2(n))))


def _sound_exponent(k0: int) -> float:
    """The soundness term's power of 1/eps^2: 2^(k0+1) / (2^(k0+2) - 2)."""
    return (1 << (k0 + 1)) / ((1 << (k0 + 2)) - 2)


def practical_q(n: int, eps: float, k0: int) -> int:
    comp = math.ceil(C_COMP_PRACTICAL / (eps * eps * math.sqrt(n)))
    sound = math.ceil((C_SOUND_PRACTICAL / (eps * eps)) ** _sound_exponent(k0))
    return max(comp, sound, Q_MIN_PRACTICAL)


def paper_q(n: int, eps: float, k0: int) -> int:
    return max(
        math.ceil(C_PAPER / (eps * eps * math.sqrt(n))),
        math.ceil(C_PAPER * (1.0 / (eps * eps)) ** _sound_exponent(k0)),
        1,
    )


# the sample rule q(n, eps, k0) of each constant preset; uniformity.PRESETS
# names its mean tester's rule by these keys
Q_RULES = {"practical": practical_q, "paper": paper_q}


@dataclass(frozen=True)
class MeanTestConfig:
    eps: float
    preset: str = "practical"
    q: int | None = None  # None = derive from preset
    k0: int | None = None

    def __post_init__(self):
        if self.preset not in Q_RULES:
            raise ValueError(f"preset must be one of {list(Q_RULES)}, got {self.preset!r}")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.q is not None:
            object.__setattr__(self, "q", as_int(self.q, "q"))
            if self.q < 1:
                raise ValueError("q must be at least 1")
        if self.k0 is not None:
            object.__setattr__(self, "k0", as_int(self.k0, "k0"))
            if self.k0 < 0:
                raise ValueError("k0 must be at least 0")

    @functools.lru_cache(maxsize=256)
    def resolve(self, n: int) -> TauSchedule:
        """The schedule at dimension n, memoised per (config, n) in a bounded
        cache: a recursive verdict runs hundreds of mean tests on a few
        (config, n). An n that no schedule takes raises on every call."""
        k0 = default_k0(n) if self.k0 is None else self.k0
        q = Q_RULES[self.preset](n, self.eps, k0) if self.q is None else self.q
        return TauSchedule(self.eps, n, q, k0)


def mean_tester(oracle: ScondOracle, cfg: MeanTestConfig) -> TestVerdict:
    """Draw 2q samples in one ``oracle.sample`` call, rows [0, q) as X and
    [q, 2q) as Y, then run the threshold test at every level. Level 0 comes
    from the column sums, each at most q in size, by ``_paired_dots``:
    an int64 dot when q^2 n < 2^63, else Python ints. Level k is read only
    after level k - 1 accepted, from the Gram histogram, built at the first
    read of level 1. The verdict is charged its 2q queries, and its trace
    copies the schedule's tau floats for the levels read.

    A schedule that reads level 0 only (k0 = 0) on a target with
    ``fair_edges`` (the uniform product) draws no row: each column's +1
    count in each half is Binomial(q, 1/2), drawn by one
    ``rng.binomial(q, 1/2, (1, 2, n))``, and the oracle's ledger is charged
    the 2q queries. Its verdict has the law of the rows', not their stream.
    """
    sched = cfg.resolve(oracle.n)
    q = sched.q
    if sched.k0 == 0 and oracle.target.fair_edges:
        plus = oracle.rng.binomial(q, 0.5, (1, 2, oracle.n))
        oracle.ledger.queries += 2 * q
        # a half's column sum is (+1 count) - (-1 count) = 2 * plus - q
        (num0,) = _paired_dots(2 * plus - q, q)
    else:
        batches = _draw_batches(oracle.sample(2 * q), q)
        (num0,) = _level0_numerators(batches)
    z_levels = []
    decision = Decision.ACCEPT
    for k in range(sched.k0 + 1):
        if k == 1:
            histogram = _gram_histogram(batches[0])
        num = num0 if k == 0 else _level_numerator(histogram, k)
        z_levels.append(_trace_float(num, q * q))
        if sched.exceeded(k, num):
            decision = Decision.REJECT
            break
    read = len(z_levels)
    trace = {
        "q": q,
        "k0": sched.k0,
        "z_levels": z_levels,
        "tau_levels": list(sched.tau_levels[:read]),
        "tau_levels_log2": list(sched.tau_levels_log2[:read]),
    }
    return TestVerdict(decision, 2 * q, trace)


# ---------------------------------------------------------------------------
# Gaussian reduction


def erf_lower_bound_holds(x: np.ndarray) -> np.ndarray:
    """Pointwise check of Erf(x)^2 >= (2/3) min(x^2, 1)."""
    x = np.asarray(x, dtype=np.float64)
    erf = np.vectorize(math.erf)(x)
    return erf * erf >= (2.0 / 3.0) * np.minimum(x * x, 1.0) - 1e-12


def _screen_batch_law(batches: int, variance: float = 1.0) -> float:
    """Exact probability that one N(0, variance) coordinate trips the
    screen: the median of its ``batches`` (odd) batch means of x_i^2 lands
    above SCREEN_THRESHOLD. With s = SCREEN_BATCH_SIZE, s / variance times a
    batch mean is chi-square with s degrees of freedom, above x = s T /
    variance with the Poisson probability e^(-x/2) sum_{j < s/2} (x/2)^j / j!;
    the median lies above T when (batches + 1) / 2 of the independent batch
    means do."""
    half = SCREEN_BATCH_SIZE * SCREEN_THRESHOLD / (2.0 * variance)
    term, above = math.exp(-half), 0.0
    for j in range(SCREEN_BATCH_SIZE // 2):
        above += term
        term *= half / (j + 1)
    return sum(
        math.comb(batches, k) * above**k * (1.0 - above) ** (batches - k)
        for k in range((batches + 1) // 2, batches + 1)
    )


def screen_null_reject(n: int, batches: int) -> float:
    """Exact probability that `second_moment_screen` over ``batches`` batches
    rejects N(0, I) in dimension n, whose coordinates trip it independently:
    1 - (1 - P(Bin(batches, f) >= (batches + 1) / 2))^n with f = P(Gamma(8,
    1/8) > 1.5) = 0.0895."""
    return -math.expm1(n * math.log1p(-_screen_batch_law(batches)))


@functools.cache
def screen_batches(n: int) -> int:
    """The screen's batch count at dimension n: the smallest odd count of at
    least SCREEN_MIN_BATCHES whose exact null reject rate is at most
    SCREEN_NULL_REJECT; 9 up to n = 18, 17 at n = 1024, 23 at n = 65,536."""
    batches = SCREEN_MIN_BATCHES
    while screen_null_reject(n, batches) > SCREEN_NULL_REJECT:
        batches += 2
    return batches


def second_moment_screen(samples: np.ndarray) -> bool:
    """True when some coordinate's median-of-batch-means of x_i^2 lands
    above the screen threshold (evidence of variance larger than 1). It reads
    the first ``screen_batches(n)`` batches of SCREEN_BATCH_SIZE rows, a
    count that grows with n so that N(0, I) trips the screen with
    probability at most SCREEN_NULL_REJECT (``screen_null_reject``)."""
    batches = screen_batches(samples.shape[1])
    need = batches * SCREEN_BATCH_SIZE
    if samples.shape[0] < need:
        raise ValueError(f"screen needs at least {need} samples")
    sq = samples[:need] ** 2
    means = sq.reshape(batches, SCREEN_BATCH_SIZE, -1).mean(axis=1)
    medians = np.median(means, axis=0)
    return bool((medians > SCREEN_THRESHOLD).any())


def gaussian_required_samples(n: int, eps: float) -> int:
    """Total real-vector samples the gaussian tester consumes: its
    2 * GAUSS_REPS blocks of q rows, which hold the screen's rows at every n."""
    return 2 * GAUSS_REPS * _gaussian_q(n, eps)


def _gaussian_q(n: int, eps: float) -> int:
    return math.ceil(GAUSS_Q_COEFF * math.sqrt(n) / (eps * eps))


class GaussianDraw:
    """``rows`` samples of a gaussian source N(mu, I) (such as
    ``zoo.GaussianSource``) on ``rng``, drawn only as far as
    `gaussian_mean_tester` reads them. ``head(rows)`` is the first rows,
    ``source.sample(rng, rows)``, which the tester screens and counts; of
    every later row the tester keeps only the +1 count of each column in its
    q-row block, so it draws those counts from their exact law through
    ``source.plus_counts(rng, ...)`` and no later row is drawn. A draw is
    read once."""

    def __init__(self, source, rng: np.random.Generator, rows: int):
        self.source = source
        self.rng = rng
        self.rows = as_int(rows, "rows")
        self._drawn = False

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.source.n)

    def head(self, rows: int) -> np.ndarray:
        """The first ``rows`` samples."""
        if self._drawn:
            raise RuntimeError("a GaussianDraw is read once")
        self._drawn = True
        return self.source.sample(self.rng, rows)


def gaussian_mean_tester(samples, eps: float) -> TestVerdict:
    """Accept when the source looks like N(0, I); reject when the mean norm
    exceeds eps. The checked scope is N(mu, I), independent coordinates:
    correlated coordinates are open (ROADMAP.md item 26), and a rank-one
    source with mean norm eps is rejected only 0.537 of the time at n = 65,536.

    Screens per-coordinate second moments first, then majority-votes over
    GAUSS_REPS level-0 hypercube tests on the signs of disjoint sample
    blocks, at the reduced parameter eps / (2 sqrt(3n)).

    ``samples`` is a `GaussianDraw` or anything `np.asarray` takes as a
    (rows, n) array; an array's rows past the budget are checked finite but
    not counted. The screen reads the first ``SCREEN_BATCH_SIZE * screen_batches(n)``
    rows, and a screen reject is charged the whole budget. Of the rest the
    tester keeps only the +1 count of every column in each q-row
    (repetition, half) block. A `GaussianDraw` draws only the screen's rows
    and the rest of each block's counts from their law, so its verdict has
    the law of the array verdict, not its stream.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    draw = isinstance(samples, GaussianDraw)
    if not draw:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if len(samples.shape) != 2:
        raise ValueError("samples must be 2-D, one row per sample")
    rows, n = samples.shape
    if n < 1:
        raise ValueError(f"samples need at least 1 coordinate, got n = {n}")
    need = gaussian_required_samples(n, eps)
    if rows < need:
        raise ValueError(f"need at least {need} samples, got {rows}")
    head = samples.head(SCREEN_BATCH_SIZE * screen_batches(n)) if draw else samples
    # a NaN would count as a -1, and the screen's comparisons ignore it
    if not np.isfinite(head).all():
        raise ValueError("samples must be finite")
    if second_moment_screen(head):
        return TestVerdict(
            Decision.REJECT, need, {"stage": "screen", "z_levels": [], "tau_levels": [], "q": 0}
        )

    q = _gaussian_q(n, eps)
    blocks = 2 * GAUSS_REPS
    # +1 counts per column of each q-row block; block 2i is repetition i's X
    # and block 2i + 1 its Y. 0/1 bytes, summed down each column in the
    # smallest unsigned type that holds a block's rows: no int64 cast of
    # every entry
    nonneg = (head[: blocks * q] >= 0.0).view(np.uint8)
    plus = np.zeros((blocks, n), dtype=np.int64)
    for b in range(blocks):
        part = nonneg[b * q : (b + 1) * q]
        plus[b] = part.sum(axis=0, dtype=np.min_scalar_type(part.shape[0]))
    if draw:
        # block b's rows [bq, (b + 1) q) past the head
        rest = np.clip(q * np.arange(1, blocks + 1) - head.shape[0], 0, q)
        plus += samples.source.plus_counts(samples.rng, rest)

    eps_reduced = eps / (2.0 * math.sqrt(3.0 * n))
    # the reduced eps lies far below a practical preset's domain, so the
    # test takes an explicit q and runs at level 0 only, where tau_0 =
    # eps_reduced^2 n / 2 = eps^2 / 24 is built from eps, not from the
    # rounded eps_reduced
    tau0 = Fraction(eps) ** 2 / 24
    # a block's sign sum is (+1 count) - (-1 count) = 2 * plus - q
    nums = _paired_dots((2 * plus - q).reshape(GAUSS_REPS, 2, n), q)
    rep_z = [_trace_float(num, q * q) for num in nums]
    rejects = sum(_exceeds(num, q, tau0) for num in nums)
    decision = Decision.REJECT if 2 * rejects > GAUSS_REPS else Decision.ACCEPT
    trace = {
        "stage": "mean-test",
        "z_levels": rep_z,
        "tau_levels": [_trace_float(*tau0.as_integer_ratio())],
        "q": q,
        "eps_reduced": eps_reduced,
    }
    return TestVerdict(decision, need, trace)
