"""Mean testing on the hypercube via the paired-sample statistic.

Given 2q i.i.d. samples split into halves X and Y, the level-k statistic

    Z_k = (1/q^2) * sum_{i,j} <x_i, y_j>^(2^k)

has expectation ||mu(bl^k p)||^2, where bl is the tensor-square map from
the blowup module; raising inner products to the 2^k-th power avoids
materializing n^(2^k) coordinates. The tester compares Z_k against a
threshold schedule tau_k at levels k = 0..k0 and rejects at the first
exceedance.

`SampleBatch.numerator(k)` has one exact route per level and computes a
level only when it is read:

* Level 0 by column sums: sum_{i,j} <x_i, y_j> = <sum_i x_i, sum_j y_j>,
  which costs O(qn) instead of the O(q^2 n) Gram product.
* Levels >= 1 from the Gram matrix of inner products, formed once per batch
  as an int64 matrix product (exact: every entry is an integer of magnitude
  at most n) and reduced to a histogram over the 2n+1 values an inner
  product can take; each level is an exact Python-int sum over it. The
  histogram is built on the first read of a level >= 1 and never when only
  level 0 is read, so a level-0 reject and the gaussian reduction form no
  Gram matrix.

Thresholds grow doubly exponentially in k, so the schedule is maintained
in log2 space. `TauSchedule.exceeded` compares the exact numerator with a
finite tau_k as fractions, making the strict `Z > tau` boundary
reproducible, and in log2 space once tau_k passes TAU_OVERFLOW_LIMIT.

A reduction for Gaussian mean testing is included: screen per-coordinate
second moments, map samples through sign(), and run the hypercube tester
at a reduced distance parameter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .model import Decision, TestVerdict, _entries_in, as_int
from .oracle import ScondOracle

TAU_RECURSION_COEFF = 1.0 / 5000.0
TAU_OVERFLOW_LIMIT = 1e300  # taus beyond this are reported as inf in traces

# practical preset: the two terms of the sample bound q >= max{...} carry
# calibrated constants; the first is forced by completeness at level 1
# (tau_1 must clear the blown-up uniform mean n with room to spare), the
# second mirrors the soundness bound's shape.
C_COMP_PRACTICAL = 500.0
C_SOUND_PRACTICAL = 48.0
Q_MIN_PRACTICAL = 150
C_PAPER = 8.0

# gaussian reduction
SCREEN_BATCHES = 9
SCREEN_BATCH_SIZE = 16
SCREEN_THRESHOLD = 1.5  # midpoint between E[x_i^2] <= 1 and > 2
GAUSS_Q_COEFF = 64.0
GAUSS_REPS = 3


@dataclass(frozen=True)
class SampleBatch:
    """Two independent halves of 2q i.i.d. sign-vector samples."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.xs))
        ys = np.atleast_2d(np.asarray(self.ys))
        if xs.shape != ys.shape or xs.shape[0] < 1:
            raise ValueError("halves must be nonempty and of equal shape")
        if not (_entries_in(xs, (-1, 1)) and _entries_in(ys, (-1, 1))):
            raise ValueError("samples must be sign vectors")
        object.__setattr__(self, "xs", xs.astype(np.int8, copy=False))
        object.__setattr__(self, "ys", ys.astype(np.int8, copy=False))

    @property
    def q(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    def numerator(self, k: int) -> int:
        """Exact sum_{i,j} <x_i, y_j>^(2^k)."""
        if k == 0:
            # <sum x, sum y>; each column sum is at most q, and the products
            # are Python ints, so this is exact for any q
            sx = self.xs.sum(axis=0, dtype=np.int64).tolist()
            sy = self.ys.sum(axis=0, dtype=np.int64).tolist()
            return sum(a * b for a, b in zip(sx, sy))
        return sum(c * v ** (1 << k) for v, c in self.gram_histogram)

    @functools.cached_property
    def gram_histogram(self) -> tuple[tuple[int, int], ...]:
        """(inner product, count) over all q^2 pairs, for levels >= 1."""
        n = self.n
        # numpy's integer product runs on one thread, outside BLAS; a float64
        # BLAS product is faster but its thread pool makes its cost unsteady
        g = self.xs.astype(np.int64) @ self.ys.astype(np.int64).T
        g += n
        counts = np.bincount(g.ravel(), minlength=2 * n + 1)
        return tuple((v - n, c) for v, c in enumerate(counts.tolist()) if c)


def _z_float(num: int, q: int) -> float:
    """Z = num / q^2 as a float for traces, +-inf past the float range."""
    try:
        return num / (q * q)
    except OverflowError:
        return math.inf if num > 0 else -math.inf


@dataclass(frozen=True)
class TauSchedule:
    """tau_0 = eps^2 n / 2 and tau_k = a q^2 tau_{k-1}^2 with
    a = TAU_RECURSION_COEFF, held in log2 space."""

    eps: float
    n: int
    q: int
    k0: int
    taus_log2: tuple = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.q < 1 or self.k0 < 0 or self.n < 1:
            raise ValueError("need q >= 1, k0 >= 0, n >= 1")
        step = math.log2(TAU_RECURSION_COEFF) + 2.0 * math.log2(self.q)
        logs = [2.0 * math.log2(self.eps) + math.log2(self.n) - 1.0]
        for _ in range(self.k0):
            logs.append(step + 2.0 * logs[-1])
        object.__setattr__(self, "taus_log2", tuple(logs))

    def tau_log2(self, k: int) -> float:
        return self.taus_log2[k]

    def tau(self, k: int) -> float:
        lg = self.taus_log2[k]
        if lg > math.log2(TAU_OVERFLOW_LIMIT):
            return math.inf
        return 2.0**lg

    def exceeded(self, k: int, num: int) -> bool:
        """Z_k = num / q^2 > tau_k: exact for a finite tau_k, in log2 space
        once tau_k is past TAU_OVERFLOW_LIMIT."""
        tau = self.tau(k)
        if math.isinf(tau):
            return num > 0 and math.log2(num) - 2.0 * math.log2(self.q) > self.tau_log2(k)
        return Fraction(num, self.q * self.q) > Fraction(tau)

    @property
    def taus(self) -> tuple:
        return tuple(self.tau(k) for k in range(self.k0 + 1))

    def closed_form_log2(self, k: int) -> float:
        """-log2(a q^2) + 2^k log2(a q^2 eps^2 n / 2); agrees with the
        recursion to floating-point accuracy."""
        base = math.log2(TAU_RECURSION_COEFF) + 2.0 * math.log2(self.q)
        inner = base + 2.0 * math.log2(self.eps) + math.log2(self.n) - 1.0
        return -base + (1 << k) * inner


def default_k0(n: int) -> int:
    if n <= 2:
        return 0
    return max(0, math.ceil(math.log2(math.log2(n))))


def practical_q(n: int, eps: float, k0: int) -> int:
    comp = math.ceil(C_COMP_PRACTICAL / (eps * eps * math.sqrt(n)))
    expo = (1 << (k0 + 1)) / ((1 << (k0 + 2)) - 2)
    sound = math.ceil((C_SOUND_PRACTICAL / (eps * eps)) ** expo)
    return max(comp, sound, Q_MIN_PRACTICAL)


def paper_q(n: int, eps: float, k0: int) -> int:
    expo = (1 << (k0 + 1)) / ((1 << (k0 + 2)) - 2)
    return max(
        math.ceil(C_PAPER / (eps * eps * math.sqrt(n))),
        math.ceil(C_PAPER * (1.0 / (eps * eps)) ** expo),
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

    def resolve(self, n: int) -> TauSchedule:
        k0 = default_k0(n) if self.k0 is None else self.k0
        q = Q_RULES[self.preset](n, self.eps, k0) if self.q is None else self.q
        return TauSchedule(self.eps, n, q, k0)


def mean_tester(oracle: ScondOracle, cfg: MeanTestConfig) -> TestVerdict:
    """Draw 2q samples once, then run the threshold test at every level."""
    start = oracle.queries
    sched = cfg.resolve(oracle.n)
    xs = oracle.sample(sched.q)
    ys = oracle.sample(sched.q)
    batch = SampleBatch(xs, ys)
    z_levels = []
    decision = Decision.ACCEPT
    for k in range(sched.k0 + 1):
        num = batch.numerator(k)
        z_levels.append(_z_float(num, sched.q))
        if sched.exceeded(k, num):
            decision = Decision.REJECT
            break
    trace = {
        "q": sched.q,
        "k0": sched.k0,
        "z_levels": z_levels,
        "tau_levels": [sched.tau(k) for k in range(len(z_levels))],
        "tau_levels_log2": [sched.tau_log2(k) for k in range(len(z_levels))],
    }
    return TestVerdict(decision, oracle.queries - start, trace)


# ---------------------------------------------------------------------------
# Gaussian reduction


def erf_lower_bound_holds(x: np.ndarray) -> np.ndarray:
    """Pointwise check of Erf(x)^2 >= (2/3) min(x^2, 1)."""
    x = np.asarray(x, dtype=np.float64)
    erf = np.vectorize(math.erf)(x)
    return erf * erf >= (2.0 / 3.0) * np.minimum(x * x, 1.0) - 1e-12


def second_moment_screen(samples: np.ndarray) -> bool:
    """True when some coordinate's median-of-batch-means of x_i^2 lands
    above the screen threshold (evidence of variance larger than 1)."""
    need = SCREEN_BATCHES * SCREEN_BATCH_SIZE
    if samples.shape[0] < need:
        raise ValueError(f"screen needs at least {need} samples")
    sq = samples[:need] ** 2
    batches = sq.reshape(SCREEN_BATCHES, SCREEN_BATCH_SIZE, -1).mean(axis=1)
    medians = np.median(batches, axis=0)
    return bool((medians > SCREEN_THRESHOLD).any())


def gaussian_required_samples(n: int, eps: float) -> int:
    """Total real-vector samples the gaussian tester consumes."""
    per_rep = 2 * _gaussian_q(n, eps)
    return max(SCREEN_BATCHES * SCREEN_BATCH_SIZE, GAUSS_REPS * per_rep)


def _gaussian_q(n: int, eps: float) -> int:
    return math.ceil(GAUSS_Q_COEFF * math.sqrt(n) / (eps * eps))


def gaussian_mean_tester(samples: np.ndarray, eps: float) -> TestVerdict:
    """Accept when the source looks like N(0, I); reject when the mean norm
    exceeds eps (any covariance).

    Screens per-coordinate second moments first, then sign-maps the samples
    and majority-votes over disjoint sample chunks of the level-0 hypercube
    tester at the reduced parameter eps / (2 sqrt(3n)).
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    # sign() would map NaN to -1, and the screen's comparisons ignore it
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    n = samples.shape[1]
    need = gaussian_required_samples(n, eps)
    if samples.shape[0] < need:
        raise ValueError(f"need at least {need} samples, got {samples.shape[0]}")

    if second_moment_screen(samples):
        return TestVerdict(
            Decision.REJECT, need, {"stage": "screen", "reps": [], "q": 0}
        )

    eps_reduced = eps / (2.0 * math.sqrt(3.0 * n))
    q = _gaussian_q(n, eps)
    # the reduced eps lies far below a practical preset's domain, so the
    # schedule takes an explicit q and runs at level 0 only
    sched = TauSchedule(eps_reduced, n, q, 0)
    # straight to int8: an int64 temporary, eight times the size, would be
    # freed and its pages faulted in again on every verdict
    signs = np.where(samples >= 0.0, np.int8(1), np.int8(-1))
    rejects = 0
    rep_z = []
    for r in range(GAUSS_REPS):
        lo = r * 2 * q
        batch = SampleBatch(signs[lo : lo + q], signs[lo + q : lo + 2 * q])
        num = batch.numerator(0)
        rep_z.append(_z_float(num, q))
        rejects += sched.exceeded(0, num)
    decision = Decision.REJECT if 2 * rejects > GAUSS_REPS else Decision.ACCEPT
    trace = {
        "stage": "mean-test",
        "reps": rep_z,
        "tau": sched.tau(0),
        "q": q,
        "eps_reduced": eps_reduced,
    }
    return TestVerdict(decision, need, trace)
