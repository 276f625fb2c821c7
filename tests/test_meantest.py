"""Mean tester: exact pairing statistic, threshold schedule, preset sample
sizes, the full test loop, and the gaussian reduction."""

import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester import meantest
from hypercube_tester.blowup import BLOWUP_DIM_CAP, blowup_dim, z_statistic_naive
from hypercube_tester.harness import resolve_gaussian_source, resolve_target
from hypercube_tester.meantest import (
    GAUSS_REPS,
    SCREEN_BATCH_SIZE,
    GaussianDraw,
    MeanTestConfig,
    TauSchedule,
    _trace_float,
    default_k0,
    erf_lower_bound_holds,
    gaussian_mean_tester,
    gaussian_required_samples,
    mean_tester,
    numerators,
    paper_q,
    practical_q,
    screen_batches,
    screen_null_reject,
    second_moment_screen,
)
from hypercube_tester.model import Decision, ProductDistribution
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.zoo import GaussianSource, TwoPointDistribution

# ---------------------------------------------------------------------------
# the statistic


def _numerator(xs, ys, k):
    """The level-k numerator of one batch with halves xs and ys."""
    return numerators(np.concatenate([xs, ys]), len(xs), k)[0]


def _histogram(xs, ys):
    """The Gram histogram of one batch with halves xs and ys, checked as a
    draw of 2q rows first."""
    (halves,) = meantest._draw_batches(np.concatenate([xs, ys]), len(xs))
    return meantest._gram_histogram(halves)


def test_numerators_reject_non_signs():
    # values are checked before the int8 cast, which would make both 1
    with pytest.raises(ValueError):
        numerators(np.array([[257, -1], [1.7, -1.2]]), 1, 0)
    with pytest.raises(ValueError):
        numerators(np.array([[1, -1], [1.5, -1.0]]), 1, 0)
    # halves of 2 and 3 rows are no draw of 2q rows
    with pytest.raises(ValueError, match="multiple of 2q"):
        numerators(np.ones((5, 3)), 2, 0)
    # a draw that is not 2-D is refused by name, not by a TypeError or an
    # unpacking error when a level is read
    for shape in ((2, 3, 4), (3,), ()):
        with pytest.raises(ValueError, match="2-D"):
            numerators(np.ones(shape), 1, 0)
    assert meantest._draw_batches(np.array([[1.0, -1.0], [1, 1]]), 1).dtype == np.int8


def test_numerators_reject_a_bad_row_count_or_parameter():
    # 15 rows are no whole number of q = 2 batches, and no draw holds none;
    # numpy's reshape would report only the array size
    for rows in (15, 0, 6):
        with pytest.raises(ValueError, match="positive multiple of 2q = 4 rows"):
            numerators(np.ones((rows, 3)), 2, 0)
    assert numerators(np.ones((8, 3)), 2, 0) == [12, 12]
    for q, k in ((0, 0), (-1, 0), (2, -1)):
        with pytest.raises(ValueError, match="q >= 1 and k >= 0"):
            numerators(np.ones((8, 3)), q, k)
    with pytest.raises(ValueError, match="integer"):
        numerators(np.ones((8, 3)), 2.5, 0)


def test_z_numerator_small_exact():
    xs = np.array([[1, 1], [1, -1]])
    ys = np.array([[1, 1], [-1, 1]])
    # inner products: [2, 0], [0, -2]
    assert [_numerator(xs, ys, k) for k in range(3)] == [0, 8, 32]


def test_z_numerator_bigint_path_matches_python():
    rng = stream(51, 0, 0)
    n, q = 40, 6
    xs = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    ys = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    for level in (3, 4, 5):  # level 4+ overflows int64 at n=40
        want = sum(
            int(x @ y) ** (1 << level) for x in xs for y in ys
        )
        assert _numerator(xs, ys, level) == want


def test_z_numerator_exactness_at_int64_boundary():
    # max |<x,y>| = n = 62: 62^8 * 36 pairs sits close to 2^63
    xs = np.ones((6, 62), dtype=np.int64)
    ys = np.ones((6, 62), dtype=np.int64)
    assert [_numerator(xs, ys, 3), _numerator(xs, ys, 4)] == [36 * 62**8, 36 * 62**16]


def _sign_halves(rng, q, n, rank_one):
    # rank-one halves put every pair at Hamming distance 0 or n
    if rank_one:
        v = rng.choice((-1, 1), n)
        return rng.choice((-1, 1), (q, 1)) * v, rng.choice((-1, 1), (q, 1)) * v
    return rng.choice((-1, 1), (q, n)), rng.choice((-1, 1), (q, n))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_numerators_match_explicit_blowup(n, q, rank_one, seed):
    # every level the blowup cap allows; rank-one batches put every inner
    # product at +-n, the largest power each level can see
    xs, ys = _sign_halves(np.random.default_rng(seed), q, n, rank_one)
    levels = [
        k for k in range(4) if k == 0 or blowup_dim(n, k) <= BLOWUP_DIM_CAP
    ]
    for k in levels:
        assert _numerator(xs, ys, k) / (q * q) == z_statistic_naive(xs, ys, k)


def _int64_gram_histogram(xs, ys):
    # reference: the histogram of an int64 Gram product, ascending inner
    # product, zero counts dropped
    n = xs.shape[1]
    g = xs.astype(np.int64) @ ys.astype(np.int64).T + n
    counts = np.bincount(g.ravel(), minlength=2 * n + 1)
    return tuple((v - n, c) for v, c in enumerate(counts.tolist()) if c)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 60),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_level_zero_column_sums_match_gram_histogram(n, q, rank_one, seed):
    # the histogram against an int64 Gram product, and <sum x, sum y>
    # against the level-0 sum over it; rank-one batches put every inner
    # product at +-n and give every column sum the same magnitude
    xs, ys = _sign_halves(np.random.default_rng(seed), q, n, rank_one)
    histogram = _histogram(xs, ys)
    assert histogram == _int64_gram_histogram(xs, ys)
    assert _numerator(xs, ys, 0) == sum(c * v for v, c in histogram)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300])
def test_gram_histogram_at_word_boundaries(n):
    # one word holds 64 signs; past n = 255 a distance no longer fits uint8
    rng = stream(63, 0, n)
    for q, rank_one in ((1, False), (37, False), (300, False), (37, True)):
        xs, ys = _sign_halves(rng, q, n, rank_one)
        assert _histogram(xs, ys) == _int64_gram_histogram(xs, ys)
    # every pair at distance n, the largest count the accumulator must hold
    ones = np.ones((3, n), dtype=np.int8)
    assert _histogram(ones, -ones) == ((-n, 9),)
    assert _numerator(ones, ones, 1) == 9 * n * n


def test_gram_histogram_in_several_row_blocks(monkeypatch):
    # 7 rows per block over q = 30 leaves a short last block
    monkeypatch.setattr(meantest, "GRAM_BLOCK_CELLS", 7 * 30)
    xs, ys = _sign_halves(stream(64, 0, 0), 30, 70, False)
    assert _histogram(xs, ys) == _int64_gram_histogram(xs, ys)


def test_gram_histogram_with_no_coordinates():
    # n = 0: every pair has inner product 0
    empty = np.zeros((4, 0), dtype=np.int8)
    assert _histogram(empty, empty) == ((0, 16),)
    assert [_numerator(empty, empty, k) for k in range(3)] == [0, 0, 0]


def test_gram_histogram_built_only_when_a_higher_level_reads_it(monkeypatch):
    built = []  # one entry per Gram-histogram build in meantest
    histogram = meantest._gram_histogram

    def spy(halves):
        built.append(halves.shape)
        return histogram(halves)

    monkeypatch.setattr(meantest, "_gram_histogram", spy)
    # a level-0 reject forms no Gram matrix
    o = ScondOracle(ProductDistribution(np.full(32, 0.25)), stream(56, 0, 0))
    v = mean_tester(o, MeanTestConfig(0.25))
    assert v.decision is Decision.REJECT and len(v.trace["z_levels"]) == 1
    assert built == []
    # neither does a gaussian verdict, accept or reject
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    null = stream(61, 0, 0).standard_normal((need, n))
    assert gaussian_mean_tester(null, eps).decision is Decision.ACCEPT
    far = stream(62, 0, 0).standard_normal((need, n)) + 1.0 / math.sqrt(n)
    v = gaussian_mean_tester(far, eps)
    assert v.decision is Decision.REJECT and v.trace["stage"] == "mean-test"
    assert built == []
    # an accepted k0 = 3 batch reads levels 1-3 from one build
    o = ScondOracle(ProductDistribution.uniform(64), stream(55, 0, 0))
    v = mean_tester(o, MeanTestConfig(0.5, k0=3))
    assert v.decision is Decision.ACCEPT and len(v.trace["z_levels"]) == 4
    assert len(built) == 1


def test_z_statistic_is_numerator_over_q_squared():
    # the trace's z_levels come from the same 2q samples a fresh oracle
    # on the same stream redraws
    target = ProductDistribution.uniform(8)
    v = mean_tester(ScondOracle(target, stream(52, 0, 0)), MeanTestConfig(1.0, q=100, k0=2))
    o = ScondOracle(target, stream(52, 0, 0))
    xs, ys = o.sample(100), o.sample(100)
    nums = [_numerator(xs, ys, k) for k in range(3)]
    assert len(v.trace["z_levels"]) == 3
    for z, num in zip(v.trace["z_levels"], nums):
        assert z == pytest.approx(num / 100**2, rel=1e-15)
    # past the float range the trace value saturates instead of raising
    assert _trace_float(10**400, 3) == math.inf
    assert _trace_float(-(10**400), 3) == -math.inf


def test_threshold_equality_accepts():
    sched = TauSchedule(0.5, 32, 1, 0)
    assert sched.taus[0] == 4
    # one pair with <x,y> = 4 in n=32: Z_0 = 4 exactly
    x = np.ones((1, 32), dtype=np.int8)
    y = x.copy()
    y[0, :14] = -1
    num = _numerator(x, y, 0)
    assert num == 4
    assert not sched.exceeded(0, num)
    assert sched.exceeded(0, num + 1)
    # an excess of 2^-60, far below one ulp of tau, still rejects
    q = 1 << 30
    wide = TauSchedule(0.5, 32, q, 0)
    assert float(Fraction(4 * q * q + 1, q * q)) == 4.0
    assert not wide.exceeded(0, 4 * q * q)
    assert wide.exceeded(0, 4 * q * q + 1)


def test_threshold_uses_exact_arithmetic():
    # q = 3: Z = num / 9 is not a dyadic float; the comparison must not
    # round through floating point
    sched = TauSchedule(1.0, 6, 3, 0)
    assert sched.taus[0] == 3
    xs = np.ones((3, 3), dtype=np.int8)
    ys = np.ones((3, 3), dtype=np.int8)
    num = _numerator(xs, ys, 0)  # 9 * 3 = 27, Z = 3 exactly
    assert num == 27
    assert not sched.exceeded(0, num)
    assert sched.exceeded(0, num + 1)
    # q = 3^20: an excess of 3^-40 rounds away in float but must reject
    q = 3**20
    wide = TauSchedule(1.0, 6, q, 0)
    assert float(Fraction(3 * q * q + 1, q * q)) == 3.0
    assert not wide.exceeded(0, 3 * q * q)
    assert wide.exceeded(0, 3 * q * q + 1)


def test_threshold_equality_accepts_at_level_one():
    # the far cell of criterion 3: tau_1 = 5000 exactly, so Z_1 = tau_1
    # must accept and one more unit of the numerator must reject
    sched = TauSchedule(0.5, 64, 625, 1)
    assert sched.taus[1] == 5000
    num = 5000 * 625**2
    assert not sched.exceeded(1, num)
    assert sched.exceeded(1, num + 1)


def test_exceeds_exact_past_float_range():
    q = 2000
    sched = TauSchedule(1.0, 4, q, 7)
    assert all(t.denominator == 1 for t in sched.taus)
    assert _trace_float(*sched.taus[7].as_integer_ratio()) == math.inf
    num = int(sched.taus[7]) * q * q  # Z_7 = tau_7
    assert not sched.exceeded(7, num)
    assert sched.exceeded(7, num + 1)
    # non-positive numerators never exceed a huge threshold
    assert not sched.exceeded(7, 0)
    assert not sched.exceeded(7, -num - 1)


# ---------------------------------------------------------------------------
# the schedule


def test_tau_schedule_frozen_values():
    s = TauSchedule(0.5, 64, 250, 3)
    assert s.taus == (8, 800, 8 * 10**6, 8 * 10**14)


def test_tau_first_level_dominates_twelve_n():
    # the level-1 threshold clears 12n at the criterion operating point
    s = TauSchedule(0.5, 64, 250, 1)
    assert s.taus[1] >= 12 * 64


@settings(max_examples=60)
@given(
    st.floats(0.05, 1.0),
    st.integers(2, 512),
    st.integers(2, 10_000),
    st.integers(0, 6),
)
def test_tau_recursion_matches_closed_form(eps, n, q, k0):
    # tau_k = (a q^2 tau_0)^(2^k) / (a q^2) with a = 1/5000
    s = TauSchedule(eps, n, q, k0)
    aq2 = Fraction(q * q, 5000)
    tau0 = Fraction(eps) ** 2 * n / 2
    for k in range(k0 + 1):
        assert s.taus[k] == (aq2 * tau0) ** (1 << k) / aq2


def test_tau_recursion_step():
    s = TauSchedule(0.3, 32, 100, 4)
    assert s.taus[0] == Fraction(0.3) ** 2 * 16
    for k in range(1, 5):
        assert s.taus[k] == Fraction(1, 5000) * 100**2 * s.taus[k - 1] ** 2


def test_tau_overflow_reports_inf():
    s = TauSchedule(1.0, 4, 10**6, 6)
    assert _trace_float(*s.taus[6].as_integer_ratio()) == math.inf
    assert _trace_float(*s.taus[0].as_integer_ratio()) == 2.0


def test_default_k0():
    assert default_k0(1) == 0
    assert default_k0(2) == 0
    assert default_k0(3) == 1
    assert default_k0(4) == 1
    assert default_k0(16) == 2
    assert default_k0(17) == 3
    assert default_k0(64) == 3
    assert default_k0(256) == 3
    assert default_k0(257) == 4


def test_practical_q_frozen_values():
    assert practical_q(64, 0.5, 3) == 250
    assert practical_q(64, 0.25, 3) == 1000
    assert practical_q(4, 1.0, 1) == 250  # comp=250, sound small, floor 150
    assert practical_q(10_000, 1.0, 1) == 150  # floor binds


def test_paper_q_shape():
    # documented asymptotic preset: small constants, never executed at scale
    assert paper_q(64, 0.5, 3) == max(
        math.ceil(8 / (0.25 * 8.0)), math.ceil(8 * 4 ** (16 / 30)), 1
    )
    assert paper_q(4, 1.0, 0) >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        MeanTestConfig(0.0)
    with pytest.raises(ValueError):
        MeanTestConfig(0.5, preset="fast")
    sched = MeanTestConfig(0.5, q=77, k0=2).resolve(16)
    assert sched.q == 77 and sched.k0 == 2
    # q and k0 are checked when the config is built: a fractional value is
    # not truncated, and k0 = -1 no longer reaches the sample rule
    for bad in ({"q": 10.7}, {"k0": 1.5}, {"q": 0}, {"k0": -1}):
        with pytest.raises(ValueError):
            MeanTestConfig(0.5, **bad)
    sched = MeanTestConfig(0.5, q=77.0, k0=2.0).resolve(16)
    assert (sched.q, sched.k0) == (77, 2)
    # the schedule reads n, q and k0 as integers too: a fractional value is
    # refused, not carried into float taus or a Fraction of a float
    for bad in ((0.5, 64, 2.5, 0), (0.5, 64.5, 250, 1), (0.5, 64, 250, 1.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            TauSchedule(*bad)
    for bad in ((0.0, 64, 250, 1), (1.5, 64, 250, 1), (0.5, 64, 0, 1), (0.5, 64, 250, -1),
                (0.5, 0, 250, 1)):
        with pytest.raises(ValueError):
            TauSchedule(*bad)
    # integral floats pass as ints, so the taus stay exact and level 1 compares
    sched = TauSchedule(0.5, 64.0, 250.0, 1.0)
    assert (sched.n, sched.q, sched.k0) == (64, 250, 1)
    assert sched.taus == TauSchedule(0.5, 64, 250, 1).taus
    assert all(isinstance(t, Fraction) for t in sched.taus)
    assert not sched.exceeded(1, 800 * 250**2) and sched.exceeded(1, 800 * 250**2 + 1)


# ---------------------------------------------------------------------------
# the tester


# (decision, queries_used, z_levels) recorded from the int64-product
# statistic; an exact kernel must reproduce them bit for bit. The
# planted_product rows were re-recorded when biased products moved to the
# byte-threshold draw, which reads the stream differently (same decisions
# and queries)
MEAN_TESTER_PINS = [
    # criterion 3: uniform n = 64 at eps 0.5, planted 0.25 at eps 0.25
    ("uniform", 0.5, (31, 0, 0), "accept", 500,
     [0.032448, 64.549504, 12313.702912, 1681537629.233152]),
    ("uniform", 0.5, (31, 0, 1), "accept", 500,
     [-0.00768, 63.675392, 12176.811008, 1706654331.650048]),
    ("uniform", 0.5, (31, 0, 2), "accept", 500,
     [-0.013632, 63.4528, 11961.41824, 1567533183.01696]),
    ("planted_product:0.25", 0.25, (31, 1, 0), "reject", 2000, [4.022784]),
    ("planted_product:0.25", 0.25, (31, 1, 1), "reject", 2000, [4.096856]),
    ("planted_product:0.25", 0.25, (31, 1, 2), "reject", 2000, [4.101012]),
    # bench/bench.py's mean cells at seeds 1 and 7
    ("uniform", 0.5, (1, 0, 0), "accept", 500,
     [-0.003008, 64.665088, 12439.41376, 1909079461.15072]),
    ("uniform", 0.5, (1, 0, 1), "accept", 500,
     [-0.018304, 63.980928, 12109.306368, 1585571941.490688]),
    ("uniform", 0.5, (1, 0, 2), "accept", 500,
     [-0.00672, 63.76128, 12154.707456, 1617028499.890176]),
    ("planted_product:0.25", 0.25, (1, 1, 0), "reject", 2000, [4.035568]),
    ("planted_product:0.25", 0.25, (1, 1, 1), "reject", 2000, [3.961344]),
    ("planted_product:0.25", 0.25, (1, 1, 2), "reject", 2000, [3.896232]),
    ("uniform", 0.5, (7, 0, 0), "accept", 500,
     [-0.095616, 63.955456, 12179.470336, 1640834233.040896]),
    ("uniform", 0.5, (7, 0, 1), "accept", 500,
     [-0.004288, 64.153472, 12211.821056, 1673011028.074496]),
    ("uniform", 0.5, (7, 0, 2), "accept", 500,
     [-0.036416, 63.732608, 12206.991872, 1642408960.827392]),
    ("planted_product:0.25", 0.25, (7, 1, 0), "reject", 2000, [3.956996]),
    ("planted_product:0.25", 0.25, (7, 1, 1), "reject", 2000, [3.925492]),
    ("planted_product:0.25", 0.25, (7, 1, 2), "reject", 2000, [4.05752]),
]


@pytest.mark.parametrize("dist, eps, key, decision, queries, z_levels", MEAN_TESTER_PINS)
def test_mean_tester_statistic_pins(dist, eps, key, decision, queries, z_levels):
    v = mean_tester(ScondOracle(resolve_target(dist, 64), stream(*key)), MeanTestConfig(eps))
    assert (v.decision.value, v.queries_used, v.trace["z_levels"]) == (decision, queries, z_levels)


def test_batch_numerators_check_the_draw_once():
    # the numerators of a split draw equal those of separate batches, and a
    # draw with one non-sign entry is refused as a whole
    rng = stream(58, 0, 0)
    q, n = 7, 9
    draw = rng.choice((-1, 1), (6 * 2 * q, n))
    for k in (0, 1, 2):
        want = [_numerator(d[:q], d[q:], k) for d in draw.reshape(6, 2 * q, n)]
        assert numerators(draw, q, k) == want
    draw = draw.astype(np.float64)
    draw[50, 3] = 0.5
    with pytest.raises(ValueError):
        numerators(draw, q, 0)


def test_mean_tester_uses_exactly_2q_queries():
    o = ScondOracle(ProductDistribution.uniform(16), stream(54, 0, 0))
    v = mean_tester(o, MeanTestConfig(0.5))
    assert v.queries_used == 2 * v.trace["q"]
    assert o.queries == v.queries_used
    assert len(v.trace["z_levels"]) <= v.trace["k0"] + 1
    assert len(v.trace["tau_levels"]) == len(v.trace["z_levels"])


def test_mean_tester_accepts_uniform():
    accepts = 0
    for t in range(20):
        o = ScondOracle(ProductDistribution.uniform(32), stream(55, 0, t))
        accepts += mean_tester(o, MeanTestConfig(0.5)).decision is Decision.ACCEPT
    assert accepts >= 18


def test_mean_tester_rejects_planted_mean():
    rejects = 0
    for t in range(20):
        o = ScondOracle(ProductDistribution(np.full(32, 0.25)), stream(56, 0, t))
        v = mean_tester(o, MeanTestConfig(0.25))
        rejects += v.decision is Decision.REJECT
    assert rejects >= 18


def test_mean_tester_rejects_two_point_at_high_level():
    # +/- x has mu = 0 but <x_i, y_j> = +/- n, so higher levels blow up
    x = np.ones(16, dtype=np.int8)
    o = ScondOracle(TwoPointDistribution(x), stream(57, 0, 0))
    v = mean_tester(o, MeanTestConfig(0.5))
    assert v.decision is Decision.REJECT
    fired_level = len(v.trace["z_levels"]) - 1
    assert v.trace["z_levels"][fired_level] > v.trace["tau_levels"][fired_level]


def test_mean_tester_stops_at_first_exceedance():
    x = np.ones(16, dtype=np.int8)
    o = ScondOracle(TwoPointDistribution(x), stream(58, 0, 0))
    v = mean_tester(o, MeanTestConfig(0.5))
    k0 = v.trace["k0"]
    assert len(v.trace["z_levels"]) <= k0 + 1


def test_mean_tester_handles_overflowed_tau():
    # deep schedule: the top tau exceeds the float range; uniform must
    # still accept through the exact comparison
    sched = TauSchedule(1.0, 4, 2000, 7)
    assert _trace_float(*sched.taus[7].as_integer_ratio()) == math.inf
    assert _trace_float(*sched.taus[6].as_integer_ratio()) < math.inf
    o = ScondOracle(ProductDistribution.uniform(4), stream(59, 0, 0))
    v = mean_tester(o, MeanTestConfig(1.0, q=2000, k0=7))
    assert v.decision is Decision.ACCEPT
    assert v.trace["tau_levels"][-1] == math.inf
    assert v.trace["tau_levels_log2"][-1] > 1000


def test_resolve_is_shared_by_equal_configs_and_raises_every_call():
    # a recursive verdict builds one config per bucket and resolves it at
    # every mean test: equal configs share one schedule
    first = MeanTestConfig(0.25, q=200, k0=0).resolve(24)
    assert MeanTestConfig(0.25, q=200, k0=0).resolve(24) is first
    assert first == MeanTestConfig.resolve.__wrapped__(MeanTestConfig(0.25, q=200, k0=0), 24)
    assert MeanTestConfig(0.25, q=200, k0=1).resolve(24) != first
    # a refused n is not cached: it raises on every call
    cfg = MeanTestConfig(0.5, q=10, k0=0)
    for bad in (0, -3, 8.5):
        for _ in range(2):
            with pytest.raises(ValueError):
                cfg.resolve(bad)
    limit = MeanTestConfig.resolve.cache_info().maxsize
    assert limit is not None
    for q in range(1, limit + 10):
        MeanTestConfig(0.5, q=q).resolve(16)
    assert MeanTestConfig.resolve.cache_info().currsize <= limit


@pytest.mark.parametrize("n, q", [(1, 1), (7, 3), (64, 200), (300, 41)])
def test_fair_level0_mean_test_replays_its_counts(n, q):
    # on the uniform product a k0 = 0 schedule draws each half's column
    # counts by one rng.binomial(q, 1/2, (1, 2, n)) and no row, and is
    # charged 2q; the numerator is <2 plus_x - q, 2 plus_y - q>
    def refuse(size=None):
        raise AssertionError("a fair level-0 mean test draws no row")

    cfg = MeanTestConfig(0.5, q=q, k0=0)
    for t in range(5):
        o = ScondOracle(ProductDistribution.uniform(n), stream(85, n, t))
        o.sample = refuse
        v = mean_tester(o, cfg)
        replay = stream(85, n, t)
        plus_x, plus_y = replay.binomial(q, 0.5, (1, 2, n))[0].tolist()
        num = sum((2 * a - q) * (2 * b - q) for a, b in zip(plus_x, plus_y))
        assert v.trace["z_levels"] == [_trace_float(num, q * q)]
        want = Decision.REJECT if cfg.resolve(n).exceeded(0, num) else Decision.ACCEPT
        assert v.decision is want
        assert v.queries_used == o.queries == 2 * q
        # the stream is left where the replay left it
        assert o.rng.bit_generator.random_raw() == replay.bit_generator.random_raw()
    # a schedule that reads a level >= 1 still draws its rows
    o = ScondOracle(ProductDistribution.uniform(n), stream(85, n, 0))
    v = mean_tester(o, MeanTestConfig(0.5, q=q, k0=1))
    draw = ProductDistribution.uniform(n).sample(stream(85, n, 0), 2 * q)
    assert v.trace["z_levels"][0] == _trace_float(numerators(draw, q, 0)[0], q * q)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_paired_dots_is_exact_on_both_sides_of_its_int64_guard(n):
    # entries +-q with q^2 n just below 2^63 take the int64 route, and with
    # q one larger the Python-int route, where an int64 sum could wrap: all
    # +q gives n q^2 >= 2^63. One batch (1, 2, n), as a fair level-0 mean
    # test gives, and the gaussian tester's (GAUSS_REPS, 2, n)
    below = math.isqrt(((1 << 63) - 1) // n)
    rng = stream(86, n, 0)
    for q in (below, below + 1):
        assert (q * q * n < 1 << 63) is (q == below)
        for reps in (1, GAUSS_REPS):
            signs = rng.choice(np.array([-1, 1]), size=(reps, 2, n))
            for sums in (signs * q, np.full((reps, 2, n), q, dtype=np.int64)):
                want = [sum(a * b for a, b in zip(sx, sy)) for sx, sy in sums.tolist()]
                assert meantest._paired_dots(sums, q) == want
                # with no bound, the Python-int route
                assert meantest._paired_dots(sums) == want


@pytest.mark.parametrize("q", [(1 << 15) - 1, 1 << 15])
def test_level0_column_sums_are_exact_at_the_int16_edge(q):
    # level-0 columns are summed in int16 below q = 2^15 and in int32 from
    # it; an all-+1 column of q = 2^15 rows would wrap in int16. Columns:
    # all +1, -1 in X and +1 in Y, all -1, and two mixed
    rng = stream(87, q, 0)
    n = 5
    draw = np.empty((2 * q, n), dtype=np.int8)
    draw[:, 0] = 1
    draw[:, 1] = np.repeat([-1, 1], q)
    draw[:, 2] = -1
    draw[:, 3:] = rng.choice(np.array([-1, 1], dtype=np.int8), size=(2 * q, 2))
    cols = draw.T.tolist()
    want = sum(sum(c[:q]) * sum(c[q:]) for c in cols)
    assert meantest._level0_numerators(meantest._draw_batches(draw, q)) == [want]
    assert numerators(draw, q, 0) == [want]


@pytest.mark.parametrize("q, k", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_fair_level0_numerator_has_the_rows_law(q, k):
    # exact: over all 2^(2qk) draws of 2q rows on k coordinates, the rows
    # route's level-0 numerators; over all +1 count vectors of the two
    # halves, each weighted by the number of draws that give it
    # (prod C(q, c)), the count route's. Equal multisets
    rows = np.array(list(itertools.product((-1, 1), repeat=2 * q * k)), dtype=np.int8)
    by_rows = Counter(numerators(rows.reshape(-1, k), q, 0))
    by_counts = Counter()
    for plus in itertools.product(range(q + 1), repeat=2 * k):
        halves = np.array(plus, dtype=np.int64).reshape(1, 2, k)
        (num,) = meantest._paired_dots(2 * halves - q)
        by_counts[num] += math.prod(math.comb(q, c) for c in plus)
    assert by_rows == by_counts
    assert sum(by_counts.values()) == 1 << (2 * q * k)


# ---------------------------------------------------------------------------
# gaussian reduction


def test_erf_lower_bound_grid():
    xs = np.linspace(-6, 6, 10_001)
    assert erf_lower_bound_holds(xs).all()


def test_second_moment_screen_flags_large_variance():
    rng = stream(60, 0, 0)
    good = rng.standard_normal((144, 8))
    assert not second_moment_screen(good)
    bad = good.copy()
    bad[:, 3] *= 2.0  # variance 4 in one coordinate
    assert second_moment_screen(bad)
    with pytest.raises(ValueError):
        second_moment_screen(good[:100])


# the screen's batch count at every n up to which it holds, from the exact law
SCREEN_BATCH_TABLE = {16: 9, 32: 11, 64: 13, 128: 13, 256: 15, 512: 15, 1024: 17}
SCREEN_BATCH_TABLE.update({2048: 17, 4096: 19, 65536: 23})


def test_screen_batches_hold_the_null_reject_rate():
    grid = sorted({round(2 ** (k / 4)) for k in range(65)})  # n = 1 ... 65,536
    assert grid[0] == 1 and grid[-1] == 65536
    # a variance-2 coordinate is caught at least as often as by 9 batches
    power9 = meantest._screen_batch_law(9, 2.0)
    assert power9 == pytest.approx(0.946, abs=5e-4)
    for n in grid:
        batches = screen_batches(n)
        assert batches % 2 == 1 and batches >= 9
        assert screen_null_reject(n, batches) <= 0.01
        # the smallest such count
        if batches > 9:
            assert screen_null_reject(n, batches - 2) > 0.01
        assert meantest._screen_batch_law(batches, 2.0) >= power9
    assert {n: screen_batches(n) for n in SCREEN_BATCH_TABLE} == SCREEN_BATCH_TABLE
    assert screen_batches(18) == 9 and screen_batches(19) == 11
    # f = P(Gamma(8, 1/8) > 1.5), the batch mean of 16 squared normals
    f = math.exp(-12) * sum(12**j / math.factorial(j) for j in range(8))
    assert meantest._screen_batch_law(1, 1.0) == pytest.approx(f, rel=1e-14)
    assert screen_null_reject(32, 9) == pytest.approx(0.01687, abs=1e-5)
    assert screen_null_reject(32, 11) == pytest.approx(0.00509, abs=1e-5)


@pytest.mark.parametrize("n, variance, trials", [(16, 1.0, 8000), (32, 1.0, 8000), (1, 2.0, 2000)])
def test_screen_reject_rate_matches_the_exact_law(n, variance, trials):
    # N(0, I) at n = 16 and 32, and one coordinate of variance 2
    batches = screen_batches(n)
    rows = SCREEN_BATCH_SIZE * batches
    exact = -math.expm1(n * math.log1p(-meantest._screen_batch_law(batches, variance)))
    if variance == 1.0:
        assert exact == screen_null_reject(n, batches)
    rng = stream(73, n, 0)
    rejects = 0
    for _ in range(trials // 1000):
        draws = rng.standard_normal((1000, rows, n)) * math.sqrt(variance)
        rejects += sum(second_moment_screen(d) for d in draws)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rejects / trials - exact) <= 3 * se


def test_gaussian_tester_accepts_standard_normal():
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    accepts = 0
    for t in range(10):
        samples = stream(61, 0, t).standard_normal((need, n))
        accepts += gaussian_mean_tester(samples, eps).decision is Decision.ACCEPT
    assert accepts >= 9


def test_gaussian_tester_rejects_shifted_mean():
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    mu = np.full(n, 1.0 / math.sqrt(n))  # ||mu|| = 1 = 2 eps
    rejects = 0
    for t in range(10):
        samples = stream(62, 0, t).standard_normal((need, n)) + mu
        v = gaussian_mean_tester(samples, eps)
        rejects += v.decision is Decision.REJECT
    assert rejects >= 9


def test_gaussian_tester_screen_rejects_inflated_variance():
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    samples = stream(63, 0, 0).standard_normal((need, n))
    samples[:, 0] *= 2.0
    v = gaussian_mean_tester(samples, eps)
    assert v.decision is Decision.REJECT
    assert v.trace["stage"] == "screen"
    # the screen reads the whole sample budget, like the mean test
    assert v.queries_used == need
    clean = stream(63, 0, 1).standard_normal((need, n))
    assert gaussian_mean_tester(clean, eps).queries_used == need


def test_gaussian_tester_rejects_non_finite_samples():
    # sign() would read NaN as -1 and the screen would not see it
    n, eps = 32, 0.5
    need = gaussian_required_samples(n, eps)
    for bad in (math.nan, math.inf, -math.inf):
        samples = stream(64, 0, 0).standard_normal((need, n))
        samples[need // 2, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            gaussian_mean_tester(samples, eps)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_gaussian_threshold_is_exactly_eps_squared_over_24(n):
    # tau_0 = eps_reduced^2 n / 2 = eps^2 / 24, built from eps: the square
    # of the rounded eps / (2 sqrt(3n)) misses 1/96 at these n
    eps = 0.5
    need = gaussian_required_samples(n, eps)
    v = gaussian_mean_tester(stream(65, 0, n).standard_normal((need, n)), eps)
    assert v.trace["stage"] == "mean-test"
    assert v.trace["tau_levels"] == [1 / 96]
    rounded = TauSchedule(v.trace["eps_reduced"], n, v.trace["q"], 0).taus[0]
    assert rounded != Fraction(1, 96)


def test_gaussian_tester_majority_and_requirements():
    n, eps = 8, 0.5
    need = gaussian_required_samples(n, eps)
    assert need >= 144
    assert need >= GAUSS_REPS * 2 * math.ceil(64 * math.sqrt(n) / eps**2)
    with pytest.raises(ValueError):
        gaussian_mean_tester(np.zeros((need - 1, n)), eps)
    with pytest.raises(ValueError):
        gaussian_mean_tester(np.zeros((need, n)), 0.0)


def test_gaussian_budget_holds_the_screen_rows():
    # so gaussian_required_samples is the 2 * GAUSS_REPS blocks of q rows
    # alone: the screen's rows fit in them at the widest eps, for every n
    for e in range(41):
        for n in (1 << e, (1 << e) + 1, 3 * (1 << e) // 2):
            budget = 2 * GAUSS_REPS * meantest._gaussian_q(n, 1.0)
            assert SCREEN_BATCH_SIZE * screen_batches(n) <= budget


def test_gaussian_tester_refuses_zero_width_samples():
    # q = 0 would otherwise reach the trace's division by q^2
    for samples in (np.zeros((144, 0)), np.zeros((10_000, 0))):
        with pytest.raises(ValueError, match="n = 0"):
            gaussian_mean_tester(samples, 0.5)


# ---------------------------------------------------------------------------
# the gaussian tester's inputs


def _verdict_bytes(v):
    """A verdict's decision, charge and trace, with floats as .hex()."""

    def hexed(x):
        if isinstance(x, float):
            return x.hex()
        return [hexed(y) for y in x] if isinstance(x, list) else x

    trace = {key: hexed(x) for key, x in sorted(v.trace.items())}
    return repr((v.decision.value, v.queries_used, trace)).encode()


# sha256 of test_gaussian_verdicts_match_their_pin's verdicts in each cell
GAUSSIAN_PINS = {
    (1, 1.0, "standard"): "c707dc3980a11a6874ee65dd36800f8473cbab7ac90186099b15be4da92de58f",
    (1, 1.0, "shift:1.0"): "25f740bb596dd59ba61de99af1efcfc643b9ea28aab936c13330b6aebf78d385",
    (1, 0.5, "standard"): "d5592275c43e5cd2b87fc1aee7b2d5f8aa84a2174a3ea86d98cdfc832658c826",
    (1, 0.5, "shift:1.0"): "40f2cc0e3b651a954e14c5a500131e837f15e1c635bf33c38dde9dbf5192c182",
    (1, 0.3, "standard"): "3149775ced8e389afc30edec46f0c370045323c9d6c8597e448bece83a65284b",
    (1, 0.3, "shift:1.0"): "bdbad4e84531477d7890734513c0db2c9cce9ea429db46a9eb389b044c6be634",
    (16, 1.0, "standard"): "e32ab1840ad47a9412790970d07cbdb679a692c3521ff2a90083cbd635a810ce",
    (16, 1.0, "shift:1.0"): "30063370e068552c65805cc9b4cdf9942ecca5a88f4621926b20dae91836945c",
    (16, 0.5, "standard"): "9f4e9979857bdbfd41258dea28832374f40a626f605d7bb4399d54ec73743de5",
    (16, 0.5, "shift:1.0"): "82033a492539cdcd02a1ee255d181191d05017c4bfe88372aff3693b749982a1",
    (16, 0.3, "standard"): "98a12cde6175feeea8ed14ede607daa78b2f047cad02f38a20acb712c8930b5b",
    (16, 0.3, "shift:1.0"): "d0b6dffaddf1c342dae7defa47d640fa52971d4cb1e35684bbd26bdea6d1da1f",
    (32, 1.0, "standard"): "2d8e5da68df4da74b044829a67b10f85446db73b9cb0316ab04a5b02720fbd99",
    (32, 1.0, "shift:1.0"): "9b4689aff9f915ec0e58f2d710754dde3319971bdcf9d69651eda9d057f96014",
    (32, 0.5, "standard"): "dfed81cb6d4b5b0ad86ee2a47a118638421561df4ee68b1cfd192524e4c27501",
    (32, 0.5, "shift:1.0"): "0817805307316270882c19ceef05a8d34700a06487d4fd821282ce63d4d19903",
    (32, 0.3, "standard"): "9f6f72ada77b90504bc24ac227e28d8722f5686851a885a93486eeb6fad1c48f",
    (32, 0.3, "shift:1.0"): "b6b9314e8c4a2b3a4abe330cfc7a43a668ab6bf28558f1bdb428e576f8f3eb13",
    (33, 1.0, "standard"): "d841357dae6d78c9f8e9f542a3255eb9844836ed5f67eb1c94e12c603a833e60",
    (33, 1.0, "shift:1.0"): "33e22179e9f81aaeb63a4d6f88db2cae42ebf2503218b57e3ed50c90d073630f",
    (33, 0.5, "standard"): "3461a0976685feb960b580bfe70c48414b46855a3d3633b631f8512123b7ba73",
    (33, 0.5, "shift:1.0"): "b8ea00a41749fae05429f5d8bd70ac465100d6d0837889f6513ab0581cfc2f1e",
    (33, 0.3, "standard"): "80194d77cd25e05376f54f9f72e9559cc8993df961b671e3c7198692ee5750ea",
    (33, 0.3, "shift:1.0"): "8c4e04832c2f132cee7a132ea918cadaf13c9569712340c96e98c4672a810a60",
    (200, 1.0, "standard"): "956e31718a15d54066db54d97ba22049736025fb64480268da1372fb6f474be5",
    (200, 1.0, "shift:1.0"): "2dad17e53de46083fc0da89bc30c6b3a6ae35baa330a9bbe1afe1f662bfcb3ba",
    (200, 0.5, "standard"): "fd319ac5a251ccc328dea6f3db3e637f39739527ee26faf41a228f3245a66cbe",
    (200, 0.5, "shift:1.0"): "53a00465880203d4c597298d893be63ba9ccc1feea67ce96b7883c38c4a27438",
    (200, 0.3, "standard"): "ba28a9f920ea2fd54c1a7980d75316a25134fe2fefb792c30d9d42a41e9fcad6",
    (200, 0.3, "shift:1.0"): "e3affc1cd4217ce47f0b7450192b41827c9ea20212bc7a35e20298a27e4d8020",
}


@pytest.mark.parametrize("dist", ["standard", "shift:1.0"])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("n", [1, 16, 32, 33, 200])
def test_gaussian_verdicts_match_their_pin(n, eps, dist):
    # an array of exactly the budget, one with 37 surplus rows, a
    # GaussianDraw and a screen reject
    source = resolve_gaussian_source(dist, n)
    need = gaussian_required_samples(n, eps)
    array = source.sample(stream(66, n, 0), need + 37)
    verdicts = [
        gaussian_mean_tester(array[:need], eps),
        gaussian_mean_tester(array, eps),
        gaussian_mean_tester(GaussianDraw(source, stream(66, n, 1), need), eps),
    ]
    array[:, 0] *= 3.0
    verdicts.append(gaussian_mean_tester(array[:need], eps))
    assert verdicts[-1].trace["stage"] == "screen"
    digest = hashlib.sha256(b"".join(_verdict_bytes(v) for v in verdicts))
    assert digest.hexdigest() == GAUSSIAN_PINS[n, eps, dist]


def test_gaussian_draw_head_is_the_first_rows():
    for n in (1, 16, 33, 200):
        source = GaussianSource(n, np.linspace(-1.0, 1.0, n))
        head = GaussianDraw(source, stream(67, n, 0), 5_000).head(176)
        assert np.array_equal(head, source.sample(stream(67, n, 0), 176))
    draw = GaussianDraw(GaussianSource(4), stream(67, 0, 1), 300)
    assert draw.shape == (300, 4)
    draw.head(144)
    with pytest.raises(RuntimeError):
        draw.head(144)
    # a GaussianDraw verdict reads the screen's rows, then only counts
    n, eps = 32, 0.5
    need = gaussian_required_samples(n, eps)
    source = resolve_gaussian_source("shift:1.0", n)
    v = gaussian_mean_tester(GaussianDraw(source, stream(67, 1, 0), need), eps)
    rng = stream(67, 1, 0)
    plus = np.zeros((2 * GAUSS_REPS, n), dtype=np.int64)
    plus[0] = (source.sample(rng, 176) >= 0).sum(axis=0)
    q = v.trace["q"]
    plus += source.plus_counts(rng, [q - 176] + [q] * (2 * GAUSS_REPS - 1))
    nums = meantest._paired_dots((2 * plus - q).reshape(GAUSS_REPS, 2, n))
    assert v.trace["z_levels"] == [num / (q * q) for num in nums]
    assert v.queries_used == need
    # a screen reject draws no counts, and is charged the whole budget
    v = gaussian_mean_tester(GaussianDraw(_HotSource(n), stream(67, 2, 0), need), eps)
    assert v.trace["stage"] == "screen" and v.queries_used == need


class _HotSource(GaussianSource):
    """N(0, 9 I), which the screen rejects; its counts are never drawn."""

    def sample(self, rng, size):
        return 3.0 * super().sample(rng, size)

    def plus_counts(self, rng, rows):
        raise AssertionError("a screen reject draws no counts")


def test_gaussian_source_counts_follow_the_exact_law():
    # each column's +1 count over blocks of 0, 30 and 4 x 50 rows, summed
    # over many draws, against Binomial(rows, Phi(mu_i)), Bonferroni over
    # the columns
    n, sizes, draws = 13, [0, 30, 50, 50, 50, 50], 200
    mu = np.linspace(-1.5, 1.5, n)
    source = GaussianSource(n, mu)
    rng = stream(74, 0, 0)
    counts = [source.plus_counts(rng, sizes) for _ in range(draws)]
    assert all(c.shape == (len(sizes), n) and c.dtype == np.int64 for c in counts)
    assert all(not c[0].any() and (c[1] <= 30).all() for c in counts)
    assert max(c[1].max() for c in counts) == 30
    rows = draws * sum(sizes)
    totals = np.sum(counts, axis=(0, 1))
    for total, m in zip(totals.tolist(), mu.tolist()):
        phi = 0.5 * math.erfc(-m / math.sqrt(2))
        assert _binomial_two_sided_p(total, rows, phi) >= 1e-3 / n


def _binomial_two_sided_p(k, trials, p):
    """Exact two-sided binomial test: the mass of every count no likelier than k."""
    j = np.arange(trials + 1)
    lgam = np.array([math.lgamma(i + 1) for i in range(trials + 1)])
    logs = lgam[-1] - lgam - lgam[::-1] + j * math.log(p) + (trials - j) * math.log1p(-p)
    return min(1.0, float(np.exp(logs[logs <= logs[k] + 1e-9]).sum()))


def test_gaussian_draw_and_array_accept_rates_agree():
    # the two routes draw different streams of one law: at a shift where
    # the tester accepts about 6 times in 10, their rates agree within 3 SE
    n, eps, trials = 8, 0.5, 400
    need = gaussian_required_samples(n, eps)
    source = resolve_gaussian_source("shift:0.12", n)

    def accepts(samples):
        return gaussian_mean_tester(samples, eps).decision is Decision.ACCEPT

    array = sum(accepts(source.sample(stream(75, 0, t), need)) for t in range(trials))
    draw = sum(accepts(GaussianDraw(source, stream(75, 1, t), need)) for t in range(trials))
    pooled = (array + draw) / (2 * trials)
    assert 0.2 <= pooled <= 0.8
    se = math.sqrt(2 * pooled * (1 - pooled) / trials)
    assert abs(array - draw) / trials <= 3 * se


class _ArrayLike:
    """An array-like that is not an ndarray, with a `chunks` attribute as
    h5py, dask and zarr arrays carry: read whole through np.asarray."""

    def __init__(self, array):
        self.array = array
        self.shape = array.shape
        self.chunks = (64, array.shape[1])

    def __array__(self, dtype=None, copy=None):
        return self.array if dtype is None else self.array.astype(dtype)


def test_gaussian_tester_reads_array_likes_whole():
    n, eps = 16, 0.5
    samples = stream(71, 0, 0).standard_normal((gaussian_required_samples(n, eps), n))
    expected = gaussian_mean_tester(samples, eps)
    for same in (_ArrayLike(samples), samples.tolist()):
        assert _verdict_bytes(gaussian_mean_tester(same, eps)) == _verdict_bytes(expected)


class _CountingDraw(GaussianDraw):
    """A `GaussianDraw` that records how many rows its head was asked for."""

    read = None

    def head(self, rows):
        self.read = rows
        return super().head(rows)


class _NanSource(GaussianSource):
    """N(0, I) with one NaN in the last row of every sample."""

    def sample(self, rng, size):
        samples = super().sample(rng, size)
        samples[-1, 0] = math.nan
        return samples


def test_gaussian_stream_stops_at_the_budget_and_the_screen():
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    samples = stream(68, 0, 0).standard_normal((need + 500, n))
    # rows past the budget are neither counted nor charged
    v = gaussian_mean_tester(samples, eps)
    assert v.queries_used == need
    assert _verdict_bytes(v) == _verdict_bytes(gaussian_mean_tester(samples[:need], eps))
    # a draw reads only the screen's rows
    draw = _CountingDraw(GaussianSource(n), stream(68, 1, 0), need)
    assert gaussian_mean_tester(draw, eps).queries_used == need
    assert draw.read == SCREEN_BATCH_SIZE * screen_batches(n) < need
    # a screen reject, surplus rows and all, is charged the whole budget
    samples[:, 0] *= 2.0
    v = gaussian_mean_tester(samples, eps)
    assert v.trace["stage"] == "screen" and v.queries_used == need


def test_gaussian_stream_checks_every_chunk():
    n, eps = 32, 0.5
    need = gaussian_required_samples(n, eps)
    base = stream(69, 0, 0).standard_normal((need + 40, n))
    with pytest.raises(ValueError, match=f"need at least {need}"):
        gaussian_mean_tester(base[: need - 10], eps)
    # an array is checked whole: a NaN near the end of the budget and one
    # in a surplus row past it
    for row in (need - 3, need + 37):
        bad = base.copy()
        bad[row, 5] = math.nan
        with pytest.raises(ValueError, match="finite"):
            gaussian_mean_tester(bad, eps)
    # rows of unequal width are refused when the input is read
    with pytest.raises(ValueError):
        gaussian_mean_tester([row.tolist() for row in base[:-1]] + [[0.0] * (n - 1)], eps)
    # a draw's screened rows are checked too
    with pytest.raises(ValueError, match="finite"):
        gaussian_mean_tester(GaussianDraw(_NanSource(n), stream(69, 1, 0), need), eps)


def test_gaussian_stream_memory_does_not_grow_with_the_budget():
    n = 64
    peaks = []
    # warm-up: the screen's first np.median imports numpy.ma
    gaussian_mean_tester(GaussianDraw(GaussianSource(n), stream(70, 0, 0), 20_000), 0.5)
    for eps in (0.5, 0.125):  # 16 times the rows
        draw = GaussianDraw(GaussianSource(n), stream(70, 1, 0), gaussian_required_samples(n, eps))
        tracemalloc.start()
        try:
            assert gaussian_mean_tester(draw, eps).trace["stage"] == "mean-test"
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * min(peaks)
    assert max(peaks) < 480 << 10


# ---------------------------------------------------------------------------
# input checks


def test_gaussian_mean_tester_refuses_three_d_samples():
    with pytest.raises(ValueError, match="2-D"):
        gaussian_mean_tester(np.zeros((2, 2, 2)), 0.5)
