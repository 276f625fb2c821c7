"""Mean tester: exact pairing statistic, threshold schedule, preset sample
sizes, the full test loop, and the gaussian reduction."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester import meantest
from hypercube_tester.blowup import BLOWUP_DIM_CAP, blowup_dim, z_statistic_naive
from hypercube_tester.harness import resolve_gaussian_source, resolve_target
from hypercube_tester.meantest import (
    GAUSS_CHUNK_BYTES,
    GAUSS_REPS,
    GaussianDraw,
    MeanTestConfig,
    SampleBatch,
    TauSchedule,
    _trace_float,
    default_k0,
    erf_lower_bound_holds,
    gaussian_mean_tester,
    gaussian_required_samples,
    mean_tester,
    paper_q,
    practical_q,
    second_moment_screen,
)
from hypercube_tester.model import Decision, ProductDistribution
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.zoo import GaussianSource, TwoPointDistribution

# ---------------------------------------------------------------------------
# the statistic


def test_sample_batch_rejects_non_signs():
    # values are checked before the int8 cast, which would make both 1
    with pytest.raises(ValueError):
        SampleBatch(np.array([[257, -1]]), np.array([[1.7, -1.2]]))
    with pytest.raises(ValueError):
        SampleBatch(np.array([[1, -1]]), np.array([[1.5, -1.0]]))
    with pytest.raises(ValueError):
        SampleBatch(np.ones((2, 3)), np.ones((3, 3)))
    # halves of equal shape that are not 2-D are refused when built, not by
    # a TypeError or an unpacking error when a level is read
    for shape in ((2, 3, 4), (3,), ()):
        with pytest.raises(ValueError, match="2-D"):
            SampleBatch(np.ones(shape), np.ones(shape))
    assert SampleBatch(np.array([[1.0, -1.0]]), np.array([[1, 1]])).xs.dtype == np.int8


def test_z_numerator_small_exact():
    xs = np.array([[1, 1], [1, -1]])
    ys = np.array([[1, 1], [-1, 1]])
    # inner products: [2, 0], [0, -2]
    batch = SampleBatch(xs, ys)
    assert [batch.numerator(k) for k in range(3)] == [0, 8, 32]


def test_z_numerator_bigint_path_matches_python():
    rng = stream(51, 0, 0)
    n, q = 40, 6
    xs = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    ys = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    batch = SampleBatch(xs, ys)
    for level in (3, 4, 5):  # level 4+ overflows int64 at n=40
        want = sum(
            int(x @ y) ** (1 << level) for x in xs for y in ys
        )
        assert batch.numerator(level) == want


def test_z_numerator_exactness_at_int64_boundary():
    # max |<x,y>| = n = 62: 62^8 * 36 pairs sits close to 2^63
    xs = np.ones((6, 62), dtype=np.int64)
    ys = np.ones((6, 62), dtype=np.int64)
    batch = SampleBatch(xs, ys)
    assert [batch.numerator(3), batch.numerator(4)] == [36 * 62**8, 36 * 62**16]


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
    batch = SampleBatch(xs, ys)
    for k in levels:
        assert batch.numerator(k) / (q * q) == z_statistic_naive(xs, ys, k)


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
    batch = SampleBatch(xs, ys)
    assert batch.gram_histogram == _int64_gram_histogram(xs, ys)
    assert batch.numerator(0) == sum(c * v for v, c in batch.gram_histogram)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300])
def test_gram_histogram_at_word_boundaries(n):
    # one word holds 64 signs; past n = 255 a distance no longer fits uint8
    rng = stream(63, 0, n)
    for q, rank_one in ((1, False), (37, False), (300, False), (37, True)):
        xs, ys = _sign_halves(rng, q, n, rank_one)
        assert SampleBatch(xs, ys).gram_histogram == _int64_gram_histogram(xs, ys)
    # every pair at distance n, the largest count the accumulator must hold
    ones = np.ones((3, n), dtype=np.int8)
    assert SampleBatch(ones, -ones).gram_histogram == ((-n, 9),)
    assert SampleBatch(ones, ones).numerator(1) == 9 * n * n


def test_gram_histogram_in_several_row_blocks(monkeypatch):
    # 7 rows per block over q = 30 leaves a short last block
    monkeypatch.setattr(meantest, "GRAM_BLOCK_CELLS", 7 * 30)
    xs, ys = _sign_halves(stream(64, 0, 0), 30, 70, False)
    assert SampleBatch(xs, ys).gram_histogram == _int64_gram_histogram(xs, ys)


def test_gram_histogram_with_no_coordinates():
    # n = 0: every pair has inner product 0
    empty = np.zeros((4, 0), dtype=np.int8)
    batch = SampleBatch(empty, empty)
    assert batch.gram_histogram == ((0, 16),)
    assert [batch.numerator(k) for k in range(3)] == [0, 0, 0]


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
    batch = SampleBatch(o.sample(100), o.sample(100))
    nums = [batch.numerator(k) for k in range(3)]
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
    num = SampleBatch(x, y).numerator(0)
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
    num = SampleBatch(xs, ys).numerator(0)  # 9 * 3 = 27, Z = 3 exactly
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
# statistic; an exact kernel must reproduce them bit for bit
MEAN_TESTER_PINS = [
    # criterion 3: uniform n = 64 at eps 0.5, planted 0.25 at eps 0.25
    ("uniform", 0.5, (31, 0, 0), "accept", 500,
     [0.032448, 64.549504, 12313.702912, 1681537629.233152]),
    ("uniform", 0.5, (31, 0, 1), "accept", 500,
     [-0.00768, 63.675392, 12176.811008, 1706654331.650048]),
    ("uniform", 0.5, (31, 0, 2), "accept", 500,
     [-0.013632, 63.4528, 11961.41824, 1567533183.01696]),
    ("planted_product:0.25", 0.25, (31, 1, 0), "reject", 2000, [3.961824]),
    ("planted_product:0.25", 0.25, (31, 1, 1), "reject", 2000, [3.915356]),
    ("planted_product:0.25", 0.25, (31, 1, 2), "reject", 2000, [4.130248]),
    # bench/bench.py's mean cells at seeds 1 and 7
    ("uniform", 0.5, (1, 0, 0), "accept", 500,
     [-0.003008, 64.665088, 12439.41376, 1909079461.15072]),
    ("uniform", 0.5, (1, 0, 1), "accept", 500,
     [-0.018304, 63.980928, 12109.306368, 1585571941.490688]),
    ("uniform", 0.5, (1, 0, 2), "accept", 500,
     [-0.00672, 63.76128, 12154.707456, 1617028499.890176]),
    ("planted_product:0.25", 0.25, (1, 1, 0), "reject", 2000, [3.969408]),
    ("planted_product:0.25", 0.25, (1, 1, 1), "reject", 2000, [3.979644]),
    ("planted_product:0.25", 0.25, (1, 1, 2), "reject", 2000, [3.924292]),
    ("uniform", 0.5, (7, 0, 0), "accept", 500,
     [-0.095616, 63.955456, 12179.470336, 1640834233.040896]),
    ("uniform", 0.5, (7, 0, 1), "accept", 500,
     [-0.004288, 64.153472, 12211.821056, 1673011028.074496]),
    ("uniform", 0.5, (7, 0, 2), "accept", 500,
     [-0.036416, 63.732608, 12206.991872, 1642408960.827392]),
    ("planted_product:0.25", 0.25, (7, 1, 0), "reject", 2000, [4.11368]),
    ("planted_product:0.25", 0.25, (7, 1, 1), "reject", 2000, [3.980752]),
    ("planted_product:0.25", 0.25, (7, 1, 2), "reject", 2000, [4.027808]),
]


@pytest.mark.parametrize("dist, eps, key, decision, queries, z_levels", MEAN_TESTER_PINS)
def test_mean_tester_statistic_pins(dist, eps, key, decision, queries, z_levels):
    v = mean_tester(ScondOracle(resolve_target(dist, 64), stream(*key)), MeanTestConfig(eps))
    assert (v.decision.value, v.queries_used, v.trace["z_levels"]) == (decision, queries, z_levels)


@pytest.mark.parametrize(
    "target",
    [
        ProductDistribution.uniform(20),
        ProductDistribution(np.linspace(-0.3, 0.3, 20)),
        ProductDistribution(np.full(6, 0.2)).dense(),
    ],
    ids=["uniform", "biased", "dense"],
)
def test_batched_mean_tests_read_the_stream_of_lone_tests(target):
    # r tests from one draw of 2qr rows give the verdicts, traces and charges
    # of r lone tests run one after another on the same stream
    cfg = MeanTestConfig(0.5, q=40, k0=2)
    batched = ScondOracle(target, stream(57, 0, 0))
    verdicts = meantest._mean_tests(batched, cfg, 5)
    lone = ScondOracle(target, stream(57, 0, 0))
    want = [mean_tester(lone, cfg) for _ in range(5)]
    assert [(v.decision, v.queries_used, v.trace) for v in verdicts] == [
        (v.decision, v.queries_used, v.trace) for v in want
    ]
    assert batched.queries == lone.queries == 5 * 80


def test_batch_numerators_check_the_draw_once():
    # the numerators of a split draw equal those of separate batches, and a
    # draw with one non-sign entry is refused as a whole
    rng = stream(58, 0, 0)
    q, n = 7, 9
    draw = rng.choice((-1, 1), (6 * 2 * q, n))
    for k in (0, 1, 2):
        want = [SampleBatch(d[:q], d[q:]).numerator(k) for d in draw.reshape(6, 2 * q, n)]
        assert meantest._numerators(draw, q, k) == want
    draw = draw.astype(np.float64)
    draw[50, 3] = 0.5
    with pytest.raises(ValueError):
        meantest._numerators(draw, q, 0)


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


def test_gaussian_tester_refuses_zero_width_samples():
    # q = 0 would otherwise reach the trace's division by q^2
    for samples in (np.zeros((144, 0)), np.zeros((10_000, 0))):
        with pytest.raises(ValueError, match="n = 0"):
            gaussian_mean_tester(samples, 0.5)


# ---------------------------------------------------------------------------
# the streamed gaussian tester


class _Lazy:
    """A lazy draw of the given shape that yields the given chunks."""

    def __init__(self, shape, chunks):
        self.shape = shape
        self.parts = chunks
        self.read = 0

    def row_chunks(self):
        for chunk in self.parts:
            self.read += chunk.shape[0]
            yield chunk


def _split(samples, cuts):
    return _Lazy(samples.shape, np.split(samples, cuts))


def _same_verdict(a, b):
    assert a.decision is b.decision
    assert a.queries_used == b.queries_used
    assert a.trace == b.trace
    assert [z.hex() for z in a.trace["z_levels"]] == [z.hex() for z in b.trace["z_levels"]]


@pytest.mark.parametrize("dist", ["standard", "shift:1.0"])
@pytest.mark.parametrize("eps", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("n", [1, 16, 32, 33, 200])
def test_gaussian_stream_matches_array_verdict(n, eps, dist):
    source = resolve_gaussian_source(dist, n)
    need = gaussian_required_samples(n, eps)
    array = source.sample(stream(66, n, 0), need)
    expected = gaussian_mean_tester(array, eps)
    _same_verdict(gaussian_mean_tester(GaussianDraw(source, stream(66, n, 0), need), eps), expected)
    # chunk ends off the q-row block boundaries, an empty chunk, and one
    # chunk that spans several blocks
    q = math.ceil(64 * math.sqrt(n) / eps**2)
    cuts = sorted(c for c in (144, 145, 145, q + 1, 3 * q - 7, 3 * q + 5, need - 1) if c >= 144)
    _same_verdict(gaussian_mean_tester(_split(array, cuts), eps), expected)


def test_gaussian_draw_chunks_are_one_draw():
    for n in (1, 16, 33, 200):
        source = GaussianSource(n, np.linspace(-1.0, 1.0, n))
        chunks = list(GaussianDraw(source, stream(67, n, 0), 5_000).row_chunks())
        assert chunks[0].shape[0] >= 144
        assert all(c.nbytes <= max(GAUSS_CHUNK_BYTES, 144 * 8 * n) for c in chunks)
        assert np.array_equal(np.concatenate(chunks), source.sample(stream(67, n, 0), 5_000))
    draw = GaussianDraw(GaussianSource(4), stream(67, 0, 1), 300)
    assert draw.shape == (300, 4)
    list(draw.row_chunks())
    with pytest.raises(RuntimeError):
        list(draw.row_chunks())


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
    _same_verdict(gaussian_mean_tester(_ArrayLike(samples), eps), expected)
    _same_verdict(gaussian_mean_tester(samples.tolist(), eps), expected)


def test_gaussian_stream_stops_at_the_budget_and_the_screen():
    n, eps = 16, 0.5
    need = gaussian_required_samples(n, eps)
    samples = stream(68, 0, 0).standard_normal((need + 500, n))
    lazy = _split(samples, [300, need, need + 200])
    v = gaussian_mean_tester(lazy, eps)
    assert lazy.read == need and v.queries_used == need
    _same_verdict(v, gaussian_mean_tester(samples, eps))
    # a screen reject reads only the first chunk and is charged the budget
    samples[:, 0] *= 2.0
    lazy = _split(samples, [300])
    v = gaussian_mean_tester(lazy, eps)
    assert v.trace["stage"] == "screen" and v.queries_used == need
    assert lazy.read == 300


def test_gaussian_stream_checks_every_chunk():
    n, eps = 32, 0.5
    need = gaussian_required_samples(n, eps)
    base = stream(69, 0, 0).standard_normal((need, n))
    # the screen reads its 144 rows from the first chunk
    with pytest.raises(ValueError, match="144"):
        gaussian_mean_tester(_split(base, [143]), eps)
    # a NaN in a later chunk, a chunk of the wrong width, and a draw that
    # yields fewer rows than its shape
    bad = base.copy()
    bad[need - 3, 5] = math.nan
    with pytest.raises(ValueError, match="finite"):
        gaussian_mean_tester(_split(bad, [1000, 2000]), eps)
    with pytest.raises(ValueError, match="width"):
        gaussian_mean_tester(_Lazy(base.shape, [base[:1000], base[1000:, :-1]]), eps)
    with pytest.raises(ValueError, match="yielded"):
        gaussian_mean_tester(_Lazy(base.shape, np.split(base[: need - 10], [500])), eps)


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
    assert max(peaks) < 4 * GAUSS_CHUNK_BYTES


# ---------------------------------------------------------------------------
# input checks


def test_gaussian_mean_tester_refuses_three_d_samples():
    with pytest.raises(ValueError, match="2-D"):
        gaussian_mean_tester(np.zeros((2, 2, 2)), 0.5)
