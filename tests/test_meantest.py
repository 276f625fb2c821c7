"""Mean tester: exact pairing statistic, threshold schedule, preset sample
sizes, the full test loop, and the gaussian reduction."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester.blowup import BLOWUP_DIM_CAP, blowup_dim, z_statistic_naive
from hypercube_tester.meantest import (
    GAUSS_REPS,
    MeanTestConfig,
    SampleBatch,
    TauSchedule,
    _z_float,
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
from hypercube_tester.zoo import TwoPointDistribution

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
    assert SampleBatch(np.array([[1.0, -1.0]]), np.array([[1, 1]])).xs.dtype == np.int8


def test_z_numerator_small_exact():
    xs = np.array([[1, 1], [1, -1]])
    ys = np.array([[1, 1], [-1, 1]])
    # inner products: [2, 0], [0, -2]
    assert SampleBatch(xs, ys).numerators(2) == [0, 8, 32]


def test_z_numerator_bigint_path_matches_python():
    rng = stream(51, 0, 0)
    n, q = 40, 6
    xs = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    ys = (2 * rng.integers(0, 2, (q, n)) - 1).astype(np.int64)
    nums = SampleBatch(xs, ys).numerators(5)
    for level in (3, 4, 5):  # level 4+ overflows int64 at n=40
        want = sum(
            int(x @ y) ** (1 << level) for x in xs for y in ys
        )
        assert nums[level] == want


def test_z_numerator_exactness_at_int64_boundary():
    # max |<x,y>| = n = 62: 62^8 * 36 pairs sits close to 2^63
    xs = np.ones((6, 62), dtype=np.int64)
    ys = np.ones((6, 62), dtype=np.int64)
    assert SampleBatch(xs, ys).numerators(4)[3:] == [36 * 62**8, 36 * 62**16]


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
    rng = np.random.default_rng(seed)
    if rank_one:
        v = rng.choice((-1, 1), n)
        xs = rng.choice((-1, 1), (q, 1)) * v
        ys = rng.choice((-1, 1), (q, 1)) * v
    else:
        xs = rng.choice((-1, 1), (q, n))
        ys = rng.choice((-1, 1), (q, n))
    levels = [
        k for k in range(4) if k == 0 or blowup_dim(n, k) <= BLOWUP_DIM_CAP
    ]
    nums = SampleBatch(xs, ys).numerators(levels[-1])
    for k in levels:
        assert nums[k] / (q * q) == z_statistic_naive(xs, ys, k)


def test_z_statistic_is_numerator_over_q_squared():
    # the trace's z_levels come from the same 2q samples a fresh oracle
    # on the same stream redraws
    target = ProductDistribution.uniform(8)
    v = mean_tester(ScondOracle(target, stream(52, 0, 0)), MeanTestConfig(1.0, q=100, k0=2))
    o = ScondOracle(target, stream(52, 0, 0))
    nums = SampleBatch(o.sample(100), o.sample(100)).numerators(2)
    assert len(v.trace["z_levels"]) == 3
    for z, num in zip(v.trace["z_levels"], nums):
        assert z == pytest.approx(num / 100**2, rel=1e-15)
    # past the float range the trace value saturates instead of raising
    assert _z_float(10**400, 1) == math.inf
    assert _z_float(-(10**400), 1) == -math.inf


def test_threshold_equality_accepts():
    sched = TauSchedule(0.5, 32, 1, 0)
    assert sched.tau(0) == 4.0
    # one pair with <x,y> = 4 in n=32: Z_0 = 4 exactly
    x = np.ones((1, 32), dtype=np.int8)
    y = x.copy()
    y[0, :14] = -1
    (num,) = SampleBatch(x, y).numerators(0)
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
    assert sched.tau(0) == 3.0
    xs = np.ones((3, 3), dtype=np.int8)
    ys = np.ones((3, 3), dtype=np.int8)
    (num,) = SampleBatch(xs, ys).numerators(0)  # 9 * 3 = 27, Z = 3 exactly
    assert num == 27
    assert not sched.exceeded(0, num)
    assert sched.exceeded(0, num + 1)
    # q = 3^20: an excess of 3^-40 rounds away in float but must reject
    q = 3**20
    wide = TauSchedule(1.0, 6, q, 0)
    assert float(Fraction(3 * q * q + 1, q * q)) == 3.0
    assert not wide.exceeded(0, 3 * q * q)
    assert wide.exceeded(0, 3 * q * q + 1)


def _int_with_log2(lg: float) -> int:
    shift = int(lg) - 60
    return int(2.0 ** (lg - shift)) << shift


def test_exceeds_log2_matches_float_compare():
    sched = TauSchedule(0.5, 64, 250, 8)
    assert math.isinf(sched.tau(8))
    z_log2 = sched.tau_log2(8) + 2.0 * math.log2(250)  # log2 of num at Z = tau
    assert sched.exceeded(8, _int_with_log2(z_log2 + 0.01))
    assert not sched.exceeded(8, _int_with_log2(z_log2 - 0.01))
    # non-positive numerators never exceed a huge threshold
    assert not sched.exceeded(8, 0)
    assert not sched.exceeded(8, -_int_with_log2(z_log2 + 0.01))


# ---------------------------------------------------------------------------
# the schedule


def test_tau_schedule_frozen_values():
    s = TauSchedule(0.5, 64, 250, 3)
    assert s.tau(0) == pytest.approx(8.0, rel=1e-12)
    assert s.tau(1) == pytest.approx(800.0, rel=1e-12)
    assert s.tau(2) == pytest.approx(8.0e6, rel=1e-12)
    assert s.tau(3) == pytest.approx(8.0e14, rel=1e-12)


def test_tau_first_level_dominates_twelve_n():
    # the level-1 threshold clears 12n at the criterion operating point
    s = TauSchedule(0.5, 64, 250, 1)
    assert s.tau(1) >= 12 * 64


@settings(max_examples=60)
@given(
    st.floats(0.05, 1.0),
    st.integers(2, 512),
    st.integers(2, 10_000),
    st.integers(0, 6),
)
def test_tau_recursion_matches_closed_form(eps, n, q, k0):
    s = TauSchedule(eps, n, q, k0)
    for k in range(k0 + 1):
        got = s.tau_log2(k)
        want = s.closed_form_log2(k)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_tau_recursion_step():
    s = TauSchedule(0.3, 32, 100, 4)
    a = 1.0 / 5000.0
    for k in range(1, 5):
        assert s.tau_log2(k) == pytest.approx(
            math.log2(a) + 2 * math.log2(100) + 2 * s.tau_log2(k - 1), rel=1e-12
        )


def test_tau_overflow_reports_inf():
    s = TauSchedule(1.0, 4, 10**6, 6)
    assert math.isinf(s.tau(6))
    assert s.tau_log2(6) > math.log2(1e300)
    assert not math.isinf(s.tau(0))


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


# ---------------------------------------------------------------------------
# the tester


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
    # still accept through the log-space comparison
    sched = TauSchedule(1.0, 4, 2000, 7)
    assert math.isinf(sched.tau(7)) and not math.isinf(sched.tau(6))
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


def test_gaussian_tester_majority_and_requirements():
    n, eps = 8, 0.5
    need = gaussian_required_samples(n, eps)
    assert need >= 144
    assert need >= GAUSS_REPS * 2 * math.ceil(64 * math.sqrt(n) / eps**2)
    with pytest.raises(ValueError):
        gaussian_mean_tester(np.zeros((need - 1, n)), eps)
    with pytest.raises(ValueError):
        gaussian_mean_tester(np.zeros((need, n)), 0.0)
