"""Uniformity testing: edge tester mechanics, base-case dispatch, the
recursive structure, majority voting, and error propagation."""

import bisect
import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypercube_tester import uniformity
from hypercube_tester.cli import UsageError, build_parser
from hypercube_tester.harness import ExperimentSpec, resolve_target
from hypercube_tester.meantest import Q_RULES
from hypercube_tester.model import DensePmf, Decision, ProductDistribution, Restriction
from hypercube_tester.model import TestVerdict as Verdict  # not a test class
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.uniformity import (
    EDGE_BLOCK_BYTES,
    PRESETS,
    EdgeConfig,
    SubCondConfig,
    edge_null_accept,
    edge_tester,
    majority_vote_law,
    subcond_uni,
    trace_query_sum,
)
from hypercube_tester.zoo import NoisyParityDistribution, TwoPointDistribution


def biased_edge_pmf(n: int, atom_index: int = 0, coord: int = 0) -> DensePmf:
    """Mass 2/2^n on one point, 0 on its coord-neighbor, uniform elsewhere."""
    mass = np.full(1 << n, 2.0**-n)
    partner = atom_index ^ (1 << (n - 1 - coord))
    mass[atom_index] = 2.0 ** (1 - n)
    mass[partner] = 0.0
    return DensePmf(n, mass)


# a configuration that forces the general (recursive) case at n=64, eps=0.5:
# sigma becomes 1/2, every loop is shrunk to unit-test size, and the edge
# tester run by depth-1 children keeps its 5-standard-error thresholds
REC_CFG = SubCondConfig(
    c0=2.0 / 625.0,
    l_formula=lambda n, eps: 4,
    r_factor=0.3,
    t_override=3,
    mean_q_override=200,
    mean_k0_override=0,
    edge=EdgeConfig(c_h=0.5, c1=0.25, c2=0.05, c3=22.4, c_beta=1.0),
)


# ---------------------------------------------------------------------------
# configuration arithmetic


def test_sigma_frozen_values():
    cfg = SubCondConfig()
    assert cfg.sigma(0.5) == pytest.approx(1.0 / 1250.0, rel=1e-12)
    assert cfg.sigma(0.25) == pytest.approx(1.0 / 2592.0, rel=1e-12)
    assert cfg.sigma(1.0) == pytest.approx(1.0 / 512.0, rel=1e-12)


def test_big_l_and_reps_frozen_values():
    cfg = SubCondConfig()
    assert cfg.big_l(64, 0.5) == 3136  # ceil(4 * 16 * 49)
    assert cfg.r_reps(64, 0.5) == 21  # odd(ceil(3 * 7))
    assert cfg.t_reps(0.5) == 15  # capped, already odd
    assert cfg.t_reps(1.0) == 15
    assert replace(cfg, t_override=4).t_reps(0.5) == 5  # forced odd
    assert replace(cfg, t_override=None).t_reps(0.5) == 501  # odd(100 * 5)


def test_paper_preset_is_marked():
    cfg = PRESETS["paper"]
    assert cfg.mean_preset == "paper"
    assert cfg.edge.c2 == 400 and cfg.edge.c3 == 0.25
    # both presets put the firing threshold at five standard errors
    prac = PRESETS["practical"].edge
    assert prac.c3 * math.sqrt(prac.c2) == pytest.approx(5.0)
    assert cfg.edge.c3 * math.sqrt(cfg.edge.c2) == pytest.approx(5.0)


def test_preset_tables_agree():
    assert list(PRESETS) == list(Q_RULES)
    assert all(cfg.mean_preset in Q_RULES for cfg in PRESETS.values())
    assert PRESETS["practical"] == SubCondConfig()
    # the CLI and the spec accept exactly the names in the table
    parser = build_parser()
    spec = {"tester": "subconduni", "distribution": "uniform", "n": [4], "eps": [0.5]}
    for name in (*PRESETS, "fast"):
        argvs = [
            [command, "--dist", "uniform", "--eps", "0.5", "--n", "4", "--preset", name]
            for command in ("meantest", "subconduni")
        ]
        if name in PRESETS:
            assert [parser.parse_args(argv).preset for argv in argvs] == [name, name]
            assert ExperimentSpec(**spec, preset=name).preset == name
            continue
        for argv in argvs:
            with pytest.raises(UsageError):
                parser.parse_args(argv)
        with pytest.raises(ValueError):
            ExperimentSpec(**spec, preset=name)
    # the practical recursion count of 15 is below the paper formula at
    # every eps in (0, 1], whose smallest value is odd(100 * 4)
    for eps in np.linspace(1e-3, 1.0, 200):
        assert PRESETS["practical"].t_reps(eps) == 15
        paper_t = 100 * math.ceil(math.log2(16.0 / eps))
        assert PRESETS["paper"].t_reps(eps) == paper_t + 1 - paper_t % 2


def test_base_case_frozen_examples():
    cfg = SubCondConfig()
    assert cfg.sigma(0.5) == pytest.approx(1.0 / 1250.0, rel=1e-12)
    assert REC_CFG.sigma(0.5) == pytest.approx(0.5)
    assert cfg.base_case(64, 0.5)  # practical desk scale
    assert not REC_CFG.base_case(64, 0.5)  # forced recursion config
    assert cfg.base_case(16, 0.5)


def test_theta_sqrt_b_identity():
    # theta_h sqrt(b_h) >= c3 sqrt(c2) at every level of every calibration
    for cfg in (EdgeConfig(), EdgeConfig(c_h=0.5, c1=0.25, c2=0.05, c3=22.4)):
        for n in (8, 16, 64):
            for eps in (0.5, 0.25):
                levels = cfg.levels(n, eps)
                assert [lv.h for lv in levels] == list(range(len(levels)))
                for lv in levels:
                    assert lv.theta * math.sqrt(lv.b) >= cfg.c3 * math.sqrt(cfg.c2) - 1e-9


def test_edge_levels_memo_matches_fresh_schedule():
    fresh = EdgeConfig.levels.__wrapped__
    for cfg in (PRESETS["practical"].edge, PRESETS["paper"].edge, REC_CFG.edge):
        for n in (8, 16, 33, 64, 128):
            for eps in (0.5, 0.25, 0.125):
                got = cfg.levels(n, eps)
                assert got == fresh(cfg, n, eps)
                assert cfg.levels(n, eps) is got
                assert all(type(lv) is uniformity.EdgeLevel for lv in got)
    # equal configs share entries; a different constant is a different key
    assert EdgeConfig().levels(64, 0.5) is EdgeConfig().levels(64, 0.5)
    assert EdgeConfig(c3=2.0).levels(64, 0.5) != EdgeConfig().levels(64, 0.5)


def test_edge_count_threshold_is_the_float_test():
    # c is where the tester's float estimate |2x - b| / b first passes theta,
    # on every level of the three edge configs over n = 1..64, 96, 128, 256,
    # ..., 4096 and eps = 1, 1/2, ..., 1/16
    ns = [*range(1, 65), 96, *(1 << k for k in range(7, 13))]
    levels = [
        lv
        for cfg in (PRESETS["practical"].edge, PRESETS["paper"].edge, REC_CFG.edge)
        for n in ns
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625)
        for lv in cfg.levels(n, eps)
    ]
    assert len(levels) == 11_736
    for lv in levels:
        b, theta, c = lv.b, lv.theta, lv.c
        assert b < 2**53 and 1 <= c <= b + 1
        assert not (c - 1) / b > theta
        if c <= b:
            assert c / b > theta
        if b <= 200_000:
            # the tester's own expression at every count
            x = np.arange(b + 1)
            assert np.array_equal(np.abs((2.0 * x - b) / b) > theta, np.abs(2 * x - b) >= c)
    # the levels where no count can fire: 247 under REC_CFG's c3 = 22.4, and
    # 6 practical ones with theta = 1 exactly
    assert sum(lv.c == lv.b + 1 for lv in levels) == 253


def test_edge_levels_memo_raises_every_call_and_is_bounded():
    empty = EdgeConfig(c_beta=4.0)  # the bucket floor is above 2^0 at n = 2
    for _ in range(3):
        with pytest.raises(ValueError, match="no edge level"):
            empty.levels(2, 1.0)
    limit = EdgeConfig.levels.cache_info().maxsize
    assert limit is not None
    for k in range(limit + 10):
        EdgeConfig(c1=1.0 + k).levels(16, 0.5)
    assert EdgeConfig.levels.cache_info().currsize <= limit


def test_edge_config_rejects_constants_that_would_accept_unqueried():
    # each of these once gave ACCEPT with 0 queries on a far target
    for bad in ({"c1": 0.0}, {"c_h": -1.0}, {"c2": 0.0}, {"c3": -0.5}, {"c_beta": 0.0}):
        with pytest.raises(ValueError):
            EdgeConfig(**bad)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            EdgeConfig(c2=value)
    # a positive c_beta can still push the bucket floor above level 0
    cfg = EdgeConfig(c_beta=4.0)
    with pytest.raises(ValueError):
        cfg.levels(2, 1.0)
    o = ScondOracle(TwoPointDistribution(np.ones(2, dtype=np.int8)), stream(75, 1, 0))
    with pytest.raises(ValueError):
        edge_tester(o, 1.0, cfg)
    assert o.queries == 0
    assert len(cfg.levels(64, 1.0)) == 10  # the floor 1/576 stops it after h = 9


def test_subcond_config_rejects_constants_that_would_decide_blindly():
    # t_override=-1 ran no recursion and rejected the uniform target at n=64
    # on 2*0 > -1; c0=nan gave sigma 1.0 and c0=-1 a negative sigma
    for bad in (
        {"t_override": -1},
        {"t_override": 0},
        {"t_override": 2.5},
        {"c0": math.nan},
        {"c0": -1.0},
        {"c_l": 0.0},
        {"r_factor": math.inf},
        # the mean fields once went unchecked until a mean loop ran: at
        # n = 16 every node is a base case and each of these accepted
        {"mean_preset": "bogus"},
        {"mean_q_override": 0},
        {"mean_q_override": 2.5},
        {"mean_k0_override": -1},
        {"max_depth": 2.5},
    ):
        with pytest.raises(ValueError):
            replace(REC_CFG, **bad)
    assert replace(REC_CFG, t_override=1.0).t_reps(0.5) == 1
    assert replace(REC_CFG, t_override=None).t_reps(0.5) == 501
    for cfg in (*PRESETS.values(), REC_CFG):
        assert replace(cfg) == cfg


# ---------------------------------------------------------------------------
# edge tester


def test_edge_tester_level_structure_and_ledger():
    o = ScondOracle(ProductDistribution.uniform(16), stream(71, 0, 0))
    v = edge_tester(o, 0.5)
    assert v.decision is Decision.ACCEPT
    levels = v.trace["levels"]
    assert [lv["h"] for lv in levels] == list(range(11))  # bucket floor at h=10
    assert [[lv[k] for k in ("h", "m", "b", "theta")] for lv in levels] == [
        [lv.h, lv.m, lv.b, lv.theta] for lv in EdgeConfig().levels(16, 0.5)
    ]
    assert levels[0]["m"] == 10 and levels[0]["b"] == 40_000
    assert levels[0]["theta"] == pytest.approx(0.025)
    # accepted run: ledger equals sum of m_h samples + m_h * b_h draws
    want = sum(lv["m"] * (1 + lv["b"]) for lv in levels)
    assert v.queries_used == want
    assert o.queries == want
    # the same count at larger n, pinned: a change to how the target draws
    # may move verdicts, never the cost of an accepted run
    for n, planned in ((64, 61_841_906), (128, 197_132_272)):
        o = ScondOracle(ProductDistribution.uniform(n), stream(71, 0, 0))
        v = edge_tester(o, 0.5)
        assert v.decision is Decision.ACCEPT
        assert sum(lv["m"] * (1 + lv["b"]) for lv in v.trace["levels"]) == planned
        assert sum(lv.m * (1 + lv.b) for lv in EdgeConfig().levels(n, 0.5)) == planned
        assert v.queries_used == o.queries == planned


def test_edge_tester_accepts_uniform():
    accepts = 0
    for t in range(10):
        o = ScondOracle(ProductDistribution.uniform(16), stream(72, 0, t))
        accepts += edge_tester(o, 0.5).decision is Decision.ACCEPT
    assert accepts >= 9


def test_edge_tester_rejects_biased_edge():
    for t in range(10):
        o = ScondOracle(biased_edge_pmf(8), stream(73, 0, t))
        v = edge_tester(o, 0.25)
        assert v.decision is Decision.REJECT
        assert v.trace["fired"] is not None
        assert abs(v.trace["fired"]["est"]) > v.trace["levels"][-1]["theta"]


def test_edge_tester_rejects_two_point_instantly():
    o = ScondOracle(TwoPointDistribution(np.ones(64, dtype=np.int8)), stream(74, 0, 0))
    v = edge_tester(o, 0.25)
    assert v.decision is Decision.REJECT
    assert v.trace["fired"]["h"] == 0
    assert abs(v.trace["fired"]["est"]) == pytest.approx(1.0, abs=0.01)


# noisy_parity:2:0.3 at n = 128, eps 0.5 on stream(1, 1, t): fired (h, coord,
# est) and queries_used. Every one fires at a level of at most 64 pairs, which
# is drawn as one block, so the block size must not move these verdicts.
FAR_EDGE_VERDICTS_N128 = [
    (2, 1, -0.402197265625, 39_321_712),
    (1, 1, 0.3995703125, 26_214_448),
    (0, 0, 0.4014697265625, 13_107_216),
    (1, 1, -0.399833984375, 26_214_448),
    (0, 1, -0.40029296875, 13_107_216),
    (0, 1, 0.40043212890625, 13_107_216),
    (0, 0, -0.40095947265625, 13_107_216),
    (0, 0, 0.39927734375, 13_107_216),
]


def test_edge_tester_far_verdicts_pinned():
    target = resolve_target("noisy_parity:2:0.3", 128)
    for t, (h, coord, est, queries) in enumerate(FAR_EDGE_VERDICTS_N128):
        v = edge_tester(ScondOracle(target, stream(1, 1, t)), 0.5)
        assert v.decision is Decision.REJECT
        fired = v.trace["fired"]
        got = (fired["h"], fired["coord"], fired["est"], v.queries_used)
        assert got == (h, coord, est, queries)


def assert_block_ledger(v, block):
    """A rejecting run spends every earlier level whole, then the fired
    level's blocks up to and including the one that holds the firing pair."""
    assert v.decision is Decision.REJECT
    assert_block_charge(v.trace, v.queries_used, block)


def assert_block_charge(trace, queries, block):
    """The charge of an edge trace that fired, for blocks of block pairs."""
    levels, fired = trace["levels"], trace["fired"]
    last = levels[-1]
    assert last["h"] == fired["h"] and 0 <= fired["pair"] < last["m"]
    earlier = sum(lv["m"] * (1 + lv["b"]) for lv in levels[:-1])
    before = fired["pair"] // block * block  # pairs in the blocks before the firing one
    assert queries <= earlier + (before + block) * (1 + last["b"])
    assert queries == earlier + min(last["m"], before + block) * (1 + last["b"])


def test_edge_tester_block_overshoot(monkeypatch):
    # the default block at n = 128 holds 4,096 pairs; this uniform null is a
    # false reject at level 13 (131,072 pairs), inside its twentieth block
    # (the first of stream(1, 0, t) to fire past the second block there)
    block = EDGE_BLOCK_BYTES // 128
    assert block == 4096
    o = ScondOracle(ProductDistribution.uniform(128), stream(1, 0, 12))
    v = edge_tester(o, 0.5)
    assert v.trace["fired"]["h"] == 13 and v.trace["fired"]["pair"] > 2 * block
    assert_block_ledger(v, block)
    assert o.queries == v.queries_used
    # 3-pair blocks: levels of 10 to 160 pairs take several blocks each
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", 3 * 8)
    deep = 0
    for t in range(6):
        v = edge_tester(ScondOracle(biased_edge_pmf(8), stream(73, 0, t)), 0.25)
        assert_block_ledger(v, 3)
        deep += v.trace["fired"]["pair"] >= 3
    assert deep >= 3
    # a view's block is sized by the root dimension its points expand to:
    # 48 bytes make 4-pair blocks at the root's n = 12, not 6 at the view's 8
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", 48)
    rho = Restriction(np.array([-1, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1]))
    for t in range(6):
        view = ScondOracle(biased_edge_pmf(12), stream(73, 1, t)).restricted(rho)
        assert_block_ledger(edge_tester(view, 0.25), 4)


# (decision, queries_used, fired as (h, pair, coord, est), largest level
# max_est) at n = 64, eps 0.5 on stream(16, 0, t), recorded before edge
# blocks became one oracle call: the same stream must give the same verdicts.
# The uniform rows were recorded again when fair levels came to be drawn
# from their exact law, which reads other stream words
EDGE_VERDICTS_N64 = {
    "uniform": [
        ("accept", 61_841_906, None, 0.6923076923076923),
        ("accept", 61_841_906, None, 0.7435897435897436),
        ("accept", 61_841_906, None, 0.7435897435897436),
    ],
    "noisy_parity:2:0.3": [
        ("reject", 17_561_810, (3, 15, 1, 0.4051530612244898), 0.40933673469387755),
        ("reject", 8_780_842, (1, 10, 1, -0.39743622448979593), 0.39743622448979593),
        ("reject", 8_780_842, (1, 0, 0, -0.39790816326530615), 0.40006377551020406),
    ],
}


def _fired(trace):
    f = trace["fired"]
    return None if f is None else (f["h"], f["pair"], f["coord"], f["est"])


@pytest.mark.parametrize("dist", sorted(EDGE_VERDICTS_N64))
def test_edge_tester_stream_pinned(dist):
    target = resolve_target(dist, 64)
    for t, want in enumerate(EDGE_VERDICTS_N64[dist]):
        v = edge_tester(ScondOracle(target, stream(16, 0, t)), 0.5)
        top = max(lv["max_est"] for lv in v.trace["levels"])
        assert (v.decision.value, v.queries_used, _fired(v.trace), top) == want


def test_edge_tester_validates_eps():
    o = ScondOracle(ProductDistribution.uniform(4), stream(75, 0, 0))
    with pytest.raises(ValueError):
        edge_tester(o, 0.0)
    with pytest.raises(ValueError):
        edge_tester(o, 1.5)
    # the schedule refuses what the tester refuses, so the exact law does too:
    # it once returned 0.9973 at eps 1.5 and raised ZeroDivisionError or a
    # math domain error at eps 0 and n = 0
    for n, eps in ((64, 1.5), (64, 0.0), (64, -0.5), (64, math.nan), (0, 0.5), (-1, 0.5)):
        for call in (EdgeConfig().levels, edge_null_accept):
            with pytest.raises(ValueError):
                call(n, eps)
    # a 0-dimensional cube once raised ZeroDivisionError sizing a block
    o = ScondOracle(DensePmf.uniform(0), stream(75, 0, 0))
    for tester in (edge_tester, subcond_uni):
        with pytest.raises(ValueError):
            tester(o, 0.5)
    assert o.queries == 0


# ---------------------------------------------------------------------------
# fair levels: on a target with fair_edges (the uniform product) each level
# is drawn from the exact law of its counts, with no edge block


def _peak_bytes(call):
    call()  # warm caches, such as the restriction's stars and the fair laws
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uniform_edge_levels_build_no_point_matrix():
    # one 4,096-pair block at n = 128: its int8 points alone take 512 KiB
    limit = 256 << 10
    uniform = ProductDistribution.uniform(128)
    assert _peak_bytes(lambda: edge_tester(ScondOracle(uniform, stream(39, 0, 0)), 0.5)) < limit
    # a block still builds its points, the uniform product's too, so a silent
    # fall back to blocks on the uniform product would fail above
    for target in (uniform, NoisyParityDistribution(128, [0, 1], 0.3)):
        oracle = ScondOracle(target, stream(39, 0, 0))
        assert _peak_bytes(lambda: oracle.edge_block(4096, 50)) > limit


@pytest.mark.parametrize("b", [1, 2, 10, 29, 80, 231])
def test_fair_law_tables_are_the_folded_binomial(b):
    # Y = |2X - b| for X ~ Binomial(b, 1/2), in exact fractions, against the
    # tables of every count threshold c = 1..b + 1; a table may stop early
    # only where the exact mass left above it is below 1e-15, so a survival
    # share is exact to that mass, 2^-60 of the conditional law at most
    mass = {}
    for x in range(b + 1):
        y = abs(2 * x - b)
        mass[y] = mass.get(y, 0) + Fraction(math.comb(b, x), 2**b)
    values = sorted(mass)
    for c in range(1, b + 2):
        law = uniformity._fair_law(b, c)
        body = [y for y in values if y < c]
        tail = [y for y in values if y >= c]
        fire = sum(mass[y] for y in tail)
        assert math.exp(law.log_miss) == pytest.approx(float(1 - fire), rel=1e-12, abs=1e-300)
        assert len(law.below) <= len(body) and len(law.above) == len(law.log_cdf)
        for j, y in enumerate(body[: len(law.below)]):
            upto = sum(mass[v] for v in body if v <= y) / (1 - fire)
            assert math.exp(law.below[j]) == pytest.approx(float(upto), rel=1e-12)
        assert sum(mass[v] for v in body[len(law.below) :]) < 1e-15
        if not fire:
            assert law.above == ()
            continue
        assert law.first == tail[0] and len(law.above) <= len(tail)
        for j, y in enumerate(tail[: len(law.above)]):
            past = sum(mass[v] for v in tail if v > y)
            assert -law.above[j] == pytest.approx(float(past / fire), rel=1e-12, abs=2.0**-60)
            assert math.exp(law.log_cdf[j]) == pytest.approx(float(1 - past), rel=1e-12)
        assert sum(mass[v] for v in tail[len(law.above) :]) < 1e-15 * fire


@pytest.mark.parametrize("n", [256, 1024])
def test_fair_edge_accept_rate_matches_exact_law(n):
    # the default schedule at eps 0.5: 15 levels and 0.689 exact accept at
    # n = 256, 17 levels and 0.039 at n = 1024
    want = edge_null_accept(n, 0.5)
    planned = sum(lv.m * (1 + lv.b) for lv in EdgeConfig().levels(n, 0.5))
    target = ProductDistribution.uniform(n)
    runs, accepts = 2000, 0
    for t in range(runs):
        o = ScondOracle(target, stream(24, n, t))
        v = edge_tester(o, 0.5)
        assert v.queries_used == o.queries
        if v.decision is Decision.ACCEPT:
            accepts += 1
            assert v.queries_used == planned
        else:
            assert_block_ledger(v, EDGE_BLOCK_BYTES // n)
    assert abs(accepts / runs - want) <= 3 * math.sqrt(want * (1 - want) / runs)


def test_fair_accepted_null_at_n4096_spends_its_plan():
    # the default schedule at n = 4096, eps 0.5 plans 3.98e10 queries for an
    # accepted null, which its 5-standard-error thresholds reach with
    # probability 4.6e-8; 7.5 standard errors keep every level and its
    # counts and accept with probability 0.9999994
    cfg = EdgeConfig(c3=1.5)
    assert [(lv.m, lv.b) for lv in cfg.levels(4096, 0.5)] == [
        (lv.m, lv.b) for lv in EdgeConfig().levels(4096, 0.5)
    ]
    planned = sum(lv.m * (1 + lv.b) for lv in cfg.levels(4096, 0.5))
    assert planned == 39_809_482_726
    o = ScondOracle(ProductDistribution.uniform(4096), stream(25, 0, 0))
    v = edge_tester(o, 0.5, cfg)
    assert v.decision is Decision.ACCEPT
    assert v.queries_used == o.queries == planned


def _reference_edge_run(rng, n, eps, cfg, block):
    """The edge tester's rule on the uniform n-cube with every pair drawn:
    per block of at most block pairs, rng.integers coordinates and one
    rng.binomial(b, 0.5) count per pair. Returns (queries, fired as
    (h, pair, coord, est) or None, each level's max_est)."""
    queries, tops = 0, []
    for lv in cfg.levels(n, eps):
        top = 0
        for done in range(0, lv.m, block):
            size = min(block, lv.m - done)
            coords = rng.integers(0, n, size)
            counts = rng.binomial(lv.b, 0.5, size)
            queries += size * (1 + lv.b)
            dev = np.abs(2 * counts - lv.b)
            top = max(top, int(dev.max()))
            hits = np.flatnonzero(dev >= lv.c)
            if hits.size:
                i = int(hits[0])
                tops.append(top / lv.b)
                est = (2.0 * int(counts[i]) - lv.b) / lv.b
                return queries, (lv.h, done + i, int(coords[i]), est), tops
        tops.append(top / lv.b)
    return queries, None, tops


def _two_sample_p(left, right):
    """Chi-square test that two lists of outcomes come from one law, with the
    outcomes seen fewer than 10 times in both lists pooled into one cell:
    its p-value by the Wilson-Hilferty approximation."""
    ours, theirs = Counter(left), Counter(right)
    rare = {k for k in ours | theirs if ours[k] + theirs[k] < 10}
    cells = [(ours[k], theirs[k]) for k in ours | theirs if k not in rare]
    if rare:
        cells.append((sum(ours[k] for k in rare), sum(theirs[k] for k in rare)))
    df = len(cells) - 1
    if df < 1:
        return 1.0
    share = len(left) / (len(left) + len(right))
    stat = 0.0
    for a, b in cells:
        for observed, expected in ((a, (a + b) * share), (b, (a + b) * (1 - share))):
            stat += (observed - expected) ** 2 / expected
    c = 2.0 / (9.0 * df)
    z = ((stat / df) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _run_outcomes(runs, levels):
    """The compared outcomes of (queries, fired, max_est per level) runs."""
    fired = [(f, tops[f[0]]) for _, f, tops in runs if f is not None]
    out = {
        "charge": [q for q, _, _ in runs],
        "fired level": [None if f is None else f[0] for _, f, _ in runs],
        "fired est": [(f[0], f[3]) for f, _ in fired],
        "fired coord": [f[2] for f, _ in fired],
        # whether a later pair of the firing pair's block went further
        "passed in its block": [(f[0], top > abs(f[3])) for f, top in fired],
    }
    for h in range(levels):
        out[f"pair at {h}"] = [f[1] for f, _ in fired if f[0] == h]
        out[f"max_est at {h}"] = [tops[h] for _, _, tops in runs if len(tops) > h]
    return out


@pytest.mark.parametrize("n", [16, 32])
def test_fair_levels_match_drawn_pairs(monkeypatch, n):
    # HALF_EDGE at eps 0.5 has four levels of 3 to 24 pairs (b = 80 to 10 at
    # n = 16, 231 to 29 at n = 32, both parities of b), and accepts with
    # probability 0.50 and 0.34; blocks of 4 pairs split every level but the
    # first, so the charge of a rejecting run depends on its pair. The fair
    # route's runs are compared, outcome by outcome, with runs of
    # _reference_edge_run, 5,000 a side, each at the 1e-4 level. Power: an
    # outcome of two cells whose share moves from p to p +- d is found with
    # probability 0.9 once d >= 0.103 sqrt(p (1 - p)), such as 0.50 -> 0.55
    # in the accept rate; more cells need a larger move
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", 4 * n)
    target = ProductDistribution.uniform(n)
    fair, drawn = [], []
    for t in range(5000):
        o = ScondOracle(target, stream(26, n, t))
        v = edge_tester(o, 0.5, HALF_EDGE)
        tops = [lv["max_est"] for lv in v.trace["levels"]]
        fair.append((v.queries_used, _fired(v.trace), tops))
        drawn.append(_reference_edge_run(stream(27, n, t), n, 0.5, HALF_EDGE, 4))
    levels = len(HALF_EDGE.levels(n, 0.5))
    ours, theirs = _run_outcomes(fair, levels), _run_outcomes(drawn, levels)
    p_values = {name: _two_sample_p(ours[name], theirs[name]) for name in ours}
    assert min(p_values.values()) >= 1e-4, p_values


def _per_level_fair_run(rng, n, eps, cfg, block):
    """The fair run read one level at a time, one rng.random(2) each: u says
    whether the level fires and gives its first firing pair, v the largest
    |2p - b| of a level that does not. Returns (queries, (h, pair) or None,
    the max_est of each level that does not fire)."""
    queries, tops = 0, []
    for lv in cfg.levels(n, eps):
        law = uniformity._fair_law(lv.b, lv.c)
        u, v = rng.random(2).tolist()
        if u < -math.expm1(lv.m * law.log_miss):
            i = min(lv.m - 1, int(math.log1p(-u) / law.log_miss))
            pairs = min(lv.m, (i // block + 1) * block)
            return queries + pairs * (1 + lv.b), (lv.h, i), tops
        y = lv.b % 2 + 2 * bisect.bisect_left(law.below, math.log1p(-v) / lv.m)
        tops.append(y / lv.b)
        queries += lv.m * (1 + lv.b)
    return queries, None, tops


@pytest.mark.parametrize("n", [16, 32])
def test_fair_run_reads_one_draw(monkeypatch, n):
    # HALF_EDGE's four levels fire in about half of the runs (accept rates
    # 0.50 and 0.34), so both kinds of run come up; blocks of 4 pairs make
    # a rejecting run's charge depend on its pair
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", 4 * n)
    levels = HALF_EDGE.levels(n, 0.5)
    target = ProductDistribution.uniform(n)
    kinds = Counter()
    for t in range(60):
        o = ScondOracle(target, stream(28, n, t))
        v = edge_tester(o, 0.5, HALF_EDGE)
        queries, fired, tops = _per_level_fair_run(stream(28, n, t), n, 0.5, HALF_EDGE, 4)
        # the level, pair and charge of the per-level route on the same stream,
        # and the max_est of every level before a fire
        assert (v.queries_used, o.queries) == (queries, queries)
        got = _fired(v.trace)
        assert (None if got is None else got[:2]) == fired
        assert [lv["max_est"] for lv in v.trace["levels"]][: len(tops)] == tops
        kinds[v.decision] += 1
        copy = stream(28, n, t)
        words = copy.random(2 * len(levels)).tolist()
        if fired is not None:
            # the fired pair's (w, sign), then its coordinate, come after the
            # run's one draw
            lv = levels[fired[0]]
            law = uniformity._fair_law(lv.b, lv.c)
            w, sign = copy.random(2).tolist()
            y = law.first + 2 * bisect.bisect_left(law.above, w - 1.0)
            assert got[2:] == (int(copy.integers(0, n)), (y if sign < 0.5 else -y) / lv.b)
            assert o.rng.bit_generator.random_raw() == copy.bit_generator.random_raw()
            continue
        # a run that does not fire reads exactly one rng.random(2L)
        want = []
        for lv, v_word in zip(levels, words[1::2]):
            law = uniformity._fair_law(lv.b, lv.c)
            y = lv.b % 2 + 2 * bisect.bisect_left(law.below, math.log1p(-v_word) / lv.m)
            want.append(y / lv.b)
        assert [lv["max_est"] for lv in v.trace["levels"]] == want
        assert o.rng.bit_generator.random_raw() == copy.bit_generator.random_raw()
    assert kinds[Decision.ACCEPT] >= 10 and kinds[Decision.REJECT] >= 10


# ---------------------------------------------------------------------------
# base-case dispatch


def test_base_case_delegates_verbatim_to_edge_tester():
    cfg = SubCondConfig()
    o1 = ScondOracle(ProductDistribution.uniform(64), stream(76, 0, 0))
    v1 = subcond_uni(o1, 0.5, cfg)
    o2 = ScondOracle(ProductDistribution.uniform(64), stream(76, 0, 0))
    v2 = edge_tester(o2, 0.5, cfg.edge)
    assert v1.trace["tree"]["branch"] == "base-case"
    assert v1.decision == v2.decision
    assert v1.queries_used == v2.queries_used
    assert v1.trace["tree"]["edge"] == v2.trace


def test_eps_is_clamped_to_half():
    o1 = ScondOracle(ProductDistribution.uniform(32), stream(77, 0, 0))
    v1 = subcond_uni(o1, 0.9)
    o2 = ScondOracle(ProductDistribution.uniform(32), stream(77, 0, 0))
    v2 = subcond_uni(o2, 0.5)
    assert v1.trace["tree"]["eps"] == 0.5
    assert v1.queries_used == v2.queries_used
    assert v1.decision == v2.decision


def test_subcond_validates_eps():
    o = ScondOracle(ProductDistribution.uniform(4), stream(78, 0, 0))
    with pytest.raises(ValueError):
        subcond_uni(o, 0.0)
    with pytest.raises(ValueError):
        subcond_uni(o, 1.01)


# ---------------------------------------------------------------------------
# the recursive general case (shrunk configuration)


@pytest.fixture(scope="module")
def recursive_uniform_run():
    o = ScondOracle(ProductDistribution.uniform(64), stream(79, 0, 0))
    v = subcond_uni(o, 0.5, REC_CFG)
    return o, v


def test_recursion_reaches_general_case(recursive_uniform_run):
    _, v = recursive_uniform_run
    tree = v.trace["tree"]
    assert tree["branch"] == "accept"
    assert tree["sigma"] == pytest.approx(0.5)
    assert tree["L"] == 4 and tree["r"] == 3 and tree["t"] == 3
    assert v.decision is Decision.ACCEPT


def test_recursion_mean_loop_shape(recursive_uniform_run):
    _, v = recursive_uniform_run
    loop = v.trace["tree"]["mean_loop"]
    assert [s["j"] for s in loop] == [1, 2, 3]
    assert [s["restrictions"] for s in loop] == [48, 24, 12]
    want = [(48, 0.5), (24, 0.25), (12, 0.125)]
    assert [(b.s, b.eps) for b in REC_CFG.mean_buckets(64, 0.5)] == want
    # sigma = 1/2 at n = 64 never drew an all-fixed restriction here
    assert all(s["tested"] == s["restrictions"] for s in loop)
    assert all(s["majority_rejects"] == 0 for s in loop)


def test_recursion_children_are_base_cases(recursive_uniform_run):
    _, v = recursive_uniform_run
    tree = v.trace["tree"]
    loop = tree["recursion_loop"]
    assert [s["j"] for s in loop] == [1, 2, 3]
    assert [s["restrictions"] for s in loop] == [96, 48, 24]
    want = [(96, 0.5), (48, 0.25), (24, 0.125)]
    assert [(b.s, b.eps) for b in REC_CFG.recursion_buckets(0.5)] == want
    recursed = sum(s["recursed"] for s in loop)
    assert recursed > 0
    # each restriction's vote runs 2 or 3 of its t = 3 children, all counted
    runs = sum(s["runs"] for s in loop)
    assert len(tree["children"]) == runs
    assert 2 * recursed <= runs <= 3 * recursed
    for child in tree["children"]:
        assert child["depth"] == 1
        assert child["branch"] == "base-case"
        assert child["n"] <= 2 * 0.5 * 64


def test_recursion_ledger_is_conserved(recursive_uniform_run):
    o, v = recursive_uniform_run
    assert o.queries == v.queries_used
    assert trace_query_sum(v.trace["tree"]) == v.queries_used
    child_total = sum(c["queries"] for c in v.trace["tree"]["children"])
    assert 0 < child_total < v.queries_used


def test_recursion_rejects_two_point_in_mean_loop():
    o = ScondOracle(TwoPointDistribution(np.ones(64, dtype=np.int8)), stream(80, 0, 0))
    v = subcond_uni(o, 0.5, REC_CFG)
    tree = v.trace["tree"]
    assert v.decision is Decision.REJECT
    assert tree["branch"] == "mean-loop"
    assert sum(s["majority_rejects"] for s in tree["mean_loop"]) == 1


# (decision, queries_used, base-case edge testers run, their fired pairs)
# under REC_CFG at n = 64, eps 0.5 on stream(16, 1, t), recorded when votes
# became curtailed: every restriction's first 2 of t = 3 children agree, so
# 336 leaves run instead of 504, and two_point's rejecting mean-loop
# restriction runs 2 of its r = 3 mean tests (1 + 2 * 2q = 801 queries);
# the uniform rows were recorded again when fair levels came to be drawn
# from their exact law, and again when the uniform target's restrictions
# and level-0 mean tests came to be drawn from theirs
RECURSION_VERDICTS_N64 = {
    "uniform": [
        ("accept", 5_061_498, 336, []),
        ("accept", 5_667_538, 336, []),
        ("accept", 5_656_010, 336, []),
    ],
    "two_point": [("reject", 801, 0, [])] * 3,
}


def _edge_traces(tree):
    own = [tree["edge"]] if "edge" in tree else []
    return own + [e for child in tree["children"] for e in _edge_traces(child)]


@pytest.mark.parametrize("dist", sorted(RECURSION_VERDICTS_N64))
def test_recursion_stream_pinned(dist):
    target = resolve_target(dist, 64)
    for t, want in enumerate(RECURSION_VERDICTS_N64[dist]):
        v = subcond_uni(ScondOracle(target, stream(16, 1, t)), 0.5, REC_CFG)
        edges = _edge_traces(v.trace["tree"])
        fired = [_fired(e) for e in edges if e["fired"] is not None]
        assert (v.decision.value, v.queries_used, len(edges), fired) == want


def test_depth_cap_produces_error_not_accept():
    cfg = replace(REC_CFG, max_depth=0)
    o = ScondOracle(ProductDistribution.uniform(64), stream(81, 0, 0))
    v = subcond_uni(o, 0.5, cfg)
    assert v.decision is Decision.ERROR
    tree = v.trace["tree"]
    assert tree["branch"] == "child-error"
    assert tree["children"][-1]["branch"] == "depth-exceeded"


def test_negative_depth_budget_errors_immediately():
    cfg = replace(REC_CFG, max_depth=-1)
    o = ScondOracle(ProductDistribution.uniform(64), stream(82, 0, 0))
    v = subcond_uni(o, 0.5, cfg)
    assert v.decision is Decision.ERROR
    assert v.trace["tree"]["branch"] == "depth-exceeded"
    assert v.queries_used == 0


# ---------------------------------------------------------------------------
# repetitions: a restriction's t base-case children are lone subcond_uni
# nodes, each one edge tester run after the last; these tests hold their
# laws and charges to those of lone edge testers

# uniform at n = 16, eps 0.5: four levels (b = 80, 40, 20, 10, so both fair
# count routes) whose exact null accept rate is 0.5004
HALF_EDGE = EdgeConfig(c_h=0.5, c1=0.5, c2=0.05, c3=10.0)

# REC_CFG whose leaves fire: a child accepts the uniform target with exact
# probability 0.36-0.90, so restrictions mix accepting and rejecting children
FIRE_CFG = replace(REC_CFG, edge=replace(REC_CFG.edge, c3=12.0))

# the key order of a lone base-case node
BASE_CASE_KEYS = ["depth", "n", "eps", "branch", "verdict", "queries", "children", "sigma", "edge"]


# edge_null_accept to the bit over n = 16, 32, ..., 1024, per (edge config, eps)
EDGE_NULL_ACCEPT_PINS = {
    (EdgeConfig(), 0.5): [
        0.9952869902812141, 0.9889688214082373, 0.9617899744182258,
        0.8737416158396476, 0.6891885473999001, 0.2979524603948278,
        0.03936932822902018,
    ],
    (EdgeConfig(), 0.25): [
        0.97805267487288, 0.9327215931035987, 0.7634174370426409,
        0.4925121235863708, 0.08877465240710655, 0.0015499244735605775,
        1.1586546466919667e-05,
    ],
    (REC_CFG.edge, 0.5): [
        0.9999989896649648, 0.9999979377097741, 0.9999832005833506,
        0.9999704718532749, 0.9999410482617219, 0.9999161099919276,
        0.9998399562927215,
    ],
    (REC_CFG.edge, 0.25): [
        0.999995545471158, 0.9999762618375182, 0.9999714424367754,
        0.9999352168837935, 0.9999196215444232, 0.9998320533578752,
        0.9997939936382992,
    ],
    (FIRE_CFG.edge, 0.5): [
        0.9403029693891451, 0.8457642596747911, 0.6944108343876471,
        0.6708092764719459, 0.3789189447452951, 0.34031317290303287,
        0.07732610149271782,
    ],
    (FIRE_CFG.edge, 0.25): [
        0.8654940155872312, 0.688066125799178, 0.6328168602738372,
        0.3553378966652291, 0.30260230728974447, 0.07119438770543675,
        0.05802523485511224,
    ],
}


def test_edge_null_accept_pinned_to_the_bit():
    for (cfg, eps), want in EDGE_NULL_ACCEPT_PINS.items():
        assert [edge_null_accept(16 << k, eps, cfg) for k in range(7)] == want


def test_calls_without_a_config_build_none(monkeypatch):
    # edge_tester, edge_null_accept and subcond_uni read the practical
    # preset's instances when given no config: a fresh config's checks cost
    # about a tenth of a uniform n = 128 null
    assert PRESETS["practical"] == SubCondConfig()
    assert PRESETS["practical"].edge == EdgeConfig()
    built = []
    for cls in (EdgeConfig, SubCondConfig):

        def spy(self, check=cls.__post_init__):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    target = ProductDistribution.uniform(16)
    lone = edge_tester(ScondOracle(target, stream(30, 0, 0)), 0.5)
    accept = edge_null_accept(16, 0.5)
    root = subcond_uni(ScondOracle(target, stream(30, 0, 0)), 0.5)
    assert built == []
    # the same verdicts and law as the preset passed by name
    preset = PRESETS["practical"]
    named = edge_tester(ScondOracle(target, stream(30, 0, 0)), 0.5, preset.edge)
    assert (lone.decision, lone.queries_used, lone.trace) == (
        named.decision,
        named.queries_used,
        named.trace,
    )
    assert accept == edge_null_accept(16, 0.5, preset.edge)
    assert root.trace == subcond_uni(ScondOracle(target, stream(30, 0, 0)), 0.5, preset).trace
    # the spies see a config that is built
    SubCondConfig()
    assert built == ["EdgeConfig", "SubCondConfig"]


def _binomial_two_sided_p(k, trials, p):
    """Exact two-sided binomial test: the mass of every count no likelier than k."""
    logs = [
        math.lgamma(trials + 1)
        - math.lgamma(j + 1)
        - math.lgamma(trials - j + 1)
        + j * math.log(p)
        + (trials - j) * math.log1p(-p)
        for j in range(trials + 1)
    ]
    cut = logs[k] + 1e-9
    return min(1.0, sum(math.exp(v) for v in logs if v <= cut))


@pytest.mark.parametrize("reps", [1, 3, 15])
@pytest.mark.parametrize("block_bytes", [EDGE_BLOCK_BYTES, 2 * 16])
def test_batched_edge_accept_rate_matches_exact_law(monkeypatch, reps, block_bytes):
    # reps lone edge testers, one after another on one oracle. 32 bytes make
    # blocks of 2 pairs at n = 16, so the levels of 3 to 20 pairs also take
    # several blocks
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", block_bytes)
    want = edge_null_accept(16, 0.5, HALF_EDGE)
    assert want == pytest.approx(0.5, abs=0.001)
    planned = sum(lv.m * (1 + lv.b) for lv in HALF_EDGE.levels(16, 0.5))
    target = ProductDistribution.uniform(16)
    key = 18 if block_bytes == EDGE_BLOCK_BYTES else 19
    accepts = total = 0
    for t in range(3000 // reps):
        o = ScondOracle(target, stream(key, reps, t))
        verdicts = [edge_tester(o, 0.5, HALF_EDGE) for _ in range(reps)]
        assert len(verdicts) == reps
        assert sum(v.queries_used for v in verdicts) == o.queries
        for v in verdicts:
            total += 1
            if v.decision is Decision.ACCEPT:
                accepts += 1
                assert v.queries_used == planned
            else:
                assert_block_ledger(v, max(1, block_bytes // 16))
    assert total == 3000
    assert _binomial_two_sided_p(accepts, total, want) >= 1e-3


@pytest.mark.parametrize("mean", [0.0, 0.1])
def test_base_case_children_are_lone_edge_testers(monkeypatch, mean):
    # k = 3 child subcond_uni nodes of a restriction's view against 3 lone
    # edge testers on a copy of the stream: the same decisions, charges and
    # edge traces, and the stream left at the same place. The uniform
    # product settles its levels by the fair route; a product with every
    # mean 0.1 has no fair_edges and draws its blocks, and a lone edge
    # tester accepts it about 0.30 of the time under HALF_EDGE at n = 16.
    # The views fix half of a 32-cube, and 128 bytes make blocks of 4 pairs
    # at the root's n = 32, splitting every level but the first
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", 4 * 32)
    target = ProductDistribution(np.full(32, mean))
    assert target.fair_edges is (mean == 0.0)
    cfg = replace(REC_CFG, edge=HALF_EDGE)
    rho = Restriction(np.where(np.arange(32) % 2 == 0, 0, 1).astype(np.int8))
    planned = sum(lv.m * (1 + lv.b) for lv in HALF_EDGE.levels(16, 0.5))
    decisions = set()
    for t in range(10):
        views = [ScondOracle(target, stream(28, 3, t)).restricted(rho) for _ in range(2)]
        assert cfg.base_case(views[0].n, 0.5)
        children = [subcond_uni(views[0], 0.5, cfg, 1) for _ in range(3)]
        lone = [edge_tester(views[1], 0.5, HALF_EDGE) for _ in range(3)]
        assert [(c.decision, c.queries_used, c.trace["tree"]["edge"]) for c in children] == [
            (v.decision, v.queries_used, v.trace) for v in lone
        ]
        assert views[0].ledger == views[1].ledger
        assert views[0].queries == sum(v.queries_used for v in lone)
        raw = [view.rng.bit_generator.random_raw() for view in views]
        assert raw[0] == raw[1]
        for v in lone:
            if v.decision is Decision.ACCEPT:
                assert v.queries_used == planned
            else:
                assert_block_ledger(v, 4)
        decisions |= {v.decision for v in lone}
    assert decisions == {Decision.ACCEPT, Decision.REJECT}


# mean and standard error of queries_used over 2,000 uniform recursion nulls
# (n = 64, eps 0.5, REC_CFG, stream(17, 1, t)) run with one edge tester per
# child, one after another, all t = 3 children and r = 3 mean tests of each
# restriction run, before children were batched or votes curtailed
SERIAL_NULL_QUERIES = (8_087_879, 8_575)
# the one-query restriction draws of a REC_CFG null: 84 in the mean loop and
# 168 in the recursion loop
RESTRICTION_DRAWS = 84 + 168


def test_recursion_null_query_law_is_kept():
    # a REC_CFG null's votes are decided by their first 2 of 3 repetitions
    # but rarely: a child fires with probability at most 8e-5 (edge_null_accept
    # at every k <= 64 and eps 0.5, 0.25, 0.125), and a null mean test rarely
    # rejects. So a curtailed null spends the draws and 2/3 of the rest of a
    # serial one
    assert all(
        edge_null_accept(k, eps, REC_CFG.edge) >= 1 - 8e-5
        for k in range(1, 65)
        for eps in (0.5, 0.25, 0.125)
    )
    want = RESTRICTION_DRAWS + (SERIAL_NULL_QUERIES[0] - RESTRICTION_DRAWS) * 2 / 3
    target = ProductDistribution.uniform(64)
    spent = []
    for t in range(200):
        o = ScondOracle(target, stream(17, 2, t))
        v = subcond_uni(o, 0.5, REC_CFG)
        assert v.queries_used == o.queries == trace_query_sum(v.trace["tree"])
        spent.append(v.queries_used)
    mean = sum(spent) / len(spent)
    se = math.sqrt(sum((q - mean) ** 2 for q in spent) / (len(spent) - 1) / len(spent))
    assert abs(mean - want) <= 3 * se


# ---------------------------------------------------------------------------
# curtailed votes: a restriction's vote stops once it is decided


def _scripted(pattern):
    """A ``run`` for ``_vote`` that gives the next verdict of pattern (True =
    accept) at each call."""
    outcomes = iter(pattern)

    def run():
        return Verdict(Decision.ACCEPT if next(outcomes) else Decision.REJECT, 1, {})

    return run


@functools.lru_cache(maxsize=None)
def _vote_outcomes(t):
    """(accepts among all t, decision accepted, repetitions run) of ``_vote``
    on every outcome pattern of t repetitions."""
    out = []
    for bits in range(1 << t):
        pattern = [bool(bits >> i & 1) for i in range(t)]
        decision, verdicts = uniformity._vote(t, _scripted(pattern))
        out.append((sum(pattern), decision is Decision.ACCEPT, len(verdicts)))
    return out


def test_vote_is_the_full_majority_on_every_outcome_pattern():
    for t in range(1, 16, 2):
        need = (t + 1) // 2
        for bits in range(1 << t):
            pattern = [bool(bits >> i & 1) for i in range(t)]
            decision, verdicts = uniformity._vote(t, _scripted(pattern))
            assert decision is (Decision.ACCEPT if 2 * sum(pattern) > t else Decision.REJECT)
            # it reads the shortest prefix in which a side holds need
            accepts = [0, *itertools.accumulate(pattern)]
            fixed = next(c for c in range(t + 1) if max(accepts[c], c - accepts[c]) == need)
            assert [v.decision is Decision.ACCEPT for v in verdicts] == pattern[:fixed]


def test_vote_stops_at_the_first_error():
    for t in (3, 5, 15):
        # an error before a side can hold the majority
        for at in range((t + 1) // 2):
            read = []

            def run(at=at, read=read):
                read.append(len(read) == at)
                return Verdict(Decision.ERROR if read[-1] else Decision.REJECT, 1, {})

            decision, verdicts = uniformity._vote(t, run)
            assert decision is Decision.ERROR
            assert [v.decision for v in verdicts] == [Decision.REJECT] * at + [Decision.ERROR]
            # no repetition is read past the error
            assert len(read) == at + 1


def test_majority_vote_law_follows_the_vote():
    # the exact law against _vote on every outcome pattern, each weighted by
    # its probability
    for t in (1, 3, 5, 9, 15):
        for p in (0.0, 0.3, 0.5004, 0.8, 1.0):
            accept = runs = 0.0
            for a, accepted, ran in _vote_outcomes(t):
                weight = p**a * (1 - p) ** (t - a)
                accept += weight * accepted
                runs += weight * ran
            assert majority_vote_law(p, t) == pytest.approx((accept, runs), rel=1e-12, abs=1e-15)


def _sum_two_sided_p(total, pmf, trials):
    """Exact two-sided test of a sum of trials independent draws from pmf (a
    dict from value to probability): the mass of every sum no likelier than
    total."""
    lo = min(pmf)
    step = np.array([pmf.get(v, 0.0) for v in range(lo, max(pmf) + 1)])
    dist = np.ones(1)
    for _ in range(trials):
        dist = np.convolve(dist, step)
    cut = dist[total - lo * trials] * (1 + 1e-9)
    return min(1.0, float(dist[dist <= cut].sum()))


@pytest.mark.parametrize("t", [3, 15])
def test_curtailed_vote_matches_the_exact_law(t):
    # votes of t base-case children, taken as the recursion loop takes them,
    # on the uniform 16-cube where a child accepts with probability 0.5004
    cfg = replace(REC_CFG, edge=HALF_EDGE, t_override=t)
    p = edge_null_accept(16, 0.5, HALF_EDGE)
    accept_law, runs_law = majority_vote_law(p, t)
    pmf = {}
    for a, _, ran in _vote_outcomes(t):
        pmf[ran] = pmf.get(ran, 0.0) + p**a * (1 - p) ** (t - a)
    assert sum(ran * mass for ran, mass in pmf.items()) == pytest.approx(runs_law, rel=1e-12)
    o = ScondOracle(ProductDistribution.uniform(16), stream(23, t, 0))

    def children():
        return subcond_uni(o, 0.5, cfg, 1)

    votes, accepts, runs = 2000, 0, 0
    for _ in range(votes):
        before = o.queries
        decision, verdicts = uniformity._vote(t, children)
        assert o.queries - before == sum(v.queries_used for v in verdicts)
        accepts += decision is Decision.ACCEPT
        runs += len(verdicts)
    assert _binomial_two_sided_p(accepts, votes, accept_law) >= 1e-3
    assert _sum_two_sided_p(runs, pmf, votes) >= 1e-3


class RestrictionLog(ScondOracle):
    """A root oracle that logs (ledger, star count) at each restriction draw,
    on the fair route (a star count) and the drawn route (a star mask and a
    fill point) alike."""

    def __init__(self, *args):
        super().__init__(*args)
        self.draws = []

    def draw_view(self, sigma):
        before = self.queries
        view = super().draw_view(sigma)
        self.draws.append((before, view.n))
        return view


def drawn_uniform(n):
    """The uniform product with ``fair_edges`` forced off: its restrictions,
    mean tests and edge levels take the drawn routes of a non-fair target,
    whose laws the fair routes must keep."""
    target = ProductDistribution.uniform(n)
    target.fair_edges = False
    return target


def assert_restriction_charges(o, v, cfg, eps=0.5):
    """Each restriction's ledger delta is its draw, then its mean tests, 2q
    queries each, or the sum of its children's charges. A restriction's
    children are the trace's next children, read one at a time until a side
    holds the majority of t; every child is charged what its own edge blocks
    drew, in blocks of EDGE_BLOCK_BYTES // n pairs as a lone edge tester,
    and each bucket's ``runs`` counts the mean tests or children of its
    restrictions."""
    tree = v.trace["tree"]
    assert v.queries_used == o.queries == trace_query_sum(tree)
    n, sigma, r, t = tree["n"], tree["sigma"], tree["r"], cfg.t_reps(eps)
    block = max(1, uniformity.EDGE_BLOCK_BYTES // n)
    two_q = 2 * cfg.mean_q_override
    ends = [before for before, _ in o.draws[1:]] + [o.queries]
    loops = [(s, r) for s in tree["mean_loop"]] + [(s, t) for s in tree.get("recursion_loop", [])]
    buckets = [i for i, (stats, _) in enumerate(loops) for _ in range(stats["restrictions"])]
    runs = [0] * len(loops)
    children = iter(tree["children"])
    for (before, k), end, i in zip(o.draws, ends, buckets):
        stats, reps = loops[i]
        need = (reps + 1) // 2
        if "tested" in stats:
            tests, rest = divmod(end - before - 1, two_q)
            assert rest == 0 and (tests == 0 if k == 0 else need <= tests <= reps)
            runs[i] += tests
            continue
        if not 0 < k <= 2.0 * sigma * n:
            assert end - before == 1
            continue
        votes = {"accept": 0, "reject": 0}
        group = []
        while max(votes.values()) < need:
            group.append(next(children))
            votes[group[-1]["verdict"]] += 1
        runs[i] += len(group)
        assert end - before == 1 + sum(c["queries"] for c in group)
        for child in group:
            assert list(child) == BASE_CASE_KEYS
            assert child["branch"] == "base-case" and child["n"] == k
            assert child["children"] == []
            edge = child["edge"]
            if child["verdict"] == "accept":
                assert edge["fired"] is None
                levels = cfg.edge.levels(k, child["eps"])
                assert child["queries"] == sum(lv.m * (1 + lv.b) for lv in levels)
                assert [lv["h"] for lv in edge["levels"]] == [lv.h for lv in levels]
            else:
                assert child["verdict"] == "reject"
                assert_block_charge(edge, child["queries"], block)
    assert next(children, None) is None
    assert runs == [stats["runs"] for stats, _ in loops]


@pytest.mark.parametrize("block_bytes", [EDGE_BLOCK_BYTES, 64 * 3 * 2])
@pytest.mark.parametrize(
    "dist, cfg",
    [
        ("uniform", REC_CFG),
        ("two_point", REC_CFG),
        ("uniform", FIRE_CFG),
        ("drawn-uniform", REC_CFG),
        ("drawn-uniform", FIRE_CFG),
    ],
)
def test_batched_children_charges_and_traces(monkeypatch, block_bytes, dist, cfg):
    # 384 bytes make blocks of 6 pairs at n = 64 for every child. The
    # uniform target settles its restrictions, level-0 mean tests and edge
    # levels from their laws; drawn-uniform and two_point draw them
    monkeypatch.setattr(uniformity, "EDGE_BLOCK_BYTES", block_bytes)
    target = drawn_uniform(64) if dist == "drawn-uniform" else resolve_target(dist, 64)
    outcomes, thirds = set(), 0
    for t in range(3):
        o = RestrictionLog(target, stream(21, 0, t))
        v = subcond_uni(o, 0.5, cfg)
        want = "accept" if cfg is REC_CFG and dist != "two_point" else "reject"
        assert v.decision.value == want
        assert_restriction_charges(o, v, cfg)
        outcomes |= {c["verdict"] for c in v.trace["tree"]["children"]}
        loop = v.trace["tree"].get("recursion_loop", [])
        thirds += sum(s["runs"] for s in loop) - 2 * sum(s["recursed"] for s in loop)
    if cfg is FIRE_CFG:
        # some restrictions split their first 2 children and ran a third
        assert outcomes == {"accept", "reject"}
        assert thirds > 0


# the fair routes against the drawn ones, on nulls that reject often enough
# for the node that decides them to vary. MEAN_FIRE_CFG's level-0 mean
# tests at q = 1 reject a restriction's vote with probability 0.14 at
# n = 64 (0.07 at n = 128) in the first bucket, so most runs end there, at
# an index spread over dozens of restrictions. LEAF_FIRE_CFG's mean loop
# is one bucket of 4 restrictions, and a child accepts with probability
# 0.57 at k = 32 (0.32 at k = 64), so most runs end in the first recursion
# restrictions. At n = 128 a first-bucket child holds about 64 stars and
# recurses once more, so the fair route there also draws views of views
MEAN_FIRE_CFG = replace(REC_CFG, mean_q_override=1)
LEAF_FIRE_CFG = replace(
    REC_CFG, l_formula=lambda n, eps: 1, edge=replace(REC_CFG.edge, c3=10.0)
)


def _ks_two_sample_p(left, right):
    """Two-sample Kolmogorov-Smirnov test of two lists of numbers: the
    asymptotic p-value of the largest gap between their empirical
    distribution functions."""
    a, b = np.sort(left), np.sort(right)
    at = np.union1d(a, b)
    cdf_a, cdf_b = (np.searchsorted(side, at, "right") / side.size for side in (a, b))
    m = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)) * float(np.abs(cdf_a - cdf_b).max())
    tail = 2 * sum((-1) ** (j - 1) * math.exp(-2 * j * j * lam * lam) for j in range(1, 101))
    return min(1.0, max(0.0, tail))


def _decided_by(tree):
    """Where a verdict was decided: from the root down the last child of
    each rejecting vote, each node's branch and the bucket and index of the
    restriction whose vote ended it, then the deciding leaf as (depth,
    stars, fired level), or None when no leaf decided it."""
    path, node = [], tree
    while node["branch"] in ("mean-loop", "recursion-loop"):
        mean = node["branch"] == "mean-loop"
        stats = node["mean_loop" if mean else "recursion_loop"][-1]
        path.append((node["branch"], stats["j"], stats["tested" if mean else "recursed"]))
        if mean:
            return tuple(path), None
        node = node["children"][-1]
    if node["branch"] != "base-case":
        return tuple(path) + (node["branch"],), None
    fired = node["edge"]["fired"]
    return tuple(path), (node["depth"], node["n"], None if fired is None else fired["h"])


def _route_outcomes(o, v):
    """The compared outcomes of one subcond_uni verdict on oracle o."""
    tree = v.trace["tree"]
    assert v.queries_used == o.queries == trace_query_sum(tree)
    path, leaf = _decided_by(tree)
    return {
        "decision": v.decision.value,
        "queries": v.queries_used,
        "root node": path[0],
        "deciding path": path,
        "leaf level": None if leaf is None else (leaf[0], leaf[2]),
        "leaf stars": None if leaf is None else leaf[1],
        "first child stars": tree["children"][0]["n"] if tree["children"] else None,
        "mean tests": sum(s["runs"] for s in tree["mean_loop"]),
    }


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("cfg", [MEAN_FIRE_CFG, LEAF_FIRE_CFG], ids=["mean-fire", "leaf-fire"])
def test_fair_restrictions_match_drawn_ones(cfg, n):
    # the uniform target, whose restrictions, level-0 mean tests and edge
    # levels are settled from their laws, against drawn_uniform, which draws
    # them, 400 runs a side on fixed streams. Each outcome is compared at
    # the 1e-4 level: the queries by a Kolmogorov-Smirnov test, the rest by
    # _two_sample_p. Power: an outcome of two cells whose share moves from p
    # to p +- d is found with probability 0.9 once d >= 0.37 sqrt(p (1 - p)),
    # such as 0.50 -> 0.68; the queries once the two distribution
    # functions part by about 0.20 somewhere
    runs = 400
    sides = []
    for target, key in ((ProductDistribution.uniform(n), 83), (drawn_uniform(n), 84)):
        side = []
        for t in range(runs):
            o = ScondOracle(target, stream(key, n, t))
            side.append(_route_outcomes(o, subcond_uni(o, 0.5, cfg)))
        sides.append(side)
    fair, drawn = sides
    p_values = {}
    for name in fair[0]:
        test = _ks_two_sample_p if name == "queries" else _two_sample_p
        p_values[name] = test([o[name] for o in fair], [o[name] for o in drawn])
    assert min(p_values.values()) >= 1e-4, p_values


def _half_free_view():
    """A uniform n = 64 cube whose even coordinates are free, the odd ones +1."""
    rho = Restriction(np.where(np.arange(64) % 2 == 0, 0, 1).astype(np.int8))
    return ScondOracle(ProductDistribution.uniform(64), stream(22, 0, 0)).restricted(rho)


def test_batched_children_match_a_lone_base_case_node():
    # a view's t children are t lone base-case nodes, each charged its own
    # blocks, summing to the view's ledger delta, with the node keys in
    # BASE_CASE_KEYS order
    view = _half_free_view()
    lone = subcond_uni(view, 0.25, REC_CFG, 1)
    assert lone.trace["tree"]["branch"] == "base-case"
    assert list(lone.trace["tree"]) == BASE_CASE_KEYS
    before = view.queries
    children = [subcond_uni(view, 0.25, REC_CFG, 1) for _ in range(5)]
    assert view.queries - before == sum(c.queries_used for c in children)
    for c in children:
        node = c.trace["tree"]
        assert list(node) == BASE_CASE_KEYS
        assert {k: node[k] for k in BASE_CASE_KEYS[:3]} == {"depth": 1, "n": 32, "eps": 0.25}
        assert node["sigma"] == lone.trace["tree"]["sigma"]
        assert node["queries"] == c.queries_used
        assert node["verdict"] == c.decision.value


# the sha256 of json.dumps(trace, sort_keys=True) of whole subcond_uni runs,
# so every key and value of every node is pinned: the root and its children
# under REC_CFG (accepting children, and a mean-loop reject with none),
# FIRE_CFG (accepting and rejecting children in one restriction), a child
# past the depth budget, a root past it, and a depth-1 view that is a base case.
# The first four were recorded when votes became curtailed, which added the
# loops' "runs" and cut the leaves and mean tests a restriction runs; the
# uniform ones and the depth-1 view again when fair levels came to be drawn
# from their exact law; and the two uniform ones again when a restriction's
# children became lone nodes run one after another, which reorders the
# stream words their fair levels read. The three uniform ones were recorded
# again when the uniform target's restrictions came to draw only their star
# counts and its level-0 mean tests only their column counts; and
# fire-uniform again when a fair edge run came to read all its levels' words
# in one draw, which moves the words of a fired leaf's pair and of every
# later node
TRACE_PINS = {
    "rec-uniform": (
        "uniform", REC_CFG, (16, 1, 0),
        "a13b987aad17a5509071b679b336c4b9bbc54c87066296bd333a817c44522eb2",
    ),
    "rec-two-point": (
        "two_point", REC_CFG, (16, 1, 0),
        "ccd4f5f2cf3b0af63107478585b19609c21155deb3ebf7c3834c58e9a4ea2106",
    ),
    "fire-uniform": (
        "uniform", FIRE_CFG, (21, 0, 0),
        "ae56b68e65e5cd17a214b2ccce3d98091c4a8f20b22456fbda7010e4258fc757",
    ),
    "child-error": (
        "uniform", replace(REC_CFG, max_depth=0), (81, 0, 0),
        "c2833a6f9fdacae3d46dbd3d21e8514b7a0b08eb39ccf6c845a69d2bf0a9d214",
    ),
    "root-error": (
        "uniform", replace(REC_CFG, max_depth=-1), (82, 0, 0),
        "cdef7ea5fc5586e312e8d7485355dbd2cba2ff04b4f6fa3316775bc3e84bb6a5",
    ),
}
DEPTH_1_BASE_CASE_DIGEST = "4268137281090be863814b807ebb72380807cb6c77a19ce759dd57f74462579c"


def _trace_digest(verdict):
    return hashlib.sha256(json.dumps(verdict.trace, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACE_PINS))
def test_recursion_trace_pinned(name):
    dist, cfg, key, digest = TRACE_PINS[name]
    v = subcond_uni(ScondOracle(resolve_target(dist, 64), stream(*key)), 0.5, cfg)
    assert _trace_digest(v) == digest


def test_depth_one_base_case_trace_pinned():
    v = subcond_uni(_half_free_view(), 0.25, REC_CFG, 1)
    assert v.trace["tree"]["branch"] == "base-case"
    assert _trace_digest(v) == DEPTH_1_BASE_CASE_DIGEST
