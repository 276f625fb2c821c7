"""Uniformity testing: edge tester mechanics, base-case dispatch, the
recursive structure, majority voting, and error propagation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypercube_tester.cli import UsageError, build_parser
from hypercube_tester.harness import ExperimentSpec
from hypercube_tester.meantest import Q_RULES
from hypercube_tester.model import DensePmf, Decision, ProductDistribution
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.uniformity import (
    PRESETS,
    EdgeConfig,
    SubCondConfig,
    base_case_applies,
    edge_tester,
    subcond_uni,
    trace_query_sum,
)
from hypercube_tester.zoo import TwoPointDistribution


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
    assert base_case_applies(64, 0.5, 1.0 / 1250.0)  # practical desk scale
    assert not base_case_applies(64, 0.5, 0.5)  # forced recursion config
    assert base_case_applies(16, 0.5, 1.0 / 1250.0)


def test_theta_sqrt_b_identity():
    # theta_h sqrt(b_h) >= c3 sqrt(c2) at every level of every calibration
    for cfg in (EdgeConfig(), EdgeConfig(c_h=0.5, c1=0.25, c2=0.05, c3=22.4)):
        for n in (8, 16, 64):
            for eps in (0.5, 0.25):
                lg = max(math.log2(n / eps), 1.0)
                for h in range(0, 12):
                    b = math.ceil(cfg.c2 * 2.0**-h * n * lg * lg / (eps * eps))
                    theta = cfg.c3 * eps * math.sqrt(2.0**h / n) / lg
                    assert theta * math.sqrt(b) >= cfg.c3 * math.sqrt(cfg.c2) - 1e-9


# ---------------------------------------------------------------------------
# edge tester


def test_edge_tester_level_structure_and_ledger():
    o = ScondOracle(ProductDistribution.uniform(16), stream(71, 0, 0))
    v = edge_tester(o, 0.5)
    assert v.decision is Decision.ACCEPT
    levels = v.trace["levels"]
    assert [lv["h"] for lv in levels] == list(range(11))  # bucket floor at h=10
    assert levels[0]["m"] == 10 and levels[0]["b"] == 40_000
    assert levels[0]["theta"] == pytest.approx(0.025)
    # accepted run: ledger equals sum of m_h samples + m_h * b_h draws
    want = sum(lv["m"] * (1 + lv["b"]) for lv in levels)
    assert v.queries_used == want
    assert o.queries == want


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


def test_edge_tester_validates_eps():
    o = ScondOracle(ProductDistribution.uniform(4), stream(75, 0, 0))
    with pytest.raises(ValueError):
        edge_tester(o, 0.0)
    with pytest.raises(ValueError):
        edge_tester(o, 1.5)


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
    # sigma = 1/2 at n = 64 never drew an all-fixed restriction here
    assert all(s["tested"] == s["restrictions"] for s in loop)
    assert all(s["majority_rejects"] == 0 for s in loop)


def test_recursion_children_are_base_cases(recursive_uniform_run):
    _, v = recursive_uniform_run
    tree = v.trace["tree"]
    loop = tree["recursion_loop"]
    assert [s["j"] for s in loop] == [1, 2, 3]
    assert [s["restrictions"] for s in loop] == [96, 48, 24]
    recursed = sum(s["recursed"] for s in loop)
    assert recursed > 0
    assert len(tree["children"]) == 3 * recursed  # t verdicts per restriction
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
