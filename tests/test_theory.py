"""Small-n structural facts: chain rule, edge classification and greedy
orientation, robust averaging inequality, Khintchine, restriction-to-mean
bounds, and the pairing-statistic moment bands.

Hand-derived frozen values anchor each verifier before random sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester.model import (
    DensePmf,
    Point,
    Restriction,
    all_sign_points,
    mean_vector,
)
from hypercube_tester.rng import stream
from hypercube_tester.uniformity import (
    EdgeConfig,
    _count_threshold,
    _edge_fire_prob,
    edge_null_accept,
    majority_vote_law,
)
from hypercube_tester.theory import (
    SCALE,
    UNEVEN,
    ZERO,
    InequalityReport,
    _conditional_mean_at,
    build_orientation,
    check_greedy_property,
    count_directed_into,
    evaluate_robust_pisier,
    greedy_ordering,
    greedy_ordering_valid,
    khintchine_lhs,
    probe_restriction_theorem,
    random_dense_pmf,
    verify_chain_rule,
    verify_contributing_bias,
    verify_graph_to_mean,
    verify_khintchine,
    verify_variance_bound,
)

# ---------------------------------------------------------------------------
# chain rule


def test_chain_rule_point_mass_frozen():
    # point mass at (+1,+1), sigma = 1/2: every subset has weight 1/4;
    # projection tvs are (3/4, 1/2, 1/2, 0) and conditional tvs (0, 1/2, 1/2, 3/4)
    p = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    rep = verify_chain_rule(p, 0.5)
    assert rep.lhs == pytest.approx(0.75, abs=1e-12)
    assert rep.context["proj"] == pytest.approx(0.4375, abs=1e-12)
    assert rep.context["cond"] == pytest.approx(0.4375, abs=1e-12)
    assert rep.rhs == pytest.approx(0.875, abs=1e-12)
    assert rep.lhs <= rep.rhs


def test_chain_rule_uniform_is_tight_zero():
    rep = verify_chain_rule(DensePmf.uniform(3), 0.3)
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_chain_rule_random_sweep():
    rng = stream(91, 0, 0)
    for case in range(60):
        n = 2 + case % 5
        sigma = (0.25, 0.5, 0.75)[case % 3]
        rep = verify_chain_rule(random_dense_pmf(rng, n), sigma)
        assert rep.lhs <= rep.rhs + 1e-9


def test_chain_rule_input_validation():
    with pytest.raises(ValueError):
        verify_chain_rule(DensePmf.uniform(11), 0.5)
    with pytest.raises(ValueError):
        verify_chain_rule(DensePmf.uniform(2), 1.5)


def test_probe_restriction_reports_ratio():
    rng = stream(92, 0, 0)
    rep = probe_restriction_theorem(random_dense_pmf(rng, 4), 0.5)
    assert isinstance(rep, InequalityReport)
    assert rep.lhs >= 0 and rep.rhs >= 0
    assert math.isfinite(rep.ratio)


# ---------------------------------------------------------------------------
# edge classification and orientation


def test_classification_frozen_example():
    # masses over {-1,1}^2 chosen so one edge of each flavor appears
    p = DensePmf(2, np.array([0.3, 0.2, 0.25, 0.25]))
    g = build_orientation(p)
    assert g.u.size == 4  # m 2^(m-1)

    def rec(x, i):
        return g.record(x, i)

    # coordinate 1 edge (0,1): weight 1/3 -> scale kappa = 2
    r = rec(0, 1)
    assert r["cls"] == SCALE and r["kappa"] == 2
    assert r["weight"] == pytest.approx(1 / 3)
    # coordinate 1 edge (2,3): zero, oriented from the smaller index
    r = rec(2, 1)
    assert r["cls"] == ZERO and r["source"] == 2
    # coordinate 0 edges: weights 1/6 and 1/5, both kappa = 3
    assert rec(0, 0)["cls"] == SCALE and rec(0, 0)["kappa"] == 3
    assert rec(1, 0)["cls"] == SCALE and rec(1, 0)["kappa"] == 3


def test_uneven_orientation_from_heavier_endpoint():
    p = DensePmf(2, np.array([0.35, 0.05, 0.3, 0.3]))
    g = build_orientation(p)
    r = g.record(0, 1)  # 0.35 vs 0.05: weight 6/7 >= 2/3
    assert r["cls"] == UNEVEN
    assert r["source"] == 0
    assert g.directed_from(0, 1) and not g.directed_from(1, 1)


def test_scale_bucket_boundaries():
    # bucket kappa is the smallest k with weight > 2**-k, so an exact boundary
    # weight of 2**-j falls in bucket j + 1 while anything above it is in j
    for w, want in ((0.5, 2), (0.51, 1), (0.25, 3), (0.26, 2), (0.125, 4)):
        hi = 0.25
        lo = hi * (1.0 - w)  # edge weight (hi-lo)/hi == w, exact for dyadic w
        a = (1.0 - hi - lo) / 2.0
        p = DensePmf(2, np.array([hi, lo, a, a]))
        r = build_orientation(p).record(0, 1)
        assert r["cls"] == SCALE and r["kappa"] == want, w


def test_orientation_invariants_random():
    rng = stream(93, 0, 0)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        p = random_dense_pmf(rng, m)
        g = build_orientation(p)
        assert g.u.size == m * (1 << (m - 1))
        mass = p.mass
        for row in range(g.u.size):
            u, v, w = int(g.u[row]), int(g.v[row]), float(g.weight[row])
            src = int(g.source[row])
            cls = int(g.cls[row])
            assert u < v
            if cls == ZERO:
                assert mass[u] == mass[v] and src == u
            elif cls == UNEVEN:
                assert w >= 2 / 3
                assert mass[src] == max(mass[u], mass[v])
            else:
                k = int(g.kappa[row])
                assert 2.0**-k < w <= 2.0 ** (-k + 1)
                pos = g.orderings[k]
                other = v if src == u else u
                assert pos[src] < pos[other]
        # out_mask agrees with directed_from
        mask = g.out_mask()
        for x in (0, (1 << m) - 1):
            for i in range(m):
                assert mask[x, i] == g.directed_from(x, i)


def test_greedy_ordering_path_graph():
    # path 0-1-2: vertex 1 has maximal degree and is deleted first
    u = np.array([0, 1])
    v = np.array([1, 2])
    pos = greedy_ordering(3, u, v)
    assert pos.tolist() == [1, 0, 2]
    assert greedy_ordering_valid(3, u, v, pos)
    # starting with a degree-1 endpoint is not a valid greedy replay
    assert not greedy_ordering_valid(3, u, v, np.array([0, 1, 2]))


def test_greedy_ordering_ties_break_to_smallest_index():
    # disjoint edges 0-1 and 2-3: vertex 0 goes first (smallest index among
    # degree-1 vertices), which drops vertex 1 to degree 0, so vertex 2 is
    # deleted before vertex 1
    u = np.array([0, 2])
    v = np.array([1, 3])
    pos = greedy_ordering(4, u, v)
    assert pos.tolist() == [0, 2, 1, 3]
    assert greedy_ordering_valid(4, u, v, pos)


@settings(max_examples=30)
@given(st.integers(2, 7), st.integers(0, 100_000))
def test_greedy_ordering_always_replays_valid(n_vertices, salt):
    rng = stream(94, n_vertices, salt)
    n_edges = int(rng.integers(0, 2 * n_vertices))
    u = rng.integers(0, n_vertices, n_edges)
    v = rng.integers(0, n_vertices, n_edges)
    keep = u != v
    pos = greedy_ordering(n_vertices, u[keep], v[keep])
    assert greedy_ordering_valid(n_vertices, u[keep], v[keep], pos)


def test_greedy_property_random_sweep():
    rng = stream(95, 0, 0)
    checked = 0
    for _ in range(120):
        m = int(rng.integers(2, 6))
        g = build_orientation(random_dense_pmf(rng, m))
        scales = g.scales()
        if not scales:
            continue
        kappa = int(scales[rng.integers(len(scales))])
        n_v = 1 << m
        size = int(rng.integers(1, n_v))
        big_u = rng.choice(n_v, size=size, replace=False)
        rest = np.setdiff1d(np.arange(n_v), big_u)
        v = int(rest[rng.integers(rest.size)])
        out_deg = g.out_degrees(SCALE, kappa)
        gbound = max(1, int(out_deg[big_u].max()))
        checked += 1
        assert check_greedy_property(g, kappa, big_u, v, gbound)
    assert checked > 60


def test_greedy_property_vacuous_cases():
    rng = stream(96, 0, 0)
    g = build_orientation(random_dense_pmf(rng, 3))
    # v inside U is vacuous, whatever else holds
    assert check_greedy_property(g, 1, {0, 1}, 1, 0)


def test_count_directed_into_raw():
    p = DensePmf(2, np.array([0.3, 0.2, 0.25, 0.25]))
    g = build_orientation(p)
    # the single kappa=2 edge points 0 -> 1 (greedy order deletes 0 first)
    assert count_directed_into(g, 2, {0}, 1) == 1
    assert count_directed_into(g, 2, {1}, 0) == 0


# ---------------------------------------------------------------------------
# robust averaging inequality and Khintchine


def test_pisier_point_mass_frozen():
    # point mass: f = 2^m 1_atom - 1, so E|f| = 2 (1 - 2^-m) -> 1.75 at m=3
    p = DensePmf.point_mass(Point(np.array([-1, -1, -1], dtype=np.int8)))
    rep = evaluate_robust_pisier(p, s=1.0)
    assert rep.lhs == pytest.approx(1.75, abs=1e-12)
    assert rep.rhs > 0
    assert rep.context["mode"] == "exact"
    assert math.isfinite(rep.ratio)


def test_pisier_uniform_is_degenerate_zero():
    rep = evaluate_robust_pisier(DensePmf.uniform(3), s=1.0)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_pisier_s_validation_and_mc_guard():
    with pytest.raises(ValueError):
        evaluate_robust_pisier(DensePmf.uniform(2), s=0.5)


def test_khintchine_frozen_values():
    assert khintchine_lhs(np.array([1.0])) == pytest.approx(1.0)
    assert khintchine_lhs(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert khintchine_lhs(np.array([3.0, 4.0])) == pytest.approx(
        (7 + 1 + 1 + 7) / 4
    )
    assert verify_khintchine(np.array([1.0, 1.0]))


@settings(max_examples=60)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=1, max_size=10)
)
def test_khintchine_random(vals):
    a = np.array(vals, dtype=np.float64)
    assert khintchine_lhs(a) <= np.linalg.norm(a) + 1e-12
    assert verify_khintchine(a)


def test_khintchine_rejects_oversized_input():
    with pytest.raises(ValueError):
        khintchine_lhs(np.ones(21))


# ---------------------------------------------------------------------------
# restriction means: graph-to-mean and contributing pairs


def test_conditional_mean_frozen_example():
    # mass [0.02, 0.1, 0.08, 0.8] over {-1,1}^2; conditioned on x_0 = +1 the
    # coordinate-1 mean is (0.8 - 0.08) / 0.88
    p = DensePmf(2, np.array([0.02, 0.1, 0.08, 0.8]))
    rho = Restriction(np.array([1, 0], dtype=np.int8))
    mu = _conditional_mean_at(p, rho, 1)
    assert mu == pytest.approx(0.72 / 0.88, abs=1e-12)
    assert abs(mu) >= 1 / 20
    # with no conditioning the coordinate means are the plain marginals
    free = Restriction(np.array([0, 0], dtype=np.int8))
    assert _conditional_mean_at(p, free, 1) == pytest.approx(
        mean_vector(p).values[1], abs=1e-12
    )


def test_conditional_mean_zero_mass_subcube():
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    rho = Restriction(np.array([-1, 0], dtype=np.int8))
    assert _conditional_mean_at(pm, rho, 1) == 0.0


def test_graph_to_mean_random_sweep():
    rng = stream(97, 0, 0)
    nonvac = 0
    for case in range(40):
        n = 3 + case % 3
        p = random_dense_pmf(rng, n)
        t = int(rng.integers(1, n))
        rep = verify_graph_to_mean(p, t, trials=15, rng=rng)
        assert rep.ok, rep.failures
        nonvac += rep.nonvacuous
    assert nonvac > 100


def test_graph_to_mean_validation():
    rng = stream(98, 0, 0)
    with pytest.raises(ValueError):
        verify_graph_to_mean(DensePmf.uniform(9), 1, 1, rng)
    with pytest.raises(ValueError):
        verify_graph_to_mean(DensePmf.uniform(3), 3, 1, rng)


def test_contributing_bias_random_sweep():
    rng = stream(99, 0, 0)
    nonvac = 0
    for case in range(40):
        n = 3 + case % 3
        p = random_dense_pmf(rng, n, alpha=0.15)
        rep = verify_contributing_bias(p, trials=15, rng=rng)
        assert rep.ok, rep.failures
        nonvac += rep.nonvacuous
    assert nonvac > 40


def test_contributing_bias_needs_two_coordinates():
    rng = stream(100, 0, 0)
    with pytest.raises(ValueError):
        verify_contributing_bias(DensePmf.uniform(1), 1, rng)


# ---------------------------------------------------------------------------
# pairing-statistic moment bands


def test_variance_bound_uniform():
    rng = stream(101, 0, 0)
    rep = verify_variance_bound(DensePmf.uniform(4), q=10, batches=600, rng=rng)
    assert rep.ok, rep.extras
    assert rep.extras["mu_sq"] == pytest.approx(0.0, abs=1e-12)
    assert rep.extras["frob_sq"] == pytest.approx(4.0, rel=1e-12)
    # recorded on the float64 einsum route this check used before; every sum
    # is an exact integer below 2^53, so the exact statistic matches bit for bit
    assert (rep.extras["z_mean"], rep.extras["z_var"]) == (
        -0.0035333333333333306,
        0.033854606566499724,
    )


def test_variance_bound_biased_product_level1():
    rng = stream(102, 0, 0)
    mass = np.ones(1)
    for _ in range(4):
        mass = np.kron(mass, np.array([0.35, 0.65]))
    p = DensePmf(4, mass)
    rep = verify_variance_bound(p, q=20, batches=600, rng=rng, level=1)
    assert rep.ok, rep.extras
    assert (rep.extras["z_mean"], rep.extras["z_var"]) == (4.097033333333334, 0.08055011574846968)


def test_variance_bound_rejects_large_n():
    rng = stream(103, 0, 0)
    with pytest.raises(ValueError):
        verify_variance_bound(DensePmf.uniform(7), q=5, batches=10, rng=rng)


def test_random_dense_pmf_is_valid():
    rng = stream(104, 0, 0)
    p = random_dense_pmf(rng, 5)
    assert p.mass.min() >= 0
    assert p.mass.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the edge tester's exact null accept rate


def test_edge_null_accept_matches_the_recorded_table():
    # prod_h (1 - f_h)^m_h on the EdgeConfig() levels, as tabulated for
    # n = 16..1024 before this function existed
    table = {
        0.5: [0.995, 0.989, 0.962, 0.874, 0.689, 0.298, 0.039],
        0.25: [0.978, 0.933, 0.763, 0.493, 0.089, 0.002, 0.000],
    }
    for eps, row in table.items():
        got = [round(edge_null_accept(n, eps), 3) for n in (16, 32, 64, 128, 256, 512, 1024)]
        assert got == row
    assert edge_null_accept(64, 0.5) == edge_null_accept(64, 0.5, EdgeConfig())


def test_edge_fire_prob_matches_every_count():
    # the summed tail at the level rule's c against the tester's float
    # predicate at every count x, weighted by the exact binomial mass
    for b in (1, 2, 3, 7, 10, 13, 40, 64, 65, 80, 257):
        for theta in (0.01, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.9, 0.999, 1.0, 2.0):
            fire = [x for x in range(b + 1) if abs((2.0 * x - b) / b) > theta]
            want = sum(math.comb(b, x) for x in fire) / 2**b
            got = _edge_fire_prob(b, _count_threshold(b, theta))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
    # a threshold no count can pass leaves every pair silent
    assert _count_threshold(10, 1.0) == 11
    assert _edge_fire_prob(10, _count_threshold(10, 1.0)) == 0.0
    # at c3 = 1e-9 every pair of the odd-b levels (b = 313, 157, 79 at
    # n = 16) fires, so no run accepts; the summed tail may round past 1
    assert _edge_fire_prob(313, EdgeConfig(c3=1e-9).levels(16, 0.5)[7].c) >= 1.0
    assert edge_null_accept(16, 0.5, EdgeConfig(c3=1e-9)) == 0.0


# ---------------------------------------------------------------------------
# the curtailed majority vote's exact law


def test_majority_vote_law_closed_forms():
    for p in (0.0, 0.1, 0.5004, 0.9, 1.0):
        assert majority_vote_law(p, 1) == pytest.approx((p, 1.0))
        # 2 repetitions first, a third when they split
        accept, runs = majority_vote_law(p, 3)
        assert accept == pytest.approx(p * p * (3 - 2 * p), abs=1e-15)
        assert runs == pytest.approx(2 + 2 * p * (1 - p), abs=1e-15)
    for t in (5, 15, 101):
        # a sure side needs (t + 1) // 2 repetitions; a fair coin's vote is fair
        assert majority_vote_law(1.0, t) == (1.0, (t + 1) / 2)
        assert majority_vote_law(0.0, t) == (0.0, (t + 1) / 2)
        assert majority_vote_law(0.5, t)[0] == pytest.approx(0.5, abs=1e-14)


def test_majority_vote_law_is_the_full_majority():
    # the curtailed vote decides as the majority of all t repetitions
    for t in (5, 7, 15, 31):
        for p in (0.2, 0.45, 0.7):
            majorities = range((t + 1) // 2, t + 1)
            full = sum(math.comb(t, a) * p**a * (1 - p) ** (t - a) for a in majorities)
            accept, runs = majority_vote_law(p, t)
            assert accept == pytest.approx(full, rel=1e-12)
            assert (t + 1) / 2 <= runs <= t


def test_majority_vote_law_validates():
    for t in (0, -1, 2, 4):
        with pytest.raises(ValueError):
            majority_vote_law(0.5, t)
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            majority_vote_law(p, 3)


def test_majority_vote_law_refuses_underflowing_terms():
    # at p = 1/2 the first terms are 2^-need, normal floats up to need = 1022
    assert majority_vote_law(0.5, 2043)[0] == pytest.approx(0.5, abs=1e-14)
    for p, t in ((0.5, 2149), (0.6, 4001)):
        with pytest.raises(ValueError, match="underflow"):
            majority_vote_law(p, t)


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: probe_restriction_theorem(DensePmf.uniform(9), 0.5),
            "restriction probe needs n <= 8",
            id="probe-cap",
        ),
        pytest.param(
            lambda: probe_restriction_theorem(DensePmf.uniform(2), 1.5), "sigma", id="probe-sigma"
        ),
        pytest.param(
            lambda: build_orientation(DensePmf.uniform(15)), "m <= 14", id="orientation-cap"
        ),
        pytest.param(
            lambda: evaluate_robust_pisier(DensePmf.uniform(11)), "needs an rng", id="pisier-rng"
        ),
        pytest.param(
            lambda: verify_contributing_bias(DensePmf.uniform(9), 1, stream(0, 0, 0)),
            "n <= 8",
            id="contributing-cap",
        ),
    ],
)
def test_lab_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_khintchine_of_no_coordinates_is_zero():
    assert khintchine_lhs(np.zeros(0)) == 0.0
