"""Oracle layer: query ledger accounting, conditioning semantics,
restriction composition, and determinism."""

import numpy as np
import pytest

from hypercube_tester.model import (
    DensePmf,
    Point,
    ProductDistribution,
    Restriction,
    conditional_table,
    points_to_indices,
)
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream


def make_oracle(target=None, seed=0):
    target = target or ProductDistribution.uniform(6)
    return ScondOracle(target, stream(seed, 0, 0))


# ---------------------------------------------------------------------------
# ledger


def test_sample_charges_one_query_each():
    o = make_oracle()
    o.sample()
    assert o.queries == 1
    o.sample(10)
    assert o.queries == 11


def test_cond_sample_charges_per_draw():
    o = make_oracle()
    rho = Restriction(np.array([0, 0, 1, -1, 0, 0], dtype=np.int8))
    o.cond_sample(rho, 7)
    assert o.queries == 7


def test_restriction_draw_charges_one_query():
    o = make_oracle()
    o.draw_restriction_sigma(0.5)
    assert o.queries == 1
    o.draw_restriction_fixed(3)
    assert o.queries == 2


def test_edge_bias_rejects_bad_coordinates_before_charging():
    o = make_oracle(ProductDistribution.uniform(3))
    points = np.ones((1, 3), dtype=np.int8)
    # -1 would wrap to the last coordinate, 1.5 would truncate to 1, and 7
    # would fail deep inside the target
    for bad in ([-1], [1.5], [7], [3]):
        with pytest.raises(ValueError):
            o.estimate_edge_biases(points, np.array(bad), 4)
    assert o.queries == 0
    view = o.restricted(Restriction(np.array([1, 0, 0], dtype=np.int8)))
    with pytest.raises(ValueError):
        view.estimate_edge_biases(np.ones((1, 2), dtype=np.int8), np.array([2]), 4)
    assert o.queries == 0
    view.estimate_edge_biases(np.ones((2, 2), dtype=np.int8), np.array([0, 1]), 4)
    assert o.queries == 8


def test_edge_bias_estimates_charge_pairs_times_draws():
    o = make_oracle()
    pts = o.sample(4)
    coords = np.array([0, 1, 2, 3])
    ests = o.estimate_edge_biases(pts, coords, draws_per_pair=25)
    assert o.queries == 4 + 4 * 25
    assert ests.shape == (4,)
    assert (np.abs(ests) <= 1).all()


# ---------------------------------------------------------------------------
# conditioning semantics


def test_cond_sample_law_matches_conditional_table():
    rng = stream(3, 0, 0)
    mass = rng.dirichlet(np.ones(16))
    p = DensePmf(4, mass)
    o = ScondOracle(p, stream(4, 0, 0))
    rho = Restriction(np.array([0, 1, 0, -1], dtype=np.int8))
    table, _ = conditional_table(p, rho)
    draws = o.cond_sample(rho, 50_000)
    freq = np.bincount(points_to_indices(draws), minlength=4) / 50_000
    assert np.abs(freq - table).max() < 0.01


def test_zero_support_counted_and_uniform():
    pm = DensePmf.point_mass(Point(np.array([1, 1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(5, 0, 0))
    rho = Restriction(np.array([-1, 0, 0], dtype=np.int8))
    draws = o.cond_sample(rho, 1000)
    assert o.zero_support_hits == 1000
    assert o.queries == 1000
    assert abs(draws.mean()) < 0.1


def test_draw_restriction_sigma_statistics():
    o = make_oracle(ProductDistribution.uniform(40), seed=6)
    stars = 0
    for _ in range(200):
        rho = o.draw_restriction_sigma(0.3)
        stars += rho.num_stars
        fixed_vals = rho.cells[rho.fixed]
        assert np.isin(fixed_vals, (-1, 1)).all()
    rate = stars / (200 * 40)
    assert abs(rate - 0.3) < 0.03


def test_draw_restriction_sigma_fills_from_target():
    # a point mass forces every non-star cell to equal the atom
    atom = np.array([1, -1, 1, -1], dtype=np.int8)
    o = ScondOracle(DensePmf.point_mass(Point(atom)), stream(7, 0, 0))
    for _ in range(20):
        rho = o.draw_restriction_sigma(0.5)
        assert (rho.cells[rho.fixed] == atom[rho.fixed]).all()


def test_draw_restriction_fixed_star_count():
    o = make_oracle(seed=8)
    for t in (0, 2, 6):
        rho = o.draw_restriction_fixed(t)
        assert rho.num_stars == t


# ---------------------------------------------------------------------------
# edge-bias estimator


def test_edge_bias_estimator_is_unbiased():
    prod = ProductDistribution(np.full(5, 0.4))
    o = ScondOracle(prod, stream(9, 0, 0))
    pts = o.sample(2000)
    coords = np.zeros(2000, dtype=np.int64)
    ests = o.estimate_edge_biases(pts, coords, draws_per_pair=64)
    assert abs(ests.mean() - 0.4) < 0.01
    # single-pair estimates live on the binomial grid
    assert np.allclose((ests * 64 + 64) % 2, 0)


def test_edge_bias_zero_support_counts():
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(10, 0, 0))
    # the pair ((-1, -1), coord 0) straddles masses 0 and 0
    pts = np.array([[-1, -1]], dtype=np.int8)
    o.estimate_edge_biases(pts, np.array([0]), draws_per_pair=16)
    assert o.zero_support_hits == 16


# ---------------------------------------------------------------------------
# restricted views


def test_restricted_oracle_shares_ledger():
    o = make_oracle(seed=11)
    rho = Restriction(np.array([0, 0, 1, 1, -1, 0], dtype=np.int8))
    sub = o.restricted(rho)
    assert sub.n == 3
    sub.sample(5)
    assert o.queries == 5
    assert sub.queries == 5


def test_restricted_sample_equals_parent_cond_sample():
    rng_a = stream(12, 0, 0)
    rng_b = stream(12, 0, 0)
    mass = stream(13, 0, 0).dirichlet(np.ones(16))
    p = DensePmf(4, mass)
    rho = Restriction(np.array([0, -1, 0, 1], dtype=np.int8))

    o1 = ScondOracle(p, rng_a)
    direct = o1.cond_sample(rho, 40)
    o2 = ScondOracle(p, rng_b)
    viewed = o2.restricted(rho).sample(40)
    assert (direct == viewed).all()


def test_restricted_cond_sample_composes_restrictions():
    mass = stream(14, 0, 0).dirichlet(np.ones(16))
    p = DensePmf(4, mass)
    rho = Restriction(np.array([0, -1, 0, 0], dtype=np.int8))  # stars 0,2,3
    sub = Restriction(np.array([1, 0, 0], dtype=np.int8))  # fixes star 0 -> coord 0

    o1 = ScondOracle(p, stream(15, 0, 0))
    via_view = o1.restricted(rho).cond_sample(sub, 30)
    o2 = ScondOracle(p, stream(15, 0, 0))
    direct = o2.cond_sample(Restriction(np.array([1, -1, 0, 0], dtype=np.int8)), 30)
    assert (via_view == direct).all()


def test_restricted_edge_bias_maps_coordinates():
    mu = np.array([0.0, 0.5, -0.5, 0.25])
    prod = ProductDistribution(mu)
    o = ScondOracle(prod, stream(16, 0, 0))
    rho = Restriction(np.array([1, 0, 0, 0], dtype=np.int8))  # stars 1,2,3
    sub = o.restricted(rho)
    pts = sub.sample(600)
    assert pts.shape == (600, 3)
    # coord 1 of the view is parent coordinate 2, bias -0.5
    ests = sub.estimate_edge_biases(pts, np.full(600, 1), draws_per_pair=128)
    assert abs(ests.mean() + 0.5) < 0.02


def test_double_restriction_flattens_to_parent():
    o = make_oracle(seed=17)
    rho = Restriction(np.array([0, 0, 1, 0, 0, -1], dtype=np.int8))
    view = o.restricted(rho)  # stars 0,1,3,4
    sub = Restriction(np.array([0, -1, 0, 0], dtype=np.int8))  # fixes star 1 -> coord 1
    view2 = view.restricted(sub)
    view2.sample(4)
    assert o.queries == 4
    assert view2.rho.cells.tolist() == [0, -1, 1, 0, 0, -1]
    assert view2.n == 3


def test_two_level_view_charges_root_ledger():
    pm = DensePmf.point_mass(Point(np.array([1, 1, 1, 1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(18, 0, 0))
    view = o.restricted(Restriction(np.array([0, 0, 0, 1, 0], dtype=np.int8)))
    # fixing the view's last star (coordinate 4) to -1 leaves a zero-mass subcube
    view2 = view.restricted(Restriction(np.array([0, 0, 0, -1], dtype=np.int8)))
    view2.draw_restriction_sigma(0.5)
    view2.draw_restriction_fixed(2)
    view2.cond_sample(Restriction(np.array([0, 1, 0], dtype=np.int8)), 5)
    view2.estimate_edge_biases(np.ones((2, 3), dtype=np.int8), np.array([0, 2]), 8)
    assert o.queries == 1 + 1 + 5 + 2 * 8
    assert o.zero_support_hits == o.queries
    assert view.queries == view2.queries == o.queries
    assert view2.zero_support_hits == o.zero_support_hits


def test_restriction_dimension_mismatch_raises():
    o = make_oracle()
    with pytest.raises(ValueError):
        o.restricted(Restriction(np.array([0, 1], dtype=np.int8)))


# ---------------------------------------------------------------------------
# determinism


def test_same_stream_path_reproduces_everything():
    def run(seed):
        o = ScondOracle(ProductDistribution(np.full(8, 0.3)), stream(seed, 2, 5))
        xs = o.sample(20)
        rho = o.draw_restriction_sigma(0.4)
        ys = o.cond_sample(rho, 10)
        ests = o.estimate_edge_biases(xs[:5], np.arange(5), 32)
        return xs, rho.cells, ys, ests, o.queries

    a = run(21)
    b = run(21)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = run(22)
    assert not np.array_equal(a[0], c[0])
