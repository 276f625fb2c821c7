"""Oracle layer: query ledger accounting, conditioning semantics,
restriction composition, and determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from hypercube_tester.model import (
    DensePmf,
    Point,
    ProductDistribution,
    Restriction,
    all_sign_points,
    conditional_table,
    points_to_indices,
)
from hypercube_tester.oracle import Ledger, ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.zoo import NoisyParityDistribution


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
    assert o.sample(0).shape == (0, 6)
    assert o.sample(3.0).shape == (3, 6)
    assert o.queries == 14
    # sizes are checked before anything is charged: -1 would leave the
    # ledger at -1, and 2.5 would draw and charge 2
    rho = Restriction(np.array([0, 1, 0, 0, 0, 0], dtype=np.int8))
    for bad in (-1, 2.5):
        with pytest.raises(ValueError):
            o.sample(bad)
        with pytest.raises(ValueError):
            o.cond_sample(rho, bad)
        with pytest.raises(ValueError):
            o.restricted(rho).sample(bad)
    assert o.queries == 14


def test_cond_sample_charges_per_draw():
    o = make_oracle()
    rho = Restriction(np.array([0, 0, 1, -1, 0, 0], dtype=np.int8))
    o.cond_sample(rho, 7)
    assert o.queries == 7


def test_restriction_draw_charges_one_query():
    o = make_oracle()
    o.draw_restriction_sigma(0.5)
    assert o.queries == 1


def test_edge_bias_rejects_bad_coordinates_before_charging():
    o = make_oracle(ProductDistribution.uniform(3))
    points = np.ones((1, 3), dtype=np.int8)
    # -1 would wrap to the last coordinate, 1.5 would truncate to 1, and 7
    # would fail deep inside the target
    for bad in ([-1], [1.5], [7], [3]):
        with pytest.raises(ValueError):
            o.estimate_edge_biases(points, np.array(bad), 4)
    # a fractional draw count would be truncated to 2 per pair
    for bad in (2.5, 0, -3):
        with pytest.raises(ValueError):
            o.estimate_edge_biases(points, np.array([0]), bad)
    assert o.queries == 0
    view = o.restricted(Restriction(np.array([1, 0, 0], dtype=np.int8)))
    with pytest.raises(ValueError):
        view.estimate_edge_biases(np.ones((1, 2), dtype=np.int8), np.array([2]), 4)
    assert o.queries == 0
    view.estimate_edge_biases(np.ones((2, 2), dtype=np.int8), np.array([0, 1]), 4)
    assert o.queries == 8


def test_edge_bias_rejects_shape_mismatch_before_charging():
    o = make_oracle(ProductDistribution.uniform(3))
    # one point for three coordinates would return 3 estimates and charge 1 * b;
    # 5-wide points on a 3-coordinate root would pass unnoticed
    for points, coords in [
        (np.ones((1, 3), dtype=np.int8), np.array([0, 1, 2])),
        (np.ones((1, 5), dtype=np.int8), np.array([0])),
        (np.ones((2, 3), dtype=np.int8), np.array([0])),
    ]:
        with pytest.raises(ValueError, match="shape"):
            o.estimate_edge_biases(points, coords, 4)
    view = o.restricted(Restriction(np.array([1, 0, 0], dtype=np.int8)))
    with pytest.raises(ValueError, match="shape"):
        view.estimate_edge_biases(np.ones((1, 3), dtype=np.int8), np.array([0]), 4)
    assert o.queries == 0


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


def _plus_counts(ests, b):
    """The +1 counts behind estimates (2 plus - b) / b."""
    return np.rint((ests * b + b) / 2).astype(np.int64)


def _chi2_upper(df, z=3.09):
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z
    (3.09: the 99.9th percentile)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.mark.parametrize("b", [1, 31, 50, 63, 64])
def test_fair_edge_bias_counts_are_binomial_half(b):
    m, n = 200_000, 8
    o = ScondOracle(ProductDistribution.uniform(n), stream(30, 0, b))
    pts = np.ones((m, n), dtype=np.int8)
    coords = np.arange(m) % n
    plus = _plus_counts(o.estimate_edge_biases(pts, coords, b), b)
    assert o.queries == m * b
    mean, var = b / 2.0, b / 4.0
    assert abs(plus.mean() - mean) < 5 * math.sqrt(var / m)
    # the mean square about b/2 has variance (mu4 - var^2)/m with
    # mu4 = 3var^2 - b/8; at b = 1 it is exactly var
    assert abs(((plus - mean) ** 2).mean() - var) <= 5 * math.sqrt((b * b - b) / 8.0 / m)
    # chi-square over the counts, merging the tails while a cell expects < 5
    pmf = np.array([math.comb(b, k) for k in range(b + 1)], dtype=np.float64) / 2.0**b
    expected, observed = m * pmf, np.bincount(plus, minlength=b + 1).astype(np.float64)
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]
    exp_cells, obs_cells = (
        np.concatenate(([c[: lo + 1].sum()], c[lo + 1 : hi], [c[hi:].sum()]))
        for c in (expected, observed)
    )
    chi2 = float(((obs_cells - exp_cells) ** 2 / exp_cells).sum())
    assert chi2 < _chi2_upper(exp_cells.size - 1)


@pytest.mark.parametrize("b", [1, 50, 63, 64])
def test_fair_edge_bias_replays_low_bits_of_raw_words(b):
    m = 300
    o = ScondOracle(ProductDistribution.uniform(6), stream(31, 0, b))
    coords = np.arange(m) % 6
    plus = _plus_counts(o.estimate_edge_biases(np.ones((m, 6), dtype=np.int8), coords, b), b)
    words = stream(31, 0, b).bit_generator.random_raw(m)
    assert plus.tolist() == [bin(int(w) & ((1 << b) - 1)).count("1") for w in words]
    assert o.queries == m * b


def test_edge_bias_zero_support_pairs_take_the_fair_route():
    # the pair straddles two zero-mass points; the oracle answers with fair coins
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(32, 0, 0))
    pts = np.full((4, 2), -1, dtype=np.int8)
    plus = _plus_counts(o.estimate_edge_biases(pts, np.zeros(4, np.int64), 40), 40)
    words = stream(32, 0, 0).bit_generator.random_raw(4)
    assert plus.tolist() == [bin(int(w) & ((1 << 40) - 1)).count("1") for w in words]
    assert o.queries == o.zero_support_hits == 4 * 40


@pytest.mark.parametrize("b", [50, 100])
def test_biased_edge_bias_chunk_keeps_binomial_draws(b):
    # one nonzero bias puts the whole chunk on rng.binomial, as before
    mu = np.array([0.0, 0.3, 0.0, 0.0])
    o = ScondOracle(ProductDistribution(mu), stream(33, 0, b))
    coords = np.array([0, 2, 1, 3, 0, 2])
    ests = o.estimate_edge_biases(np.ones((6, 4), dtype=np.int8), coords, b)
    want = stream(33, 0, b).binomial(b, (1.0 + mu[coords]) / 2.0)
    assert _plus_counts(ests, b).tolist() == want.tolist()
    assert o.queries == 6 * b


@pytest.mark.parametrize("b", [65, 100, 6400])
def test_fair_edge_bias_above_one_word_matches_array_binomial(b):
    m = 200
    o = ScondOracle(ProductDistribution.uniform(5), stream(34, 0, b))
    ests = o.estimate_edge_biases(np.ones((m, 5), dtype=np.int8), np.arange(m) % 5, b)
    want = stream(34, 0, b).binomial(b, np.full(m, 0.5))
    assert _plus_counts(ests, b).tolist() == want.tolist()
    assert o.queries == m * b


def test_edge_bias_zero_support_counts():
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(10, 0, 0))
    # the pair ((-1, -1), coord 0) straddles masses 0 and 0
    pts = np.array([[-1, -1]], dtype=np.int8)
    o.estimate_edge_biases(pts, np.array([0]), draws_per_pair=16)
    assert o.zero_support_hits == 16


# ---------------------------------------------------------------------------
# edge blocks: one call for sample, coordinates and estimates


def _quarter_zero_pmf(n: int = 6) -> DensePmf:
    """Random masses, with zero mass wherever x_0 = x_1 = +1."""
    pts = all_sign_points(n)
    mass = stream(35, 0, 0).random(1 << n) * ~((pts[:, 0] > 0) & (pts[:, 1] > 0))
    return DensePmf(n, mass / mass.sum())


EDGE_BLOCK_TARGETS = {
    "uniform": lambda: ProductDistribution.uniform(6),
    # means that avoid +-1, drawn from float uniforms
    "fractional_product": lambda: ProductDistribution([0.3, -0.5, 0.2, 0.0, 0.7, -0.1]),
    "pinned_product": lambda: ProductDistribution([1.0, -1.0, 0.3, 0.0, -0.5, 0.2]),
    "noisy_parity": lambda: NoisyParityDistribution(6, [0, 1], 0.3),
    "zero_subcube_pmf": _quarter_zero_pmf,
}

# the first view's subcube has zero mass under pinned_product and
# zero_subcube_pmf, the second has positive mass under every target
EDGE_BLOCK_VIEWS = (
    None,
    Restriction(np.array([1, 1, 0, 0, 0, 0])),
    Restriction(np.array([0, 0, 1, 0, -1, 0])),
)


def _assert_edge_block_replays(target, rho, rng_path):
    """edge_block against sample, rng.integers and estimate_edge_biases in
    turn on two clones of one stream: coordinates, counts, ledger and the
    next raw word."""
    roots = [ScondOracle(target, stream(36, *rng_path)) for _ in range(2)]
    fused, parts = (o if rho is None else o.restricted(rho) for o in roots)
    for size, b in ((1, 3), (7, 64), (40, 200), (25, 17)):
        coords, plus = fused.edge_block(size, b)
        points = parts.sample(size)
        want_coords = parts.rng.integers(0, parts.n, size)
        want = parts.estimate_edge_biases(points, want_coords, b)
        assert coords.tolist() == want_coords.tolist()
        assert ((2.0 * plus - b) / b).tolist() == want.tolist()
        assert ((plus >= 0) & (plus <= b)).all()
    assert roots[0].ledger == roots[1].ledger
    # both calls leave the stream at the same place
    assert roots[0].rng.bit_generator.random_raw() == roots[1].rng.bit_generator.random_raw()
    return roots[0]


@pytest.mark.parametrize("view", range(len(EDGE_BLOCK_VIEWS)))
@pytest.mark.parametrize("name", sorted(EDGE_BLOCK_TARGETS))
def test_edge_block_replays_sample_coords_and_estimates(name, view):
    root = _assert_edge_block_replays(
        EDGE_BLOCK_TARGETS[name](), EDGE_BLOCK_VIEWS[view], (view, 0)
    )
    if view == 1 and name in ("pinned_product", "zero_subcube_pmf"):
        assert root.zero_support_hits == root.queries > 0


@pytest.mark.parametrize("stars", [65, 130])
def test_edge_block_replays_uniform_rows_of_several_words(stars):
    # rows of 65 and 130 entries span two and three raw words, k % 64 != 0
    cells = np.zeros(130, dtype=np.int8)
    cells[stars:] = 1
    rho = None if stars == 130 else Restriction(cells)
    root = _assert_edge_block_replays(ProductDistribution.uniform(130), rho, (stars, 1))
    assert root.zero_support_hits == 0


def _block_peak_bytes(target, size, b):
    o = ScondOracle(target, stream(39, 0, 0))
    o.edge_block(size, b)  # warm caches, such as the restriction's stars
    tracemalloc.start()
    try:
        o.edge_block(size, b)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uniform_edge_block_builds_no_point_matrix():
    # one 4,096-pair block at n = 128: its int8 points alone take 512 KiB
    limit = 256 << 10
    for b in (50, 100):
        assert _block_peak_bytes(ProductDistribution.uniform(128), 4096, b) < limit
    # a target that reads its points still builds them, so a silent fall
    # back to that route on the uniform product would fail above
    parity = NoisyParityDistribution(128, [0, 1], 0.3)
    assert _block_peak_bytes(parity, 4096, 50) > limit


@pytest.mark.parametrize("bad", [0, 2, 1.7, -3])
def test_edge_bias_rejects_non_sign_points_before_charging(bad):
    # an int8 cast made 1.7 a +1 and 0 a point of its own, and both were
    # charged and answered
    o = ScondOracle(DensePmf(3, np.arange(1, 9) / 36), stream(40, 0, 0))
    points = np.array([[1, -1, 1], [1, 1, -1]], dtype=np.float64)
    points[1, 1] = bad
    with pytest.raises(ValueError, match="-1 or \\+1"):
        o.estimate_edge_biases(points, np.array([0, 2]), 10)
    assert o.ledger == Ledger()
    assert o.rng.bit_generator.random_raw() == stream(40, 0, 0).bit_generator.random_raw()


@pytest.mark.parametrize("b", [0, -3, 2.5, 1e9 + 0.5])
def test_edge_block_rejects_bad_draws_before_charging(b):
    o = ScondOracle(ProductDistribution.uniform(6), stream(37, 0, 0))
    with pytest.raises(ValueError, match="draws_per_pair"):
        o.edge_block(5, b)
    assert o.ledger == Ledger()
    assert o.rng.bit_generator.random_raw() == stream(37, 0, 0).bit_generator.random_raw()


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
    view2.cond_sample(Restriction(np.array([0, 1, 0], dtype=np.int8)), 5)
    view2.estimate_edge_biases(np.ones((2, 3), dtype=np.int8), np.array([0, 2]), 8)
    assert o.queries == 1 + 5 + 2 * 8
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
