"""Oracle layer: query ledger accounting, conditioning semantics,
restriction composition, and determinism."""

import math

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
    subcube_mass,
)
from hypercube_tester.oracle import Ledger, ScondOracle
from hypercube_tester.rng import stream
from hypercube_tester.zoo import (
    HeavyAtomDistribution,
    JuntaMixDistribution,
    NoisyParityDistribution,
    TwoPointDistribution,
)


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


def test_edge_bias_estimates_charge_pairs_times_draws():
    o = make_oracle()
    coords, plus = o.edge_block(4, draws_per_pair=25)
    assert o.queries == 4 * (1 + 25)
    assert coords.shape == plus.shape == (4,)
    assert ((coords >= 0) & (coords < 6)).all()
    assert ((plus >= 0) & (plus <= 25)).all()


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
# edge blocks: one call for points, coordinates and +1 counts


def _reference_pairs(view, size):
    """An edge block's pairs from public calls on view's stream, in
    edge_block's order: sample(size), then rng.integers(0, n, size).
    Returns (coords, bias, zero) from the target's view_edge_bias."""
    points = view.sample(size)
    coords = view.rng.integers(0, view.n, size)
    return (coords, *view.target.view_edge_bias(view.rho, points, coords))


def _reference_block(view, size, b):
    """edge_block's (coords, counts) from public calls: the pairs of
    _reference_pairs, then the counts, rng.binomial(b, (1 + bias)/2) for
    every block, fair or not. Charges view's ledger as edge_block does."""
    coords, bias, zero = _reference_pairs(view, size)
    counts = view.rng.binomial(b, (1.0 + bias) / 2.0)
    view.ledger.queries += size * b
    view.ledger.zero_support_hits += int(zero.sum()) * b
    return coords, np.asarray(counts)


def test_edge_bias_estimator_is_unbiased():
    # every coordinate of this product has conditional bias 0.4
    prod = ProductDistribution(np.full(5, 0.4))
    o = ScondOracle(prod, stream(9, 0, 0))
    coords, plus = o.edge_block(2000, draws_per_pair=64)
    assert np.issubdtype(plus.dtype, np.integer)
    assert ((plus >= 0) & (plus <= 64)).all()
    assert abs(((2.0 * plus - 64) / 64).mean() - 0.4) < 0.01
    assert np.bincount(coords, minlength=5).min() > 300


def _chi2_upper(df, z=3.09):
    """Wilson-Hilferty approximation of the chi-square quantile at normal score z
    (3.09: the 99.9th percentile)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.mark.parametrize("b", [1, 31, 50, 63, 64])
def test_fair_edge_bias_counts_are_binomial_half(b):
    m, n = 200_000, 8
    o = ScondOracle(ProductDistribution.uniform(n), stream(30, 0, b))
    _, plus = o.edge_block(m, b)
    assert o.queries == m * (1 + b)
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
    # fair counts of b <= 64 draws, once the popcount of one raw word's low
    # b bits, now replay the one rng.binomial route as every block does
    m = 300
    o = ScondOracle(ProductDistribution.uniform(6), stream(31, 0, b))
    coords, plus = o.edge_block(m, b)
    ref = ScondOracle(ProductDistribution.uniform(6), stream(31, 0, b))
    want_coords, _, _ = _reference_pairs(ref, m)
    assert coords.tolist() == want_coords.tolist()
    assert plus.tolist() == ref.rng.binomial(b, np.full(m, 0.5)).tolist()
    assert o.queries == m * (1 + b)


def test_edge_bias_zero_support_pairs_take_the_fair_route():
    # the view's subcube has no mass, so its points come from the uniform
    # fallback and every pair straddles two zero-mass points: the oracle
    # answers with fair coins and counts every draw as a zero-support hit
    pm = DensePmf.point_mass(Point(np.array([1, 1, 1], dtype=np.int8)))
    dead = Restriction(np.array([-1, 0, 0], dtype=np.int8))
    o = ScondOracle(pm, stream(32, 0, 0)).restricted(dead)
    coords, plus = o.edge_block(4, 40)
    ref = ScondOracle(pm, stream(32, 0, 0)).restricted(dead)
    want_coords, bias, zero = _reference_pairs(ref, 4)
    assert zero.all() and not bias.any()
    assert coords.tolist() == want_coords.tolist()
    assert plus.tolist() == ref.rng.binomial(40, np.full(4, 0.5)).tolist()
    assert o.queries == o.zero_support_hits == 4 * (1 + 40)


def test_edge_bias_zero_support_counts():
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    o = ScondOracle(pm, stream(10, 0, 0))
    # the subcube x_0 = -1 has no mass: its point is one zero-support draw,
    # and its pair ((-1, x_1), coord 1) straddles masses 0 and 0
    o.restricted(Restriction(np.array([-1, 0], dtype=np.int8))).edge_block(1, 16)
    assert o.zero_support_hits == 1 + 16
    # pairs drawn from the support straddle a positive mass and count nothing
    o.edge_block(3, 16)
    assert o.zero_support_hits == 1 + 16


@pytest.mark.parametrize("b", [50, 100])
def test_biased_edge_bias_chunk_keeps_binomial_draws(b):
    # one nonzero bias puts the whole block on rng.binomial, fair pairs
    # included; the block is checked to hold both kinds
    mu = np.array([0.0, 0.3, 0.0, 0.0])
    o = ScondOracle(ProductDistribution(mu), stream(33, 0, b))
    coords, plus = o.edge_block(24, b)
    assert (mu[coords] != 0).any() and (mu[coords] == 0).any()
    ref = ScondOracle(ProductDistribution(mu), stream(33, 0, b))
    want_coords, _, _ = _reference_pairs(ref, 24)
    want = ref.rng.binomial(b, (1.0 + mu[want_coords]) / 2.0)
    assert coords.tolist() == want_coords.tolist()
    assert plus.tolist() == want.tolist()
    assert o.queries == 24 * (1 + b)


@pytest.mark.parametrize("b", [65, 100, 6400])
def test_fair_edge_bias_above_one_word_matches_array_binomial(b):
    m = 200
    o = ScondOracle(ProductDistribution.uniform(5), stream(34, 0, b))
    _, plus = o.edge_block(m, b)
    ref = ScondOracle(ProductDistribution.uniform(5), stream(34, 0, b))
    _reference_pairs(ref, m)
    assert plus.tolist() == ref.rng.binomial(b, np.full(m, 0.5)).tolist()
    assert o.queries == m * (1 + b)


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
    "two_point": lambda: TwoPointDistribution(np.ones(6)),
    "heavy_atom": lambda: HeavyAtomDistribution(1.0, np.ones(6)),
    "exact_parity": lambda: NoisyParityDistribution(6, [0, 1], 0.0),
    "junta_mix": lambda: JuntaMixDistribution(6, 2, [0, 0, 0, 1]),
}

# a view's subcube may have zero mass under a target, and then the block
# takes the oracle's zero-mass fallback; every target but the uniform,
# fractional_product and noisy_parity ones has zero mass on some view
EDGE_BLOCK_VIEWS = (
    None,
    Restriction(np.array([1, 1, 0, 0, 0, 0])),
    Restriction(np.array([0, 0, 1, 0, -1, 0])),
    Restriction(np.array([1, -1, 0, 0, 0, 0])),
)


def _assert_edge_block_replays(target, rho, rng_path):
    """edge_block against _reference_block on a clone of its stream:
    coordinates, counts, ledger and the next raw word."""
    roots = [ScondOracle(target, stream(36, *rng_path)) for _ in range(2)]
    fused, parts = (o if rho is None else o.restricted(rho) for o in roots)
    for size, b in ((1, 3), (7, 64), (40, 200), (25, 17)):
        coords, plus = fused.edge_block(size, b)
        want_coords, want = _reference_block(parts, size, b)
        assert coords.tolist() == want_coords.tolist()
        assert plus.tolist() == want.tolist()
        assert ((plus >= 0) & (plus <= b)).all()
    assert roots[0].ledger == roots[1].ledger
    # both calls leave the stream at the same place
    assert roots[0].rng.bit_generator.random_raw() == roots[1].rng.bit_generator.random_raw()
    return roots[0]


@pytest.mark.parametrize("view", range(len(EDGE_BLOCK_VIEWS)))
@pytest.mark.parametrize("name", sorted(EDGE_BLOCK_TARGETS))
def test_edge_block_replays_sample_coords_and_estimates(name, view):
    target, rho = EDGE_BLOCK_TARGETS[name](), EDGE_BLOCK_VIEWS[view]
    root = _assert_edge_block_replays(target, rho, (view, 0))
    # the points come from the target, whose edges through them have mass,
    # unless the view's subcube has none: then every draw is a hit
    dead = rho is not None and subcube_mass(target.dense(), rho) == 0.0
    assert root.zero_support_hits == (root.queries if dead else 0)


@pytest.mark.parametrize("stars", [65, 130])
def test_edge_block_replays_uniform_rows_of_several_words(stars):
    # rows of 65 and 130 entries span two and three raw words, k % 64 != 0
    cells = np.zeros(130, dtype=np.int8)
    cells[stars:] = 1
    rho = None if stars == 130 else Restriction(cells)
    root = _assert_edge_block_replays(ProductDistribution.uniform(130), rho, (stars, 1))
    assert root.zero_support_hits == 0


@pytest.mark.parametrize("b", [0, -3, 2.5, 1e9 + 0.5])
def test_edge_block_rejects_bad_draws_before_charging(b):
    o = ScondOracle(ProductDistribution.uniform(6), stream(37, 0, 0))
    with pytest.raises(ValueError, match="draws_per_pair"):
        o.edge_block(5, b)
    assert o.ledger == Ledger()
    assert o.rng.bit_generator.random_raw() == stream(37, 0, 0).bit_generator.random_raw()


def test_edge_block_refuses_a_view_with_no_star_before_charging():
    # a 0-star view has no coordinate to draw: it charged the points and then
    # failed in rng.integers(0, 0)
    root = ScondOracle(ProductDistribution(np.full(3, 0.2)), stream(38, 0, 0))
    view = root.restricted(Restriction(np.array([1, -1, 1], dtype=np.int8)))
    with pytest.raises(ValueError, match="dimension >= 1, got 0"):
        view.edge_block(3, 5)
    assert root.ledger == Ledger()


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


def test_drawn_view_is_the_restricted_random_restriction():
    # a target without column means: draw_view is
    # restricted(draw_restriction_sigma). A biased product whose column
    # means are withheld, as the tests' drawn-route hook withholds them
    target = ProductDistribution(np.full(12, 0.2))
    target.column_means = lambda rho: None
    for t in range(5):
        o, twin = (ScondOracle(target, stream(86, 0, t)) for _ in range(2))
        view = o.draw_view(0.4)
        want = twin.restricted(twin.draw_restriction_sigma(0.4))
        assert str(view.rho) == str(want.rho) and view.n == want.n
        assert view.ledger is o.ledger and o.queries == twin.queries == 1
        assert (view.sample(3) == want.sample(3)).all()


def test_fair_view_draws_only_its_star_count():
    # the uniform product: k ~ Binomial(n, sigma) from one rng.binomial, 1
    # query, and the root restriction with the first k cells stars and the
    # rest +1, one instance per (root n, k); a view of a view draws its k
    # from its own n
    target = ProductDistribution.uniform(40)
    for t in range(5):
        o = ScondOracle(target, stream(86, 1, t))
        replay = stream(86, 1, t)
        view = o.draw_view(0.3)
        k = int(replay.binomial(40, 0.3))
        assert view.n == k and view.rho is Restriction.leading_stars(40, k)
        assert str(view.rho) == "*" * k + "+" * (40 - k)
        assert view.ledger is o.ledger and view.rng is o.rng and o.queries == 1
        inner = view.draw_view(0.5)
        j = int(replay.binomial(k, 0.5))
        assert inner.n == j and inner.rho is Restriction.leading_stars(40, j)
        assert o.queries == 2
        assert o.rng.bit_generator.random_raw() == replay.bit_generator.random_raw()
    for sigma in (0.0, 1.0):
        assert ScondOracle(target, stream(86, 2, 0)).draw_view(sigma).n == 40 * sigma


def test_product_view_draws_only_its_star_mask():
    # a biased product: the star mask by the drawn route's rng.random(n) <
    # sigma, 1 query, no fill sample, and the view's other stars fixed at +1;
    # a view of a view draws its mask over its own stars. A product with a
    # mean of +-1 has no spectrum and draws its fill point
    mu = np.array([-0.6, 0.2, 0.5, 0.0, 0.2] * 2)
    target = ProductDistribution(mu)
    for t in range(5):
        o = ScondOracle(target, stream(86, 3, t))
        replay = stream(86, 3, t)
        view = o.draw_view(0.4)
        star = replay.random(10) < 0.4
        assert view.rho.cells.tolist() == np.where(star, 0, 1).tolist()
        assert view.ledger is o.ledger and view.rng is o.rng and o.queries == 1
        inner = view.draw_view(0.5)
        keep = replay.random(view.n) < 0.5
        want = np.ones(10, dtype=np.int8)
        want[view.rho.stars[keep]] = 0
        assert inner.rho.cells.tolist() == want.tolist() and o.queries == 2
        assert o.rng.bit_generator.random_raw() == replay.bit_generator.random_raw()
    pinned = ProductDistribution(np.array([0.2, 1.0, -0.3]))
    o, twin = (ScondOracle(pinned, stream(86, 4, 0)) for _ in range(2))
    assert str(o.draw_view(0.5).rho) == str(twin.draw_restriction_sigma(0.5))


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
    # view coordinates 0, 1, 2 are parent coordinates 1, 2, 3
    coords, plus = sub.edge_block(1800, draws_per_pair=128)
    ests = (2.0 * plus - 128) / 128
    for j, bias in enumerate(mu[1:]):
        assert abs(ests[coords == j].mean() - bias) < 0.02


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
    view2.edge_block(2, 8)
    assert o.queries == 1 + 5 + 2 * (1 + 8)
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
        coords, plus = o.edge_block(5, 32)
        return xs, rho.cells, ys, coords, plus, o.queries

    a = run(21)
    b = run(21)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = run(22)
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ScondOracle(
                ProductDistribution.uniform(3), stream(0, 0, 0), Restriction.all_stars(2)
            ),
            "dimension mismatch",
            id="view-dimension",
        ),
        pytest.param(lambda: make_oracle().draw_restriction_sigma(1.5), "sigma", id="sigma-high"),
        pytest.param(lambda: make_oracle().draw_restriction_sigma(-0.1), "sigma", id="sigma-low"),
        pytest.param(lambda: make_oracle().draw_view(float("nan")), "sigma", id="fair-view-sigma"),
        pytest.param(
            lambda: make_oracle(ProductDistribution(np.full(6, 0.5))).draw_view(1.5),
            "sigma",
            id="drawn-view-sigma",
        ),
    ],
)
def test_oracle_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
