"""Core model: points, index convention, restrictions, dense and product
distributions, conditional tables, and exact functionals."""

import math
from fractions import Fraction
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester import model
from hypercube_tester.model import (
    DensePmf,
    Point,
    ProductDistribution,
    Restriction,
    _entries_in,
    all_sign_points,
    bit_powers,
    conditional_table,
    distribution_from_dict,
    distribution_to_dict,
    indices_to_points,
    mean_vector,
    points_to_indices,
    project,
    restrict,
    second_moment,
    subcube_mass,
    tv_to_uniform,
    uniform_signs,
)
from hypercube_tester.oracle import ScondOracle
from hypercube_tester.rng import stream

# ---------------------------------------------------------------------------
# index convention: coordinate 0 is the most significant bit, -1 before +1


def test_index_convention_frozen_examples():
    # n=3: (-1,-1,-1) -> 0, (-1,-1,+1) -> 1, (+1,-1,-1) -> 4, (+1,+1,+1) -> 7
    assert points_to_indices(np.array([[-1, -1, -1]])).tolist() == [0]
    assert points_to_indices(np.array([[-1, -1, +1]])).tolist() == [1]
    assert points_to_indices(np.array([[+1, -1, -1]])).tolist() == [4]
    assert points_to_indices(np.array([[+1, +1, +1]])).tolist() == [7]


def test_all_sign_points_is_index_ordered():
    for n in range(1, 7):
        pts = all_sign_points(n)
        assert pts.shape == (1 << n, n)
        assert points_to_indices(pts).tolist() == list(range(1 << n))


@given(st.integers(1, 10), st.integers(0, 1 << 10 - 1))
def test_index_roundtrip(n, raw):
    idx = raw % (1 << n)
    pt = indices_to_points(np.array([idx]), n)
    assert points_to_indices(pt).tolist() == [idx]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 30),
    st.lists(st.integers(0, 5), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_points_to_indices_matches_place_value_formula(n, lead, seed):
    # the bit-packing route gives what sum_i ((x_i + 1) / 2) 2^(n-1-i) gives,
    # over any leading shape
    signs = (2 * np.random.default_rng(seed).integers(0, 2, size=(*lead, n)) - 1).astype(np.int8)
    want = ((signs.astype(np.int64) + 1) >> 1) @ bit_powers(n)
    got = points_to_indices(signs)
    assert got.dtype == np.int64 and got.shape == tuple(lead)
    assert np.array_equal(got, want)


def test_points_to_indices_width_edges():
    # 32 coordinates fill a 32-bit row, 33 take the 64-bit one
    for n in (31, 32, 33, 63):
        ones = np.ones((2, n), dtype=np.int8)
        ones[1, 0] = -1
        assert points_to_indices(ones).tolist() == [(1 << n) - 1, (1 << (n - 1)) - 1]
    assert int(points_to_indices(np.array([1, -1, 1]))) == 5
    with pytest.raises(ValueError, match="63"):
        points_to_indices(np.ones((1, 64), dtype=np.int8))


def test_reshape_axis_matches_coordinate():
    # reshaping a dense vector to (2,)*n puts coordinate i on axis i
    n = 3
    mass = np.arange(1 << n, dtype=np.float64)
    mass /= mass.sum()
    p = DensePmf(n, mass)
    cube = p.mass.reshape((2,) * n)
    for i in range(n):
        marg_cube = cube.sum(axis=tuple(a for a in range(n) if a != i))
        keep = project(p, [i]).mass
        assert np.allclose(marg_cube, keep)


def test_point_flip_and_roundtrip():
    pt = Point(np.array([1, -1, 1], dtype=np.int8))
    assert pt.to_index() == 5
    assert Point.from_index(3, 5) == pt
    flipped = pt.flip(1)
    assert flipped.signs.tolist() == [1, 1, 1]
    assert pt.signs.tolist() == [1, -1, 1]  # original untouched


def test_point_rejects_non_signs():
    for bad in ([257, -1], [1.7, -1.0], [1, 0]):
        with pytest.raises(ValueError):
            Point(np.array(bad))
    assert Point(np.array([1.0, -1.0])).signs.tolist() == [1, -1]


# ---------------------------------------------------------------------------
# restrictions


def test_restriction_stars_and_fixed():
    rho = Restriction(np.array([0, 1, 0, -1], dtype=np.int8))
    assert rho.stars.tolist() == [0, 2]
    assert rho.fixed.tolist() == [1, 3]
    assert rho.num_stars == 2
    assert Restriction.all_stars(3).num_stars == 3


def test_restriction_fill_overlays_stars_in_order():
    rho = Restriction(np.array([0, 1, 0, -1], dtype=np.int8))
    sub = Restriction(np.array([-1, 0], dtype=np.int8))  # star 0 -> -1, star 2 stays free
    filled = rho.fill(sub)
    assert filled.cells.tolist() == [-1, 1, 0, -1]
    assert filled.stars.tolist() == [2]


def test_restriction_consistent_mask():
    rho = Restriction(np.array([0, 1], dtype=np.int8))
    pts = np.array([[-1, 1], [1, 1], [1, -1]], dtype=np.int8)
    assert rho.consistent(pts).tolist() == [True, True, False]


def test_restriction_from_stars_and_point():
    mask = np.array([True, False, True])
    signs = np.array([1, -1, 1], dtype=np.int8)
    rho = Restriction.from_stars_and_point(mask, signs)
    assert rho.cells.tolist() == [0, -1, 0]


def test_restriction_rejects_bad_cells():
    with pytest.raises(ValueError):
        Restriction(np.array([0, 2], dtype=np.int8))
    # values are checked before the int8 cast: 0.5 is no star, 257 no +1
    with pytest.raises(ValueError):
        Restriction(np.array([0.5, 1.0, -1.0]))
    with pytest.raises(ValueError):
        Restriction(np.array([257, 0]))
    with pytest.raises(ValueError):
        Restriction.from_stars_and_point(np.array([True, False]), np.array([1, 257]))
    # the point must be a sign vector even where no star covers it: a 0 sign
    # would otherwise become a star
    with pytest.raises(ValueError):
        Restriction.from_stars_and_point(np.zeros(3, dtype=bool), np.array([0, 1, -1]))
    assert str(Restriction(np.array([0.0, 1.0, -1.0]))) == "*+-"
    # rows tested for consistency are signs too: the cast read 257 and 1.7 as 1
    rho = Restriction(np.array([1, 0], dtype=np.int8))
    for rows in ([[257, 5], [1.7, 0.3]], [[1, 0]]):
        with pytest.raises(ValueError):
            rho.consistent(np.array(rows))
    assert rho.consistent(np.array([[1.0, -1.0], [-1.0, 1.0]])).tolist() == [True, False]


def test_entry_check_accepts_what_isin_accepts():
    # the sign and cell checks replaced np.isin; they must keep its verdicts
    entries = [[1, -1], [0, 1, -1], [257, -1], [1.7, -1.2], [0.5, 1], [np.nan, 1]]
    entries += [[1 + 1j], ["1"], []]
    dtypes = [None, np.int8, np.uint8, np.int64, np.float16, np.float64]
    dtypes += [bool, object, complex]
    for row in entries:
        for dtype in dtypes:
            try:
                raw = np.asarray(row, dtype=dtype)
            except (TypeError, ValueError, OverflowError):
                continue
            for values in ((-1, 1), (-1, 0, 1)):
                assert _entries_in(raw, values) == bool(np.isin(raw, values).all()), (row, dtype)


# ---------------------------------------------------------------------------
# dense PMFs


def test_dense_uniform_and_point_mass():
    u = DensePmf.uniform(3)
    assert np.allclose(u.mass, 1 / 8)
    pm = DensePmf.point_mass(Point(np.array([1, 1, -1], dtype=np.int8)))
    assert pm.mass.tolist() == [0, 0, 0, 0, 0, 0, 1, 0]


def test_dense_rejects_bad_mass():
    with pytest.raises(ValueError):
        DensePmf(2, np.array([0.5, 0.5, 0.5, -0.5]))
    for bad in (np.nan, np.inf, -np.inf):  # NaN slips through both < 0 and the sum check
        with pytest.raises(ValueError, match="finite"):
            DensePmf(2, [bad, 0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        DensePmf(2, np.array([0.25, 0.25, 0.25]))
    with pytest.raises(ValueError):
        DensePmf(2, np.array([0.3, 0.3, 0.3, 0.3]))


def test_dense_sample_matches_mass():
    rng = stream(11, 0, 0)
    mass = np.array([0.5, 0.25, 0.125, 0.125])
    p = DensePmf(2, mass)
    draws = p.sample(rng, 40_000)
    freq = np.bincount(points_to_indices(draws), minlength=4) / 40_000
    assert np.abs(freq - mass).max() < 0.015


def test_dense_cond_sample_returns_star_coordinates():
    rng = stream(12, 0, 0)
    mass = np.array([0.4, 0.1, 0.0, 0.0, 0.2, 0.3, 0.0, 0.0])
    p = DensePmf(3, mass)
    rho = Restriction(np.array([0, -1, 0], dtype=np.int8))
    draws = p.cond_sample(rng, rho, 30_000)
    assert draws.shape == (30_000, 2)
    # conditioned on x_1 = -1: star pattern (x_0, x_2) has masses
    # (-1,-1)->0.4, (-1,+1)->0.1, (+1,-1)->0.2, (+1,+1)->0.3
    freq = np.bincount(points_to_indices(draws), minlength=4) / 30_000
    assert np.abs(freq - np.array([0.4, 0.1, 0.2, 0.3])).max() < 0.01


def test_dense_cond_sample_zero_support_uniform_on_stars():
    rng = stream(13, 0, 0)
    pm = DensePmf.point_mass(Point(np.array([1, 1, 1], dtype=np.int8)))
    rho = Restriction(np.array([-1, 0, 0], dtype=np.int8))  # misses the atom
    assert pm.cond_sample(rng, rho, 4000) is None
    # the target reports the zero mass; the oracle draws the uniform fallback
    o = ScondOracle(pm, rng)
    draws = o.cond_sample(rho, 4000)
    assert o.zero_support_hits == 4000
    assert draws.shape == (4000, 2)
    assert np.isin(draws, (-1, 1)).all()
    means = draws.mean(axis=0)
    assert np.abs(means).max() < 0.06


def test_dense_edge_bias_matches_definition():
    rng = stream(14, 0, 0)
    for n in (2, 3, 4):
        mass = rng.dirichlet(np.ones(1 << n))
        p = DensePmf(n, mass)
        pts = p.sample(rng, 50)
        coords = rng.integers(0, n, 50)
        got = p.edge_bias(pts, coords)
        idx = points_to_indices(pts)
        for k in range(50):
            i = int(coords[k])
            bit = 1 << (n - 1 - i)
            hi, lo = idx[k] | bit, idx[k] & ~bit
            a, b = mass[hi], mass[lo]
            if a + b == 0:
                assert got[1][k]  # zero-support flag
            else:
                assert got[0][k] == pytest.approx((a - b) / (a + b), abs=1e-12)


# ---------------------------------------------------------------------------
# product distributions


def test_product_dense_is_kron_of_marginals():
    mu = np.array([0.5, -0.25, 0.0])
    prod = ProductDistribution(mu)
    dense = prod.dense()
    expect = np.ones(1)
    for m in mu:
        expect = np.kron(expect, np.array([(1 - m) / 2, (1 + m) / 2]))
    assert np.allclose(dense.mass, expect)


def test_product_edge_bias_is_coordinate_mean():
    mu = np.array([0.5, -0.25, 0.0, 0.125])
    prod = ProductDistribution(mu)
    rng = stream(15, 0, 0)
    pts = prod.sample(rng, 20)
    coords = np.array([0, 1, 2, 3] * 5)
    ests, zero = prod.edge_bias(pts, coords)
    assert not zero.any()
    assert np.allclose(ests, mu[coords])


@pytest.mark.parametrize(
    "mu",
    [
        [1.0, -1.0, 0.5, 0.0, -0.25, 1.0, 0.75],
        [-1.0, 0.3, -0.6, 0.0, 0.9],
        [0.5, -0.25, 0.0, 0.125],
        [0.0] * 6,
    ],
)
def test_product_edge_bias_matches_dense_ratio(mu):
    # the closed form, with its pinned-mean mask built once, against the
    # generic ratio of point masses that DensePmf inherits
    prod = ProductDistribution(mu)
    dense = prod.dense()
    n = prod.n
    pts = np.repeat(all_sign_points(n), n, axis=0)
    coords = np.tile(np.arange(n), 1 << n)
    bias, zero = prod.edge_bias(pts, coords)
    want_bias, want_zero = dense.edge_bias(pts, coords)
    assert zero.tolist() == want_zero.tolist()
    assert np.allclose(bias, want_bias, rtol=0, atol=1e-12)
    assert (bias[zero] == 0).all()
    # a point off a pinned coordinate, on an edge along another one
    assert zero.any() == bool((np.abs(prod.mu) == 1).any())


def test_product_rejects_non_finite_means():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ProductDistribution([bad, 0.0, 0.5])


# ---------------------------------------------------------------------------
# uniform signs: one random bit per entry


@pytest.mark.parametrize("k", [1, 7, 8, 9, 64, 128, 129])
def test_uniform_signs_shapes_and_values(k):
    rng = stream(40, 0, k)
    for shape, want in [
        (k, (k,)),
        ((k,), (k,)),
        ((5, k), (5, k)),
        ((2, 3, k), (2, 3, k)),
        ((0, k), (0, k)),
        ((5, 0), (5, 0)),
        ((2, 0, k), (2, 0, k)),
    ]:
        x = uniform_signs(rng, shape)
        assert x.shape == want and x.dtype == np.int8
        assert x.flags.writeable
        # k a multiple of 64 is a view of the unpacked words, any other k a
        # sliced copy; both are C-contiguous
        assert x.flags.c_contiguous
        assert np.isin(x, (-1, 1)).all()
    # callers write into the draw; two draws never share memory
    a, b = uniform_signs(rng, (4, k)), uniform_signs(rng, (4, k))
    assert not np.shares_memory(a, b)


def test_uniform_signs_law():
    rows, k = 100_000, 129
    x = uniform_signs(stream(41, 0, 0), (rows, k)).astype(np.int64)
    se = 1.0 / np.sqrt(rows)
    assert np.abs(x.mean(axis=0)).max() < 5 * se
    # neighbouring columns, across every byte and word boundary (7|8, 63|64, 127|128)
    assert np.abs((x[:, :-1] * x[:, 1:]).mean(axis=0)).max() < 5 * se
    # neighbouring rows share no bits either
    assert np.abs((x[:-1] * x[1:]).mean(axis=0)).max() < 5 * se


def test_uniform_signs_bit_layout_and_replay():
    # entry j of a row is bit j % 64 of the row's word j // 64 (+1 for a set bit)
    rows, k = 3, 70
    words = stream(42, 1, 2).bit_generator.random_raw(rows * 2).reshape(rows, 2)
    want = [
        [1 if (int(words[r, j // 64]) >> (j % 64)) & 1 else -1 for j in range(k)]
        for r in range(rows)
    ]
    x = uniform_signs(stream(42, 1, 2), (rows, k))
    assert x.tolist() == want
    assert np.array_equal(uniform_signs(stream(42, 1, 2), (rows, k)), x)
    assert not np.array_equal(uniform_signs(stream(42, 1, 3), (rows, k)), x)


@pytest.mark.parametrize("rows", [1, 7, 512, 4096, 8192])
@pytest.mark.parametrize("k", [1, 8, 63, 64, 65, 128, 200])
def test_uniform_signs_matches_bit_formula_at_block_shapes(rows, k):
    # the reference layout of test_uniform_signs_bit_layout_and_replay,
    # vectorised, on both unpacking routes: small draws through the byte
    # table, large ones (an edge-tester block is 4096 x 128) by unpackbits
    words = (k + 63) // 64
    raw = stream(44, rows, k).bit_generator.random_raw(rows * words).reshape(rows, words)
    j = np.arange(k)
    bits = (raw[:, j // 64] >> (j % 64).astype(np.uint64)) & np.uint64(1)
    want = np.where(bits == 1, 1, -1).astype(np.int8)
    x = uniform_signs(stream(44, rows, k), (rows, k))
    assert x.dtype == np.int8 and x.flags.c_contiguous and x.flags.writeable
    assert np.array_equal(x, want)


def _byte_draw_reference(rng, mu_stars, size):
    """A biased product's (size, k) rows read entry by entry from rng: entry
    j of the row-major draw is byte j % 8, least significant first, of raw
    word j // 8; then one float64 uniform per entry whose byte equals its
    threshold t = min(floor(256 p), 255), in entry order. A byte below t is
    +1, above it -1, and a tie +1 iff its uniform is below 256 p - t."""
    k = len(mu_stars)
    m = size * k
    words = rng.bit_generator.random_raw(-(-m // 8)).tolist()
    data = [(words[j // 8] >> (8 * (j % 8))) & 0xFF for j in range(m)]
    s = [(1.0 + float(v)) / 2.0 * 256.0 for v in mu_stars]
    t = [min(int(v), 255) for v in s]
    ties = [j for j in range(m) if data[j] == t[j % k]]
    u = dict(zip(ties, rng.random(len(ties)).tolist()))
    out = [
        1 if b < t[j % k] or (b == t[j % k] and u[j] < s[j % k] - t[j % k]) else -1
        for j, b in enumerate(data)
    ]
    return np.array(out, dtype=np.int8).reshape(size, k)


def test_product_route_and_frequencies():
    rho = Restriction(np.array([0, 1, 0, 0, -1, 0], dtype=np.int8))
    # every mean 0: the draw is uniform_signs on the stars, bit for bit
    uni = ProductDistribution.uniform(6)
    got = uni.cond_sample(stream(43, 0, 0), rho, 50)
    assert np.array_equal(got, uniform_signs(stream(43, 0, 0), (50, 4)))
    # a nonzero mean takes the byte route for every coordinate
    mu = np.array([0.5, 0.0, 0.0, -0.3, 0.0, 0.0])
    prod = ProductDistribution(mu)
    got = prod.cond_sample(stream(43, 0, 1), rho, 50)
    assert np.array_equal(got, _byte_draw_reference(stream(43, 0, 1), mu[rho.stars], 50))
    # per-coordinate frequencies, 5 standard errors
    m = 40_000
    for dist in (uni, prod):
        draws = dist.cond_sample(stream(43, 1, 0), rho, m)
        mu_stars = dist.mu[rho.stars]
        se = np.sqrt((1.0 - mu_stars**2) / m)
        assert (np.abs(draws.mean(axis=0) - mu_stars) < 5 * se).all()
    # the uniform product never has a zero-mass subcube, even with no star left
    every = Restriction(np.array([-1, 1, -1], dtype=np.int8))
    assert ProductDistribution.uniform(3).cond_sample(stream(43, 2, 0), every, 5).shape == (5, 0)


@pytest.mark.parametrize("size", [1, 9, 4_999])
def test_biased_product_byte_route_pin(size):
    # 7 stars, so size * 7 entries are never a whole number of raw words at
    # these sizes; means +-1 and 0 sit among the stars. The draw reads the
    # bytes and the ties' uniforms and nothing more: the next raw word of
    # the stream is the reference's
    mu = np.array([1.0, 0.3, -1.0, 0.0, 0.9, -0.55, 0.25, 1 / 3, -0.999, 0.125])
    rho = Restriction(np.array([0, 0, 0, 1, 0, 0, 1, 0, 0, -1], dtype=np.int8))
    prod = ProductDistribution(mu)
    rng, ref = stream(45, 0, size), stream(45, 0, size)
    got = prod.cond_sample(rng, rho, size)
    want = _byte_draw_reference(ref, mu[rho.stars], size)
    assert (size * rho.num_stars) % 8
    assert got.dtype == np.int8 and got.shape == (size, 7) and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert (got[:, 0] == 1).all() and (got[:, 2] == -1).all()
    assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()


def test_byte_thresholds_are_exact():
    # P(+1) = t / 256 + P(u < r) / 256, where a float64 uniform u is a
    # multiple of 2^-53 and so P(u < r) = ceil(r 2^53) / 2^53: this is the
    # float p = (1 + mu) / 2 exactly from p = 2^-9 up, and within 2^-61
    # below it
    named = [0.0, 2.0**-10, 2.0**-9, 1 / 3, 0.5, 0.625, 1 - 2.0**-53, 1.0]
    rng = stream(46, 0, 0)
    mu = np.concatenate([
        2 * np.array(named) - 1,
        rng.uniform(-1.0, 1.0, 3_000),
        -1.0 + rng.random(1_000) * 2.0**-6,
        1.0 - rng.random(1_000) * 2.0**-6,
    ])
    p = (1.0 + mu) / 2.0
    # the named p survive the trip through mu
    assert p[: len(named)].tolist() == named
    t, r = ProductDistribution(mu)._thresholds
    assert t.dtype == np.uint8 and (t <= 255).all() and ((0 <= r) & (r <= 1)).all()
    exact = 0
    for ti, ri, pi in zip(t.tolist(), r.tolist(), p.tolist()):
        law = Fraction(ti, 256) + Fraction(math.ceil(ri * 2**53), 2**53) / 256
        if pi >= 2.0**-9:
            assert law == Fraction(pi), pi
            exact += 1
        else:
            assert abs(law - Fraction(pi)) < Fraction(1, 2**61), pi
    assert exact > 4_000


def test_biased_product_ties_follow_their_uniforms():
    # means whose 256 p lies just above an integer (r = 1/64) and halfway
    # between two (r = 1/2): the frequencies hold at 5 standard errors, and
    # so does the +1 rate among the entries whose byte tied, read back from
    # a copied stream
    s = np.array([200 + 1 / 64, 3 + 1 / 64, 77.5, 128.5])
    mu = s / 128.0 - 1.0
    prod = ProductDistribution(mu)
    m = 200_000
    rho = Restriction.all_stars(4)
    draws = prod.cond_sample(stream(47, 0, 0), rho, m)
    se = np.sqrt((1.0 - mu**2) / m)
    assert (np.abs(draws.mean(axis=0) - mu) < 5 * se).all()
    raw = stream(47, 0, 0).bit_generator.random_raw(m * 4 // 8)
    data = raw.astype("<u8").view(np.uint8).reshape(m, 4)
    t, r = prod._thresholds
    for j in range(4):
        tied = data[:, j] == t[j]
        assert abs(tied.mean() - 1 / 256) < 5 * np.sqrt(255 / 256**2 / m)
        rate = (draws[tied, j] == 1).mean()
        assert abs(rate - r[j]) < 5 * np.sqrt(r[j] * (1 - r[j]) / tied.sum())
        # below the threshold every entry is +1, above it -1
        assert (draws[data[:, j] < t[j], j] == 1).all()
        assert (draws[data[:, j] > t[j], j] == -1).all()


def test_product_cond_sample_draws_free_coordinates():
    prod = ProductDistribution(np.array([0.9, -0.9, 0.0]))
    rho = Restriction(np.array([0, 1, 0], dtype=np.int8))
    rng = stream(16, 0, 0)
    draws = prod.cond_sample(rng, rho, 2000)
    assert draws.shape == (2000, 2)  # stars 0 and 2, in that order
    assert abs(draws[:, 0].mean() - 0.9) < 0.05
    assert abs(draws[:, 1].mean()) < 0.08
    # a fixed cell against a deterministic coordinate leaves zero mass
    det = ProductDistribution(np.array([1.0, 0.0, 0.0]))
    assert det.cond_sample(rng, Restriction(np.array([-1, 0, 0], dtype=np.int8)), 5) is None
    assert det.cond_sample(rng, Restriction(np.array([1, 0, 0], dtype=np.int8)), 5).shape == (5, 2)


def test_product_matches_dense_conditional():
    prod = ProductDistribution(np.array([0.4, -0.2, 0.6]))
    rho = Restriction(np.array([0, -1, 0], dtype=np.int8))
    table, m = conditional_table(prod.dense(), rho)
    rng = stream(17, 0, 0)
    draws = prod.cond_sample(rng, rho, 60_000)
    freq = np.bincount(points_to_indices(draws), minlength=table.size) / 60_000
    assert np.abs(freq - table).max() < 0.01
    assert m == pytest.approx((1 + 0.2) / 2)  # P(x_1 = -1) with mean -0.2


# ---------------------------------------------------------------------------
# conditional tables, restriction, projection


def test_conditional_table_brute_force():
    rng = stream(18, 0, 0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        mass = rng.dirichlet(np.ones(1 << n))
        p = DensePmf(n, mass)
        cells = rng.integers(-1, 2, n).astype(np.int8)
        if (cells != 0).all():
            cells[rng.integers(n)] = 0
        rho = Restriction(cells)
        table, m = conditional_table(p, rho)
        pts = all_sign_points(n)
        sel = rho.consistent(pts)
        assert m == pytest.approx(mass[sel].sum(), abs=1e-14)
        if m > 0:
            sub = mass[sel] / m
            # consistent points enumerate the stars in ascending dense order
            assert np.allclose(table, sub)
        assert m == pytest.approx(subcube_mass(p, rho), abs=1e-15)
    # no stars: the point's own table, all zeros when the point has no mass
    p = DensePmf(2, [0.0, 0.25, 0.25, 0.5])
    for cells, want_table, want_mass in (([-1, -1], [0.0], 0.0), ([1, -1], [1.0], 0.25)):
        table, m = conditional_table(p, Restriction(np.array(cells, dtype=np.int8)))
        assert table.tolist() == want_table and m == want_mass
    table, m = conditional_table(DensePmf(0, [1.0]), Restriction(np.zeros(0, dtype=np.int8)))
    assert table.tolist() == [1.0] and m == 1.0


def test_restrict_and_project_marginals():
    rng = stream(19, 0, 0)
    n = 4
    p = DensePmf(n, rng.dirichlet(np.ones(1 << n)))
    rho = Restriction(np.array([1, 0, 0, -1], dtype=np.int8))
    sub = restrict(p, rho)
    assert sub.n == 2
    table, _ = conditional_table(p, rho)
    assert np.allclose(sub.mass, table)

    keep = [1, 3]
    proj = project(p, keep)
    cube = p.mass.reshape((2,) * n)
    expect = cube.sum(axis=(0, 2)).reshape(-1)
    assert np.allclose(proj.mass, expect)


def test_tv_to_uniform_exact():
    pm = DensePmf.point_mass(Point(np.array([1, 1], dtype=np.int8)))
    assert tv_to_uniform(pm) == pytest.approx(0.75)
    assert tv_to_uniform(DensePmf.uniform(5)) == 0.0


def test_mean_vector_and_second_moment():
    rng = stream(20, 0, 0)
    n = 4
    mass = rng.dirichlet(np.ones(1 << n))
    p = DensePmf(n, mass)
    pts = all_sign_points(n).astype(np.float64)
    mu = mean_vector(p)
    assert np.allclose(mu, mass @ pts)
    sig = second_moment(p)
    assert np.allclose(sig, (pts * mass[:, None]).T @ pts)
    assert np.allclose(np.diag(sig), 1.0)


def test_distribution_dict_roundtrip():
    p = DensePmf(2, np.array([0.1, 0.2, 0.3, 0.4]))
    q = distribution_from_dict(distribution_to_dict(p))
    assert isinstance(q, DensePmf) and np.allclose(q.mass, p.mass)
    prod = ProductDistribution(np.array([0.25, -0.5]))
    back = distribution_from_dict(distribution_to_dict(prod))
    assert isinstance(back, ProductDistribution) and np.allclose(back.mu, prod.mu)


def test_dimensions_are_not_truncated():
    # 2.5 would otherwise build n=2, and a 3.5 would accept three means
    with pytest.raises(ValueError):
        DensePmf(2.5, np.full(4, 0.25))
    with pytest.raises(ValueError):
        distribution_from_dict({"n": 2.5, "mass": [0.25] * 4})
    with pytest.raises(ValueError):
        distribution_from_dict({"n": 3.5, "mu": [0, 0, 0]})
    assert distribution_from_dict({"n": 2.0, "mass": [0.25] * 4}).n == 2
    assert distribution_from_dict({"n": 3.0, "mu": [0, 0, 0]}).n == 3


@settings(max_examples=40)
@given(st.integers(2, 6), st.integers(0, 10_000))
def test_projection_sums_to_one(n, salt):
    rng = stream(21, n, salt)
    p = DensePmf(n, rng.dirichlet(np.ones(1 << n)))
    keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    proj = project(p, keep)
    assert proj.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert proj.n == len(keep)


# ---------------------------------------------------------------------------
# the public API


def test_every_exported_name_resolves():
    import hypercube_tester

    missing = [n for n in hypercube_tester.__all__ if not hasattr(hypercube_tester, n)]
    assert missing == []
    # the list is built from the package's imports: no submodule, private
    # name or module attribute such as __version__ is exported
    names = hypercube_tester.__all__
    assert names == sorted(set(names))
    assert not any(n.startswith("_") for n in names)
    assert not any(isinstance(getattr(hypercube_tester, n), ModuleType) for n in names)
    assert {"ScondOracle", "numerators", "subcond_uni", "verify_chain_rule"} <= set(names)


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: all_sign_points(-1), ValueError, ">= 0", id="points-negative-n"),
        pytest.param(lambda: all_sign_points(25), ValueError, "2\\^25", id="points-past-24"),
        pytest.param(lambda: Point(np.ones((2, 2))), ValueError, "1-d array", id="point-2d"),
        pytest.param(lambda: Point.from_index(3, 8), ValueError, "out of range", id="index-high"),
        pytest.param(
            lambda: Restriction(np.zeros((2, 2))), ValueError, "1-d cell", id="restriction-2d"
        ),
        pytest.param(
            lambda: Restriction.leading_stars(4, 5), ValueError, "0 <= k <= n", id="stars-past-n"
        ),
        pytest.param(
            lambda: Restriction.leading_stars(4, -1), ValueError, "0 <= k <= n", id="stars-negative"
        ),
        pytest.param(lambda: DensePmf(-1, [1.0]), ValueError, ">= 0", id="dense-negative-n"),
        pytest.param(lambda: DensePmf(31, np.zeros(1)), ValueError, "cap 30", id="dense-cap"),
        pytest.param(
            lambda: ProductDistribution(np.zeros((2, 2))), ValueError, "vector", id="product-2d"
        ),
        pytest.param(
            lambda: ProductDistribution([0.5, -1.5]), ValueError, "\\[-1, 1\\]", id="product-mu"
        ),
        pytest.param(
            lambda: conditional_table(DensePmf.uniform(3), Restriction.all_stars(2)),
            ValueError,
            "mismatch",
            id="table-dimension",
        ),
        pytest.param(
            lambda: project(DensePmf.uniform(3), [1, 0]), ValueError, "increasing", id="keep-order"
        ),
        pytest.param(
            lambda: project(DensePmf.uniform(3), [0, 3]), ValueError, "range", id="keep-range"
        ),
        pytest.param(
            lambda: second_moment(DensePmf.uniform(17)), ValueError, "small-n", id="moment-n"
        ),
        pytest.param(
            lambda: distribution_from_dict([1, 2]), ValueError, "'n' field", id="file-not-object"
        ),
        pytest.param(
            lambda: distribution_from_dict({"n": 2, "mu": [0.1]}),
            ValueError,
            "length",
            id="file-mu-length",
        ),
        pytest.param(
            lambda: distribution_from_dict({"n": 2}), ValueError, "'mass' or 'mu'", id="file-empty"
        ),
        pytest.param(
            lambda: distribution_to_dict(object()), TypeError, "object", id="serialize-other"
        ),
    ],
)
def test_model_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_model_boundary_inputs():
    # equal points hash equal, as set members
    assert len({Point([1, -1]), Point(np.array([1, -1])), Point([-1, 1])}) == 2
    # with no fixed cell every row is consistent
    rows = np.array([[1, -1], [-1, -1]])
    assert Restriction.all_stars(2).consistent(rows).tolist() == [True, True]
    # no mass where x_0 = +1: that subcube's restriction is uniform
    p = DensePmf(2, [0.5, 0.5, 0.0, 0.0])
    assert restrict(p, Restriction(np.array([1, 0]))).mass.tolist() == [0.5, 0.5]
    assert mean_vector(DensePmf(0, [1.0])).shape == (0,)
