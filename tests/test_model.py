"""Core model: points, index convention, restrictions, dense and product
distributions, conditional tables, and exact functionals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester.model import (
    DensePmf,
    Point,
    ProductDistribution,
    Restriction,
    _entries_in,
    all_sign_points,
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
    mu = mean_vector(p).values
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
