"""Tensor blowup: the inner-product power identity, moment routes agreeing
with each other, and the uniform-distribution bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercube_tester import blowup
from hypercube_tester.blowup import (
    GRAM_DIM_CAP,
    blowup_dim,
    blowup_rows,
    explicit_moments,
    gram_moments,
    iterated_blowup_rows,
    uniform_sigma_frob_sq_bound,
    uniform_sigma_frob_sq_exact,
    z_statistic_naive,
)
from hypercube_tester.cli import main
from hypercube_tester.model import DensePmf, ProductDistribution, all_sign_points
from hypercube_tester.rng import stream
from hypercube_tester.theory import random_dense_pmf

sign_vectors = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
)


def test_blowup_dim():
    assert blowup_dim(3, 0) == 3
    assert blowup_dim(3, 1) == 9
    assert blowup_dim(3, 2) == 81
    assert blowup_dim(2, 3) == 256
    assert blowup_dim(0, 2) == 0


@pytest.mark.parametrize(
    "n, k, message", [(-1, 1, "n must be at least 0, got n=-1"), (3, -1, "k must be at least 0, got k=-1")]
)
def test_blowup_dim_refuses_negative_input(n, k, message):
    with pytest.raises(ValueError, match=message):
        blowup_dim(n, k)


def test_blowup_rows_is_outer_product_vec():
    x = np.array([[1, -1, 1]])
    bl = blowup_rows(x)[0]
    # lexicographic pair order with the first index major
    expect = np.outer(x[0], x[0]).reshape(-1)
    assert bl.tolist() == expect.tolist()


@given(sign_vectors, sign_vectors)
def test_blowup_squares_inner_products(xl, yl):
    if len(xl) != len(yl):
        return
    x = np.array([xl])
    y = np.array([yl])
    ip = int(x[0] @ y[0])
    assert int(blowup_rows(x)[0] @ blowup_rows(y)[0]) == ip * ip


def test_iterated_blowup_inner_product_power():
    rng = stream(41, 0, 0)
    for n in (2, 3, 4):
        for k in (0, 1, 2):
            x = (2 * rng.integers(0, 2, (1, n)) - 1).astype(np.int64)
            y = (2 * rng.integers(0, 2, (1, n)) - 1).astype(np.int64)
            bx = iterated_blowup_rows(x, k)
            by = iterated_blowup_rows(y, k)
            ip = int(x[0] @ y[0])
            assert int(bx[0] @ by[0]) == ip ** (2**k)


def test_explicit_and_gram_moments_agree():
    rng = stream(42, 0, 0)
    for n in (2, 3, 4):
        for k in (0, 1):
            p = random_dense_pmf(rng, n)
            mu_e, frob_e = explicit_moments(p, k)
            mu_g, frob_g = gram_moments(p, k)
            assert mu_e == pytest.approx(mu_g, rel=1e-12, abs=1e-14)
            assert frob_e == pytest.approx(frob_g, rel=1e-12, abs=1e-14)


def test_blowup_mean_is_previous_frobenius():
    # ||mu(bl^{k+1} p)||^2 == ||Sigma(bl^k p)||_F^2
    rng = stream(43, 0, 0)
    for n in (2, 3, 4):
        p = random_dense_pmf(rng, n)
        for k in (0, 1):
            _, frob_k = gram_moments(p, k)
            mu_next, _ = gram_moments(p, k + 1)
            assert mu_next == pytest.approx(frob_k, rel=1e-12)
        if n <= 3:
            _, frob_e = explicit_moments(p, 0)
            mu_e1, _ = explicit_moments(p, 1)
            assert mu_e1 == pytest.approx(frob_e, rel=1e-12)


def test_level_zero_moments_are_classical():
    rng = stream(44, 0, 0)
    p = random_dense_pmf(rng, 4)
    pts = all_sign_points(4).astype(np.float64)
    mu = p.mass @ pts
    sig = (pts * p.mass[:, None]).T @ pts
    mu_sq, frob_sq = gram_moments(p, 0)
    assert mu_sq == pytest.approx(float(mu @ mu), rel=1e-12)
    assert frob_sq == pytest.approx(float((sig * sig).sum()), rel=1e-12)


def test_uniform_frobenius_exact_and_bound():
    for n in range(1, 9):
        for k in (0, 1, 2):
            exact = uniform_sigma_frob_sq_exact(n, k)
            bound = uniform_sigma_frob_sq_bound(n, k)
            assert exact <= bound * (1 + 1e-12)
            # cross-check against the dense route
            u = DensePmf.uniform(n)
            _, frob = gram_moments(u, k)
            assert exact == pytest.approx(frob, rel=1e-12)


def test_uniform_frobenius_exact_past_float_range_of_terms():
    # a float sum of lgamma-weighted terms returned inf here
    n, k = 300, 6
    total = sum(math.comb(n, b) * (n - 2 * b) ** (1 << (k + 1)) for b in range(n + 1))
    exact = uniform_sigma_frob_sq_exact(n, k)
    assert math.isfinite(exact)
    assert exact == float(Fraction(total, 2**n))
    assert exact == pytest.approx(5.6427744498e263, rel=1e-10)


def test_uniform_level0_frobenius_is_n():
    # Sigma(U) = I so ||Sigma||_F^2 = n
    for n in (2, 5, 8):
        assert uniform_sigma_frob_sq_exact(n, 0) == pytest.approx(n)
        assert uniform_sigma_frob_sq_bound(n, 0) == n


def test_uniform_level1_frobenius_closed_form():
    # E[<x,x'>^4] = 3n^2 - 2n under the uniform distribution
    for n in (2, 4, 8, 16):
        assert uniform_sigma_frob_sq_exact(n, 1) == pytest.approx(3 * n * n - 2 * n)


def test_z_statistic_naive_brute_force():
    rng = stream(45, 0, 0)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q1 = int(rng.integers(1, 6))
        q2 = int(rng.integers(1, 6))
        xs = (2 * rng.integers(0, 2, (q1, n)) - 1).astype(np.int64)
        ys = (2 * rng.integers(0, 2, (q2, n)) - 1).astype(np.int64)
        for k in (0, 1, 2):
            got = z_statistic_naive(xs, ys, k)
            want = np.mean(
                [(int(x @ y)) ** (2**k) for x in xs for y in ys]
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_blowup_dim_cap_enforced():
    with pytest.raises(ValueError):
        x = np.ones((1, 20), dtype=np.int64)
        iterated_blowup_rows(x, 4)  # 20^16 columns


def test_gram_moments_refuses_a_float64_overflow():
    # at n = 4 the largest power 4^(2^(k+1)) reaches 2^1024 at k = 8
    with pytest.raises(ValueError, match="n=4 overflow float64 for k=8"):
        gram_moments(DensePmf.uniform(4), 8)
    assert gram_moments(DensePmf.uniform(4), 7) == (
        1.4474011154664524e76,
        1.6759759912428246e153,
    )


def test_gram_moments_refuses_a_dimension_past_its_cap(monkeypatch, capsys):
    def no_arrays(n):
        raise AssertionError("built the sign points")

    monkeypatch.setattr(blowup, "all_sign_points", no_arrays)
    p = DensePmf.uniform(GRAM_DIM_CAP + 1)
    with pytest.raises(ValueError, match=f"n <= {GRAM_DIM_CAP}, got {GRAM_DIM_CAP + 1}"):
        gram_moments(p, 0)
    argv = ["theorylab", "--check", "blowupfact", "--n", str(GRAM_DIM_CAP + 1), "--cases", "1"]
    assert main(argv) == 2
    assert f"n <= {GRAM_DIM_CAP}" in capsys.readouterr().err


@settings(max_examples=25)
@given(st.integers(2, 5), st.integers(0, 1), st.integers(0, 10_000))
def test_product_moments_match_dense(n, k, salt):
    rng = stream(46, n, k, salt)
    mu = rng.uniform(-0.9, 0.9, n)
    prod = ProductDistribution(mu)
    mu_sq, frob_sq = gram_moments(prod.dense(), k)
    if k == 0:
        assert mu_sq == pytest.approx(float(mu @ mu), rel=1e-10, abs=1e-12)
        sig = np.outer(mu, mu)
        np.fill_diagonal(sig, 1.0)
        assert frob_sq == pytest.approx(float((sig * sig).sum()), rel=1e-10)
    else:
        mu_prev, frob_prev = gram_moments(prod.dense(), k - 1)
        assert mu_sq == pytest.approx(frob_prev, rel=1e-10)
