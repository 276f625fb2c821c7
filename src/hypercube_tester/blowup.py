"""Tensor-square ("blowup") machinery.

The blowup of a point x in {-1,+1}^n is the point vec(x x^T) in
{-1,+1}^(n^2), with rows ordered lexicographically by coordinate pair
(i major, j minor). Applying the map k times sends n to n^(2^k).

Two independent computation routes are provided for the moments of a
blown-up distribution:

  explicit  - materialize the support rows after k blowups and form the
              mean vector / second-moment matrix directly;
  gram      - use <bl(x), bl(y)> = <x, y>^2, so after k blowups the
              squared mean norm is E[<x,x'>^(2^k)] over an independent
              pair, and the squared Frobenius norm of the second-moment
              matrix is E[<x,x'>^(2^(k+1))].

The test suite checks that the two routes agree, which keeps the gram
shortcut (used by the fast level-k statistic) honest.

Throughout, `second moment matrix` means E[x x^T]; on sign vectors its
diagonal is identically 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .model import DensePmf, all_sign_points

BLOWUP_DIM_CAP = 1 << 14  # refuse to materialize rows wider than this
# gram_moments builds (2^n x 2^n) float64 arrays, 8 * 4^n bytes each
GRAM_DIM_CAP = 12


def blowup_dim(n: int, k: int) -> int:
    """n^(2^k), the dimension after k blowups of n coordinates; an n or k
    below 0 is refused."""
    n, k = int(n), int(k)
    if n < 0:
        raise ValueError(f"n must be at least 0, got n={n}")
    if k < 0:
        raise ValueError(f"k must be at least 0, got k={k}")
    return n ** (1 << k)


def blowup_rows(points: np.ndarray) -> np.ndarray:
    """Map each row x to vec(x x^T), pairs ordered (i, j) lexicographically."""
    points = np.atleast_2d(np.asarray(points))
    m, n = points.shape
    if n * n > BLOWUP_DIM_CAP:
        raise ValueError(f"blowup would have {n * n} coordinates (cap {BLOWUP_DIM_CAP})")
    out = np.einsum("mi,mj->mij", points, points)
    return out.reshape(m, n * n)


def iterated_blowup_rows(points: np.ndarray, k: int) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points))
    for _ in range(int(k)):
        points = blowup_rows(points)
    return points


def explicit_moments(p: DensePmf, k: int) -> tuple[float, float]:
    """(||mu||^2, ||Sigma||_F^2) of the k-fold blowup, fully materialized."""
    pts = iterated_blowup_rows(all_sign_points(p.n).astype(np.float64), k)
    w = p.mass
    mu = w @ pts
    sigma = pts.T @ (w[:, None] * pts)
    return float(mu @ mu), float((sigma * sigma).sum())


def gram_moments(p: DensePmf, k: int) -> tuple[float, float]:
    """(||mu||^2, ||Sigma||_F^2) of the k-fold blowup via inner-product powers.

    Refuses a dimension above GRAM_DIM_CAP, and a k whose largest power
    n^(2^(k+1)) would overflow float64, i.e. 2^(k+1) log2(n) >= 1024.
    """
    n = p.n
    if n > GRAM_DIM_CAP:
        raise ValueError(f"gram moments need n <= {GRAM_DIM_CAP}, got {n}")
    # at n >= 2 every k >= 9 overflows; testing it first keeps 1 << (k + 1) small
    if n > 1 and (k >= 9 or (1 << (k + 1)) * math.log2(n) >= 1024):
        raise ValueError(f"gram moments at n={n} overflow float64 for k={k}")
    pts = all_sign_points(n).astype(np.float64)
    g = pts @ pts.T
    w = p.mass
    mu_sq = float(w @ (g ** (1 << k)) @ w)
    frob_sq = float(w @ (g ** (1 << (k + 1))) @ w)
    return mu_sq, frob_sq


def uniform_sigma_frob_sq_bound(n: int, k: int) -> float:
    """Closed-form upper bound on ||Sigma(bl^k uniform)||_F^2."""
    return float((n * (1 << k)) ** (1 << k))


def uniform_sigma_frob_sq_exact(n: int, k: int) -> float:
    """Exact ||Sigma(bl^k uniform)||_F^2 = E[(sum of n signs)^(2^(k+1))]:
    the integer sum of C(n, b) (n - 2b)^(2^(k+1)) over b, divided by 2^n
    and rounded once to a float."""
    power = 1 << (k + 1)
    total = 0
    binom = 1  # C(n, b), stepped in place: math.comb per term is far slower
    for b in range(n + 1):
        total += binom * (n - 2 * b) ** power
        binom = binom * (n - b) // (b + 1)
    return float(Fraction(total, 1 << n))


def z_statistic_naive(xs: np.ndarray, ys: np.ndarray, k: int) -> float:
    """Level-k pairing statistic computed the slow way: blow both sample
    sets up k times, then average all cross inner products."""
    bx = iterated_blowup_rows(np.asarray(xs, dtype=np.float64), k)
    by = iterated_blowup_rows(np.asarray(ys, dtype=np.float64), k)
    q1, q2 = bx.shape[0], by.shape[0]
    return float((bx @ by.T).sum() / (q1 * q2))
