"""Distributions on the signed hypercube {-1,+1}^n and exact operations on them.

Conventions used throughout the package:

* Points are sign vectors with entries -1/+1.
* Dense PMFs are indexed lexicographically with -1 before +1 per coordinate
  and coordinate 0 most significant, i.e. index = sum_i ((x_i+1)/2) * 2^(n-1-i).
* Restrictions live in {-1,+1,*}^n; internally a star is stored as 0.
* A target distribution draws only through ``cond_sample(rng, rho, size)``,
  which returns draws on rho's star coordinates, or None when rho's subcube
  has zero mass; a plain sample is ``cond_sample`` on the all-stars
  restriction (``HypercubeTarget.sample``).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

DENSE_CAP_DEFAULT = 30

_NORMALIZE_TOL = 1e-6

STAR = 0

_POINT_CACHE: dict[int, np.ndarray] = {}


def bit_powers(n: int) -> np.ndarray:
    """Place values of each coordinate in the dense index (coordinate 0 is MSB)."""
    return (1 << np.arange(n - 1, -1, -1, dtype=np.int64)) if n else np.zeros(0, np.int64)


def all_sign_points(n: int) -> np.ndarray:
    """(2^n, n) int8 matrix of every point in dense index order. Cached for small n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 24:
        raise ValueError(f"refusing to enumerate 2^{n} points")
    if n not in _POINT_CACHE:
        idx = np.arange(1 << n, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n - 1, -1, -1)) & 1
        _POINT_CACHE[n] = (2 * bits - 1).astype(np.int8)
    return _POINT_CACHE[n]


def points_to_indices(signs: np.ndarray) -> np.ndarray:
    signs = np.asarray(signs)
    n = signs.shape[-1]
    bits = (signs.astype(np.int64) + 1) >> 1
    return bits @ bit_powers(n)


def indices_to_points(indices: np.ndarray, n: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    bits = (idx[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


def uniform_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent uniform +-1 entries (int8) of the given shape."""
    return (2 * rng.integers(0, 2, size=shape) - 1).astype(np.int8)


def as_int(value, name: str) -> int:
    """value as an int; integral floats such as the JSON value 16.0 pass, a
    fractional part is an error rather than silently truncated."""
    out = int(value)
    if out != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _entries_in(raw: np.ndarray, values: tuple[int, ...]) -> bool:
    """Whether every entry of raw equals one of values. Callers check the raw
    array before an int8 cast, which would turn 257 or 1.7 into 1 and 0.5
    into 0; elementwise == accepts what np.isin does at a fraction of its
    cost on small arrays."""
    ok = raw == values[0]
    for v in values[1:]:
        ok |= raw == v
    return bool(ok.all())


def _validate_signs(signs: np.ndarray, ndim: int = 1) -> np.ndarray:
    raw = np.asarray(signs)
    if raw.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of signs")
    if not _entries_in(raw, (-1, 1)):
        raise ValueError("entries must be exactly -1 or +1")
    return _read_only(raw.astype(np.int8))


@dataclass(frozen=True)
class Point:
    """A vertex of {-1,+1}^n."""

    signs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signs", _validate_signs(self.signs))

    @property
    def n(self) -> int:
        return self.signs.size

    def flip(self, i: int) -> "Point":
        signs = self.signs.copy()
        signs[i] = -signs[i]
        return Point(signs)

    def to_index(self) -> int:
        return int(points_to_indices(self.signs))

    @classmethod
    def from_index(cls, n: int, index: int) -> "Point":
        if not 0 <= index < (1 << n):
            raise ValueError("index out of range")
        return cls(indices_to_points(np.asarray(index), n))

    def __eq__(self, other):
        return isinstance(other, Point) and np.array_equal(self.signs, other.signs)

    def __hash__(self):
        return hash((self.n, self.to_index()))


@dataclass(frozen=True)
class Restriction:
    """rho in {-1,+1,*}^n; cells holds 0 where rho has a star.

    The star set is derived from the cells, so it can never disagree with
    them; it is computed once, since the cells are read-only.
    """

    cells: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.cells)
        if raw.ndim != 1:
            raise ValueError("expected a 1-d cell vector")
        if not _entries_in(raw, (-1, 0, 1)):
            raise ValueError("cells must be -1, +1 or 0 (star)")
        object.__setattr__(self, "cells", _read_only(raw.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.cells.size

    @functools.cached_property
    def stars(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.cells == STAR))

    @property
    def num_stars(self) -> int:
        return self.stars.size

    @functools.cached_property
    def fixed(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.cells != STAR))

    @classmethod
    @functools.cache
    def all_stars(cls, n: int) -> "Restriction":
        """The restriction with no fixed cell; one shared instance per n,
        which is safe because the cells are read-only."""
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def from_stars_and_point(cls, star_mask: np.ndarray, signs: np.ndarray) -> "Restriction":
        return cls(np.where(np.asarray(star_mask, dtype=bool), STAR, _validate_signs(signs)))

    def fill(self, sub: "Restriction") -> "Restriction":
        """Overlay a restriction of the star coordinates onto this one."""
        stars = self.stars
        if sub.n != stars.size:
            raise ValueError("sub-restriction must cover exactly the star coordinates")
        if stars.size == self.n:
            return sub
        cells = self.cells.copy()
        cells[stars] = sub.cells
        return Restriction(cells)

    def consistent(self, signs: np.ndarray) -> np.ndarray:
        """Boolean mask of which rows of `signs` agree with every fixed cell."""
        signs = _validate_signs(np.atleast_2d(signs), ndim=2)
        fixed = self.fixed
        if fixed.size == 0:
            return np.ones(signs.shape[0], dtype=bool)
        return (signs[:, fixed] == self.cells[fixed]).all(axis=1)

    def __str__(self):
        return "".join("*" if c == STAR else ("+" if c > 0 else "-") for c in self.cells)


@dataclass(frozen=True)
class MeanVector:
    """Coordinate means E[x_i] of a hypercube distribution."""

    values: np.ndarray

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.values))


class Decision(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ERROR = "error"


@dataclass
class TestVerdict:
    decision: Decision
    queries_used: int
    trace: dict = field(default_factory=dict)


class HypercubeTarget:
    """A distribution on {-1,+1}^n that draws only through ``cond_sample``.

    ``cond_sample(rng, rho, size)`` returns a (size, rho.num_stars) int8 array
    of draws conditioned on rho's subcube, on rho's star coordinates in
    ascending order, or None when that subcube has zero mass.
    """

    n: int

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) draws from the whole cube, which never has zero mass."""
        return self.cond_sample(rng, Restriction.all_stars(self.n), size)


class DensePmf(HypercubeTarget):
    """Explicit PMF over {-1,+1}^n.

    The mass vector must sum to 1 within 1e-6 (it is renormalized exactly at
    construction); a larger deviation or any negative entry is an input error.
    n = 0 is allowed and denotes the unique empty-cube distribution.
    """

    def __init__(self, n: int, mass, *, cap: int = DENSE_CAP_DEFAULT):
        n = as_int(n, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > cap:
            raise ValueError(f"dense PMF dimension {n} exceeds cap {cap}")
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (1 << n,):
            raise ValueError(f"mass must have length 2^{n}")
        if (mass < 0).any():
            raise ValueError("mass entries must be nonnegative")
        total = float(mass.sum())
        if abs(total - 1.0) > _NORMALIZE_TOL:
            raise ValueError(f"mass sums to {total!r}, outside 1 +- {_NORMALIZE_TOL}")
        self.n = n
        self.mass = _read_only(mass / total)
        self._cum: Optional[np.ndarray] = None

    @classmethod
    def uniform(cls, n: int) -> "DensePmf":
        return cls(n, np.full(1 << n, 2.0 ** -n))

    @classmethod
    def point_mass(cls, point: Point) -> "DensePmf":
        mass = np.zeros(1 << point.n)
        mass[point.to_index()] = 1.0
        return cls(point.n, mass)

    def dense(self) -> "DensePmf":
        return self

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        k = rho.num_stars
        if k == rho.n == self.n:
            # the whole cube: a cached cumulative, no 2^n table per call
            if self._cum is None:
                self._cum = np.cumsum(self.mass)
            idx = np.searchsorted(self._cum, rng.random(size), side="right")
        else:  # conditional_table checks the dimension
            table, total = conditional_table(self, rho)
            if total == 0.0:
                return None
            cum = np.cumsum(table)
            idx = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        idx = np.minimum(idx, (1 << k) - 1)
        return indices_to_points(idx, k)

    def edge_bias(self, points: np.ndarray, coords: np.ndarray):
        """Exact conditional bias of coordinate coords[r] given the other
        coordinates of points[r]; zero-support pairs report bias 0."""
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        coords = np.asarray(coords, dtype=np.int64)
        idx = points_to_indices(points)
        bit = bit_powers(self.n)[coords]
        hi = idx | bit
        lo = hi - bit
        a_plus = self.mass[hi]
        a_minus = self.mass[lo]
        tot = a_plus + a_minus
        zero = tot == 0.0
        bias = np.zeros(points.shape[0])
        np.divide(a_plus - a_minus, tot, out=bias, where=~zero)
        return bias, zero


class ProductDistribution(HypercubeTarget):
    """Independent coordinates with means mu_i in [-1, 1]."""

    def __init__(self, mu):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if (np.abs(mu) > 1).any():
            raise ValueError("means must lie in [-1, 1]")
        self.mu = _read_only(mu.copy())
        self.n = mu.size

    @classmethod
    def uniform(cls, n: int) -> "ProductDistribution":
        return cls(np.zeros(n))

    def dense(self, *, cap: int = DENSE_CAP_DEFAULT) -> DensePmf:
        mass = np.ones(1)
        for m in self.mu:
            mass = np.kron(mass, np.array([(1 - m) / 2, (1 + m) / 2]))
        return DensePmf(self.n, mass, cap=cap)

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        fixed = rho.fixed
        # a cell fixed against a coordinate of mean +-1 leaves zero mass
        if fixed.size and (self.mu[fixed] == -rho.cells[fixed]).any():
            return None
        stars = rho.stars
        p_plus = (1.0 + self.mu[stars]) / 2.0
        draws = rng.random((size, stars.size)) < p_plus
        return 2 * draws.astype(np.int8) - 1

    def edge_bias(self, points: np.ndarray, coords: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        coords = np.asarray(coords, dtype=np.int64)
        m = points.shape[0]
        deterministic = np.abs(self.mu) == 1.0
        zero = np.zeros(m, dtype=bool)
        if deterministic.any():
            mism = (points != np.sign(self.mu).astype(np.int8)) & deterministic
            rows = np.arange(m)
            zero = (mism.sum(axis=1) - mism[rows, coords]) > 0
        bias = np.where(zero, 0.0, self.mu[coords])
        return bias, zero


def subcube_mass(p: DensePmf, rho: Restriction) -> float:
    """Total mass of the subcube selected by the fixed cells of rho."""
    _, total = conditional_table(p, rho)
    return total


def conditional_table(p: DensePmf, rho: Restriction):
    """(conditional mass over star assignments in dense order, subcube mass)."""
    if rho.n != p.n:
        raise ValueError("restriction dimension mismatch")
    stars = rho.stars
    fixed = rho.fixed
    base = 0
    pw = bit_powers(p.n)
    if fixed.size:
        plus = fixed[rho.cells[fixed] > 0]
        base = int(pw[plus].sum())
    k = stars.size
    if k == 0:
        total = float(p.mass[base])
        return np.ones(1), total
    sub = np.arange(1 << k, dtype=np.int64)
    offs = pw[stars]
    bits = (sub[:, None] >> np.arange(k - 1, -1, -1)) & 1
    idx = base + bits @ offs
    table = p.mass[idx]
    total = float(table.sum())
    if total == 0.0:
        return table, 0.0
    return table / total, total


def restrict(p: DensePmf, rho: Restriction) -> DensePmf:
    """Conditional distribution p_|rho on the star coordinates of rho.

    A zero-mass subcube yields the uniform distribution on the stars.
    """
    table, total = conditional_table(p, rho)
    k = rho.num_stars
    if total == 0.0:
        return DensePmf.uniform(k)
    return DensePmf(k, table)


def project(p: DensePmf, keep) -> DensePmf:
    """Marginal of p on the coordinates `keep` (given in ascending order)."""
    keep = tuple(int(i) for i in keep)
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise ValueError("keep must be strictly increasing")
    if any(i < 0 or i >= p.n for i in keep):
        raise ValueError("coordinate out of range")
    drop = tuple(i for i in range(p.n) if i not in keep)
    cube = p.mass.reshape((2,) * p.n) if p.n else p.mass
    marg = cube.sum(axis=drop) if drop else cube
    return DensePmf(len(keep), np.asarray(marg).reshape(-1))


def tv_to_uniform(p: DensePmf) -> float:
    return 0.5 * float(np.abs(p.mass - 2.0 ** -p.n).sum())


def mean_vector(p: DensePmf) -> MeanVector:
    if p.n == 0:
        return MeanVector(np.zeros(0))
    cube = p.mass.reshape((2,) * p.n)
    vals = np.empty(p.n)
    for i in range(p.n):
        axes = tuple(j for j in range(p.n) if j != i)
        minus, plus = cube.sum(axis=axes)
        vals[i] = plus - minus
    return MeanVector(vals)


def second_moment(p: DensePmf) -> np.ndarray:
    """E[x x^T]; the diagonal is identically 1."""
    if p.n > 16:
        raise ValueError("second_moment is an exact small-n operation")
    pts = all_sign_points(p.n).astype(np.float64)
    return pts.T @ (p.mass[:, None] * pts)


def load_distribution(path: str):
    """Load a dense ({"n", "mass"}) or product ({"n", "mu"}) distribution file."""
    with open(path) as fh:
        doc = json.load(fh)
    return distribution_from_dict(doc)


def distribution_from_dict(doc: dict):
    if not isinstance(doc, dict) or "n" not in doc:
        raise ValueError("distribution file must be an object with an 'n' field")
    if "mass" in doc:
        return DensePmf(doc["n"], doc["mass"])
    if "mu" in doc:
        mu = np.asarray(doc["mu"], dtype=np.float64)
        if mu.size != as_int(doc["n"], "n"):
            raise ValueError("mu length must equal n")
        return ProductDistribution(mu)
    raise ValueError("distribution file needs a 'mass' or 'mu' field")


def distribution_to_dict(dist) -> dict:
    if isinstance(dist, DensePmf):
        return {"n": dist.n, "mass": [float(v) for v in dist.mass]}
    if isinstance(dist, ProductDistribution):
        return {"n": dist.n, "mu": [float(v) for v in dist.mu]}
    raise TypeError(f"cannot serialize {type(dist).__name__}")


def save_distribution(dist, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(distribution_to_dict(dist), fh)
        fh.write("\n")
