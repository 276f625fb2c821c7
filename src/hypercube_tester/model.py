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
* A target gives ``weight(rows)``, its mass at each row up to one constant
  factor, from which ``HypercubeTarget.edge_bias`` takes the conditional
  bias of an edge; a target whose point mass underflows or costs more than
  the bias gives a closed-form ``edge_bias`` instead.
* A target whose every edge bias is 0 on every subcube sets
  ``fair_edges``; only the uniform product does. Every view of such a
  target with k stars is the uniform k-cube, so the testers settle what
  they read of it from exact laws: the edge tester draws each level from
  the law of its counts and asks the oracle for no edge block, a random
  restriction draws only its star count (``ScondOracle.draw_view``), and a
  mean test that reads level 0 only draws its column counts, not its rows.
  Any other target's edge blocks draw their points by ``cond_sample`` and
  have them expanded to the root dimension for ``edge_bias``
  (``view_edge_bias``), and its restrictions and mean tests draw rows.
* Every uniform +-1 entry, in the uniform product, the zoo targets and the
  oracle's zero-mass fallback, is one random bit from ``uniform_signs``.
  Every entry of a biased product is one random byte compared with a
  threshold, and a float64 uniform only when the byte ties it (1 in 256);
  dense PMFs draw from float64 uniforms.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

DENSE_CAP = 30

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
        _POINT_CACHE[n] = indices_to_points(np.arange(1 << n), n)
    return _POINT_CACHE[n]


def points_to_indices(signs: np.ndarray) -> np.ndarray:
    """Dense index (int64) of each sign vector along the last axis, n <= 63.

    The +1 entries become set bits right-aligned in a 32- or 64-bit row,
    which one flat ``np.packbits`` turns into big-endian words: coordinate
    0 lands on the most significant used bit. An integer ``@`` against the
    place values has no BLAS route and took 1.6 times as long on 1,024
    rows of 12 coordinates.
    """
    signs = np.asarray(signs)
    n = signs.shape[-1]
    if n > 63:
        raise ValueError(f"a dense index holds at most 63 coordinates, got {n}")
    width = 32 if n <= 32 else 64
    bits = np.zeros(signs.shape[:-1] + (width,), dtype=bool)
    np.greater(signs, 0, out=bits[..., width - n :])
    words = np.packbits(bits).view(f">u{width // 8}")
    return words.reshape(signs.shape[:-1]).astype(np.int64)


def indices_to_points(indices: np.ndarray, n: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    bits = (idx[..., None] >> np.arange(n - 1, -1, -1)) & 1
    return (2 * bits - 1).astype(np.int8)


# entry v packs the eight int8 signs of byte v, bit j at byte j (+1 for a
# set bit); built as int8 rows and viewed as uint64, so the packing follows
# the machine's byte order and reads back as the same int8 bytes
_BYTE_SIGNS = (
    (2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1)
    .astype(np.int8)
    .view(np.uint64)
    .ravel()
)

# draws of at most this many random bytes (512 rows of 128 entries) are
# unpacked through _BYTE_SIGNS, larger ones by np.unpackbits; the table
# route's intp copy of its index then stays within 64 KiB, and near this
# size the two routes cost about the same (BENCH_edge_blocks.json,
# uniform_signs_routes)
_TABLE_MAX_BYTES = 1 << 13


def uniform_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent uniform +-1 entries (int8) of the given shape, as a fresh
    C-contiguous writable array.

    One random bit per entry: each row along the last axis takes whole
    64-bit words from the stream's bit generator, and entry j of a row is
    bit j % 64 of its word j // 64 (+1 for a set bit). A float64 uniform
    per entry costs several times more on large draws, and ``rng.bytes``
    or a uint8 ``rng.integers`` add Python-level cost that dominates small
    draws. Both unpacking routes give the same bits in the same layout:

    * up to _TABLE_MAX_BYTES random bytes, one ``np.take`` of each byte on a
      256-entry table of eight packed signs. On draws of a few rows it is
      2 to 4 us cheaper per call than the other route (3.8 against 7.5 us for
      one row of 30), and a recursive uniformity verdict makes thousands
      of such calls: with ``np.unpackbits`` at every size the benchmark's
      recursion workload ran about 10% slower;
    * above it, ``np.unpackbits`` and an in-place {0, 1} -> {-1, +1} map.
      ``np.take`` first copies its uint8 index to an intp array eight times
      its size; from 2,048 rows of 128 entries up, that temporary and the
      output made the allocator fault pages in on every call (224 faults
      per call at 4,096 rows, one edge-tester block), while this route
      allocates only the output and took none.

    Rows whose length is not a multiple of 64 are then cut to k entries by
    one copy.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    k = shape[-1]
    words = (k + 63) // 64
    rows = math.prod(shape[:-1])
    raw = rng.bit_generator.random_raw(rows * words).astype("<u8", copy=False).view(np.uint8)
    if raw.size <= _TABLE_MAX_BYTES:
        signs = _BYTE_SIGNS.take(raw).view(np.int8)
    else:
        signs = np.unpackbits(raw, bitorder="little").view(np.int8)
        signs *= 2
        signs -= 1
    signs = signs.reshape(rows, 64 * words)
    if k % 64:
        signs = np.ascontiguousarray(signs[:, :k])
    return signs.reshape(shape)


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
    @functools.lru_cache(maxsize=1024)
    def leading_stars(cls, n: int, k: int) -> "Restriction":
        """The restriction whose first k of n cells are stars and the rest
        +1; one shared instance per (n, k) in a bounded cache."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
        return cls(np.where(np.arange(n) < k, STAR, 1).astype(np.int8))

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

    A subclass also gives ``weight(rows)``, the mass of each row of an (m, n)
    array up to one constant factor, or overrides ``edge_bias`` with a
    closed form.
    """

    n: int
    # whether every edge bias is 0 at every point of every subcube
    fair_edges: bool = False

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """(size, n) draws from the whole cube, which never has zero mass."""
        return self.cond_sample(rng, Restriction.all_stars(self.n), size)

    def view_edge_bias(self, rho: Restriction, points: np.ndarray, coords: np.ndarray):
        """``edge_bias`` of int8 points on rho's star coordinates, with coords
        indexing those stars: both are expanded to the root dimension, which
        is where a target gives its biases."""
        stars = rho.stars
        if stars.size != rho.n:
            full = np.empty((points.shape[0], rho.n), np.int8)
            full[:] = rho.cells
            full[:, stars] = points
            points, coords = full, stars[coords]
        return self.edge_bias(points, coords)

    def edge_bias(self, points: np.ndarray, coords: np.ndarray):
        """(bias, zero): the conditional bias of coordinate coords[r] given the
        other coordinates of points[r], (w(x+) - w(x-)) / (w(x+) + w(x-)) over
        the edge's two ends; a zero-support edge reports bias 0 and a set
        zero flag."""
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        m = points.shape[0]
        rows = np.arange(m)
        ends = np.stack([points, points])
        ends[0, rows, coords] = 1
        ends[1, rows, coords] = -1
        a_plus, a_minus = self.weight(ends.reshape(2 * m, points.shape[1])).reshape(2, m)
        tot = a_plus + a_minus
        zero = tot == 0.0
        bias = np.zeros(m)
        np.divide(a_plus - a_minus, tot, out=bias, where=~zero)
        return bias, zero


class DensePmf(HypercubeTarget):
    """Explicit PMF over {-1,+1}^n.

    The mass vector must sum to 1 within 1e-6 (it is renormalized exactly at
    construction); a larger deviation or any negative entry is an input error.
    n = 0 is allowed and denotes the unique empty-cube distribution.
    """

    def __init__(self, n: int, mass):
        n = as_int(n, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        if n > DENSE_CAP:
            raise ValueError(f"dense PMF dimension {n} exceeds cap {DENSE_CAP}")
        mass = np.asarray(mass, dtype=np.float64)
        if mass.shape != (1 << n,):
            raise ValueError(f"mass must have length 2^{n}")
        if not np.isfinite(mass).all():
            raise ValueError("mass entries must be finite")
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

    def weight(self, rows: np.ndarray) -> np.ndarray:
        return self.mass[points_to_indices(rows)]


class ProductDistribution(HypercubeTarget):
    """Independent coordinates with means mu_i in [-1, 1].

    With every mean 0 (the uniform distribution) a draw is ``uniform_signs``,
    one random bit per coordinate, and ``fair_edges`` is set. Otherwise each
    entry is one random byte b, read from one ``random_raw`` call, against
    its coordinate's ``_thresholds`` (t, r): b < t gives +1, b > t gives -1,
    and a tie gives +1 iff a float64 uniform is below r, the ties' uniforms
    drawn by one ``rng.random`` call after the bytes in row-major order.
    P(+1) is then (1 + mu_i) / 2 exactly for every P(+1) >= 2^-9. A float64
    uniform per entry cost 3 to 5 times as much on the mean workload's draw
    of 2,000 rows of 64 (BENCH_product_bytes.json).
    """

    def __init__(self, mu):
        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if not np.isfinite(mu).all():
            raise ValueError("means must be finite")
        if (np.abs(mu) > 1).any():
            raise ValueError("means must lie in [-1, 1]")
        self.mu = _read_only(mu.copy())
        self.n = mu.size
        # uniform: every edge bias is 0, and the subcubes have no zero mass
        self.fair_edges = not mu.any()
        # the coordinates of mean +-1, where edge_bias finds zero-support
        # edges; built once, as mu is read-only (None when there is none)
        pinned = np.abs(mu) == 1.0
        self._pinned = _read_only(pinned) if pinned.any() else None
        self._pinned_sign = _read_only(np.sign(mu).astype(np.int8))

    @classmethod
    def uniform(cls, n: int) -> "ProductDistribution":
        return cls(np.zeros(n))

    @functools.cached_property
    def _thresholds(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, r) of each coordinate for the byte draw: with s = 256 p,
        p = (1 + mu_i) / 2, t = min(floor(s), 255) as uint8 and r = s - t in
        [0, 1]. The subtraction is exact, and a uniform random byte b gives
        +1 when b < t, or when b == t and a float64 uniform falls below r, so
        P(+1) = t / 256 + ceil(r 2^53) / 2^61. For p >= 2^-9, r is a
        multiple of 2^-53 and this is p exactly; p = 1 gives t = 255, r = 1.
        Built on the first biased draw, not in __init__: the harness builds
        a target per trial, and the uniform product never reads them."""
        s = (1.0 + self.mu) * 128.0
        # the cast truncates, which is floor on s >= 0
        t = np.minimum(s, 255.0).astype(np.uint8)
        return t, s - t

    def dense(self) -> DensePmf:
        mass = np.ones(1)
        for m in self.mu:
            mass = np.kron(mass, np.array([(1 - m) / 2, (1 + m) / 2]))
        return DensePmf(self.n, mass)

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        if self.fair_edges:
            return uniform_signs(rng, (size, rho.num_stars))
        fixed = rho.fixed
        # a cell fixed against a coordinate of mean +-1 leaves zero mass
        if fixed.size and (self.mu[fixed] == -rho.cells[fixed]).any():
            return None
        stars = rho.stars
        t, r = self._thresholds
        t, r = t[stars], r[stars]
        m = size * stars.size
        raw = rng.bit_generator.random_raw(-(-m // 8)).astype("<u8", copy=False)
        raw = raw.view(np.uint8)[:m].reshape(size, stars.size)
        out = np.less(raw, t).view(np.int8)
        out *= 2
        out -= 1
        # a byte equal to t is +1 iff a float64 uniform falls below r; the
        # ties read their uniforms after the bytes, in row-major order
        ties = np.flatnonzero(raw == t)
        if ties.size:
            out.flat[ties] = np.where(rng.random(ties.size) < r[ties % stars.size], 1, -1)
        return out

    def edge_bias(self, points: np.ndarray, coords: np.ndarray):
        # closed form: the point mass, a product of n factors, underflows
        # past n of about 1074
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        coords = np.asarray(coords, dtype=np.int64)
        m = points.shape[0]
        if self._pinned is None:
            return self.mu[coords], np.zeros(m, dtype=bool)
        mism = (points != self._pinned_sign) & self._pinned
        zero = (mism.sum(axis=1) - mism[np.arange(m), coords]) > 0
        return np.where(zero, 0.0, self.mu[coords]), zero


def subcube_mass(p: DensePmf, rho: Restriction) -> float:
    """Total mass of the subcube selected by the fixed cells of rho."""
    _, total = conditional_table(p, rho)
    return total


def conditional_table(p: DensePmf, rho: Restriction):
    """(conditional mass over star assignments in dense order, subcube mass);
    the table of a zero-mass subcube is all zeros."""
    if rho.n != p.n:
        raise ValueError("restriction dimension mismatch")
    at = tuple(slice(None) if c == STAR else (c + 1) // 2 for c in rho.cells.tolist())
    table = p.mass.reshape((2,) * p.n)[at].reshape(-1)
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


def mean_vector(p: DensePmf) -> np.ndarray:
    """Coordinate means E[x_i] of a hypercube distribution."""
    if p.n == 0:
        return np.zeros(0)
    cube = p.mass.reshape((2,) * p.n)
    vals = np.empty(p.n)
    for i in range(p.n):
        axes = tuple(j for j in range(p.n) if j != i)
        minus, plus = cube.sum(axis=axes)
        vals[i] = plus - minus
    return vals


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
