"""Named target distributions for experiments.

Every hypercube entry instantiates to either a DensePmf/ProductDistribution
(small n) or a generative family that supports subcube-conditional sampling
directly (any n); each is a ``model.HypercubeTarget`` and draws only through
``cond_sample``. Entries serialize as {"kind": ..., <parameters>} JSON.

Kinds:
  uniform                          uniform on {-1,+1}^n
  two_point      x                 1/2 on x and 1/2 on -x  (TV to uniform 1 - 2^(1-n))
  planted_product eps              product with mu_i = eps (mean norm exactly eps*sqrt(n))
  heavy_atom     mass, x           mass on the atom x plus (1-mass) uniform
  junta_mix      k, inner          inner PMF on the first k coordinates, uniform elsewhere
  noisy_parity   S, delta          parity chi_S(x) = +1 with probability 1-delta, uniform within
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import (
    DensePmf,
    HypercubeTarget,
    ProductDistribution,
    Restriction,
    _validate_signs,
    as_int,
    bit_powers,
    points_to_indices,
    uniform_signs,
)

# kind: (description, required parameter names, optional parameter names)
_KIND_DOCS = {
    "uniform": ("uniform distribution; no parameters", set(), set()),
    "two_point": (
        "half mass on x, half on -x; params: x (sign list, default all +1)", set(), {"x"}
    ),
    "planted_product": ("product distribution with every mean eps; params: eps", {"eps"}, set()),
    "heavy_atom": (
        "mass on one atom, rest uniform; params: mass, x (default all +1)", {"mass"}, {"x"}
    ),
    "junta_mix": (
        "inner PMF on first k coordinates times uniform; params: k, inner (2^k masses)",
        {"k"},
        {"inner"},
    ),
    "noisy_parity": (
        "chi_S(x) = +1 w.p. 1-delta, uniform within parity classes; params: S, delta",
        {"S", "delta"},
        set(),
    ),
}


class TwoPointDistribution(HypercubeTarget):
    """Mass 1/2 on x and 1/2 on -x."""

    def __init__(self, x):
        self.x = _validate_signs(x)
        self.n = self.x.size

    def dense(self, **kw) -> DensePmf:
        mass = np.zeros(1 << self.n)
        mass[int(points_to_indices(self.x))] += 0.5
        mass[int(points_to_indices(-self.x))] += 0.5
        return DensePmf(self.n, mass, **kw)

    def weight(self, rows: np.ndarray) -> np.ndarray:
        return ((rows == self.x).all(axis=1) | (rows == -self.x).all(axis=1)).astype(np.float64)

    def _consistency(self, rho: Restriction):
        fixed = rho.fixed
        if fixed.size == 0:
            return True, True
        cx = bool((rho.cells[fixed] == self.x[fixed]).all())
        cmx = bool((rho.cells[fixed] == -self.x[fixed]).all())
        return cx, cmx

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        cx, cmx = self._consistency(rho)
        if not cx and not cmx:
            return None
        if cx and cmx:
            s = uniform_signs(rng, size)
        else:
            s = np.full(size, 1 if cx else -1, dtype=np.int8)
        return s[:, None] * self.x[rho.stars]


class HeavyAtomDistribution(HypercubeTarget):
    """mass * point_mass(x) + (1 - mass) * uniform."""

    def __init__(self, mass: float, x):
        if not 0.0 <= mass <= 1.0:
            raise ValueError("mass must lie in [0, 1]")
        self.atom_mass = float(mass)
        self.x = _validate_signs(x)
        self.n = self.x.size

    def dense(self, **kw) -> DensePmf:
        mass = np.full(1 << self.n, (1.0 - self.atom_mass) * 2.0 ** -self.n)
        mass[int(points_to_indices(self.x))] += self.atom_mass
        return DensePmf(self.n, mass, **kw)

    def weight(self, rows: np.ndarray) -> np.ndarray:
        is_atom = (rows == self.x).all(axis=1)
        return self.atom_mass * is_atom + (1.0 - self.atom_mass) * 2.0 ** -self.n

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        stars = rho.stars
        fixed = rho.fixed
        consistent = bool((rho.cells[fixed] == self.x[fixed]).all()) if fixed.size else True
        w_atom = self.atom_mass if consistent else 0.0
        w_unif = (1.0 - self.atom_mass) * 2.0 ** -fixed.size
        total = w_atom + w_unif
        if total == 0.0:
            return None
        take_atom = rng.random(size) < (w_atom / total)
        draws = uniform_signs(rng, (size, stars.size))
        draws[take_atom] = self.x[stars]
        return draws


class JuntaMixDistribution(HypercubeTarget):
    """Inner PMF on the first k coordinates, uniform on the remaining n - k."""

    def __init__(self, n: int, k: int, inner):
        self.n, self.k = as_int(n, "n"), as_int(k, "k")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        self.inner = DensePmf(self.k, inner)

    def dense(self, **kw) -> DensePmf:
        rest = np.full(1 << (self.n - self.k), 2.0 ** -(self.n - self.k))
        return DensePmf(self.n, np.kron(self.inner.mass, rest), **kw)

    def weight(self, rows: np.ndarray) -> np.ndarray:
        return self.inner.weight(rows[:, : self.k])

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        stars = rho.stars
        inner_rho = Restriction(rho.cells[: self.k])
        head = self.inner.cond_sample(rng, inner_rho, size)
        if head is None:
            return None
        tail = uniform_signs(rng, (size, int((stars >= self.k).sum())))
        draws = np.empty((size, stars.size), dtype=np.int8)
        draws[:, stars < self.k] = head
        draws[:, stars >= self.k] = tail
        return draws


class NoisyParityDistribution(HypercubeTarget):
    """chi_S(x) = +1 with probability 1 - delta; uniform within each parity class."""

    def __init__(self, n: int, S, delta: float):
        n = as_int(n, "n")
        S = tuple(sorted(as_int(i, "S entry") for i in S))
        if len(S) == 0 or len(set(S)) != len(S):
            raise ValueError("S must be a nonempty set of coordinates")
        if any(i < 0 or i >= n for i in S):
            raise ValueError("S out of range")
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.n = n
        self.S = S
        self.delta = float(delta)
        self._s_mask = np.zeros(n, dtype=bool)
        self._s_mask[list(S)] = True

    def _weight(self, parity: np.ndarray) -> np.ndarray:
        return np.where(parity > 0, 1.0 - self.delta, self.delta)

    def dense(self, **kw) -> DensePmf:
        idx = np.arange(1 << self.n, dtype=np.int64)
        pw = bit_powers(self.n)[list(self.S)]
        ones = np.zeros(1 << self.n, dtype=np.int64)
        for p in pw:
            ones += (idx & p) > 0
        # chi_S = prod x_i = (-1)^(# of -1 entries among S); a set bit means +1
        minus = len(self.S) - ones
        parity = 1 - 2 * (minus % 2)
        return DensePmf(self.n, 2.0 ** (1 - self.n) * self._weight(parity), **kw)

    def cond_sample(self, rng: np.random.Generator, rho: Restriction, size: int):
        stars = rho.stars
        s_stars = [i for i in self.S if rho.cells[i] == 0]
        fixed_s = [i for i in self.S if rho.cells[i] != 0]
        par_fixed = int(np.prod(rho.cells[fixed_s])) if fixed_s else 1
        if not s_stars:
            if self._weight(par_fixed) == 0.0:
                return None
            return uniform_signs(rng, (size, stars.size))
        draws = uniform_signs(rng, (size, stars.size))
        # parity wanted of the free S coordinates, given the fixed ones
        want_free = np.where(rng.random(size) < 1.0 - self.delta, par_fixed, -par_fixed)
        s_cols = np.searchsorted(stars, s_stars)
        have = draws[:, s_cols].prod(axis=1).astype(np.int8)
        flip = want_free != have
        draws[flip, s_cols[0]] *= -1
        return draws

    def edge_bias(self, points: np.ndarray, coords: np.ndarray):
        # closed form: the edge tester's far target calls this on every
        # block, where the generic ratio costs more and misses 1 - 2 delta
        # by one ulp at some delta
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        coords = np.asarray(coords, dtype=np.int64)
        m = points.shape[0]
        in_s = self._s_mask[coords]
        s_vals = points[:, list(self.S)].astype(np.float64)
        chi = s_vals.prod(axis=1)
        rows = np.arange(m)
        bias = np.zeros(m)
        zero = np.zeros(m, dtype=bool)
        if in_s.any():
            xi = points[rows, coords].astype(np.float64)
            par_other = chi[in_s] * xi[in_s]  # parity of S minus the edge coordinate
            bias[in_s] = par_other * (1.0 - 2.0 * self.delta)
        out = ~in_s
        if out.any():
            w = self._weight(chi[out])
            zero[out] = w == 0.0
        return bias, zero


class GaussianSource:
    """Generative source of real vectors N(mu, I); used only by the gaussian
    mean tester, not as a hypercube oracle target."""

    def __init__(self, n: int, mu=None):
        self.n = as_int(n, "n")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        self.mu = np.zeros(self.n) if mu is None else np.asarray(mu, dtype=np.float64)
        if self.mu.shape != (self.n,):
            raise ValueError("mu must have length n")
        if not np.isfinite(self.mu).all():
            raise ValueError("means must be finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.standard_normal((size, self.n))
        # in place: a second array of this size would be freed and its pages
        # faulted in again on every draw
        out += self.mu
        return out


@dataclass
class ZooEntry:
    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, doc: dict) -> "ZooEntry":
        if "kind" not in doc:
            raise ValueError("zoo entry needs a 'kind' field")
        params = {k: v for k, v in doc.items() if k != "kind"}
        return cls(doc["kind"], params)


def zoo_kinds() -> dict[str, str]:
    return {kind: doc for kind, (doc, _, _) in _KIND_DOCS.items()}


def instantiate(entry: ZooEntry, n: int):
    """Build the target distribution described by a zoo entry at dimension n.

    An unknown kind, a missing required parameter or a parameter the kind
    does not take raises ValueError."""
    kind, p = entry.kind, entry.params
    if kind not in _KIND_DOCS:
        raise ValueError(f"unknown zoo kind {kind!r}")
    _, required, optional = _KIND_DOCS[kind]
    missing = required - p.keys()
    if missing:
        raise ValueError(f"zoo kind {kind!r} needs parameters {sorted(missing)}")
    unknown = p.keys() - required - optional
    if unknown:
        raise ValueError(f"zoo kind {kind!r} takes no parameters {sorted(unknown)}")
    if kind == "uniform":
        return ProductDistribution.uniform(n)
    if kind == "two_point":
        target = TwoPointDistribution(p.get("x", np.ones(n)))
        if target.n != n:
            raise ValueError("two_point x must have length n")
        return target
    if kind == "planted_product":
        eps = float(p["eps"])
        return ProductDistribution(np.full(n, eps))
    if kind == "heavy_atom":
        target = HeavyAtomDistribution(float(p["mass"]), p.get("x", np.ones(n)))
        if target.n != n:
            raise ValueError("heavy_atom x must have length n")
        return target
    if kind == "junta_mix":
        k = as_int(p["k"], "k")
        inner = p.get("inner")
        if inner is None:
            inner = np.zeros(1 << k)
            inner[-1] = 1.0  # point mass on all +1 within the junta
        return JuntaMixDistribution(n, k, inner)
    return NoisyParityDistribution(n, p["S"], float(p["delta"]))


def save_entry(entry: ZooEntry, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(entry.to_dict(), fh)
        fh.write("\n")


def load_entry(path: str) -> ZooEntry:
    with open(path) as fh:
        return ZooEntry.from_dict(json.load(fh))


def parse_spec_string(text: str) -> ZooEntry:
    """Shorthand 'kind[:arg[:arg]]' used by the CLI.

    uniform | two_point | planted_product:EPS | heavy_atom:MASS |
    junta_mix:K | noisy_parity:M:DELTA  (S = first M coordinates)
    """
    parts = text.split(":")
    kind, args = parts[0], parts[1:]
    if kind == "uniform" and not args:
        return ZooEntry("uniform")
    if kind == "two_point" and not args:
        return ZooEntry("two_point")
    if kind == "planted_product" and len(args) == 1:
        return ZooEntry("planted_product", {"eps": float(args[0])})
    if kind == "heavy_atom" and len(args) == 1:
        return ZooEntry("heavy_atom", {"mass": float(args[0])})
    if kind == "junta_mix" and len(args) == 1:
        return ZooEntry("junta_mix", {"k": int(args[0])})
    if kind == "noisy_parity" and len(args) == 2:
        return ZooEntry("noisy_parity", {"S": list(range(int(args[0]))), "delta": float(args[1])})
    raise ValueError(f"cannot parse distribution spec {text!r}")
