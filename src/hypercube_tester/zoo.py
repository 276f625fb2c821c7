"""Named target distributions for experiments, and the one place that turns
a spec string or an entry file into a target.

Every hypercube entry instantiates to either a DensePmf/ProductDistribution
(small n) or a generative family that supports subcube-conditional sampling
directly (any n); each is a ``model.HypercubeTarget`` and draws only through
``cond_sample``. A family states its point mass once, as ``weight``, and its
dense form and edge biases follow from it. An entry is its JSON object
{"kind": ..., <parameters>}. Each kind, a hypercube target or a gaussian
source, is one ``_Kind`` row of ``_KIND_DOCS`` or ``_GAUSSIAN_KINDS``, and
``_build`` checks and builds the entries of both, so a new kind is one row.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    DENSE_CAP,
    STAR,
    UNIFORM_SPECTRUM,
    DensePmf,
    EdgeSpectrum,
    HypercubeTarget,
    ProductDistribution,
    Restriction,
    _validate_signs,
    as_int,
    distribution_from_dict,
    uniform_signs,
)


class TwoPointDistribution(HypercubeTarget):
    """Mass 1/2 on x and 1/2 on -x."""

    def __init__(self, x):
        self.x = _validate_signs(x)
        self.n = self.x.size

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
    """Inner PMF on the first k coordinates, uniform on the remaining n - k;
    with no inner PMF, a point mass on all +1 within the junta."""

    def __init__(self, n: int, k: int, inner=None):
        self.n, self.k = as_int(n, "n"), as_int(k, "k")
        # checked before the 2^k inner masses are built or read
        if not 1 <= self.k <= min(self.n, DENSE_CAP):
            raise ValueError(
                f"need 1 <= k <= n and k <= DENSE_CAP = {DENSE_CAP}, got k={self.k} at n={self.n}"
            )
        if inner is None:
            inner = np.zeros(1 << self.k)
            inner[-1] = 1.0  # point mass on all +1 within the junta
        self.inner = DensePmf(self.k, inner)

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
        self._s = np.array(S, dtype=np.int64)

    def _weight(self, parity: np.ndarray) -> np.ndarray:
        return np.where(parity > 0, 1.0 - self.delta, self.delta)

    def weight(self, rows: np.ndarray) -> np.ndarray:
        """Each row's mass times 2^(n-1): 1 - delta where chi_S is +1, delta
        where it is -1."""
        return self._weight(rows[:, self._s].prod(axis=1))

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

    def edge_spectrum(self, rho: Restriction):
        """A pair's bias is 0 off S and chi_{S - i}(x) (1 - 2 delta) on a
        star i of S. A view with j >= 1 of its k stars in S puts weight
        j / k on |beta| = 1 - 2 delta, with the sign of the product of the
        fixed cells of S when j = 1, and a uniform sign when j >= 2 (the
        parity of the other free cells of S is then uniform); the rest is at
        0. A view with no star in S is uniform, or has zero mass when its
        fixed cells of S take the parity of weight 0: None."""
        cells = rho.cells[self._s]
        free = cells == STAR
        j = int(np.count_nonzero(free))
        # the product of the fixed cells of S
        par = 1 - 2 * (int(np.count_nonzero(cells < 0)) % 2)
        beta = 1.0 - 2.0 * self.delta
        if j == 0:
            return None if self._weight(par) == 0.0 else UNIFORM_SPECTRUM
        if beta == 0.0:
            return UNIFORM_SPECTRUM
        k = rho.num_stars
        on = np.searchsorted(rho.stars, self._s[free])
        if j == 1:
            law, coords = [(1.0 / k, par * beta)], [on]
        else:
            law, coords = [(j / (2 * k), beta), (j / (2 * k), -beta)], [on, on]
        if j < k:
            off = np.ones(k, dtype=bool)
            off[on] = False
            law.append(((k - j) / k, 0.0))
            coords.append(np.flatnonzero(off))
        return EdgeSpectrum(tuple(law), tuple(coords))


class GaussianSource:
    """Generative source of real vectors N(mu, I); used only by the gaussian
    mean tester, not as a hypercube oracle target."""

    def __init__(self, n: int, mu=None):
        self.n = as_int(n, "n")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        # a read-only copy, so that phi always holds the law of these means
        self.mu = np.zeros(self.n) if mu is None else np.array(mu, dtype=np.float64)
        if self.mu.shape != (self.n,):
            raise ValueError("mu must have length n")
        if not np.isfinite(self.mu).all():
            raise ValueError("means must be finite")
        self.mu.setflags(write=False)
        # P(x_i >= 0) = Phi(mu_i)
        self.phi = np.array([0.5 * math.erfc(-m / math.sqrt(2.0)) for m in self.mu.tolist()])
        self.phi.setflags(write=False)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.standard_normal((size, self.n))
        # in place: a second array of this size would be freed and its pages
        # faulted in again on every draw
        out += self.mu
        return out

    def plus_counts(self, rng: np.random.Generator, rows) -> np.ndarray:
        """An int64 (len(rows), n) array whose row b counts, in each column,
        the entries >= 0 of rows[b] fresh samples, in one draw: the columns
        of a sample are independent, so each count is exactly
        Binomial(rows[b], Phi(mu_i)), independent across columns and rows."""
        return rng.binomial(np.asarray(rows, dtype=np.int64)[:, None], self.phi)


class _Kind(NamedTuple):
    """A kind's description, its builder ``build(n, **parameters)``, its
    required parameters as (name, shorthand converter) in shorthand order,
    and its optional parameters as name -> default at dimension n."""

    doc: str
    build: Callable
    params: tuple = ()
    optional: dict = {}


_KIND_DOCS = {
    "uniform": _Kind("uniform distribution; no parameters", ProductDistribution.uniform),
    "two_point": _Kind(
        "half mass on x, half on -x; params: x (sign list, default all +1)",
        lambda n, x: TwoPointDistribution(x),
        optional={"x": np.ones},
    ),
    "planted_product": _Kind(
        "product distribution with every mean eps; params: eps",
        lambda n, eps: ProductDistribution(np.full(n, float(eps))),
        (("eps", float),),
    ),
    "heavy_atom": _Kind(
        "mass on one atom, rest uniform; params: mass, x (default all +1)",
        lambda n, mass, x: HeavyAtomDistribution(float(mass), x),
        (("mass", float),),
        {"x": np.ones},
    ),
    "junta_mix": _Kind(
        "inner PMF on first k coordinates times uniform; params: k, inner (2^k masses)",
        JuntaMixDistribution,
        (("k", int),),
        {"inner": lambda n: None},
    ),
    # the shorthand noisy_parity:M:DELTA takes S = the first M coordinates
    "noisy_parity": _Kind(
        "chi_S(x) = +1 w.p. 1-delta, uniform within parity classes; params: S, delta",
        lambda n, S, delta: NoisyParityDistribution(n, S, float(delta)),
        (("S", lambda m: list(range(int(m)))), ("delta", float)),
    ),
}

_GAUSSIAN_KINDS = {
    "standard": _Kind("N(0, I)", GaussianSource),
    "shift": _Kind(
        "N(mu, I) with every mean norm / sqrt(n); params: norm",
        lambda n, norm: GaussianSource(n, np.full(n, norm / math.sqrt(n))),
        (("norm", float),),
    ),
}


def _parse_shorthand(text: str, kinds: dict) -> dict | None:
    """The entry of a 'kind[:arg[:arg]]' string whose kind is a row of
    ``kinds`` and whose args are that row's required parameters in order;
    None when the string has another form."""
    kind, *args = text.split(":")
    if kind not in kinds or len(args) != len(kinds[kind].params):
        return None
    return {"kind": kind, **{name: conv(a) for (name, conv), a in zip(kinds[kind].params, args)}}


def zoo_kinds() -> dict[str, str]:
    return {kind: row.doc for kind, row in _KIND_DOCS.items()}


def _entry_kind(entry: dict) -> str:
    if "kind" not in entry:
        raise ValueError("zoo entry needs a 'kind' field")
    return entry["kind"]


def _build(kinds: dict, entry: dict, n: int):
    """The target at dimension n of an entry whose kind is a row of ``kinds``.

    An entry with no kind or an unknown kind, a missing required parameter,
    a parameter the kind does not take or a target without n coordinates
    raises ValueError."""
    kind = _entry_kind(entry)
    if kind not in kinds:
        raise ValueError(f"unknown zoo kind {kind!r}")
    _, build, params, optional = kinds[kind]
    p = dict(entry)
    del p["kind"]
    required = dict(params).keys()
    # every shorthand holds its required parameters alone: one comparison
    if p.keys() != required:
        missing = required - p.keys()
        if missing:
            raise ValueError(f"zoo kind {kind!r} needs parameters {sorted(missing)}")
        unknown = p.keys() - required - optional.keys()
        if unknown:
            raise ValueError(f"zoo kind {kind!r} takes no parameters {sorted(unknown)}")
    for name, default in optional.items():
        if name not in p:
            p[name] = default(n)
    target = build(n, **p)
    if target.n != n:
        raise ValueError(f"{kind} x must have length n")
    return target


def instantiate(entry: dict, n: int):
    """Build the target distribution described by a zoo entry at dimension n."""
    return _build(_KIND_DOCS, entry, n)


def save_entry(entry: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(entry, fh)
        fh.write("\n")


def load_entry(path: str) -> dict:
    with open(path) as fh:
        entry = json.load(fh)
    _entry_kind(entry)
    return entry


def parse_spec_string(text: str) -> dict:
    """Shorthand 'kind[:arg[:arg]]' used by the CLI: a kind of ``_KIND_DOCS``
    followed by its required parameters, such as planted_product:0.25."""
    entry = _parse_shorthand(text, _KIND_DOCS)
    if entry is None:
        raise ValueError(f"cannot parse distribution spec {text!r}")
    return entry


def resolve_target(spec_string: str, n: int):
    """Turn a distribution spec string into a concrete target at dimension n.

    The string is either a path to a JSON file (a zoo entry with a ``kind``
    field, or an explicit distribution saved by ``save_distribution``) or a
    zoo shorthand like ``planted_product:0.25``.
    """
    if os.path.exists(spec_string):
        with open(spec_string) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "kind" in doc:
            return instantiate(doc, n)
        target = distribution_from_dict(doc)
        if target.n != n:
            raise ValueError(
                f"distribution file has n={target.n}, grid asks for n={n}"
            )
        return target
    return instantiate(parse_spec_string(spec_string), n)


def resolve_gaussian_source(spec_string: str, n: int) -> GaussianSource:
    """Gaussian targets: the shorthand of a row of ``_GAUSSIAN_KINDS``, at
    n >= 1 coordinates (``shift`` divides by sqrt(n) as it builds)."""
    if not as_int(n, "n") >= 1:
        raise ValueError(f"n must be at least 1, got n={n}")
    entry = _parse_shorthand(spec_string, _GAUSSIAN_KINDS)
    if entry is None:
        forms = [":".join([kind, *(name.upper() for name, _ in row.params)])
                 for kind, row in _GAUSSIAN_KINDS.items()]
        raise ValueError(
            f"gaussian distribution must be {' or '.join(map(repr, forms))}, got {spec_string!r}"
        )
    return _build(_GAUSSIAN_KINDS, entry, n)
