"""Subcube-conditional sampling oracle with exact query accounting.

An oracle wraps a target distribution (dense table, product, or a generative
family that knows how to condition itself), a random stream, a ledger and an
optional restriction rho. Without rho it is the root oracle on all n
coordinates; ``restricted(rho)`` returns a view on rho's star coordinates
(ascending order) that conditions every draw on rho. Views compose, and all
views of one root share its target, stream and ledger.

Every sample drawn, conditioned or not, costs exactly one query; the sample
hidden inside each random-restriction draw is charged too. Conditioning on a
subcube of zero mass returns uniform draws on the free coordinates and bumps
`zero_support_hits` once per such draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Restriction


@dataclass
class Ledger:
    """Query and zero-support counts shared by a root oracle and its views."""

    queries: int = 0
    zero_support_hits: int = 0


class ScondOracle:
    def __init__(
        self,
        target,
        rng: np.random.Generator,
        rho: Restriction | None = None,
        ledger: Ledger | None = None,
    ):
        if rho is not None and rho.n != target.n:
            raise ValueError("restriction dimension mismatch")
        self.target = target
        self.rng = rng
        self.rho = rho
        self.ledger = Ledger() if ledger is None else ledger
        self._stars = None if rho is None else rho.stars

    @property
    def n(self) -> int:
        return self.target.n if self.rho is None else self._stars.size

    @property
    def queries(self) -> int:
        return self.ledger.queries

    @property
    def zero_support_hits(self) -> int:
        return self.ledger.zero_support_hits

    def _target_restriction(self, sub: Restriction) -> Restriction:
        return sub if self.rho is None else self.rho.fill(sub)

    def _draw(self, rho: Restriction | None, size: int | None) -> np.ndarray:
        # the root samples the target directly: conditioning on an all-stars
        # restriction would take a different path through the target's stream
        m = 1 if size is None else int(size)
        self.ledger.queries += m
        if rho is None:
            draws = self.target.sample(self.rng, m)
        else:
            draws, zero = self.target.cond_sample(self.rng, rho, m)
            if zero:
                self.ledger.zero_support_hits += m
        return draws[0] if size is None else draws

    def sample(self, size: int | None = None) -> np.ndarray:
        """Draw(s) from the view's distribution; shape (n,) or (size, n)."""
        return self._draw(self.rho, size)

    def cond_sample(self, sub: Restriction, size: int | None = None) -> np.ndarray:
        """Draw(s) conditioned on sub over this view's coordinates, returned on
        sub's star coordinates in ascending order."""
        return self._draw(self._target_restriction(sub), size)

    def draw_restriction_sigma(self, sigma: float) -> Restriction:
        """Random restriction: each coordinate is a star independently with
        probability sigma; the rest are filled from one sample of the view."""
        if not 0.0 <= sigma <= 1.0:
            raise ValueError("sigma must lie in [0, 1]")
        star_mask = self.rng.random(self.n) < sigma
        x = self.sample()
        return Restriction.from_stars_and_point(star_mask, x)

    def draw_restriction_fixed(self, t: int) -> Restriction:
        """Random restriction with exactly t stars, chosen uniformly."""
        if not 0 <= t <= self.n:
            raise ValueError("t must lie in [0, n]")
        stars = self.rng.choice(self.n, size=t, replace=False)
        mask = np.zeros(self.n, dtype=bool)
        mask[stars] = True
        x = self.sample()
        return Restriction.from_stars_and_point(mask, x)

    def estimate_edge_biases(
        self, points: np.ndarray, coords: np.ndarray, draws_per_pair: int
    ) -> np.ndarray:
        """Empirical bias of coordinate coords[r] conditioned on the remaining
        coordinates of points[r], from draws_per_pair conditional draws each.

        The draws for one pair are i.i.d. signs with the pair's exact
        conditional bias, so they are aggregated as a single binomial count;
        the ledger is charged draws_per_pair per pair all the same.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        raw = np.asarray(coords)
        # checked before anything is charged; a negative index would wrap
        # around and a fractional one would be truncated
        if raw.size and not (
            np.issubdtype(raw.dtype, np.integer) and 0 <= raw.min() and raw.max() < self.n
        ):
            raise ValueError(f"coordinates must be integers in [0, {self.n})")
        coords = raw.astype(np.int64)
        b = int(draws_per_pair)
        if b <= 0:
            raise ValueError("draws_per_pair must be positive")
        if self.rho is not None:
            full = np.broadcast_to(self.rho.cells, (points.shape[0], self.rho.n)).copy()
            full[:, self._stars] = points
            points, coords = full, self._stars[coords]
        bias, zero = self.target.edge_bias(points, coords)
        self.ledger.queries += points.shape[0] * b
        self.ledger.zero_support_hits += int(zero.sum()) * b
        plus = self.rng.binomial(b, (1.0 + bias) / 2.0)
        return (2.0 * plus - b) / b

    def restricted(self, sub: Restriction) -> "ScondOracle":
        """View of this oracle conditioned on sub (over this view's coordinates)."""
        return ScondOracle(self.target, self.rng, self._target_restriction(sub), self.ledger)
