"""Subcube-conditional sampling oracle with exact query accounting.

An oracle wraps a target distribution (a ``model.HypercubeTarget``: dense
table, product, or a generative family that knows how to condition itself),
a random stream, a ledger and a restriction rho. The root oracle holds the
all-stars restriction on all n coordinates; ``restricted(rho)`` returns a
view on rho's star coordinates (ascending order) that conditions every draw
on rho. Views compose, and all views of one root share its target, stream
and ledger.

Every sample drawn, conditioned or not, costs exactly one query; the sample
hidden inside each random-restriction draw is charged too. Conditioning on a
subcube of zero mass returns uniform draws on the free coordinates and bumps
`zero_support_hits` once per such draw; this oracle is the only place that
policy lives (a target reports the zero mass by returning None).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Restriction, as_int, uniform_signs


@dataclass
class Ledger:
    """Query and zero-support counts shared by a root oracle and its views."""

    queries: int = 0
    zero_support_hits: int = 0


def _draws_per_pair(value) -> int:
    b = as_int(value, "draws_per_pair")
    if b <= 0:
        raise ValueError("draws_per_pair must be positive")
    return b


class ScondOracle:
    def __init__(
        self,
        target,
        rng: np.random.Generator,
        rho: Restriction | None = None,
        ledger: Ledger | None = None,
    ):
        if rho is None:
            rho = Restriction.all_stars(target.n)
        elif rho.n != target.n:
            raise ValueError("restriction dimension mismatch")
        self.target = target
        self.rng = rng
        self.rho = rho
        self.ledger = Ledger() if ledger is None else ledger
        self._stars = rho.stars

    @property
    def n(self) -> int:
        return self._stars.size

    @property
    def queries(self) -> int:
        return self.ledger.queries

    @property
    def zero_support_hits(self) -> int:
        return self.ledger.zero_support_hits

    def _draw(self, rho: Restriction, size: int | None) -> np.ndarray:
        m = 1 if size is None else as_int(size, "size")
        if m < 0:
            raise ValueError("size must be nonnegative")
        self.ledger.queries += m
        draws = self.target.cond_sample(self.rng, rho, m)
        if draws is None:
            self.ledger.zero_support_hits += m
            draws = uniform_signs(self.rng, (m, rho.num_stars))
        return draws[0] if size is None else draws

    def sample(self, size: int | None = None) -> np.ndarray:
        """Draw(s) from the view's distribution; shape (n,) or (size, n)."""
        return self._draw(self.rho, size)

    def cond_sample(self, sub: Restriction, size: int | None = None) -> np.ndarray:
        """Draw(s) conditioned on sub over this view's coordinates, returned on
        sub's star coordinates in ascending order."""
        return self._draw(self.rho.fill(sub), size)

    def draw_restriction_sigma(self, sigma: float) -> Restriction:
        """Random restriction: each coordinate is a star independently with
        probability sigma; the rest are filled from one sample of the view."""
        if not 0.0 <= sigma <= 1.0:
            raise ValueError("sigma must lie in [0, 1]")
        star_mask = self.rng.random(self.n) < sigma
        x = self.sample()
        return Restriction.from_stars_and_point(star_mask, x)

    def estimate_edge_biases(
        self, points: np.ndarray, coords: np.ndarray, draws_per_pair: int
    ) -> np.ndarray:
        """Empirical bias of coordinate coords[r] conditioned on the remaining
        coordinates of points[r], from draws_per_pair conditional draws each.

        The draws for one pair are i.i.d. signs with the pair's exact
        conditional bias, so they are aggregated as a single count of +1
        draws; the ledger is charged draws_per_pair per pair all the same.
        The count is Binomial(b, (1 + bias)/2) with b = draws_per_pair, drawn
        by ``rng.binomial`` unless the batch is fair (every bias 0, which
        includes zero-support pairs): then with b <= 64 each pair's b draws
        are the low b bits of one ``random_raw`` word and the count is their
        popcount, exactly Binomial(b, 1/2) at one word per pair, and with
        b > 64 it is ``rng.binomial(b, 0.5)``, which returns what the general
        call returns for every p = 1/2 on the same stream. Only the popcount
        route reads the stream differently from that general call; every
        route draws the same law.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.int8))
        raw = np.asarray(coords)
        # checked before anything is charged; a negative index would wrap
        # around and a fractional one would be truncated
        if raw.size and not (
            np.issubdtype(raw.dtype, np.integer) and 0 <= raw.min() and raw.max() < self.n
        ):
            raise ValueError(f"coordinates must be integers in [0, {self.n})")
        if points.shape != (raw.size, self.n):
            raise ValueError(
                f"points must have shape ({raw.size}, {self.n}) for {raw.size} coordinates,"
                f" got {points.shape}"
            )
        b = _draws_per_pair(draws_per_pair)
        return self._edge_estimates(points, raw.astype(np.int64), b)

    def edge_block(self, size: int, draws_per_pair: int) -> tuple[np.ndarray, np.ndarray]:
        """One edge-tester block in one call: (coords, estimates) for size
        points of the view, each with a uniform coordinate.

        Reads the stream and charges the ledger exactly as ``sample(size)``,
        then ``rng.integers(0, n, size)``, then ``estimate_edge_biases`` on
        those points and coordinates would; draws_per_pair is checked before
        anything is charged. The coordinates are in range by construction,
        so the checks that call makes on its arguments are not repeated.
        """
        b = _draws_per_pair(draws_per_pair)
        points = self._draw(self.rho, size)
        coords = self.rng.integers(0, self.n, size)
        return coords, self._edge_estimates(points, coords, b)

    def _edge_estimates(self, points: np.ndarray, coords: np.ndarray, b: int) -> np.ndarray:
        # a view's points and coordinates are expanded to the root dimension,
        # which is where the target gives its biases
        if self._stars.size != self.rho.n:
            full = np.empty((points.shape[0], self.rho.n), np.int8)
            full[:] = self.rho.cells
            full[:, self._stars] = points
            points, coords = full, self._stars[coords]
        bias, zero = self.target.edge_bias(points, coords)
        self.ledger.queries += points.shape[0] * b
        self.ledger.zero_support_hits += int(np.count_nonzero(zero)) * b
        if bias.any():
            plus = self.rng.binomial(b, (1.0 + bias) / 2.0)
        elif b <= 64:
            words = self.rng.bit_generator.random_raw(bias.shape)
            words &= np.uint64((1 << b) - 1)
            plus = np.bitwise_count(words)
        else:
            plus = self.rng.binomial(b, 0.5, size=bias.shape)
        return (2.0 * plus - b) / b

    def restricted(self, sub: Restriction) -> "ScondOracle":
        """View of this oracle conditioned on sub (over this view's coordinates)."""
        return ScondOracle(self.target, self.rng, self.rho.fill(sub), self.ledger)
