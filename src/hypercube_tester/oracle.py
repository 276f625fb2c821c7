"""Subcube-conditional sampling oracle with exact query accounting.

An oracle wraps a target distribution (a ``model.HypercubeTarget``: dense
table, product, or a generative family that knows how to condition itself),
a random stream, a ledger and a restriction rho. The root oracle holds the
all-stars restriction on all n coordinates; ``restricted(rho)`` returns a
view on rho's star coordinates (ascending order) that conditions every draw
on rho. Views compose, and all views of one root share its target, stream
and ledger.

Every sample drawn, conditioned or not, costs exactly one query; the sample
hidden inside each random-restriction draw is charged too. A recursion node
takes each random restriction as a view, ``draw_view(sigma)``; on a target
that gives its ``column_means`` (a product with no mean of +-1) that view is
drawn from its law, a star mask alone (a star count when every coordinate
has the same mean), and still charged the 1 query of its fill sample.
Conditioning on a subcube of zero mass returns uniform draws on the free coordinates and bumps
`zero_support_hits` once per such draw; this oracle is the only place that
policy lives (a target reports the zero mass by returning None).

The one edge query is ``edge_block``: it draws points of the view, gives
each a uniform coordinate, and answers each pair with the count of +1
draws among b conditional draws on that pair's one-star subcube (the edge
through the point along the coordinate), charging 1 + b queries per pair.
Each count is one ``rng.binomial`` draw from the pair's exact bias, by the
same route for fair and biased pairs alike. On a view whose target gives
its ``edge_spectrum`` the edge tester asks for no block: it draws each
level from the exact law of its counts and charges this ledger the pairs a
block route would have drawn. A level-0 mean test on a view with column
means draws its column counts from their law and charges the 2q rows they
stand for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Restriction, as_int, uniform_signs


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma <= 1.0:
        raise ValueError("sigma must lie in [0, 1]")


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
        if rho is None:
            rho = Restriction.all_stars(target.n)
        elif rho.n != target.n:
            raise ValueError("restriction dimension mismatch")
        self.target = target
        self.rng = rng
        self.rho = rho
        self.ledger = Ledger() if ledger is None else ledger
        # the view's dimension, its number of stars
        self.n = rho.num_stars

    @property
    def queries(self) -> int:
        return self.ledger.queries

    @property
    def zero_support_hits(self) -> int:
        return self.ledger.zero_support_hits

    def _charge(self, size) -> int:
        # size points, checked and charged before anything is drawn
        m = as_int(size, "size")
        if m < 0:
            raise ValueError("size must be nonnegative")
        self.ledger.queries += m
        return m

    def _draw(self, rho: Restriction, size: int | None) -> np.ndarray:
        m = self._charge(1 if size is None else size)
        draws = self.target.cond_sample(self.rng, rho, m)
        if draws is None:
            draws = self._zero_mass(rho, m)
        return draws[0] if size is None else draws

    def _zero_mass(self, rho: Restriction, m: int) -> np.ndarray:
        # the zero-mass policy: m uniform draws on rho's free coordinates
        self.ledger.zero_support_hits += m
        return uniform_signs(self.rng, (m, rho.num_stars))

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
        _check_sigma(sigma)
        star_mask = self.rng.random(self.n) < sigma
        x = self.sample()
        return Restriction.from_stars_and_point(star_mask, x)

    def draw_view(self, sigma: float) -> "ScondOracle":
        """The view on a random restriction of this view, charged the 1
        query of its fill sample: ``restricted(draw_restriction_sigma(sigma))``.

        A view whose target gives its ``column_means`` (a product with no
        mean of +-1) depends only on which coordinates are stars, not on the
        fill point, so only the star mask is drawn, by the same
        ``rng.random(n) < sigma``, and the view's other stars are fixed at
        +1. When every coordinate has the same mean (the uniform product, a
        planted product), every view of k stars is the same product,
        whichever coordinates are stars, so only k is drawn: one
        ``rng.binomial(n, sigma)``, and the view is the root restriction
        whose first k coordinates are stars and the rest +1
        (``Restriction.leading_stars``). What a tester reads of such a view
        has the law of the drawn view's; the stream words differ.
        """
        means = self.target.column_means(self.rho)
        if means is None:
            return self.restricted(self.draw_restriction_sigma(sigma))
        _check_sigma(sigma)
        if isinstance(means, float):
            rho = Restriction.leading_stars(self.rho.n, int(self.rng.binomial(self.n, sigma)))
        else:
            cells = self.rho.cells.copy()
            cells[self.rho.stars[self.rng.random(self.n) >= sigma]] = 1
            rho = Restriction(cells)
        self.ledger.queries += 1
        return ScondOracle(self.target, self.rng, rho, self.ledger)

    def edge_block(self, size: int, draws_per_pair: int) -> tuple[np.ndarray, np.ndarray]:
        """One edge-tester block in one call: (coords, counts) for size points
        of the view, each with a uniform coordinate, where counts[r] is the
        number of +1 draws among draws_per_pair conditional draws of
        coordinate coords[r] at point r.

        Reads the stream in this order: the points as ``sample(size)`` would,
        then ``rng.integers(0, n, size)`` for the coordinates, then one count
        per pair by ``_edge_counts``, from the pair's bias as the target's
        ``view_edge_bias`` gives it. A pair's bias estimate is
        (2 counts - b) / b. It charges size queries for the points and b per
        pair; draws_per_pair and the view's dimension, which must leave a
        coordinate to draw, are checked before anything is charged.
        """
        b = as_int(draws_per_pair, "draws_per_pair")
        if b <= 0:
            raise ValueError("draws_per_pair must be positive")
        if self.n < 1:
            raise ValueError(f"edge_block needs a view of dimension >= 1, got {self.n}")
        points = self._draw(self.rho, size)
        coords = self.rng.integers(0, self.n, points.shape[0])
        return coords, self._edge_counts(
            *self.target.view_edge_bias(self.rho, points, coords), b
        )

    def _edge_counts(self, bias: np.ndarray, zero: np.ndarray, b: int) -> np.ndarray:
        """+1 counts out of b draws per pair with the given biases; charges b
        queries per pair and b zero-support hits per zero-support pair.

        A pair's b draws are i.i.d. signs with the pair's exact conditional
        bias, so they are aggregated as one count, Binomial(b, (1 + bias)/2),
        drawn for every pair of the block, fair or not, by one
        ``rng.binomial`` call.
        """
        self.ledger.queries += bias.shape[0] * b
        self.ledger.zero_support_hits += int(np.count_nonzero(zero)) * b
        return self.rng.binomial(b, (1.0 + bias) / 2.0)

    def restricted(self, sub: Restriction) -> "ScondOracle":
        """View of this oracle conditioned on sub (over this view's coordinates)."""
        return ScondOracle(self.target, self.rng, self.rho.fill(sub), self.ledger)
