"""Points, restrictions, and distributions on the signed hypercube.

The cube is {-1,+1}^n.  Dense distributions store one probability per vertex,
indexed lexicographically with -1 before +1 and coordinate 0 most significant;
product distributions store one mean per coordinate.  A restriction fixes some
coordinates and leaves the rest free ("stars"), carving out a subcube.

Run:  python3 demos/01_distributions_and_restrictions.py
"""

import numpy as np

from hypercube_tester import (
    DensePmf,
    Point,
    ProductDistribution,
    Restriction,
    all_sign_points,
    conditional_table,
    mean_vector,
    points_to_indices,
    project,
    restrict,
    second_moment,
    subcube_mass,
    tv_to_uniform,
)
from hypercube_tester.rng import stream

rng = stream(2024, 0, 0)

# -- the index convention ----------------------------------------------------
print("== vertices of {-1,+1}^3 in index order ==")
pts = all_sign_points(3)
for i, row in enumerate(pts):
    print(f"  index {i}: {row.tolist()}")
assert points_to_indices(pts).tolist() == list(range(8))

p = Point(np.array([1, -1, 1], dtype=np.int8))
print(f"\npoint {p.signs.tolist()} has index {p.to_index()}"
      f" and flip(1) -> {p.flip(1).signs.tolist()}")

# -- restrictions ------------------------------------------------------------
# cells: -1/+1 fix a coordinate, 0 leaves it free
rho = Restriction(np.array([1, 0, -1, 0], dtype=np.int8))
print(f"\nrestriction {rho}: stars {rho.stars.tolist()}, fixed {rho.fixed.tolist()}")
sub = Restriction(np.array([1, 1], dtype=np.int8))  # covers the two stars
print(f"filling its stars with (+1,+1): {rho.fill(sub)}")
blanked = Restriction.from_stars_and_point(
    np.array([False, True, False, True]), np.array([1, 1, -1, -1], dtype=np.int8)
)
print(f"blanking coordinates 1 and 3 of a full point: {blanked}")

# -- dense vs product --------------------------------------------------------
print("\n== a biased product distribution and its dense table ==")
prod = ProductDistribution(np.array([0.5, 0.0, -0.25]))
dense = prod.dense()
print(f"coordinate means: {prod.mu.tolist()}")
print(f"dense mass (8 cells): {np.round(dense.mass, 4).tolist()}")
print(f"tv distance to uniform: {tv_to_uniform(dense):.4f}")
mv = mean_vector(dense)
print(f"mean vector from the table: {np.round(mv, 4).tolist()}"
      f"  (l2 norm {np.linalg.norm(mv):.4f})")
print(f"second-moment matrix diagonal: {np.diag(second_moment(dense)).tolist()}")

# -- conditioning ------------------------------------------------------------
print("\n== conditioning on a subcube ==")
rho = Restriction(np.array([1, 0, 0], dtype=np.int8))  # fix x_0 = +1
print(f"subcube {rho} carries mass {subcube_mass(dense, rho):.4f}")
table, mass = conditional_table(dense, rho)
print(f"conditional law over the 2 free coordinates: {np.round(table, 4).tolist()}")

restricted = restrict(dense, rho)          # conditional law, as a 2-dim pmf
projected = project(dense, [1, 2])         # marginal law on coordinates 1, 2
print(f"restrict -> n={restricted.n}, mass {np.round(restricted.mass, 4).tolist()}")
print(f"project  -> n={projected.n}, mass {np.round(projected.mass, 4).tolist()}")
print("(for a product law, conditioning never changes the free coordinates,"
      " so both tables match)")

# -- sampling ----------------------------------------------------------------
print("\n== sampling agrees with the table ==")
draws = dense.sample(rng, 20_000)
freq = np.bincount(points_to_indices(draws), minlength=8) / 20_000
print(f"empirical: {np.round(freq, 3).tolist()}")
print(f"exact:     {np.round(dense.mass, 3).tolist()}")
print(f"largest gap: {np.abs(freq - dense.mass).max():.4f}")
