"""The subcube-conditional sampling oracle and its query ledger.

Testers never touch a distribution directly: they go through an oracle that
answers plain draws, draws conditioned on a restriction, random-restriction
draws, and edge blocks: conditional draws on one-star subcubes, batched per
point and counted per pair.  Every answer is charged to a ledger,
so a tester's cost claim can be audited after the fact.  There is one
oracle class over a restriction: the root holds the all-stars one, and
``restricted(rho)`` returns an oracle of the same class on rho's free
coordinates.  Such views compose and charge the root's ledger.

Run:  python3 demos/02_oracle_and_query_ledger.py
"""

import numpy as np

from hypercube_tester import (
    ProductDistribution,
    Restriction,
    ScondOracle,
)
from hypercube_tester.rng import stream

target = ProductDistribution(np.array([0.3, 0.0, -0.2, 0.0, 0.1, 0.0]))
oracle = ScondOracle(target, stream(7, 0, 0))

# -- plain and conditional draws ---------------------------------------------
xs = oracle.sample(5)
print(f"5 unconditioned samples (one query each):\n{xs}")
print(f"ledger after sampling: {oracle.queries} queries")

rho = Restriction(np.array([1, 0, 0, -1, 0, 0], dtype=np.int8))
star_draws = oracle.cond_sample(rho, 4)
print(f"\nconditional draws return only the {rho.num_stars} star coordinates"
      f" (ascending order {rho.stars.tolist()}):\n{star_draws}")
print(f"ledger: {oracle.queries} queries")

# -- random restrictions -----------------------------------------------------
sigma_rho = oracle.draw_restriction_sigma(0.5)  # each coordinate free w.p. 1/2
print(f"\nsigma-restriction: {sigma_rho}  (fills come from one target sample)")
print(f"ledger: {oracle.queries} queries")

# -- edge blocks ---------------------------------------------------------------
# an edge block draws size points, gives each a uniform coordinate, and spends
# b conditional draws on the 2-point subcube along that edge, returning the
# count of +1 draws; (2 count - b) / b estimates the edge's bias
size, b = 3, 4000
before = oracle.queries
coords, counts = oracle.edge_block(size, draws_per_pair=b)
est = (2 * counts - b) / b
print(f"\nedge-bias estimates at coordinates {coords.tolist()}: {np.round(est, 3).tolist()}")
print(f"true coordinate means there:                 {target.mu[coords].tolist()}")
print(f"cost: {oracle.queries - before} queries"
      f" (= {size} points x (1 sample + {b} draws each))")

# -- restricted views compose ------------------------------------------------
view = oracle.restricted(rho)
print(f"\nrestricted view has n={view.n} (parent coordinates {rho.stars.tolist()})")
inner = Restriction(np.array([1, 0, 0, 0], dtype=np.int8))  # fixes view coord 0
deep = view.restricted(inner)
print(f"restricting the view again leaves n={deep.n}")
deep_draws = deep.sample(3)
print(f"draws from the doubly-restricted view:\n{deep_draws}")
print(f"shared ledger now reads {oracle.queries} queries"
      f" (view reports the same: {view.queries})")

# -- zero-support conditioning is flagged, not hidden --------------------------
from hypercube_tester import DensePmf, Point

pm = DensePmf.point_mass(Point(np.array([1, 1, 1], dtype=np.int8)))
dead_oracle = ScondOracle(pm, stream(7, 1, 0))
dead = Restriction(np.array([-1, 0, 0], dtype=np.int8))  # mass zero under pm
dead_oracle.cond_sample(dead, 2)
print(f"\nconditioning a point mass on a dead subcube: uniform fallback draws,"
      f" zero_support_hits={dead_oracle.zero_support_hits}")
