"""Testing uniformity with subcube-conditional samples.

Two regimes:

* base case (moderate n): the edge tester sweeps dyadic levels h; at level h
  it draws m_h random (point, coordinate) pairs, spends b_h conditional draws
  on each 2-point subcube, and rejects when an empirical edge bias clears the
  level's threshold theta_h.  Uniformity makes every edge bias 0.
* general case (n large relative to eps): test the restriction means of a
  sigma-random restriction with the mean tester (majority of r runs), then
  recurse on restricted views (majority of t runs per sampled star count).

subcond_uni picks the regime from (n, eps, sigma) and records the whole
recursion as a trace tree whose query counts reconcile with the ledger.

Run:  python3 demos/04_uniformity_testing.py
"""

import numpy as np

from hypercube_tester import (
    ProductDistribution,
    ScondOracle,
    SubCondConfig,
    TwoPointDistribution,
    edge_tester,
    subcond_uni,
    trace_query_sum,
)
from hypercube_tester.rng import stream

cfg = SubCondConfig()

# -- regime selection ----------------------------------------------------------
for n, eps in ((16, 0.5), (64, 0.5), (4096, 0.5)):
    sigma = cfg.sigma(eps)
    base = cfg.base_case(n, eps)
    print(f"n={n:5d} eps={eps}: sigma={sigma:.5f} -> "
          f"{'base case (edge tester)' if base else 'general case (recursion)'}")

# -- the edge tester on a uniform source ---------------------------------------
print("\n== edge tester, uniform target, n=16 ==")
oracle = ScondOracle(ProductDistribution.uniform(16), stream(9, 0, 0))
verdict = edge_tester(oracle, 0.5, cfg.edge)
print(f"decision: {verdict.decision.value}, ledger {verdict.queries_used} queries")
for lvl in verdict.trace["levels"][:4]:
    print(f"  level h={lvl['h']}: m={lvl['m']} pairs x b={lvl['b']} draws,"
          f" theta={lvl['theta']:.4f}, worst |estimate| {lvl['max_est']:.4f}")
print(f"  ... {len(verdict.trace['levels'])} levels total, none fired")

# -- the edge tester on a corrupted edge ---------------------------------------
print("\n== edge tester, one heavy edge, n=8 ==")
from hypercube_tester import DensePmf

mass = np.full(256, 1.0 / 256)
mass[0], mass[128] = 2.0 / 256, 0.0  # double one vertex, empty its 0-neighbor
oracle = ScondOracle(DensePmf(8, mass), stream(9, 1, 0))
verdict = edge_tester(oracle, 0.25, cfg.edge)
fired = verdict.trace["fired"]
print(f"decision: {verdict.decision.value}; fired at level h={fired['h']},"
      f" coordinate {fired['coord']}, estimate {fired['est']:.3f}")

# -- the full tester ------------------------------------------------------------
print("\n== subcond_uni at n=64 ==")
oracle = ScondOracle(ProductDistribution.uniform(64), stream(9, 2, 0))
verdict = subcond_uni(oracle, 0.5, cfg)
tree = verdict.trace["tree"]
print(f"uniform target: {verdict.decision.value} via branch {tree['branch']!r},"
      f" {verdict.queries_used} queries")
print(f"trace tree reconciles with the ledger: {trace_query_sum(tree)} queries")

oracle = ScondOracle(TwoPointDistribution(np.ones(64, dtype=np.int8)), stream(9, 3, 0))
verdict = subcond_uni(oracle, 0.25, cfg)
print(f"two-point target: {verdict.decision.value} after {verdict.queries_used} queries")

# -- forcing the recursion at demo scale ----------------------------------------
# the package's shrunk config cuts every budget so the general case runs at
# n=64 in milliseconds; the children then resolve through the base case one
# level down
from hypercube_tester.uniformity import SHRUNK

oracle = ScondOracle(ProductDistribution.uniform(64), stream(9, 4, 0))
verdict = subcond_uni(oracle, 0.5, SHRUNK)
tree = verdict.trace["tree"]
print(f"\nshrunk-budget recursion: {verdict.decision.value} via {tree['branch']!r}")
print(f"  mean loop sizes: {[s['restrictions'] for s in tree['mean_loop']]}")
print(f"  recursion loop sizes: {[s['restrictions'] for s in tree['recursion_loop']]}")
# a restriction's vote stops once it is decided: two agreeing children of
# t = 3 already fix it, so the third runs only after a split
recursed = sum(s["recursed"] for s in tree["recursion_loop"])
print(f"  children: {len(tree['children'])} run of t * recursed = {tree['t'] * recursed},"
      f" all at depth 1, each a base case: {set(c['branch'] for c in tree['children'])}")
print(f"  ledger {verdict.queries_used} == tree sum {trace_query_sum(tree)}")
