"""Brute-force verification of the structural facts behind the testers.

Everything the testers rely on reduces, at small n, to finite computations:
enumerate all subcubes, all edges, all sign patterns, and check the claimed
inequality exactly.  This lab is how the package earns trust in its own
machinery -- each fact is checked against explicit enumeration, not sampled.

Run:  python3 demos/05_structural_fact_lab.py
"""

import numpy as np

from hypercube_tester import (
    DensePmf,
    ProductDistribution,
    build_orientation,
    evaluate_robust_pisier,
    khintchine_lhs,
    probe_restriction_theorem,
    random_dense_pmf,
    verify_chain_rule,
    verify_contributing_bias,
    verify_graph_to_mean,
    verify_khintchine,
    verify_variance_bound,
)
from hypercube_tester.rng import stream

rng = stream(5, 0, 0)

# -- chain rule for total variation over subcubes ------------------------------
# tv(p, uniform) <= sum over star sets of the expected conditional tv, plus
# the projection terms -- exact on both sides
print("== subcube decomposition of total variation ==")
for trial in range(3):
    p = random_dense_pmf(rng, 5)
    rep = verify_chain_rule(p, 0.5)
    print(f"  random pmf {trial}: lhs {rep.lhs:.4f} <= rhs {rep.rhs:.4f}"
          f"  (ratio {rep.ratio:.3f})")

probe = probe_restriction_theorem(random_dense_pmf(rng, 5), 0.5)
print(f"restriction-mean probe (report only): ratio {probe.ratio:.3f}")

# -- edge classification and greedy orientation --------------------------------
print("\n== classifying the 80 edges of a random pmf on {-1,1}^4 ==")
p = random_dense_pmf(rng, 4, alpha=0.2)
graphs = build_orientation(p)
print(f"  class counts: {graphs.class_counts()}")
rec = graphs.record(0, 0)
print(f"  edge (vertex 0, coordinate 0): weight {rec['weight']:.3f},"
      f" class {rec['cls']}, kappa {rec['kappa']}, source {rec['source']}")

# -- a robust averaging inequality ---------------------------------------------
print("\n== robust averaging inequality, exact at m <= 10 ==")
pm = DensePmf(3, np.array([0.55, 0.15, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03]))
rep = evaluate_robust_pisier(pm)
print(f"  concentrated pmf: lhs {rep.lhs:.4f}, rhs*log {rep.rhs:.4f},"
      f" ratio {rep.ratio:.3f}")

# -- sign-average first moment bound ---------------------------------------------
a = np.array([3.0, 4.0])
print(f"\nE|<y, (3,4)>| over all signs = {khintchine_lhs(a)} <= ||a|| = 5"
      f"  (verified: {verify_khintchine(a)})")

# -- directed edges force visible bias -------------------------------------------
print("\n== directed edges force conditional-mean bias (random sweeps) ==")
gm = verify_graph_to_mean(random_dense_pmf(rng, 5, alpha=0.1), 2, trials=200, rng=rng)
print(f"  graph-to-mean: ok={gm.ok}, {gm.nonvacuous} non-vacuous of {gm.cases}")
cb = verify_contributing_bias(random_dense_pmf(rng, 5, alpha=0.1), trials=200, rng=rng)
print(f"  contributing pairs: ok={cb.ok}, {cb.nonvacuous} non-vacuous of {cb.cases}")

# -- the pairing statistic's moments ----------------------------------------------
print("\n== empirical moments of the pairing statistic vs exact bands ==")
for name, p in (
    ("uniform", DensePmf.uniform(5)),
    ("planted", ProductDistribution(np.full(5, 0.3)).dense()),
):
    rep = verify_variance_bound(p, q=10, batches=4000, rng=rng)
    e = rep.extras
    print(f"  {name:8s}: mean Z {e['z_mean']:8.4f} vs ||mu||^2 {e['mu_sq']:.4f};"
          f" var {e['z_var']:.4f} <= bound {e['bound']:.4f}  (ok={rep.ok})")
