"""Testing whether the mean vector is near zero, with doubling thresholds.

The tester draws two batches of q samples, and for levels k = 0..k0 compares
the pairing statistic Z_k = (1/q^2) sum_{i,j} <x_i, y_j>^(2^k) against a
threshold tau_k.  The schedule starts at tau_0 = eps^2 n / 2 and squares
upward (tau_k ~ a q^2 tau_{k-1}^2), so each level doubles the moment being
probed while the thresholds race ahead; a mean vector of norm eps sqrt(n)
eventually pushes some Z_k past tau_k, while the uniform source stays under
every level.  All comparisons happen in exact integer/rational arithmetic.

Run:  python3 demos/03_mean_testing.py
"""

import numpy as np

from hypercube_tester import (
    MeanTestConfig,
    ProductDistribution,
    ScondOracle,
    TauSchedule,
    default_k0,
    mean_tester,
    practical_q,
)
from hypercube_tester.meantest import (
    gaussian_mean_tester,
    gaussian_required_samples,
)
from hypercube_tester.rng import stream
from hypercube_tester.zoo import GaussianSource

n, eps = 64, 0.5

# -- the schedule ------------------------------------------------------------
k0 = default_k0(n)
q = practical_q(n, eps, k0)
sched = TauSchedule(eps, n, q, k0)
print(f"n={n}, eps={eps}: k0={k0} levels above level 0, q={q} samples per side")
print(f"thresholds: {['%.3g' % t for t in sched.taus]}")
print(f"uniform reference: E[Z_0]=0, E[Z_1]={n}, E[Z_2]={3*n*n - 2*n}")

# -- uniform source: accept --------------------------------------------------
oracle = ScondOracle(ProductDistribution.uniform(n), stream(42, 0, 0))
verdict = mean_tester(oracle, MeanTestConfig(eps))
print(f"\nuniform source -> {verdict.decision.value} after {verdict.queries_used} queries")
for k, (z, tau) in enumerate(zip(verdict.trace["z_levels"], verdict.trace["tau_levels"])):
    print(f"  level {k}: Z = {z:12.4g}   vs tau = {tau:.4g}")

# -- planted mean: reject ----------------------------------------------------
planted = ProductDistribution(np.full(n, 0.25))  # ||mu||^2 = 4 = eps^2 n at eps=0.25
oracle = ScondOracle(planted, stream(42, 1, 0))
verdict = mean_tester(oracle, MeanTestConfig(0.25))
print(f"\nplanted mean 0.25 per coordinate, eps=0.25 ->"
      f" {verdict.decision.value} after {verdict.queries_used} queries")
for k, (z, tau) in enumerate(zip(verdict.trace["z_levels"], verdict.trace["tau_levels"])):
    print(f"  level {k}: Z = {z:12.4g}   vs tau = {tau:.4g}  "
          f"{'<-- exceeded' if z > tau else ''}")
print("(the tester stops at the first exceeded level)")

# -- gaussian reduction ------------------------------------------------------
# real-valued N(mu, Sigma) sources reduce to the cube: screen per-coordinate
# second moments, then test the signs of the samples
gn, geps = 32, 0.5
budget = gaussian_required_samples(gn, geps)
print(f"\ngaussian version at n={gn}, eps={geps}: {budget} vector samples")

std = GaussianSource(gn).sample(stream(42, 2, 0), budget)
print(f"  N(0, I)        -> {gaussian_mean_tester(std, geps).decision.value}")

mu = np.full(gn, 1.0 / np.sqrt(gn))  # mean norm 1 > eps
shifted = GaussianSource(gn, mu).sample(stream(42, 3, 0), budget)
print(f"  mean norm 1    -> {gaussian_mean_tester(shifted, geps).decision.value}")

hot = GaussianSource(gn).sample(stream(42, 4, 0), budget)
hot[:, 0] *= 3.0  # one coordinate with variance 9: caught by the screen
screened = gaussian_mean_tester(hot, geps)
print(f"  variance 9 coordinate -> {screened.decision.value}"
      f" (stage: {screened.trace['stage']})")
