"""Distribution testing on the hypercube {-1,+1}^n with subcube-conditional
samples: a mean tester built on a pairing statistic with a doubling threshold
schedule, a recursive uniformity tester, a gaussian-mean reduction, and a
brute-force lab for the small-n structural facts behind them.
"""

from types import ModuleType as _ModuleType

from .blowup import (
    blowup_dim,
    blowup_rows,
    explicit_moments,
    gram_moments,
    iterated_blowup_rows,
    uniform_sigma_frob_sq_bound,
    uniform_sigma_frob_sq_exact,
    z_statistic_naive,
)
from .harness import (
    ExperimentSpec,
    csv_body_without_wall_time,
    run_experiment,
    scaling_report,
)
from .meantest import (
    GaussianDraw,
    MeanTestConfig,
    TauSchedule,
    default_k0,
    erf_lower_bound_holds,
    gaussian_mean_tester,
    gaussian_required_samples,
    mean_tester,
    numerators,
    paper_q,
    practical_q,
    screen_batches,
    screen_null_reject,
    second_moment_screen,
)
from .model import (
    DensePmf,
    Decision,
    EdgeSpectrum,
    Point,
    ProductDistribution,
    Restriction,
    TestVerdict,
    all_sign_points,
    conditional_table,
    indices_to_points,
    load_distribution,
    mean_vector,
    points_to_indices,
    project,
    restrict,
    save_distribution,
    second_moment,
    subcube_mass,
    tv_to_uniform,
)
from .oracle import ScondOracle
from .rng import seed_sequence, stream
from .theory import (
    InequalityReport,
    OrientedGraphs,
    VerifierReport,
    build_orientation,
    check_greedy_property,
    evaluate_robust_pisier,
    greedy_ordering,
    greedy_ordering_valid,
    khintchine_lhs,
    probe_restriction_theorem,
    random_dense_pmf,
    verify_blowup_factorization,
    verify_chain_rule,
    verify_contributing_bias,
    verify_graph_to_mean,
    verify_khintchine,
    verify_orientation,
    verify_variance_bound,
)
from .uniformity import (
    EdgeConfig,
    SubCondConfig,
    edge_null_accept,
    edge_reject_prob,
    edge_tester,
    majority_vote_law,
    subcond_uni,
    trace_query_sum,
)
from .zoo import (
    GaussianSource,
    HeavyAtomDistribution,
    JuntaMixDistribution,
    NoisyParityDistribution,
    TwoPointDistribution,
    instantiate,
    load_entry,
    parse_spec_string,
    resolve_gaussian_source,
    resolve_target,
    save_entry,
    zoo_kinds,
)

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind are
# not exported
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
