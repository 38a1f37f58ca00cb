"""Gap-shrinkage priors: duality-gap functions for projections and
proximal mappings, priors that shrink the gap toward zero, blocked Gibbs
samplers built on them, and exact-projection oracles that certify the
bounds."""

from .gaps import (
    SimplexPoint,
    fenchel_young_gap,
    generalized_l1_duality_gap,
    generalized_l1_gap,
    kl_gap,
    l1_gap,
    proximal_duality_gap,
    variational_additive_gap,
    variational_nuclear_gap,
)
from .penalties import (
    GeneralizedL1,
    GroupL2,
    Halfspace,
    L1,
    NormBall,
    Nuclear,
    Quadratic,
    Sum,
    conjugate_value,
    penalty_value,
)
from .oracles import (
    OracleResult,
    brute_force_prox,
    kl_project,
    project_l1_ball,
    prox_fused,
    soft_threshold,
    svt,
)
from .priors import (
    EdgeGraph,
    complete_graph,
    log_gap_prior_fused,
    log_gap_prior_l1,
    log_gap_prior_nuclear_sparse,
    marginal_l1_lower_bound,
    marginal_l1_prior,
    pairwise_diff_penalty,
    pairwise_diff_penalty_median_form,
)
from .rng import slice_sample_1d, stream
from .diagnostics import acf, ess, ess_from_acf
from .samplers import (
    PosteriorSamples,
    SamplerConfig,
    gibbs_bayesian_lasso,
    gibbs_fused_probit,
    gibbs_gdp,
    gibbs_matrix_smoothing,
    gibbs_sparse_regression,
)

__version__ = "0.1.0"
