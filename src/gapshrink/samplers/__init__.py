from .base import HYPERPRIORS, PosteriorSamples, SamplerConfig
from .comparators import gibbs_bayesian_lasso, gibbs_gdp
from .fused_probit import gibbs_fused_probit
from .matrix_smoothing import gibbs_matrix_smoothing
from .sparse_regression import gibbs_sparse_regression

__all__ = [
    "HYPERPRIORS",
    "PosteriorSamples",
    "SamplerConfig",
    "gibbs_bayesian_lasso",
    "gibbs_gdp",
    "gibbs_fused_probit",
    "gibbs_matrix_smoothing",
    "gibbs_sparse_regression",
]
