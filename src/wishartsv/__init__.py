"""Uhlig-extended and beta-Bartlett Wishart stochastic-volatility toolkit.

Forward filtering, backward (smoothing) sampling for both processes,
marginal-likelihood hyperparameter selection, and model comparison via
posterior likelihood ratios, mixture-model Gibbs sampling, and posterior
predictive checks.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EmptyEnsemble,
    InvalidParameter,
    NotPositiveDefinite,
    ParseError,
    WishartSVError,
)
from .filtering import (
    FilterOutput,
    ReturnsSeries,
    constrained_lambda,
    forecast_logdensity,
    forward_filter,
    grid_search,
    marginal_loglik,
    simulate,
)
from .smoother import backward_sample, correlation_summary, sample_ensemble
from .volproc import (
    BBHyper,
    UEHyper,
    bb_evolve,
    diagonal_conditional_moments,
    example1_moments,
    expectation_difference,
    expected_bb_step,
    expected_ue_step,
    match_bb_to_ue,
    match_ue_to_bb,
    ue_evolve,
)
