"""Construction and tail-risk evaluation of two-arm experimental designs."""

from .core import (
    Allocation,
    Blocking,
    CovariateMatrix,
    DesignCovariance,
    OutcomePair,
    estimand,
    estimate,
    residual_variance_mean,
    squared_error,
)
from .criteria import (
    CriterionInputs,
    approx_quantile,
    asymptotic_reference,
    mean_mse,
    pm_conditional_variance,
    tail_constant,
)
from .designs import (
    DesignSpec,
    build_blocking,
    design_covariance,
    enumerate_allocations,
    greedy_pair_switch,
    mahalanobis_imbalance,
    sample_allocation,
    sample_allocations,
)
from .matching import (
    DistanceMatrix,
    MatchResult,
    mahalanobis_distances,
    match_grid,
    match_heuristic,
    match_sorted,
    pair_gap_diagnostic,
)
from .montecarlo import (
    CellConfig,
    CriterionReport,
    bootstrap_ci,
    convergence_study,
    empirical_quantile,
    enumerate_design_oracle,
    run_cell,
    variance_decomposition_terms,
    variance_floor_report,
)
from .response import (
    CovariateSource,
    ResponseModel,
    default_covariate_source,
    default_model,
    draw_covariates,
    draw_outcomes,
    linear_component,
    mean_function,
    potential_means,
    residual_variances,
)

__version__ = "0.1.0"
