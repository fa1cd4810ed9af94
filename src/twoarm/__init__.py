"""Construction and tail-risk evaluation of two-arm experimental designs.

The top-level names are the ones the README documents; everything else
is reachable from its module.
"""

from .core import CovariateMatrix
from .criteria import CriterionInputs, mean_mse, pm_conditional_variance
from .designs import (
    DesignSpec,
    design_covariance,
    enumerate_allocations,
    greedy_pair_switch,
)
from .matching import (
    mahalanobis_distances,
    match_grid,
    match_heuristic,
    match_sorted,
    pair_gap_diagnostic,
)
from .montecarlo import (
    CellConfig,
    convergence_study,
    run_cell,
    variance_decomposition_terms,
    variance_floor_report,
)
from .response import default_model

__version__ = "0.1.0"
