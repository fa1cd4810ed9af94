"""Construction and tail-risk evaluation of two-arm experimental designs.

The top-level names are the 12 that the README documents; everything
else is reachable from its module.  The exact oracles and convergence
reports that check the package live in twoarm.verify, which nothing
here imports.
"""

from .core import CovariateMatrix
from .criteria import CriterionInputs, mean_mse, pm_conditional_variance
from .designs import DesignSpec, design_covariance, greedy_pair_switch
from .matching import mahalanobis_distances, match_heuristic
from .montecarlo import CellConfig, run_cell
from .response import default_model

__version__ = "0.1.0"
