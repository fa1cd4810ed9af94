"""Construction and tail-risk evaluation of two-arm experimental designs.

The top-level names are the 8 that the README documents; everything
else is reachable from its module.  The closed forms, exact oracles
and convergence report that check the package live in one module,
twoarm.criteria, which nothing here imports.
"""

from .core import CovariateMatrix
from .designs import DesignSpec, greedy_pair_switch
from .matching import mahalanobis_distances, match_heuristic
from .montecarlo import CellConfig, run_cell
from .response import default_model

__version__ = "0.1.0"
