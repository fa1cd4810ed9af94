"""Analytic criteria for comparing designs.

The design criterion is the 0.95 quantile of the estimator's squared
error; no other level is supported.  This module provides the exact
mean of the squared error, the pairwise-matching conditional variance
in closed form and C_95, the constant of the normal approximation
mean + C_95 * sd to the quantile, which twoarm.montecarlo evaluates.
The published reference constants for the large-n variance scaling live
in twoarm.verify with the convergence reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DesignCovariance, _frozen

# Coefficient c in Var_W[(tau_hat - tau)^2 | v] = c * sum_{i<j} d_i^2 d_j^2 / n^4
# for pairwise matching.  Fixed by exhaustive enumeration of the n = 2
# design before the main build (see tests); twoarm.verify keeps the
# externally reported value 1/16 for reference output.
PM_COND_VAR_COEFF = 0.25

# The 0.95 normal quantile, rounded as the paper rounds it, used by the
# normal approximation to the criterion.
C_95 = 1.645


@dataclass(frozen=True, eq=False)
class CriterionInputs:
    """Everything the analytic criterion needs about one design cell."""

    mu: np.ndarray
    rho: np.ndarray
    sigma_w: DesignCovariance

    def __post_init__(self):
        mu = _frozen(self.mu)
        rho = _frozen(self.rho)
        if mu.ndim != 1 or rho.shape != mu.shape:
            raise ValueError("mu and rho must be 1-D vectors of one length")
        if mu.shape[0] != self.sigma_w.n_subjects:
            raise ValueError("mu length must match sigma_w")
        if mu.shape[0] % 2:
            raise ValueError("subject count must be even")
        for name, arr in (("mu", mu), ("rho", rho)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (rho < 0).any():
            raise ValueError("rho entries must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)

    @property
    def n_pairs(self) -> int:
        return self.mu.shape[0] // 2


def mean_mse(inputs: CriterionInputs) -> float:
    """Exact E[(tau_hat - tau)^2] = (mu' Sigma_W mu + sum rho) / (4 n^2).

    mu here is the per-subject sum mu_T + mu_C.
    """
    n = inputs.n_pairs
    return (inputs.sigma_w.quadratic_form(inputs.mu) + float(inputs.rho.sum())) / (
        4.0 * n * n
    )


def pm_conditional_variance(v) -> float:
    """Var over pairwise-matching allocations of the squared error, given v.

    v = mu_T + mu_C + z_T + z_C with pairs at consecutive positions
    (0,1), (2,3), ...  With d_i the within-pair gap of v, the variance
    is PM_COND_VAR_COEFF * sum_{i<j} d_i^2 d_j^2 / n^4, computed here
    through sum_{i<j} d_i^2 d_j^2 = ((sum d^2)^2 - sum d^4) / 2.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] % 2 or v.shape[0] == 0:
        raise ValueError(
            f"v must be 1-D with non-zero even length, got shape {v.shape}"
        )
    if not np.isfinite(v).all():
        raise ValueError("v must be finite")
    n = v.shape[0] // 2
    d_sq = np.square(v[1::2] - v[0::2])
    s2 = float(d_sq.sum())
    s4 = float(np.square(d_sq).sum())
    return PM_COND_VAR_COEFF * (s2 * s2 - s4) / (2.0 * n**4)

