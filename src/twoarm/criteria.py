"""Closed forms that check the design pipeline.

The simulations never call these; twoarm.verify, the tests and the
benchmark's output gate compare the Monte Carlo against them, and
nothing on the grid path imports this module.  It provides the exact
mean of the squared error over a design's allocation covariance E[ww']
(twoarm.designs.design_covariance) and the pairwise-matching
conditional variance in closed form, and the exact quantiles of pb's
squared error for a Gaussian response.  The constant C_95 of the normal
approximation to the 0.95 quantile lives in twoarm.montecarlo, which
evaluates it; the published reference constants for the large-n
variance scaling live in twoarm.verify with the convergence reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Allocation, _frozen

# Coefficient c in Var_W[(tau_hat - tau)^2 | v] = c * sum_{i<j} d_i^2 d_j^2 / n^4
# for pairwise matching.  Fixed by exhaustive enumeration of the n = 2
# design before the main build (see tests); twoarm.verify keeps the
# externally reported value 1/16 for reference output.
PM_COND_VAR_COEFF = 0.25


@dataclass(frozen=True, eq=False)
class CriterionInputs:
    """Everything the analytic criterion needs about one design cell.

    sigma_w is the allocation covariance E[ww'], square and symmetric
    with a unit diagonal.
    """

    mu: np.ndarray
    rho: np.ndarray
    sigma_w: np.ndarray

    def __post_init__(self):
        sigma_w = _frozen(self.sigma_w)
        if sigma_w.ndim != 2 or sigma_w.shape[0] != sigma_w.shape[1]:
            raise ValueError("sigma_w must be square")
        if not np.allclose(sigma_w, sigma_w.T, rtol=0, atol=1e-12):
            raise ValueError("sigma_w must be symmetric")
        if not np.allclose(np.diag(sigma_w), 1.0, rtol=0, atol=1e-12):
            raise ValueError("sigma_w diagonal must be exactly 1")
        mu = _frozen(self.mu)
        rho = _frozen(self.rho)
        if mu.ndim != 1 or rho.shape != mu.shape:
            raise ValueError("mu and rho must be 1-D vectors of one length")
        if mu.shape[0] != sigma_w.shape[0]:
            raise ValueError("mu length must match sigma_w")
        if mu.shape[0] == 0:
            raise ValueError("subject count must be > 0, got 0")
        if mu.shape[0] % 2:
            raise ValueError("subject count must be even")
        for name, arr in (("mu", mu), ("rho", rho)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if (rho < 0).any():
            raise ValueError("rho entries must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma_w", sigma_w)

    @property
    def n_pairs(self) -> int:
        return self.mu.shape[0] // 2


def mean_mse(inputs: CriterionInputs) -> float:
    """Exact E[(tau_hat - tau)^2] = (mu' Sigma_W mu + sum rho) / (4 n^2).

    mu here is the per-subject sum mu_T + mu_C.
    """
    n = inputs.n_pairs
    mu = inputs.mu
    return (float(mu @ inputs.sigma_w @ mu) + float(inputs.rho.sum())) / (4.0 * n * n)


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


def pb_quantile(w_star: Allocation, mu, rho, level: float = 0.95) -> float:
    """Exact level-quantile of pb's squared error for a Gaussian v.

    pb draws w* or -w*, and either gives the squared error
    (w*'v / 2n)^2.  When v = y_T + y_C is Gaussian with means mu
    (mu_T + mu_C) and variances rho, as for the continuous response,
    w*'v ~ N(m, s^2) with m = w*'mu and s^2 = sum(rho).  The quantile is
    (s x / 2n)^2, where x solves P(|Z + |m| / s| <= x) = level for a
    standard normal Z, found by bisection to the last float.
    """
    signs = w_star.signs.astype(float)
    mu = np.asarray(mu, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if mu.shape != signs.shape or rho.shape != signs.shape:
        raise ValueError(
            f"mu and rho must be vectors of w*'s {signs.size} entries, "
            f"got shapes {mu.shape} and {rho.shape}"
        )
    if not (np.isfinite(mu).all() and np.isfinite(rho).all()):
        raise ValueError("mu and rho must be finite")
    if (rho < 0).any() or not rho.sum() > 0:
        raise ValueError("rho entries must be >= 0 with a positive sum")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    s = math.sqrt(float(rho.sum()))
    shift = abs(float(signs @ mu)) / s
    cdf = NormalDist().cdf
    lo, hi = 0.0, shift + 10.0  # P(|Z + shift| <= hi) >= 1 - 1e-23
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if cdf(mid - shift) - cdf(-mid - shift) < level:
            lo = mid
        else:
            hi = mid
    return (s * hi / signs.size) ** 2
