"""Outcome models for the simulation studies.

A response model maps covariates and an arm sign through a linear
component eta = beta0 + x'beta + beta_t * w and a mean function to the
arm mean mu, then draws outcomes from a distribution indexed by mu:

kind        mean function   outcome distribution        variance given mu
continuous  identity        Normal(mu, 1)               1
incidence   inverse-logit   Bernoulli(mu)               mu (1 - mu)
proportion  inverse-logit   Beta(phi mu, phi (1 - mu))  mu (1 - mu) / (phi + 1)
count       exp             Poisson(mu)                 mu
survival    exp             Weibull(shape k, mean mu)   mu^2 (G2/G1^2 - 1)

with phi = PROPORTION_PHI, k = SURVIVAL_SHAPE, G1 = Gamma(1 + 1/k) and
G2 = Gamma(1 + 2/k).  Each distribution is one numpy sampler (the
proportion response draws rng.beta), and draw_outcomes is the only
outcome sampler: the simulation chunks draw both arms through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CovariateMatrix, _check_int, _check_type, _frozen
from .streams import row_blocks

RESPONSE_KINDS = ("continuous", "incidence", "proportion", "count", "survival")

# Hard cap on the linear component fed to exp-type mean functions.
ETA_LIMIT = 700.0
# Poisson means beyond this are rejected rather than sampled.
POISSON_MEAN_LIMIT = 1e12
# Beta precision of the proportion response and Weibull shape of the
# survival response.
PROPORTION_PHI = 2.0
SURVIVAL_SHAPE = 4.0

_DEFAULT_BETA = (1.0, -1.0, 1.0, -1.0, 1.0)


class OverflowGuardWarning(UserWarning):
    """Emitted when linear components are clamped before exponentiation."""


@dataclass(frozen=True, eq=False)
class ResponseModel:
    """Parameters of one response type."""

    kind: str
    beta0: float
    beta: np.ndarray
    beta_t: float

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        for name in ("beta0", "beta_t"):
            object.__setattr__(self, name, float(_frozen(name, getattr(self, name), 0)))
        beta = _frozen("beta", self.beta, 1)
        if beta.size < 1:
            raise ValueError("beta must be a non-empty vector")
        object.__setattr__(self, "beta", beta)

    @property
    def n_covariates(self) -> int:
        return self.beta.shape[0]


def default_model(kind: str, n_covariates: int) -> ResponseModel:
    """Simulation defaults: intercept -1, alternating-sign slopes,
    additive treatment effect 0.001 on the linear scale."""
    if _check_int("n_covariates", n_covariates, 1) > len(_DEFAULT_BETA):
        raise ValueError("default coefficients support 1..5 covariates")
    return ResponseModel(
        kind=kind,
        beta0=-1.0,
        beta=np.array(_DEFAULT_BETA[:n_covariates]),
        beta_t=0.001,
    )


@dataclass(frozen=True, eq=False)
class CovariateSource:
    """Distribution the fixed covariates are drawn from.

    uniform is Uniform(-h, h); exponential is Exponential(rate) shifted
    by -1/rate, so mean 0, with rate = sqrt(12) / 2h giving it the
    uniform's variance h^2 / 3 = 1 / rate^2.
    """

    family: str
    half_width: float

    def __post_init__(self):
        if self.family not in ("uniform", "exponential"):
            raise ValueError(f"unknown covariate family {self.family!r}")
        half_width = float(_frozen("half_width", self.half_width, 0))
        if not half_width > 0:
            raise ValueError(f"half_width must be > 0, got {half_width}")
        object.__setattr__(self, "half_width", half_width)


def default_covariate_source(kind: str, family: str = "uniform") -> CovariateSource:
    """Covariate scale matched to the response type.

    The discrete endpoints (incidence, count) use wider scales: half
    width 10 for incidence, 5 for count and 1 otherwise.
    """
    if kind not in RESPONSE_KINDS:
        raise ValueError(f"unknown response kind {kind!r}")
    return CovariateSource(family, {"incidence": 10.0, "count": 5.0}.get(kind, 1.0))


def draw_covariates(
    source: CovariateSource,
    n_subjects: int,
    n_covariates: int,
    rng: np.random.Generator,
) -> CovariateMatrix:
    _check_type("source", source, CovariateSource)
    _check_type("rng", rng, np.random.Generator)
    n_subjects = _check_int("n_subjects", n_subjects, 4)
    shape = (n_subjects, _check_int("n_covariates", n_covariates, 1))
    # Written out as low + (high - low) * u and as 1 / rate of the rate,
    # not simplified: a folded formula can round the panels differently.
    h = source.half_width
    if source.family == "uniform":
        low, high = -h, h
        vals = low + (high - low) * rng.random(shape)
    else:
        rate = math.sqrt(12.0) / (2 * h)
        vals = rng.exponential(1.0 / rate, shape) - 1.0 / rate
    return CovariateMatrix(vals)


def _mean_from_eta(kind: str, eta: np.ndarray) -> np.ndarray:
    if kind == "continuous":
        return eta
    clipped = np.clip(eta, -ETA_LIMIT, ETA_LIMIT)
    n_clamped = int(np.count_nonzero(clipped != eta))
    if n_clamped:
        warnings.warn(
            f"clamped {n_clamped} linear components to |eta| <= {ETA_LIMIT:g} "
            "before exponentiation",
            OverflowGuardWarning,
            stacklevel=3,
        )
    if kind in ("incidence", "proportion"):
        out = np.empty_like(clipped)
        pos = clipped >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-clipped[pos]))
        expv = np.exp(clipped[~pos])
        out[~pos] = expv / (1.0 + expv)
        return out
    return np.exp(clipped)


def potential_means(
    model: ResponseModel, x: CovariateMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """(mu_T, mu_C) for every subject."""
    _check_type("model", model, ResponseModel)
    _check_type("x", x, CovariateMatrix)
    if x.n_covariates != model.n_covariates:
        raise ValueError("covariate count must match beta length")
    base = model.beta0 + x.values @ model.beta
    mu_t = _mean_from_eta(model.kind, base + model.beta_t)
    mu_c = _mean_from_eta(model.kind, base - model.beta_t)
    return mu_t, mu_c


def _checked_mu(model: ResponseModel, mu, n_draws: int) -> np.ndarray:
    """mu as a float vector, once it and n_draws are valid for a draw."""
    _check_type("model", model, ResponseModel)
    mu = _frozen("mu", mu, 1)
    _check_int("n_draws", n_draws, 0)
    kind = model.kind
    if kind == "incidence":
        if ((mu < 0) | (mu > 1)).any():
            raise ValueError("incidence means must lie in [0, 1]")
    elif kind == "proportion":
        if ((mu <= 0) | (mu >= 1)).any():
            raise ValueError("proportion means must lie strictly in (0, 1)")
    elif kind in ("count", "survival"):
        if (mu <= 0).any():
            raise ValueError(f"{kind} means must be > 0")
        if kind == "count" and (mu > POISSON_MEAN_LIMIT).any():
            raise ValueError(
                f"count means above {POISSON_MEAN_LIMIT:g} are rejected"
            )
    return mu


def draw_outcomes(
    model: ResponseModel,
    mu: np.ndarray,
    rng: np.random.Generator,
    n_draws: int,
) -> np.ndarray:
    """Sample (n_draws, len(mu)) outcomes, independent rows with mean mu.

    Fills one array in the row blocks of streams.row_blocks(n_draws,
    len(mu)), each at most BLOCK_ELEMENTS elements.  Every draw, numpy's
    Beta for the proportion response included, takes its variates
    element by element in row order, so the blocks consume rng exactly
    as one (n_draws, len(mu)) draw does and hold its bytes, and draws of
    n1 and then n2 rows on one stream give the bytes of one draw of
    n1 + n2 rows.
    """
    mu = _checked_mu(model, mu, n_draws)
    _check_type("rng", rng, np.random.Generator)
    kind = model.kind
    if kind == "proportion":
        shape1, shape2 = PROPORTION_PHI * mu, PROPORTION_PHI * (1.0 - mu)
    elif kind == "survival":
        scale = mu / math.gamma(1.0 + 1.0 / SURVIVAL_SHAPE)
    out = np.empty((n_draws,) + mu.shape)
    for rows in row_blocks(n_draws, mu.shape[0]):
        v = out[rows]
        if kind == "continuous":
            # numpy's normal(mu, 1.0) is mu + 1.0 * z: the same draws and bytes
            rng.standard_normal(out=v)
            v += mu
        elif kind == "incidence":
            np.less(rng.random(v.shape), mu, out=v)
        elif kind == "proportion":
            np.copyto(v, rng.beta(shape1, shape2, v.shape))
        elif kind == "count":
            np.copyto(v, rng.poisson(np.broadcast_to(mu, v.shape)))
        else:
            # an IEEE product commutes: the same bytes as scale * weibull
            np.multiply(rng.weibull(SURVIVAL_SHAPE, v.shape), scale, out=v)
    return out


def arm_variance(model: ResponseModel, mu: np.ndarray) -> np.ndarray:
    """Outcome variance of one arm given its mean vector, which must be a
    valid mean of the model's outcome law (_checked_mu's ValueError)."""
    mu = _checked_mu(model, mu, 0)
    kind = model.kind
    if kind == "continuous":
        return np.full_like(mu, 1.0)
    if kind == "incidence":
        return mu * (1.0 - mu)
    if kind == "proportion":
        return mu * (1.0 - mu) / (PROPORTION_PHI + 1.0)
    if kind == "count":
        return mu.copy()
    g1 = math.gamma(1.0 + 1.0 / SURVIVAL_SHAPE)
    g2 = math.gamma(1.0 + 2.0 / SURVIVAL_SHAPE)
    return mu**2 * (g2 / g1**2 - 1.0)


def residual_variances(
    model: ResponseModel, mu_t: np.ndarray, mu_c: np.ndarray
) -> np.ndarray:
    """rho_i = Var(y_T,i) + Var(y_C,i)."""
    return arm_variance(model, mu_t) + arm_variance(model, mu_c)
