"""Outcome models for the simulation studies.

A response model maps covariates and an arm sign through a linear
component eta = beta0 + x'beta + beta_t * w and a mean function to the
arm mean mu, then draws outcomes from a distribution indexed by mu:

kind        mean function   outcome distribution        variance given mu
continuous  identity        Normal(mu, sigma^2)         sigma^2
incidence   inverse-logit   Bernoulli(mu)               mu (1 - mu)
proportion  inverse-logit   Beta(phi mu, phi (1 - mu))  mu (1 - mu) / (phi + 1)
count       exp             Poisson(mu)                 mu
survival    exp             Weibull(shape k, mean mu)   mu^2 (G2/G1^2 - 1)

with G1 = Gamma(1 + 1/k), G2 = Gamma(1 + 2/k).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CovariateMatrix

RESPONSE_KINDS = ("continuous", "incidence", "proportion", "count", "survival")

# Hard cap on the linear component fed to exp-type mean functions.
ETA_LIMIT = 700.0
# Poisson means beyond this are rejected rather than sampled.
POISSON_MEAN_LIMIT = 1e12

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
    sigma: float = 1.0
    phi: float = 2.0
    k: float = 4.0

    def __post_init__(self):
        if self.kind not in RESPONSE_KINDS:
            raise ValueError(f"unknown response kind {self.kind!r}")
        beta = np.array(self.beta, dtype=float, copy=True)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a non-empty vector")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        for name in ("sigma", "phi", "k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def n_covariates(self) -> int:
        return self.beta.shape[0]


def default_model(kind: str, n_covariates: int) -> ResponseModel:
    """Simulation defaults: intercept -1, alternating-sign slopes,
    additive treatment effect 0.001 on the linear scale."""
    if not 1 <= n_covariates <= len(_DEFAULT_BETA):
        raise ValueError("default coefficients support 1..5 covariates")
    return ResponseModel(
        kind=kind,
        beta0=-1.0,
        beta=np.array(_DEFAULT_BETA[:n_covariates]),
        beta_t=0.001,
    )


@dataclass(frozen=True, eq=False)
class CovariateSource:
    """Distribution the fixed covariates are drawn from."""

    family: str
    low: float = 0.0
    high: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.family not in ("uniform", "exponential"):
            raise ValueError(f"unknown covariate family {self.family!r}")
        if self.family == "uniform" and not self.high > self.low:
            raise ValueError("uniform needs high > low")
        if self.family == "exponential" and not self.rate > 0:
            raise ValueError("exponential needs rate > 0")

    @classmethod
    def uniform(cls, low: float, high: float) -> "CovariateSource":
        return cls("uniform", low=low, high=high)

    @classmethod
    def exponential_centered(cls, rate: float) -> "CovariateSource":
        """Exponential(rate) shifted by -1/rate, so mean 0, var 1/rate^2."""
        return cls("exponential", rate=rate)


def default_covariate_source(kind: str, family: str = "uniform") -> CovariateSource:
    """Covariate scale matched to the response type.

    The discrete endpoints (incidence, count) use wider scales; the
    exponential variants reproduce each uniform's variance
    ((high - low)^2 / 12 = 1 / rate^2).
    """
    if kind not in RESPONSE_KINDS:
        raise ValueError(f"unknown response kind {kind!r}")
    half_width = {"incidence": 10.0, "count": 5.0}.get(kind, 1.0)
    if family == "uniform":
        return CovariateSource.uniform(-half_width, half_width)
    if family == "exponential":
        return CovariateSource.exponential_centered(math.sqrt(12.0) / (2 * half_width))
    raise ValueError(f"unknown covariate family {family!r}")


def draw_covariates(
    source: CovariateSource,
    n_subjects: int,
    n_covariates: int,
    rng: np.random.Generator,
) -> CovariateMatrix:
    shape = (n_subjects, n_covariates)
    if source.family == "uniform":
        vals = source.low + (source.high - source.low) * rng.random(shape)
    else:
        vals = rng.exponential(1.0 / source.rate, shape) - 1.0 / source.rate
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
    if x.n_covariates != model.n_covariates:
        raise ValueError("covariate count must match beta length")
    base = model.beta0 + x.values @ model.beta
    mu_t = _mean_from_eta(model.kind, base + model.beta_t)
    mu_c = _mean_from_eta(model.kind, base - model.beta_t)
    return mu_t, mu_c


def _validate_mu(model: ResponseModel, mu: np.ndarray) -> None:
    if not np.isfinite(mu).all():
        raise ValueError("mu must be finite")
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


def draw_outcomes(
    model: ResponseModel,
    mu: np.ndarray,
    rng: np.random.Generator,
    n_draws: int | None = None,
) -> np.ndarray:
    """Sample outcomes with mean vector mu.

    Returns shape (len(mu),) when n_draws is None, else
    (n_draws, len(mu)) with independent rows.
    """
    mu = np.asarray(mu, dtype=float)
    _validate_mu(model, mu)
    size = mu.shape if n_draws is None else (n_draws,) + mu.shape
    kind = model.kind
    if kind == "continuous":
        return rng.normal(mu, model.sigma, size)
    if kind == "incidence":
        return (rng.random(size) < mu).astype(float)
    if kind == "proportion":
        g1 = rng.standard_gamma(np.broadcast_to(model.phi * mu, size))
        g2 = rng.standard_gamma(np.broadcast_to(model.phi * (1.0 - mu), size))
        denom = g1 + g2
        return np.divide(g1, denom, out=np.full(size, 0.5), where=denom > 0)
    if kind == "count":
        return rng.poisson(np.broadcast_to(mu, size)).astype(float)
    scale = mu / math.gamma(1.0 + 1.0 / model.k)
    return scale * rng.weibull(model.k, size)


def arm_variance(model: ResponseModel, mu: np.ndarray) -> np.ndarray:
    """Outcome variance of one arm given its mean vector."""
    mu = np.asarray(mu, dtype=float)
    kind = model.kind
    if kind == "continuous":
        return np.full_like(mu, model.sigma**2)
    if kind == "incidence":
        return mu * (1.0 - mu)
    if kind == "proportion":
        return mu * (1.0 - mu) / (model.phi + 1.0)
    if kind == "count":
        return mu.copy()
    g1 = math.gamma(1.0 + 1.0 / model.k)
    g2 = math.gamma(1.0 + 2.0 / model.k)
    return mu**2 * (g2 / g1**2 - 1.0)


def residual_variances(
    model: ResponseModel, mu_t: np.ndarray, mu_c: np.ndarray
) -> np.ndarray:
    """rho_i = Var(y_T,i) + Var(y_C,i)."""
    return arm_variance(model, mu_t) + arm_variance(model, mu_c)
