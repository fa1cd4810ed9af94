"""Exact checks of the design pipeline: closed forms, oracles, reports.

Nothing on the grid path imports this module; it imports the production
modules and checks them.  It holds the closed forms (the exact mean of
the squared error over a design's covariance E[ww'], pm's conditional
variance, pb's exact quantiles for a Gaussian response), the
potential-outcome type and the estimator algebra, support enumeration
with the exact squared-error moments over it, the imbalance of one
allocation, the suboptimal rank-interval grid matcher, the
noise/allocation variance split, and the convergence report, which runs
noise-only cells through the production chunk loop.  C_95, the constant
of the normal approximation to the 0.95 quantile, lives in
twoarm.montecarlo, which evaluates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Allocation, Blocking, CovariateMatrix, _check_int, _check_type, _frozen
from .designs import DesignSpec, _pattern_table, _patterns_at, regularized_covariance
from .matching import MatchResult, _pair_cost, mahalanobis_distances
from .montecarlo import CellConfig, simulate_squared_errors
from .response import ResponseModel, draw_outcomes, potential_means

# Coefficient c in Var_W[(tau_hat - tau)^2 | v] = c * sum_{i<j} d_i^2 d_j^2 / n^4
# for pairwise matching.  Fixed by exhaustive enumeration of the n = 2
# design before the main build (see tests); the externally reported
# value 1/16 is kept for reference output.
PM_COND_VAR_COEFF = 0.25
PM_COND_VAR_COEFF_REPORTED = 0.0625

# Published large-n limits of n^2 Var[(tau_hat - tau)^2] at unit
# average noise variance (rho_bar^2 / 8 for pm, rho_bar^2 / 2 for pb),
# and the pm limit that the enumeration-resolved coefficient implies.
PM_REFERENCE = 0.125
PB_REFERENCE = 0.5
PM_ENUMERATION_CANDIDATE = 0.5


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
        sigma_w = _frozen("sigma_w", self.sigma_w, 2)
        if sigma_w.shape[0] != sigma_w.shape[1]:
            raise ValueError("sigma_w must be square")
        if not np.allclose(sigma_w, sigma_w.T, rtol=0, atol=1e-12):
            raise ValueError("sigma_w must be symmetric")
        if not np.allclose(np.diag(sigma_w), 1.0, rtol=0, atol=1e-12):
            raise ValueError("sigma_w diagonal must be exactly 1")
        mu = _frozen("mu", self.mu, 1)
        rho = _frozen("rho", self.rho, 1)
        if rho.shape != mu.shape:
            raise ValueError("mu and rho must be vectors of one length")
        if mu.shape[0] != sigma_w.shape[0]:
            raise ValueError("mu length must match sigma_w")
        if mu.shape[0] == 0:
            raise ValueError("subject count must be > 0, got 0")
        if mu.shape[0] % 2:
            raise ValueError("subject count must be even")
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
    v = _frozen("v", v, 1)
    if v.shape[0] % 2 or v.shape[0] == 0:
        raise ValueError(f"v must be of non-zero even length, got {v.shape[0]}")
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
    _check_type("w_star", w_star, Allocation)
    signs = w_star.signs.astype(float)
    mu = _frozen("mu", mu, 1)
    rho = _frozen("rho", rho, 1)
    if mu.shape != signs.shape or rho.shape != signs.shape:
        raise ValueError(
            f"mu and rho must be vectors of w*'s {signs.size} entries, "
            f"got shapes {mu.shape} and {rho.shape}"
        )
    if (rho < 0).any() or not rho.sum() > 0:
        raise ValueError("rho entries must be >= 0 with a positive sum")
    level = float(_frozen("level", level, 0))
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


@dataclass(frozen=True, eq=False)
class OutcomePair:
    """Realised potential outcomes (y_T, y_C) of every subject."""

    y_t: np.ndarray
    y_c: np.ndarray

    def __post_init__(self):
        for name in ("y_t", "y_c"):
            object.__setattr__(self, name, _frozen(name, getattr(self, name), 1))
        if self.y_t.shape != self.y_c.shape:
            raise ValueError("y_t and y_c must share one length")

    @property
    def n_subjects(self) -> int:
        return self.y_t.shape[0]


def _check_lengths(w: Allocation, outcomes: OutcomePair) -> None:
    _check_type("w", w, Allocation)
    _check_type("outcomes", outcomes, OutcomePair)
    if w.n_subjects != outcomes.n_subjects:
        raise ValueError(
            f"allocation length {w.n_subjects} does not match "
            f"outcomes length {outcomes.n_subjects}"
        )


def estimand(outcomes: OutcomePair) -> float:
    """Sample average treatment effect mean(y_T - y_C)."""
    _check_type("outcomes", outcomes, OutcomePair)
    return float(np.mean(outcomes.y_t - outcomes.y_c))


def estimate(w: Allocation, outcomes: OutcomePair) -> float:
    """Difference in arm means under allocation w.

    Each treated subject reveals y_T, each control reveals y_C; with n
    subjects per arm the estimator is mean(treated y_T) - mean(control
    y_C), which equals sum((y_T - y_C) + w * (y_T + y_C)) / 2n.
    """
    _check_lengths(w, outcomes)
    n = w.n_subjects // 2
    treated = w.signs == 1
    return float(
        (outcomes.y_t[treated].sum() - outcomes.y_c[~treated].sum()) / n
    )


def squared_error(w: Allocation, outcomes: OutcomePair) -> float:
    """(estimate - estimand)^2 via the quadratic form (w'(y_T+y_C))^2 / 4n^2."""
    _check_lengths(w, outcomes)
    n = w.n_subjects // 2
    contrast = float(w.signs @ (outcomes.y_t + outcomes.y_c))
    return contrast * contrast / (4.0 * n * n)


def enumerate_allocations(spec: DesignSpec, max_support: int = 1 << 20) -> np.ndarray:
    """The design's full support as an (S, 2n) array of +-1 (int8).

    Every row is equally likely under the design.  The support is the
    product of the k patterns of each block, the C(n_B, n_B/2) balanced
    ones or the K rows of the design's table (pb's w* and -w*), so
    S = k^B: row s is the sampler's own designs._patterns_at of the B
    base-k digits of s, block 0's most significant, so block 0's pattern
    varies slowest.  Supports larger than max_support are rejected
    before any is built.
    """
    _check_type("spec", spec, DesignSpec)
    members = spec.blocking.blocks()
    n_blocks, m = members.shape
    table = spec.patterns
    k = math.comb(m, m // 2) if table is None else table.shape[0]
    if k**n_blocks > max_support:
        raise ValueError(f"design support exceeds {max_support} allocations")
    index = np.indices((k,) * n_blocks).reshape(n_blocks, -1).T
    return _patterns_at(members, index, _pattern_table(m) if table is None else table)


def _support_squared_errors(
    spec: DesignSpec, v: np.ndarray, max_support: int = 1 << 20
) -> np.ndarray:
    """(w'v / 2n)^2 over the support (last axis) for v = y_T + y_C, 1-D or 2-D."""
    allocs = enumerate_allocations(spec, max_support).astype(float)
    n = spec.n_subjects // 2
    return np.square(v @ allocs.T / (2.0 * n))


def enumerate_design_oracle(
    spec: DesignSpec, outcomes: OutcomePair
) -> tuple[float, float]:
    """Exact (mean, variance) of the squared error over the design support.

    Outcomes are held fixed; the average runs over every allocation in
    the support with equal weight, which is exact for every design:
    its blocks draw their patterns uniformly and independently.
    """
    _check_type("spec", spec, DesignSpec)
    _check_type("outcomes", outcomes, OutcomePair)
    if outcomes.n_subjects != spec.n_subjects:
        raise ValueError(
            f"outcomes have {outcomes.n_subjects} subjects but the design "
            f"has {spec.n_subjects}"
        )
    sq = _support_squared_errors(spec, outcomes.y_t + outcomes.y_c)
    return float(sq.mean()), float(sq.var())


def mahalanobis_imbalance(x: CovariateMatrix, w: Allocation) -> float:
    """Imbalance objective (X'w)' S^-1 (X'w) for an allocation."""
    _check_type("x", x, CovariateMatrix)
    _check_type("w", w, Allocation)
    if w.n_subjects != x.n_subjects:
        raise ValueError("allocation and covariates disagree on 2n")
    u = x.values.T @ w.signs.astype(float)
    m = np.linalg.inv(regularized_covariance(x.values))
    return float(u @ m @ u)


def match_grid(x: CovariateMatrix, rng: np.random.Generator) -> MatchResult:
    """Rank-interval grid matching.

    Each covariate's ranks are cut into m = max(1, floor(n^(1/(2p))))
    equal intervals; subjects sharing the full interval tuple are
    paired randomly within their group.  One member of every odd-sized
    group joins an overflow group, itself paired randomly.  The
    within-pair covariate gaps shrink as n grows because interval
    widths shrink while groups stay pairable.
    """
    _check_type("x", x, CovariateMatrix)
    _check_type("rng", rng, np.random.Generator)
    vals = x.values
    n_sub, p = x.n_subjects, x.n_covariates
    n = x.n_pairs
    m = max(1, math.floor(n ** (1.0 / (2.0 * p)) + 1e-9))
    ids = np.empty((n_sub, p), dtype=np.int64)
    for j in range(p):
        order = np.argsort(vals[:, j], kind="stable")
        rank = np.empty(n_sub, dtype=np.int64)
        rank[order] = np.arange(n_sub)
        ids[:, j] = rank * m // n_sub
    groups: dict[tuple, list[int]] = {}
    for i in range(n_sub):
        groups.setdefault(tuple(ids[i]), []).append(i)
    pairs: list[tuple[int, int]] = []
    overflow: list[int] = []
    for key in sorted(groups):
        members = groups[key]
        shuffled = [members[t] for t in rng.permutation(len(members))]
        if len(shuffled) % 2:
            overflow.append(shuffled.pop())
        pairs.extend(zip(shuffled[0::2], shuffled[1::2]))
    if overflow:
        shuffled = [overflow[t] for t in rng.permutation(len(overflow))]
        pairs.extend(zip(shuffled[0::2], shuffled[1::2]))
    cost = _pair_cost(pairs, mahalanobis_distances(x).values)
    return MatchResult(Blocking.from_pairs(pairs), cost)


def pair_gap_diagnostic(pairing: Blocking, mu) -> float:
    """Average squared within-pair gap of a mean vector: (1/n) sum (mu_a - mu_b)^2."""
    _check_type("pairing", pairing, Blocking)
    mu = _frozen("mu", mu, 1)
    if mu.shape[0] != pairing.n_subjects:
        raise ValueError("mu length must match the pairing")
    gaps = [mu[a] - mu[b] for a, b in pairing.pairs()]
    return float(np.mean(np.square(gaps)))


def variance_decomposition_terms(
    spec: DesignSpec,
    model: ResponseModel,
    x: CovariateMatrix,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Split Var[(tau_hat - tau)^2] over noise and allocation.

    Returns (Var_Z of the allocation-conditional mean, E_Z of the
    allocation-conditional variance); the two sum to the unconditional
    variance.  Each design takes both conditional moments from one
    source: pm from its pair gaps d (mean sum d^2 / 4n^2, variance
    pm_conditional_variance), every other design from its enumerated
    support (pb's is {w*, -w*}, whose two squared errors are equal, so
    its conditional variance is 0); supports too large to enumerate
    are rejected.
    """
    _check_type("spec", spec, DesignSpec)
    _check_int("n_draws", n_draws, 2)
    _check_type("x", x, CovariateMatrix)
    _check_type("rng", rng, np.random.Generator)
    if x.n_subjects != spec.n_subjects:
        raise ValueError(
            f"covariates have {x.n_subjects} subjects but the design has "
            f"{spec.n_subjects}"
        )
    n = spec.n_subjects // 2
    mu_t, mu_c = potential_means(model, x)
    y_t = draw_outcomes(model, mu_t, rng, n_draws)
    y_c = draw_outcomes(model, mu_c, rng, n_draws)
    v = y_t + y_c
    if spec.kind == "pm":
        # pairs at consecutive positions, as pm_conditional_variance expects
        v = v[:, np.ravel(spec.blocking.pairs())]
        cond_mean = np.square(v[:, 1::2] - v[:, 0::2]).sum(axis=1) / (4.0 * n * n)
        cond_var = np.array([pm_conditional_variance(row) for row in v])
    else:
        sq = _support_squared_errors(spec, v, max_support=4096)
        cond_mean, cond_var = sq.mean(axis=1), sq.var(axis=1)
    return float(cond_mean.var(ddof=1)), float(cond_var.mean())


def convergence_study(
    design_kinds,
    n_subjects_grid,
    n_reps: int,
    master_seed: int,
) -> list[dict]:
    """Track n^2 Var[(tau_hat - tau)^2] as the sample grows.

    Every (kind, 2n) entry is checked before any cell runs; each then
    runs as its own one-cell panel on a noise-only cell: a zero
    covariate and no intercept or treatment effect give every subject
    mean 0, and each arm adds the continuous response's unit-variance
    Gaussian noise, so v = y_T + y_C has rho = 2.  For any sign vector
    w, w'v is then N(0, 2n rho), the squared error is (rho / 2n) chi2_1
    whatever the design, and n^2 Var is exactly rho^2 / 2, so pm's and
    pb's rows estimate one constant.  The variance and its standard
    error (from the sample's fourth central moment) are scaled by
    n^2 / 4, to their values at rho = 1, where n^2 Var is 0.5, and
    reported next to the published reference constants and the
    enumeration-implied pm candidate.
    """
    kinds = list(design_kinds)
    for kind in kinds:
        if kind not in ("pm", "pb"):
            raise ValueError(f"convergence study covers pm and pb, not {kind!r}")
    sizes = [_check_int("n_subjects_grid entries", n_sub, 4) for n_sub in n_subjects_grid]
    for n_sub in sizes:
        if n_sub % 2:
            raise ValueError(f"n_subjects_grid entries must be even, got {n_sub}")
    model = ResponseModel(kind="continuous", beta0=0.0, beta=np.ones(1), beta_t=0.0)
    rows = []
    for kind in kinds:
        for n_sub in sizes:
            if kind == "pm":
                spec = DesignSpec.pm(Blocking(np.arange(n_sub) // 2))
            else:
                w_star = np.tile(np.array([1, -1], dtype=np.int8), n_sub // 2)
                spec = DesignSpec.pb(Allocation(w_star))
            cell_id = f"convergence::{kind}::{n_sub}"
            x = CovariateMatrix(np.zeros((n_sub, 1)))
            cfg = CellConfig(cell_id, model, x, spec, n_reps, master_seed)
            (sq,) = simulate_squared_errors([cfg], cell_id)
            n = n_sub // 2
            var = float(sq.var(ddof=1))
            m4 = float(np.mean((sq - sq.mean()) ** 4))
            se = math.sqrt(max(m4 - var * var, 0.0) / sq.size)
            scale = n * n / 4.0
            rows.append(
                {
                    "design": kind,
                    "n_subjects": n_sub,
                    "n_reps": int(n_reps),
                    "scaled_variance": scale * var,
                    "se": scale * se,
                    "pm_reference": PM_REFERENCE,
                    "pb_reference": PB_REFERENCE,
                    "pm_enumeration_candidate": PM_ENUMERATION_CANDIDATE,
                }
            )
    return rows
