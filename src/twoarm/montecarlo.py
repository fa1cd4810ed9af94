"""Monte Carlo evaluation of a design cell.

A cell fixes covariates, a response model, and a design; each
replicate draws fresh potential outcomes and one allocation and records
the squared error of the difference-in-means estimate.  Replicates are
drawn in fixed-size chunks on seed-derived substreams, so results are
bit-identical no matter how cells are scheduled across workers.  A
chunk holds one full outcome buffer: the treated arm is drawn into it
by response.draw_outcomes, and the control arm (one draw_outcomes
call per row block), the allocation uniforms and their signs are drawn
in row blocks of at most streams.BLOCK_ELEMENTS elements, each
consuming its stream exactly as one whole draw would.  A
cell's report, whose fields are the result columns of results.csv,
holds the mean and sd of the squared error and two figures of its 0.95
quantile: the empirical quantile and the normal approximation
mean + C_95 * sd (C_95 = 1.645, the paper's rounding, defined here),
each with a 95% percentile-bootstrap interval.  Each figure is one
row-wise function in the _FIGURES table, which gives its point value
on a copy of the sample as a single row and its statistic on every
resample.  The bootstrap draws the indices of a block of whole
resamples at once, at most BLOCK_ELEMENTS // N rows of N, and
evaluates the statistic on that (rows, N) block; the stream is consumed
exactly as one draw per resample would consume it.  The empirical
quantile, an order statistic, is resampled on the int32 ranks of the
sample and mapped back through the sorted sample, which gives the same
value, ties included; the normal approximation computes each
resample's mean once.

The variance-floor and convergence reports in twoarm.verify run
noise-only cells through the same chunk loop, and the closed forms of
twoarm.criteria check its results; the grid path imports neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CovariateMatrix, _check_int
from .designs import DesignSpec, sample_allocations
from .response import ResponseModel, draw_outcomes, potential_means
from .streams import chunk_sizes, row_blocks, substream

# The 0.95 normal quantile, rounded as the paper rounds it, used by the
# normal approximation mean + C_95 * sd to the criterion.
C_95 = 1.645


@dataclass(frozen=True, eq=False)
class CellConfig:
    """One simulation cell: fixed covariates, model, design, budget."""

    cell_id: str
    model: ResponseModel
    x: CovariateMatrix
    design: DesignSpec
    n_reps: int
    master_seed: int
    bootstrap_reps: int = 1000

    def __post_init__(self):
        _check_int("n_reps", self.n_reps, 2)
        _check_int("bootstrap_reps", self.bootstrap_reps, 1)
        _check_int("master_seed", self.master_seed, 0)
        if self.design.n_subjects != self.x.n_subjects:
            raise ValueError("design and covariates disagree on 2n")
        if self.model.n_covariates != self.x.n_covariates:
            raise ValueError("model and covariates disagree on p")


@dataclass(frozen=True)
class CriterionReport:
    """One cell's summary, named and ordered as results.csv's result columns."""

    mean_sq_err: float
    sd_sq_err: float
    emp_q95: float
    emp_q95_lo: float
    emp_q95_hi: float
    approx_q95: float
    approx_q95_lo: float
    approx_q95_hi: float


def _order_statistic(values: np.ndarray) -> np.ndarray:
    """Row-wise empirical 0.95 quantile: the ceil(0.95 * N)-th order
    statistic (inverse-CDF definition) along the last axis of N.
    Partitions values in place; bootstrap_ci evaluates it on ranks."""
    k = math.ceil(0.95 * values.shape[-1])
    values.partition(k - 1, axis=-1)
    return values[..., k - 1]


_order_statistic.on_ranks = True


def bootstrap_ci(
    samples: np.ndarray,
    statistic,
    n_resamples: int = 1000,
    *,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """95% percentile-method bootstrap interval for a statistic.

    statistic is row-wise: given a (b, N) block of b resamples it
    returns the b statistics as an array of shape (b,); anything else
    raises ValueError.  It may overwrite the block, which is a fresh
    gather from samples, never samples itself.  Resamples are drawn in
    the blocks of streams.row_blocks(n_resamples, N), at most
    max(1, BLOCK_ELEMENTS // N) rows, with one rng.integers call each.
    For N below 2**32 numpy draws these bounded integers one 32-bit word
    at a time, so a (b, N) draw consumes the stream exactly as b draws of
    N do, and the interval does not depend on the block size.  rng is required so that every interval comes
    from a seed-derived stream.

    A statistic whose on_ranks attribute is true commutes with every
    non-decreasing map, as an order statistic does.  It is evaluated on
    a block of int32 ranks from one stable argsort of samples, which
    are cheaper to gather and partition than float64 values, and each
    resulting rank maps back through the sorted sample: the same value,
    ties included.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    _check_int("n_resamples", n_resamples, 1)
    n = samples.size
    if getattr(statistic, "on_ranks", False):
        order = np.argsort(samples, kind="stable")
        sorted_samples = samples[order]
        source = np.empty(n, dtype=np.int32 if n <= 1 << 31 else np.int64)
        source[order] = np.arange(n, dtype=source.dtype)
    else:
        source, sorted_samples = samples, None
    stats = np.empty(n_resamples)
    for rows in row_blocks(n_resamples, n):
        b = rows.stop - rows.start
        block = np.asarray(statistic(source[rng.integers(0, n, (b, n))]))
        if block.shape != (b,):
            raise ValueError(
                f"statistic must map a ({b}, {n}) block of resamples to "
                f"shape ({b},), got shape {block.shape}"
            )
        if sorted_samples is not None:
            block = sorted_samples[block]
        stats[rows] = block
    # (1 - 0.95) / 2 is 0.025000000000000022, not 0.025, and the
    # endpoints np.quantile returns, so the output bytes, depend on it.
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def _approx_q95_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise normal approximation mean + C_95 * sd of a (b, N) block.

    Works in place on v.  Each row's mean is computed once, then used in
    numpy's own variance sequence (sum, divide, subtract, square, sum,
    divide by N - 1), so the result is bitwise
    v.mean(axis=1) + C_95 * v.std(axis=1, ddof=1).
    """
    n = v.shape[1]
    mean = np.add.reduce(v, axis=1, keepdims=True)
    mean /= n
    v -= mean
    np.multiply(v, v, out=v)
    var = np.add.reduce(v, axis=1)
    var /= n - 1
    return mean[:, 0] + C_95 * np.sqrt(var, out=var)


# (result column, row-wise statistic, bootstrap substream role) of each
# quantile figure; its interval fills the column's _lo and _hi fields.
_FIGURES = (
    ("emp_q95", _order_statistic, "bootstrap-empirical"),
    ("approx_q95", _approx_q95_rows, "bootstrap-approx"),
)


def _chunk_squared_errors(
    cfg: CellConfig, mu_t: np.ndarray, mu_c: np.ndarray, ci: int, size: int
) -> np.ndarray:
    """The squared errors of chunk ci, whose buffers are freed on return,
    before the next chunk draws.

    The treated arm fills one (size, 2n) buffer, and the control arm is
    added into it one row block at a time, each block one draw_outcomes
    call on the same stream, so the chunk's peak is that buffer plus a
    row block or two and the int8 signs."""
    rng_y = substream(cfg.master_seed, cfg.cell_id, "outcomes", ci)
    rng_w = substream(cfg.master_seed, cfg.cell_id, "alloc", ci)
    # the signs first, on their own stream, so that their row blocks are
    # drawn before the outcome buffer exists
    w = sample_allocations(cfg.design, size, rng_w)
    # w * (y_t + y_c), in one buffer: the same sums and products
    v = draw_outcomes(cfg.model, mu_t, rng_y, size)
    for rows in row_blocks(size, mu_c.shape[0]):
        v[rows] += draw_outcomes(cfg.model, mu_c, rng_y, rows.stop - rows.start)
    v *= w
    return np.square(v.sum(axis=1) / (2.0 * cfg.x.n_pairs))


def simulate_squared_errors(cfg: CellConfig) -> np.ndarray:
    """All replicate squared errors for a cell, chunk by chunk, each
    chunk holding one full outcome buffer at a time and freeing it
    before the next."""
    mu_t, mu_c = potential_means(cfg.model, cfg.x)
    sq = np.empty(cfg.n_reps)
    pos = 0
    for ci, size in enumerate(chunk_sizes(cfg.n_reps)):
        sq[pos : pos + size] = _chunk_squared_errors(cfg, mu_t, mu_c, ci, size)
        pos += size
    return sq


def run_cell(cfg: CellConfig) -> CriterionReport:
    """Simulate a cell and summarize its squared-error distribution.

    Each quantile figure gets a percentile bootstrap interval on its own
    seed-derived stream, so reports are reproducible from
    (cell_id, master_seed) alone.
    """
    sq = simulate_squared_errors(cfg)
    summary = {"mean_sq_err": float(sq.mean())}
    if not np.isfinite(summary["mean_sq_err"]):
        raise ValueError("mean_sq_err must be finite")
    summary["sd_sq_err"] = float(sq.std(ddof=1))
    if not np.isfinite(summary["sd_sq_err"]):
        raise ValueError("sd_sq_err must be finite")
    for column, statistic, role in _FIGURES:
        # a copy: the statistic works in place, and sq is resampled next
        summary[column] = float(statistic(sq[None, :].copy())[0])
        summary[f"{column}_lo"], summary[f"{column}_hi"] = bootstrap_ci(
            sq,
            statistic,
            n_resamples=cfg.bootstrap_reps,
            rng=substream(cfg.master_seed, cfg.cell_id, role),
        )
    return CriterionReport(**summary)
