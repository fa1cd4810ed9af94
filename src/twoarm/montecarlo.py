"""Monte Carlo evaluation of the design cells of one panel.

A panel fixes covariates and a response model; each of its cells adds
a design.  Each replicate draws fresh potential outcomes and, for each
cell, one allocation, and records the squared error of that cell's
difference-in-means estimate.  The outcomes are drawn once per panel
and shared by every cell (common random numbers, so design comparisons
are paired); each cell's allocations come from its own stream, and a
pb cell, whose squared error does not depend on its coin, draws none.
Replicates are drawn in fixed-size chunks on seed-derived substreams
keyed by the panel id (outcomes) and the cell id (allocations), so
results are bit-identical no matter how panels are scheduled across
workers, and a cell's squared errors do not depend on which other cells
share its panel.  A chunk holds one full outcome buffer v = y_T + y_C:
the treated arm is drawn into it by response.draw_outcomes, and the
control arm (one draw_outcomes call per row block), each cell's
allocation signs (the pattern lookups of blocks of at most 16
subjects, the uniforms and sorts of larger blocks) and each cell's
contrast are taken in row blocks of at most streams.BLOCK_ELEMENTS
elements; every draw consumes its stream exactly as one whole draw
would.  A cell's report, whose fields are the result columns of
results.csv, holds the mean and sd of the squared error and two
figures of its 0.95 quantile, each with a 95% interval, and neither
interval draws a random number.
The empirical quantile is an order statistic of the sorted sample, and
so are its interval's endpoints: the percentile-bootstrap law of an
order statistic is exact, from binomial tails, so that interval is the
limit of infinitely many resamples.  The normal approximation
mean + C_95 * sd (C_95 = 1.645, the paper's rounding, defined here)
has a delta-method interval, its value plus and minus z standard
errors, the standard error taken from the sample's influence values
(the infinitesimal jackknife): the normal-theory limit of the
bootstrap as the number of resamples grows.  So a cell's report
depends on its sample alone.

simulate_squared_errors takes one panel's cells and its id; a cell run
alone is the one-cell panel keyed by its cell id, which is how run_cell
simulates a cell given no squared errors to summarise.  The
convergence report in twoarm.criteria runs noise-only cells that way
through the same chunk loop, and its closed forms check the results;
the grid path does not import it.
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

    def __post_init__(self):
        if not isinstance(self.cell_id, str):
            raise ValueError(f"cell_id must be a str, got {self.cell_id!r}")
        _check_int("n_reps", self.n_reps, 2)
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


# The tail probability on each side of a 95% interval.  (1 - 0.95) / 2
# is 0.025000000000000022, not 0.025; the exact ranks depend on it.
_ALPHA = (1.0 - 0.95) / 2.0
# The standard normal quantile at 1 - _ALPHA,
# statistics.NormalDist().inv_cdf(1 - _ALPHA), written out so that the
# grid path imports no statistics module.
_Z = 1.9599639845400536


# No report uses bootstrap_ci any more.  It stays only because the
# benchmark's trace resolves montecarlo.bootstrap_ci (and its
# n_resamples) by name; the benchmark change that drops that span
# removes it.
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
    N do, and the interval does not depend on the block size.  rng is
    required so that every interval comes from a seed-derived stream.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    _check_int("n_resamples", n_resamples, 1)
    n = samples.size
    stats = np.empty(n_resamples)
    for rows in row_blocks(n_resamples, n):
        b = rows.stop - rows.start
        block = np.asarray(statistic(samples[rng.integers(0, n, (b, n))]))
        if block.shape != (b,):
            raise ValueError(
                f"statistic must map a ({b}, {n}) block of resamples to "
                f"shape ({b},), got shape {block.shape}"
            )
        stats[rows] = block
    lo, hi = np.quantile(stats, [_ALPHA, 1.0 - _ALPHA])
    return float(lo), float(hi)


def _exact_ranks(n: int) -> tuple[int, int, int]:
    """(k, j_lo, j_hi): the 1-based ranks, among N = n sorted replicates,
    of the empirical 0.95 quantile and of its exact 95% percentile-bootstrap
    interval.

    k = ceil(0.95 * N), the inverse-CDF quantile.  A resample holds rank
    j or below Bin(N, j / N) times, so its k-th order statistic is at most
    the j-th replicate with probability P(Bin(N, j / N) >= k), ties broken
    by position (Maritz & Jarrett 1978; Hutson 1999).  j_lo and j_hi are
    the smallest j at which that tail reaches _ALPHA and 1 - _ALPHA: the
    interval that infinitely many resamples would give.  The tail is
    summed from its log terms, and each rank is found by bisection on j.
    """
    k = math.ceil(0.95 * n)
    i = np.arange(k, n + 1)
    log_comb = math.lgamma(n + 1) - np.array(
        [math.lgamma(a + 1) + math.lgamma(n - a + 1) for a in range(k, n + 1)]
    )

    def tail(j: int) -> float:
        p = j / n
        return float(np.exp(log_comb + i * math.log(p) + (n - i) * math.log1p(-p)).sum())

    ranks = []
    for level in (_ALPHA, 1.0 - _ALPHA):
        # the tail is 0 at j = 0 and 1 at j = N; it rises with j
        below, at = 0, n
        while at - below > 1:
            mid = (below + at) // 2
            if tail(mid) >= level:
                at = mid
            else:
                below = mid
        ranks.append(at)
    return k, ranks[0], ranks[1]


def _approx_q95_se(sq: np.ndarray, mean: float, sd: float) -> float:
    """Delta-method standard error of mean + C_95 * sd.

    The sd(ddof=1) / sqrt(N) of the influence values
    psi_i = d_i + C_95 * (d_i^2 - sd^2) / (2 sd), d_i = sq_i - mean:
    the infinitesimal jackknife (Efron 1981), the limit of the bootstrap
    standard error as the number of resamples grows.  A constant sample
    has sd 0 and standard error 0.
    """
    if sd == 0.0:
        return 0.0
    d = sq - mean
    psi = d + C_95 * (d * d - sd * sd) / (2.0 * sd)
    return float(psi.std(ddof=1)) / math.sqrt(sq.size)


# The fields every cell of a panel shares: the outcome draw depends on
# them alone, and so does the chunk loop.
_PANEL_FIELDS = ("model", "x", "n_reps", "master_seed")


def _panel_cell(cells: list, panel_id: str) -> CellConfig:
    """The first cell of a panel, once every cell shares its _PANEL_FIELDS.

    model and x must be the same objects; n_reps and master_seed equal."""
    if not cells:
        raise ValueError(f"panel {panel_id!r} has no cells")
    first = cells[0]
    for cfg in cells[1:]:
        for name in _PANEL_FIELDS:
            mine, theirs = getattr(cfg, name), getattr(first, name)
            # model and x hold arrays: sharing them means one object
            if not (mine is theirs if name in ("model", "x") else mine == theirs):
                raise ValueError(
                    f"cells of panel {panel_id!r} must share {name}: "
                    f"{cfg.cell_id!r} differs from {first.cell_id!r}"
                )
    return first


def _chunk_squared_errors(
    cells: list, panel_id: str, mu_t: np.ndarray, mu_c: np.ndarray, ci: int,
    reps: slice, sq: list,
) -> None:
    """Write chunk ci, replicates reps, of each cell's squared errors into
    its array of sq; the chunk's buffers are freed on return, before the
    next chunk draws.

    v = y_t + y_c fills one (size, 2n) buffer on the panel's outcome
    stream: the treated arm in one draw, then the control arm added one
    row block at a time, each block one draw_outcomes call.  Each cell
    then draws its signs on its own stream and sums w * v row block by
    row block through one product buffer, so v is never written after
    the draw and every cell sees the same outcomes.  A pb cell sums
    w* * v in every row: its squared error is the same for -w*, bitwise,
    so its coin is never drawn."""
    first, size = cells[0], reps.stop - reps.start
    rng_y = substream(first.master_seed, panel_id, "outcomes", ci)
    v = draw_outcomes(first.model, mu_t, rng_y, size)
    for rows in row_blocks(size, mu_c.shape[0]):
        v[rows] += draw_outcomes(first.model, mu_c, rng_y, rows.stop - rows.start)
    blocks = row_blocks(size, v.shape[1])
    product = np.empty((blocks[0].stop, v.shape[1]))
    contrast = np.empty(size)
    for cfg, out in zip(cells, sq):
        if cfg.design.kind == "pb":
            w = np.broadcast_to(cfg.design.w_star.signs, (size, v.shape[1]))
        else:
            rng_w = substream(cfg.master_seed, cfg.cell_id, "alloc", ci)
            w = sample_allocations(cfg.design, size, rng_w)
        for rows in blocks:
            part = product[: rows.stop - rows.start]
            np.multiply(v[rows], w[rows], out=part).sum(axis=1, out=contrast[rows])
        del w  # before the next cell's sampler runs
        out[reps] = np.square(contrast / (2.0 * first.x.n_pairs))


def simulate_squared_errors(cells: list, panel_id: str) -> list[np.ndarray]:
    """Every replicate squared error of each cell of one panel.

    cells share model, x, n_reps and master_seed (ValueError names the
    field that differs).  Each chunk draws the outcomes v = y_t + y_c
    once, on substream(master_seed, panel_id, "outcomes", chunk), and
    every cell applies its own allocations to them, drawn on
    substream(master_seed, cell_id, "alloc", chunk); a pb cell scores
    w* itself and leaves that stream unused.  So a cell's array
    depends only on its own config and panel_id, not on the other cells
    of the panel, and the cells' designs are compared on common draws.
    A chunk holds one full outcome buffer at a time and frees it before
    the next.  Returns one array of n_reps per cell, in order.  A cell
    run alone is the one-cell panel ([cfg], cfg.cell_id).
    """
    cells = list(cells)
    first = _panel_cell(cells, panel_id)
    mu_t, mu_c = potential_means(first.model, first.x)
    sq = [np.empty(first.n_reps) for _ in cells]
    pos = 0
    for ci, size in enumerate(chunk_sizes(first.n_reps)):
        reps = slice(pos, pos + size)
        _chunk_squared_errors(cells, panel_id, mu_t, mu_c, ci, reps, sq)
        pos += size
    return sq


def run_cell(cfg: CellConfig, sq: np.ndarray | None = None) -> CriterionReport:
    """Summarize a cell's squared-error distribution.

    sq is the cell's n_reps squared errors, as simulate_squared_errors
    gives them for its panel; without it the cell is simulated alone, as
    its own one-cell panel.  emp_q95 and its interval's endpoints are
    order statistics of sq at the ranks of _exact_ranks(n_reps).
    approx_q95 is mean + C_95 * sd, and its interval approx_q95 -+ _Z
    times _approx_q95_se.  No random number is drawn, so the report
    depends on sq alone, not on the cell id or the master seed.
    """
    if sq is None:
        (sq,) = simulate_squared_errors([cfg], cfg.cell_id)
    sq = np.asarray(sq, dtype=float)
    if sq.shape != (cfg.n_reps,):
        raise ValueError(f"sq must have shape ({cfg.n_reps},), got {sq.shape}")
    mean = float(sq.mean())
    if not np.isfinite(mean):
        raise ValueError("mean_sq_err must be finite")
    sd = float(sq.std(ddof=1))
    if not np.isfinite(sd):
        raise ValueError("sd_sq_err must be finite")
    k, j_lo, j_hi = _exact_ranks(sq.size)
    s = np.sort(sq)
    approx = mean + C_95 * sd
    half = _Z * _approx_q95_se(sq, mean, sd)
    if not np.isfinite(half):
        raise ValueError("approx_q95 interval must be finite")
    return CriterionReport(
        mean_sq_err=mean,
        sd_sq_err=sd,
        emp_q95=float(s[k - 1]),
        emp_q95_lo=float(s[j_lo - 1]),
        emp_q95_hi=float(s[j_hi - 1]),
        approx_q95=approx,
        approx_q95_lo=approx - half,
        approx_q95_hi=approx + half,
    )
