"""Two-arm design families and their samplers.

Four families are supported:

* bcrd  - balanced completely randomized design (uniform over all
          balanced allocations; the single-block special case),
* block - independent balanced randomization inside B equal blocks,
* pm    - pairwise matching, a block design with blocks of size 2,
* pb    - perfect balance, one block of 2n drawing w* or -w*, with w*
          chosen to minimize Mahalanobis imbalance.

pb's search and pm's matching share one covariate metric,
mahalanobis_gram.  Support enumeration and the imbalance of one
allocation, which only the checks use, live in twoarm.criteria.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Allocation, Blocking, CovariateMatrix, _check_int, _check_type, _frozen
from .streams import row_blocks, slices

DESIGN_KINDS = ("bcrd", "block", "pm", "pb")

# Relative ridge added to a near-singular covariate covariance.
RIDGE_SCALE = 1e-8
_SINGULAR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DesignSpec:
    """A design: its family, its blocking, and the patterns each block
    draws from, uniformly and independently: every balanced pattern when
    patterns is None (bcrd, block, pm), or else the rows of a read-only
    (K, n_B) int8 table, which pb, and only pb, has: [w*, -w*]."""

    kind: str
    blocking: Blocking
    patterns: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        _check_type("blocking", self.blocking, Blocking)
        if self.kind in ("bcrd", "pb") and self.blocking.n_blocks != 1:
            raise ValueError(f"{self.kind} must have a single block")
        if self.kind == "pm" and not self.blocking.is_pairing:
            raise ValueError("pm requires blocks of size 2")
        if (self.kind == "pb") != (self.patterns is not None):
            raise ValueError(f"patterns must be given for pb and only for pb, kind {self.kind!r}")
        if self.patterns is None:
            return
        table = _frozen("patterns", self.patterns, 2, np.int8)
        if not (1 <= table.shape[0] <= 32_767 and table.shape[1] == self.blocking.block_size):
            raise ValueError(f"patterns must be 1 to 32,767 rows (an int16 index) of "
                             f"{self.blocking.block_size} signs, got shape {table.shape}")
        if not np.isin(table, (-1, 1)).all() or table.sum(axis=1).any():
            raise ValueError("patterns rows must be balanced, of -1 and +1 signs")
        object.__setattr__(self, "patterns", table)

    @classmethod
    def bcrd(cls, n_subjects: int) -> "DesignSpec":
        return cls("bcrd", Blocking.single(n_subjects))

    @classmethod
    def block(cls, blocking: Blocking) -> "DesignSpec":
        return cls("block", blocking)

    @classmethod
    def pm(cls, pairing: Blocking) -> "DesignSpec":
        return cls("pm", pairing)

    @classmethod
    def pb(cls, w_star: Allocation) -> "DesignSpec":
        _check_type("w_star", w_star, Allocation)
        return cls("pb", Blocking.single(w_star.n_subjects), [w_star.signs, -w_star.signs])

    @property
    def w_star(self) -> Allocation | None:
        """pb's optimized allocation, its first pattern; None for the others."""
        return None if self.patterns is None else Allocation(self.patterns[0])

    @property
    def n_subjects(self) -> int:
        return self.blocking.n_subjects


def sample_allocations(
    spec: DesignSpec, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n_draws allocations as an (n_draws, 2n) array of +-1 (int8).

    Each block draws one of its patterns, so exactly half of it is
    treated.  A table of K patterns, spec.patterns or, for blocks of
    n_B <= _TABLE_MAX subjects, _pattern_table(n_B), takes one
    rng.integers(0, K, (n_draws, B), dtype=np.int16) draw,
    row-major over (row, block), and _patterns_at places the drawn
    patterns: the gather that criteria.enumerate_allocations runs over
    every index of the support.  Larger blocks
    draw each design block's (n_draws, n_B) uniforms in the row blocks
    of streams.row_blocks, which consume rng exactly as one
    (n_draws, n_B) draw does, and _half_signs treats each row's n_B / 2
    smallest uniforms.
    """
    _check_type("spec", spec, DesignSpec)
    _check_int("n_draws", n_draws, 0)
    _check_type("rng", rng, np.random.Generator)
    blocks = spec.blocking.blocks()
    n_blocks, m = blocks.shape
    table = _pattern_table(m) if spec.patterns is None and m <= _TABLE_MAX else spec.patterns
    if table is not None:
        index = rng.integers(0, table.shape[0], (n_draws, n_blocks), dtype=np.int16)
        return _patterns_at(blocks, index, table)
    out = np.empty((n_draws, spec.n_subjects), dtype=np.int8)
    row_slices = row_blocks(n_draws, m)
    for members in blocks:
        for rows in row_slices:
            out[rows, members] = _half_signs(rng.random((rows.stop - rows.start, m)))
    return out


def _patterns_at(blocks: np.ndarray, index: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The (rows, 2n) int8 allocations whose block b takes row index[r, b]
    of the (K, n_B) table, the pattern's k-th sign at subject blocks[b, k]."""
    out = np.empty((index.shape[0], blocks.size), dtype=np.int8)
    # each row one np.void of n_B int8 signs, so a gather moves a pattern whole
    table = table.view(np.dtype((np.void, table.shape[1])))[:, 0]
    # A gathered row holds subject blocks[b, k] in column b * n_B + k, and
    # the inverse permutation puts each subject back in its column.  Row
    # blocks bound the intp copy that np.take makes of the index.
    to_subject = np.argsort(blocks.ravel())
    for rows in row_blocks(index.shape[0], blocks.size):
        signs = np.take(table, index[rows]).view(np.int8)
        np.take(signs, to_subject, axis=1, out=out[rows])
    return out


# Blocks of at most this many subjects draw a pattern index: C(16, 8) =
# 12,870 patterns fit an int16, and the table takes 206 KB.
_TABLE_MAX = 16


@functools.cache
def _pattern_table(m: int) -> np.ndarray:
    """The C(m, m/2) balanced +-1 patterns of a block of m, read-only int8 rows.

    Row i is +1 at the i-th m/2-subset of range(m) in
    itertools.combinations order and -1 elsewhere.  The rows are written
    in place by Pascal's rule (_fill_subsets), and the build holds no
    array beside the table.  Built on first use, once per m and process:
    the sampler and the support enumeration gather from it through one
    _patterns_at.
    """
    h = m // 2
    signs = np.empty((math.comb(m, h), m), dtype=np.int8)
    _fill_subsets(signs, slice(0, signs.shape[0]), 0, h, {})
    signs.setflags(write=False)
    return signs


def _fill_subsets(signs: np.ndarray, rows: slice, col: int, k: int, first: dict) -> None:
    """Write into signs[rows, col:] the k-subsets of the n = m - col
    subjects from col on, in itertools.combinations order: +1 at the
    subset, -1 elsewhere.

    Pascal's rule, C(n, k) = C(n - 1, k - 1) + C(n - 1, k), in
    combinations order: the subsets that hold subject col come first,
    over the (k - 1)-subsets of the rest in their own order, then those
    without it, over the k-subsets of the rest.  first maps each (n, k)
    to the (rows, col) where its block was first written, and a block
    met again is copied from there, so the memo of one build lives in
    the table itself.
    """
    n = signs.shape[1] - col
    if (n, k) in first:
        src_rows, src_col = first[n, k]
        signs[rows, col:] = signs[src_rows, src_col:]
        return
    if k in (0, n):
        signs[rows, col:] = 1 if k else -1
    else:
        t = rows.start + math.comb(n - 1, k - 1)
        signs[rows.start:t, col] = 1
        _fill_subsets(signs, slice(rows.start, t), col + 1, k - 1, first)
        signs[t:rows.stop, col] = -1
        _fill_subsets(signs, slice(t, rows.stop), col + 1, k, first)
    first[n, k] = (rows, col)


def _half_signs(u: np.ndarray) -> np.ndarray:
    """+1 on the n_B / 2 smallest uniforms of each row of u, -1 elsewhere (int8).

    The argsort of iid uniforms puts a uniformly random half first.  When
    no row ties at the cut (its n_B / 2-th and next smallest values
    differ), that half is exactly the values at or below the cut, which
    a values-only sort finds faster than argsort.  If any row ties at
    the cut, all of u is taken by argsort, so every byte is argsort's on
    any host.
    """
    h = u.shape[1] // 2
    s = np.sort(u, axis=1)
    cut = s[:, h - 1]
    tie = s[:, h - 1] == s[:, h]
    if tie.any():
        order = np.argsort(u, axis=1)
        signs = np.full(u.shape, -1, dtype=np.int8)
        np.put_along_axis(signs, order[:, :h], 1, axis=1)
        return signs
    signs = np.less_equal(u, cut[:, None]).view(np.int8)
    signs <<= 1
    signs -= 1
    return signs


def design_covariance(spec: DesignSpec) -> np.ndarray:
    """Exact allocation covariance E[w w'], a read-only (2n, 2n) array.

    Entries across blocks are 0, and every block holds one within-block
    matrix: unit diagonal and off-diagonal -1/(n_B - 1) over all balanced
    patterns (exchangeable signs summing to zero over the block), or
    T'T / K over a table T of K rows, pb's rank-one w* w*' exactly.
    Only the checks use it; the grid never does.
    """
    _check_type("spec", spec, DesignSpec)
    members = spec.blocking.blocks()
    m = members.shape[1]
    if spec.patterns is None:
        within = np.full((m, m), -1.0 / (m - 1))
        np.fill_diagonal(within, 1.0)
    else:
        t = spec.patterns.astype(float)
        within = t.T @ t / t.shape[0]
    sigma = np.zeros((spec.n_subjects,) * 2)
    sigma[members[:, :, None], members[:, None, :]] = within
    sigma.setflags(write=False)
    return sigma


def build_blocking(x: CovariateMatrix, n_blocks: int) -> Blocking:
    """Sorted-covariate blocking into n_blocks contiguous blocks.

    Subjects are stable-sorted by the first covariate; with a second
    covariate present, consecutive super-groups of size 2*n_B are then
    re-sorted by it in one stable lexsort, so ties keep covariate-1
    order and each final block is one half (by covariate 2) of a
    covariate-1 stratum.  Covariates beyond the second are ignored.
    The sorted order is cut into n_blocks blocks of size n_B.
    """
    _check_type("x", x, CovariateMatrix)
    n_sub = x.n_subjects
    _check_int("n_blocks", n_blocks, 1)
    if n_sub % n_blocks:
        raise ValueError(f"{n_blocks} blocks do not divide {n_sub} subjects")
    size = n_sub // n_blocks
    if size % 2:
        raise ValueError(f"block size {size} must be even")
    order = np.argsort(x.values[:, 0], kind="stable")
    if x.n_covariates >= 2 and n_blocks >= 2:
        order = order[np.lexsort((x.values[order, 1], np.arange(n_sub) // (2 * size)))]
    block_of = np.empty(n_sub, dtype=np.int64)
    block_of[order] = np.arange(n_sub) // size
    return Blocking(block_of)


def regularized_covariance(values: np.ndarray) -> np.ndarray:
    """Unbiased covariate covariance, ridged only when near-singular."""
    values = _frozen("values", values, 2)
    p = values.shape[1]
    s = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    trace = float(np.trace(s))
    if not np.isfinite(trace) or trace <= 0:
        return np.eye(p)
    eigs = np.linalg.eigvalsh(s)
    if eigs[0] < _SINGULAR_TOL * max(1.0, eigs[-1]):
        s = s + (RIDGE_SCALE * trace / p) * np.eye(p)
    return s


def mahalanobis_gram(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g, h) of the metric M = regularized_covariance(values)^-1: the
    Gram matrix g = X M X', whose w'gw is pb's imbalance, and the squared
    distances h_ij = g_ii + g_jj - 2 g_ij, whose diagonal is exactly 0."""
    values = _frozen("values", values, 2)
    m = np.linalg.inv(regularized_covariance(values))
    g = values @ m @ values.T
    gd = np.diag(g)
    return g, gd[:, None] + gd[None, :] - 2.0 * g


# Restarts descended at once: the width of the lockstep pool.  It bounds
# the (chunk, n, n) work array, which stays in cache at the preset 2n=96.
_RESTART_CHUNK = 32


def _objectives(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w'Gw of every row of w, bitwise float(row @ g @ row) for each row."""
    return np.matmul(np.matmul(w[:, None, :], g), w[:, :, None])[:, 0, 0]


def _descend_lockstep(g: np.ndarray, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Greedy best-swap descent on obj(w) = w'Gw of every row of w, in a
    pool of _RESTART_CHUNK rows descending at once.

    h is gd_i + gd_j - 2 g_ij (gd the diagonal of g).  Each step, every
    row in the pool applies the swap (i treated, j control) with the
    lowest delta 4 (h_ij + (gw)_j - (gw)_i), the lowest treated i and
    then the lowest control j among exact minima on ties (the first in
    row-major (i, j) order), and stops once no swap lowers its objective
    by more than 1e-12 (1 + |obj|), or after 100 * 2n swaps of its own.
    A row that stops is written back to w and hands its slot to the next
    row not yet started; the pool shrinks only once every row has
    started.  A slot keeps its row's treated and control subjects in
    slots tr and ct, in any order, and the block hs[r, t, s] = h[tr[r,
    s], ct[r, t]]; a swap rewrites one row and one column of hs, so a
    step adds gw over an n x n block and takes the minimum over its
    control axis.  The arithmetic is a lone descent's, term by term, so
    every row ends where descending it alone would: gw is one gemv per
    row, and the 4.0 scale, a power of two, is exact and applied to the
    chosen delta only.  Descends the +-1 rows of w (float or int8) in
    place and returns w.
    """
    n_sub = w.shape[1]
    n = n_sub // 2
    hf = h.ravel()
    rows = np.arange(min(_RESTART_CHUNK, w.shape[0]))  # the row of w in each slot
    live = w[rows].astype(float)
    obj, steps = _objectives(g, live), np.zeros(rows.size, dtype=np.int64)
    # treated subjects in slots[:, :n], control ones in slots[:, n:]
    slots = np.argsort(-live, axis=1, kind="stable")
    hs = hf[slots[:, None, :n] * n_sub + slots[:, n:, None]]
    buf = np.empty_like(hs)
    started = rows.size
    while rows.size:
        k = rows.size
        at = np.arange(k)
        tr, ct = slots[:, :n], slots[:, n:]
        gw = np.matmul(g, live[:, :, None])[:, :, 0]
        gws = gw.ravel()[slots + at[:, None] * n_sub]
        gw_tr = gws[:, :n]
        # a[r, t, s] = h[tr_s, ct_t] + gw_ct_t, added as 2-D rows, which
        # numpy runs faster than the same 3-D broadcast
        a = buf[:k]
        np.add(hs.reshape(k * n, n), gws[:, n:].reshape(k * n, 1), out=a.reshape(k * n, n))
        # Rounding is monotone, so min_t fl(a_ts - c) = fl(min_t a_ts - c):
        # the best delta of each treated slot comes from the column
        # minima, and only the chosen column needs the subtraction entry
        # by entry.  Ties go to the lowest subject, not the lowest slot.
        delta_col = a.min(axis=1) - gw_tr
        best = delta_col.min(axis=1)
        s = np.where(delta_col == best[:, None], tr, n_sub).argmin(axis=1)
        d = a[at, :, s] - gw_tr[at, s][:, None]
        t = np.where(d == best[:, None], ct, n_sub).argmin(axis=1)
        best *= 4.0
        stop = np.flatnonzero((best >= -1e-12 * (1.0 + np.abs(obj))) | (steps >= 100 * n_sub))
        w[rows[stop]] = live[stop]
        # every slot swaps; a stopped one is refilled or dropped below
        i, j = tr[at, s], ct[at, t]
        live[at, i] = -1.0
        live[at, j] = 1.0
        obj += best
        steps += 1
        tr[at, s], ct[at, t] = j, i
        hs[at, t] = hf[tr * n_sub + i[:, None]]
        hs[at, :, s] = hf[j[:, None] * n_sub + ct]
        if stop.size:
            fill = stop[: w.shape[0] - started]
            rows[fill] = np.arange(started, started + fill.size)
            started += fill.size
            live[fill] = w[rows[fill]]
            obj[fill], steps[fill] = _objectives(g, live[fill]), 0
            slots[fill] = np.argsort(-live[fill], axis=1, kind="stable")
            hs[fill] = hf[slots[fill, None, :n] * n_sub + slots[fill, n:, None]]
            if fill.size < stop.size:
                keep = np.ones(k, dtype=bool)
                keep[stop[fill.size:]] = False
                rows, live, obj, steps, slots, hs = (
                    x[keep] for x in (rows, live, obj, steps, slots, hs)
                )
    return w


def greedy_pair_switch(
    x: CovariateMatrix, restarts: int, rng: np.random.Generator
) -> Allocation:
    """Search for the minimum-imbalance balanced allocation.

    Runs `restarts` greedy descents from independent uniform balanced
    starts (each restart on its own spawned sub-stream); every step
    applies the single (+1, -1) swap that lowers the Mahalanobis
    imbalance w'gw (g of mahalanobis_gram) the most, the lowest treated
    and then the lowest control subject on ties (the first in row-major
    scan order), for at most 100 * 2n steps.  The starts are drawn in
    the streams.slices of _RESTART_CHUNK, each slice spawning its own
    sub-streams in turn, and held as int8; all restarts then descend in
    one _descend_lockstep pool, which changes no restart's start, path
    or tie-breaks.  The final objectives come from one batched product
    per slice, bitwise w'gw of each row, and the winner is their first
    minimum: the lowest final objective, the earliest restart on ties.
    """
    _check_type("x", x, CovariateMatrix)
    _check_int("restarts", restarts, 1)
    _check_type("rng", rng, np.random.Generator)
    n_sub, n = x.n_subjects, x.n_pairs
    g, h = mahalanobis_gram(x.values)
    w = np.full((restarts, n_sub), -1, dtype=np.int8)
    batches = slices(restarts, _RESTART_CHUNK)
    for batch in batches:
        children = rng.spawn(batch.stop - batch.start)
        for r, child in zip(range(batch.start, batch.stop), children):
            w[r, child.permutation(n_sub)[:n]] = 1
    _descend_lockstep(g, h, w)
    objs = np.concatenate([_objectives(g, w[batch].astype(float)) for batch in batches])
    return Allocation(w[int(np.argmin(objs))])
