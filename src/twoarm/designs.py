"""Two-arm design families and their samplers.

Four families are supported:

* bcrd  - balanced completely randomized design (uniform over all
          balanced allocations; the single-block special case),
* block - independent balanced randomization inside B equal blocks,
* pm    - pairwise matching, a block design with blocks of size 2,
* pb    - perfect balance, a deterministic pair {w*, -w*} with w*
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
    """A fully specified design: family plus its structure.

    Block-type families (bcrd, block, pm) carry a Blocking; pb carries
    the optimized allocation w_star.
    """

    kind: str
    blocking: Blocking | None = None
    w_star: Allocation | None = None

    def __post_init__(self):
        if self.kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == "pb":
            if self.w_star is None or self.blocking is not None:
                raise ValueError("pb requires w_star and no blocking")
            _check_type("w_star", self.w_star, Allocation)
        else:
            if self.blocking is None or self.w_star is not None:
                raise ValueError(f"{self.kind} requires a blocking and no w_star")
            _check_type("blocking", self.blocking, Blocking)
            if self.kind == "bcrd" and self.blocking.n_blocks != 1:
                raise ValueError("bcrd must have a single block")
            if self.kind == "pm" and not self.blocking.is_pairing:
                raise ValueError("pm requires blocks of size 2")

    @classmethod
    def bcrd(cls, n_subjects: int) -> "DesignSpec":
        return cls("bcrd", blocking=Blocking.single(n_subjects))

    @classmethod
    def block(cls, blocking: Blocking) -> "DesignSpec":
        return cls("block", blocking=blocking)

    @classmethod
    def pm(cls, pairing: Blocking) -> "DesignSpec":
        return cls("pm", blocking=pairing)

    @classmethod
    def pb(cls, w_star: Allocation) -> "DesignSpec":
        return cls("pb", w_star=w_star)

    @property
    def n_subjects(self) -> int:
        if self.kind == "pb":
            return self.w_star.n_subjects
        return self.blocking.n_subjects


def sample_allocations(
    spec: DesignSpec, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n_draws allocations as an (n_draws, 2n) array of +-1 (int8).

    Block-type designs randomize each block independently, exactly half
    of each block treated; pb flips a fair coin between w* and -w*.
    Blocks of n_B <= _TABLE_MAX subjects take one
    rng.integers(0, C(n_B, n_B / 2), (n_draws, B), dtype=np.int16) draw,
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
    if spec.kind == "pb":
        coin = rng.integers(0, 2, size=n_draws).astype(np.int8) * 2 - 1
        return coin[:, None] * spec.w_star.signs[None, :]
    blocks = spec.blocking.blocks()
    n_blocks, m = blocks.shape
    if m <= _TABLE_MAX:
        k = math.comb(m, m // 2)
        return _patterns_at(blocks, rng.integers(0, k, (n_draws, n_blocks), dtype=np.int16))
    out = np.empty((n_draws, spec.n_subjects), dtype=np.int8)
    row_slices = row_blocks(n_draws, m)
    for members in blocks:
        for rows in row_slices:
            out[rows, members] = _half_signs(rng.random((rows.stop - rows.start, m)))
    return out


def _patterns_at(blocks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The (rows, 2n) int8 allocations whose block b takes row index[r, b]
    of _pattern_table(n_B), the pattern's k-th sign at subject blocks[b, k]."""
    out = np.empty((index.shape[0], blocks.size), dtype=np.int8)
    table = _pattern_table(blocks.shape[1])
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
    """The C(m, m/2) balanced +-1 patterns of a block of m, read-only.

    Row i is +1 at the i-th m/2-subset of range(m) in
    itertools.combinations order and -1 elsewhere; each row is one
    np.void of m int8 signs, so a gather moves a pattern whole.  The
    rows are written in place by Pascal's rule (_fill_subsets), and the
    build holds no array beside the table.  Built on first use, once per
    m and process: the sampler and the support enumeration gather from
    it through one _patterns_at.
    """
    h = m // 2
    signs = np.empty((math.comb(m, h), m), dtype=np.int8)
    _fill_subsets(signs, slice(0, signs.shape[0]), 0, h, {})
    table = signs.view(np.dtype((np.void, m)))[:, 0]
    table.setflags(write=False)
    return table


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

    Within a block of size n_B the off-diagonal entries are
    -1/(n_B - 1) (balanced exchangeable signs must have rows summing to
    zero over the block); across blocks they are 0.  For pb the matrix
    is the rank-one outer product w* w*'.  Only the checks use it; the
    grid never does.
    """
    _check_type("spec", spec, DesignSpec)
    if spec.kind == "pb":
        w = spec.w_star.signs.astype(float)
        sigma = np.outer(w, w)
    else:
        n_sub = spec.n_subjects
        members = spec.blocking.blocks()
        sigma = np.zeros((n_sub, n_sub))
        sigma[members[:, :, None], members[:, None, :]] = -1.0 / (members.shape[1] - 1)
        np.fill_diagonal(sigma, 1.0)
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


# Restarts descended together in one lockstep batch.  It bounds the
# (chunk, n, n) work array, which stays in cache at the preset 2n=96.
_RESTART_CHUNK = 32


def _objectives(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w'Gw of every row of w, bitwise float(row @ g @ row) for each row."""
    return np.matmul(np.matmul(w[:, None, :], g), w[:, :, None])[:, 0, 0]


def _descend_lockstep(g: np.ndarray, h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Greedy best-swap descent on obj(w) = w'Gw of every row of w at once.

    h is gd_i + gd_j - 2 g_ij (gd the diagonal of g).  Each step, every
    row still descending applies the swap (i treated, j control) with
    the lowest delta 4 (h_ij + (gw)_j - (gw)_i), the lowest treated i
    and then the lowest control j among exact minima on ties (the first
    in row-major (i, j) order), and stops once no swap lowers its
    objective by more than 1e-12 (1 + |obj|); rows that stop are
    dropped.  A row keeps its treated and control subjects in slots tr
    and ct, in any order, and the block hs[r, t, s] = h[tr[r, s],
    ct[r, t]]; a swap rewrites one row and one column of hs, so a step
    adds gw over an n x n block and takes the minimum over its control
    axis.  The arithmetic is a lone descent's, term by term, so every
    row ends where descending it alone would: gw is one gemv per row,
    and the 4.0 scale, a power of two, is exact and applied to the
    chosen delta only.  Descends the float rows of w in place and
    returns w.
    """
    n_sub = w.shape[1]
    n = n_sub // 2
    rows = np.arange(w.shape[0])
    obj = _objectives(g, w)
    # treated subjects in slots[:, :n], control ones in slots[:, n:]
    slots = np.argsort(-w, axis=1, kind="stable")
    tr, ct = slots[:, :n], slots[:, n:]
    # flat indices into h, all in range, so "clip" only skips the check
    hs = np.take(h, tr[:, None, :] * n_sub + ct[:, :, None], mode="clip")
    buf = np.empty_like(hs)
    for _ in range(100 * n_sub):
        if rows.size == 0:
            break
        k = rows.size
        at = np.arange(k)
        gw = np.matmul(g, w[rows][:, :, None])[:, :, 0]
        gws = np.take_along_axis(gw, slots, axis=1)
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
        go = best < -1e-12 * (1.0 + np.abs(obj))
        if not go.all():
            rows, slots, hs, obj = rows[go], slots[go], hs[go], obj[go]
            tr, ct = slots[:, :n], slots[:, n:]
            at, s, t, best = at[: rows.size], s[go], t[go], best[go]
        i, j = tr[at, s], ct[at, t]
        w[rows, i] = -1.0
        w[rows, j] = 1.0
        obj += best
        tr[at, s], ct[at, t] = j, i
        hs[at, t] = h[tr, i[:, None]]
        hs[at, :, s] = h[j[:, None], ct]
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
    scan order), for at most 100 * 2n steps.  The winner is the lowest
    final objective, earliest restart on ties.  The descents run in
    lockstep batches of restarts, the streams.slices of _RESTART_CHUNK,
    each batch spawning its own sub-streams in turn, which changes no
    restart's start, path or tie-breaks.  A batch's start and final
    objectives come from one batched product, bitwise w'gw of each row;
    the batch's first minimum replaces the winner only if it is strictly
    lower, so the earliest restart still wins a tie.
    """
    _check_type("x", x, CovariateMatrix)
    _check_int("restarts", restarts, 1)
    n_sub, n = x.n_subjects, x.n_pairs
    g, h = mahalanobis_gram(x.values)
    best_w, best_obj = None, np.inf
    for batch in slices(restarts, _RESTART_CHUNK):
        children = rng.spawn(batch.stop - batch.start)
        chunk = np.full((len(children), n_sub), -1.0)
        for r, child in enumerate(children):
            chunk[r, child.permutation(n_sub)[:n]] = 1.0
        objs = _objectives(g, _descend_lockstep(g, h, chunk))
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_w, best_obj = chunk[k], objs[k]
    return Allocation(best_w.astype(np.int8))
