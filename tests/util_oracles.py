"""Independent brute-force oracles shared by the test modules.

Everything here enumerates exhaustively and naively on purpose: these
functions are the ground truth the library is checked against, so they
avoid the library's own code paths.  The bitmask matcher returns the
library's result types only so that tests can swap it for the blossom
matcher.  The networkx matcher is the call that the package's own
blossom port replaced, kept as the oracle the port must equal pair for
pair.
The reference pb search is the one-restart-at-a-time loop
that the lockstep production search must reproduce bit for bit, and
the reference bootstrap is the one-resample-at-a-time loop that the
block-wise bootstrap must reproduce bit for bit; with approx_q95_rows,
the row-wise normal approximation that the grid once resampled, it is
the resampling oracle of the delta-method approx_q95 interval, whose
standard error delta_se_reference writes from the sample's central
moments.  The binomial tail, summed term by term, gives the ranks of
the exact bootstrap interval of the empirical quantile.  The
reference chunk loop forms every outcome chunk's contrast from
separate arrays, w * (y_t + y_c), with each arm one whole numpy draw
(the continuous draw one rng.normal(mu, 1.0) call, the proportion
draw one rng.beta call, the incidence and count draws written out)
and each design block's allocations drawn whole; the production loop,
which draws the control arm and the allocations in row blocks, must
reproduce it bit for bit.
The reference sorted blocking re-sorts each covariate-1 super-group by
covariate 2 in its own loop step; the one stable lexsort of the
production blocking must give the same blocks.
"""

from __future__ import annotations

import itertools
import math

import networkx as nx
import numpy as np

from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.designs import regularized_covariance
from twoarm.matching import DistanceMatrix, MatchResult
from twoarm.montecarlo import C_95
from twoarm.response import PROPORTION_PHI, SURVIVAL_SHAPE, potential_means
from twoarm.streams import BLOCK_ELEMENTS, CHUNK_SIZE, chunk_sizes, substream

# Largest 2n the exact bitmask DP accepts.
EXACT_CAPACITY = 12

# Draw counts that the row-block samplers must match the whole draws at,
# for rows of 2n = 96: none, one row, one row below, at and above the
# first row-block boundary, and a full chunk.
_EDGE = BLOCK_ELEMENTS // 96
ROW_BLOCK_DRAWS = (0, 1, _EDGE - 1, _EDGE, _EDGE + 1, CHUNK_SIZE)


class CapacityError(ValueError):
    """Raised when a sample is too large for the exact matcher."""


def balanced_allocations(n_subjects: int) -> np.ndarray:
    """All sign vectors with exactly half +1, as an (S, 2n) float array."""
    n = n_subjects // 2
    rows = []
    for treated in itertools.combinations(range(n_subjects), n):
        w = -np.ones(n_subjects)
        w[list(treated)] = 1.0
        rows.append(w)
    return np.array(rows)


def block_allocations(block_ids) -> np.ndarray:
    """All allocations balanced inside every block of a partition."""
    block_ids = np.asarray(block_ids)
    n_subjects = block_ids.shape[0]
    per_block = []
    for b in sorted(set(int(i) for i in block_ids)):
        members = np.flatnonzero(block_ids == b)
        m = members.shape[0]
        options = []
        for treated in itertools.combinations(range(m), m // 2):
            w = -np.ones(m)
            w[list(treated)] = 1.0
            options.append((members, w))
        per_block.append(options)
    rows = []
    for combo in itertools.product(*per_block):
        w = np.empty(n_subjects)
        for members, signs in combo:
            w[members] = signs
        rows.append(w)
    return np.array(rows)


def build_blocking_reference(values: np.ndarray, n_blocks: int) -> np.ndarray:
    """block_of of the sorted-covariate blocking, one super-group at a time.

    Stable sort by covariate 1; with a second covariate and B >= 2, each
    run of 2 n_B consecutive subjects (the last one shorter when B is
    odd) is stable-sorted by covariate 2; the order is cut into blocks.
    """
    n_sub = values.shape[0]
    size = n_sub // n_blocks
    order = np.argsort(values[:, 0], kind="stable")
    if values.shape[1] >= 2 and n_blocks >= 2:
        for start in range(0, n_sub, 2 * size):
            seg = order[start : start + 2 * size]
            order[start : start + seg.shape[0]] = seg[
                np.argsort(values[seg, 1], kind="stable")
            ]
    block_of = np.empty(n_sub, dtype=np.int64)
    block_of[order] = np.arange(n_sub) // size
    return block_of


def sign_patterns(n: int) -> np.ndarray:
    """All 2^n vectors of +-1."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=n)))


def all_pairings(indices: list[int]):
    """Yield every perfect pairing of the given indices."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for sub in all_pairings(remaining):
            yield [(first, partner)] + sub


def pairing_arrays(n_subjects: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairings as (P, n) index arrays (first member, second member)."""
    firsts, seconds = [], []
    for pairing in all_pairings(list(range(n_subjects))):
        firsts.append([a for a, _ in pairing])
        seconds.append([b for _, b in pairing])
    return np.array(firsts), np.array(seconds)


def brute_force_matching_cost(dist: np.ndarray) -> float:
    """Minimum total within-pair distance over all pairings."""
    best = np.inf
    for pairing in all_pairings(list(range(dist.shape[0]))):
        cost = sum(dist[a, b] for a, b in pairing)
        if cost < best:
            best = cost
    return float(best)


def match_networkx_reference(d: DistanceMatrix) -> MatchResult:
    """Minimum-cost perfect matching by networkx's blossom code.

    Calls nx.max_weight_matching on exactly the graph that
    nx.min_weight_matching builds (the same inverted weights, the same
    edge order), so it returns the pairing that function returns.
    """
    if d.n_subjects < 2 or d.n_subjects % 2:
        raise ValueError(
            f"matching needs an even subject count >= 2, got {d.n_subjects}"
        )

    class _AdjacencyGraph(nx.Graph):
        # max_weight_matching reads G[v][w] in its inner slack() loop, where
        # the read-only view that nx.Graph returns costs more than the lookup.
        def __getitem__(self, n):
            return self._adj[n]

    dist = d.values
    first, second = np.triu_indices(d.n_subjects, 1)
    weights = dist[first, second]
    top = 1.0 + float(weights.max())
    graph = _AdjacencyGraph()
    graph.add_weighted_edges_from(
        zip(first.tolist(), second.tolist(), (top - weights).tolist())
    )
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    tuples = sorted(tuple(sorted(edge)) for edge in mate)
    cost = float(sum(dist[i, j] for i, j in tuples))
    return MatchResult(Blocking.from_pairs(tuples), cost)


def match_exact(d: DistanceMatrix) -> MatchResult:
    """Minimum total-cost perfect matching by exhaustive bitmask DP.

    Only for 2n <= EXACT_CAPACITY; larger samples should use
    match_heuristic.  Ties are broken toward the lexicographically
    smallest pairing.
    """
    n_sub = d.n_subjects
    if n_sub > EXACT_CAPACITY:
        raise CapacityError(
            f"exact matching supports 2n <= {EXACT_CAPACITY}, got {n_sub}; "
            "use match_heuristic"
        )
    dist = d.values
    full = (1 << n_sub) - 1
    dp = np.full(full + 1, np.inf)
    dp[0] = 0.0
    for mask in range(3, full + 1):
        if bin(mask).count("1") % 2:
            continue
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        best = np.inf
        j_bits = rest
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            cand = dp[rest ^ (1 << j)] + dist[i, j]
            if cand < best:
                best = cand
        dp[mask] = best
    # reconstruct, smallest partner first among exact minima
    pairs = []
    mask = full
    while mask:
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        j_bits = rest
        while j_bits:
            j = (j_bits & -j_bits).bit_length() - 1
            j_bits &= j_bits - 1
            if dp[rest ^ (1 << j)] + dist[i, j] == dp[mask]:
                pairs.append((i, j))
                mask = rest ^ (1 << j)
                break
        else:
            raise AssertionError("matching reconstruction failed")
    cost = float(sum(dist[i, j] for i, j in pairs))
    return MatchResult(Blocking.from_pairs(pairs), cost)


def descend_reference(g: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Greedy best-swap descent on obj(w) = w'Gw; returns w and the trace."""
    n_sub = w.shape[0]
    gd = np.diag(g)
    obj = float(w @ g @ w)
    trace = [obj]
    for _ in range(100 * n_sub):
        gw = g @ w
        tr = np.flatnonzero(w == 1)
        ct = np.flatnonzero(w == -1)
        # swap (i in treated, j in control): delta objective below
        delta = 4.0 * (
            gd[tr][:, None]
            + gd[ct][None, :]
            - 2.0 * g[np.ix_(tr, ct)]
            + gw[ct][None, :]
            - gw[tr][:, None]
        )
        k = int(np.argmin(delta))
        best = float(delta.flat[k])
        if best >= -1e-12 * (1.0 + abs(obj)):
            break
        i = tr[k // ct.shape[0]]
        j = ct[k % ct.shape[0]]
        w = w.copy()
        w[i] = -1
        w[j] = 1
        obj += best
        trace.append(obj)
    return w, trace


def greedy_pair_switch_reference(
    x: CovariateMatrix, restarts: int, rng: np.random.Generator
) -> Allocation:
    """The pb search with one descent per restart, in restart order."""
    vals = x.values
    n_sub, n = x.n_subjects, x.n_pairs
    m = np.linalg.inv(regularized_covariance(vals))
    g = vals @ m @ vals.T
    best_w, best_obj = None, np.inf
    for child in rng.spawn(restarts):
        w0 = np.full(n_sub, -1, dtype=np.int8)
        w0[child.permutation(n_sub)[:n]] = 1
        w, _ = descend_reference(g, w0.astype(float))
        obj = float(w @ g @ w)
        if obj < best_obj:
            best_w, best_obj = w, obj
    return Allocation(best_w.astype(np.int8))


def bootstrap_statistics_reference(
    samples: np.ndarray,
    statistic,
    n_resamples: int,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """The statistic of each of n_resamples resamples, one index draw and
    one 1-D statistic per resample."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    stats = np.empty(n_resamples)
    for r in range(n_resamples):
        stats[r] = statistic(samples[rng.integers(0, n, n)])
    return stats


def bootstrap_ci_reference(
    samples: np.ndarray,
    statistic,
    n_resamples: int,
    *,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """95% percentile bootstrap, one index draw and one 1-D statistic per resample."""
    stats = bootstrap_statistics_reference(samples, statistic, n_resamples, rng=rng)
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def approx_q95_rows(v: np.ndarray) -> np.ndarray:
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


def delta_se_reference(samples) -> float:
    """Delta-method standard error of mean + C_95 * sd, from the central
    moment sums S_k = sum (x_i - m)^k in plain Python.

    With s^2 = S_2 / (N - 1), the influence values
    psi_i = d_i + C_95 (d_i^2 - s^2) / (2 s) have the sample variance
    (S_2 + C_95 S_3 / s + C_95^2 (S_4 - S_2^2 / N) / (4 s^2)) / (N - 1),
    since sum d_i = 0; the standard error is its root over sqrt(N).
    """
    xs = [float(x) for x in samples]
    n = len(xs)
    m = math.fsum(xs) / n
    d = [x - m for x in xs]
    s2_sum, s3_sum, s4_sum = (math.fsum(v ** k for v in d) for k in (2, 3, 4))
    s = math.sqrt(s2_sum / (n - 1))
    if s == 0.0:
        return 0.0
    var = (
        s2_sum + C_95 * s3_sum / s
        + C_95 ** 2 * (s4_sum - s2_sum ** 2 / n) / (4.0 * s * s)
    ) / (n - 1)
    return math.sqrt(var / n)


def binomial_tail_reference(n: int, p: float, k: int) -> float:
    """P(Bin(n, p) >= k) for k >= 1, the pmf summed term by term in
    plain Python."""
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return math.fsum(
        math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log(1.0 - p)
        )
        for i in range(k, n + 1)
    )


def exact_bootstrap_rank_reference(n: int, level: float) -> int:
    """The smallest rank j at which the bootstrap law of the
    ceil(0.95 n)-th order statistic of n values reaches level:
    P(Bin(n, j / n) >= k) >= level, found by walking j one step at a
    time from k."""
    k = math.ceil(0.95 * n)
    j = k
    while binomial_tail_reference(n, j / n, k) < level:
        j += 1
    while j > 1 and binomial_tail_reference(n, (j - 1) / n, k) >= level:
        j -= 1
    return j


def draw_outcomes_reference(model, mu, rng, n_draws: int) -> np.ndarray:
    """draw_outcomes written out per response type, each one whole
    draw: the continuous draw as one rng.normal(mu, 1.0) call, the
    incidence draw as a 0/1 choice on uniforms, the count draw as one
    rng.poisson(mu, size) call, the survival draw as scale * weibull
    and the proportion draw as one rng.beta call."""
    size = (n_draws,) + mu.shape
    if model.kind == "continuous":
        return rng.normal(mu, 1.0, size)
    if model.kind == "incidence":
        return np.where(rng.random(size) < mu, 1.0, 0.0)
    if model.kind == "count":
        return rng.poisson(mu, size).astype(float)
    if model.kind == "survival":
        scale = mu / math.gamma(1.0 + 1.0 / SURVIVAL_SHAPE)
        return scale * rng.weibull(SURVIVAL_SHAPE, size)
    return rng.beta(PROPORTION_PHI * mu, PROPORTION_PHI * (1.0 - mu), size)


def sample_allocations_reference(spec, n_draws: int, rng) -> np.ndarray:
    """sample_allocations with each design block's (n_draws, n_B)
    uniforms, argsort and signs taken whole, one block after another."""
    if spec.kind == "pb":
        coin = rng.integers(0, 2, size=n_draws).astype(np.int8) * 2 - 1
        return coin[:, None] * spec.w_star.signs[None, :]
    out = np.empty((n_draws, spec.n_subjects), dtype=np.int8)
    for members in spec.blocking.blocks():
        m = members.shape[0]
        order = np.argsort(rng.random((n_draws, m)), axis=1)
        buf = np.full((n_draws, m), -1, dtype=np.int8)
        np.put_along_axis(buf, order[:, : m // 2], 1, axis=1)
        out[:, members] = buf
    return out


def simulate_squared_errors_reference(cfg) -> np.ndarray:
    """Every replicate squared error of a cell, each chunk's contrast
    w * (y_t + y_c) built from separate arrays on the production streams."""
    mu_t, mu_c = potential_means(cfg.model, cfg.x)
    n = cfg.x.n_pairs
    out = []
    for ci, size in enumerate(chunk_sizes(cfg.n_reps)):
        rng_y = substream(cfg.master_seed, cfg.cell_id, "outcomes", ci)
        rng_w = substream(cfg.master_seed, cfg.cell_id, "alloc", ci)
        y_t = draw_outcomes_reference(cfg.model, mu_t, rng_y, size)
        y_c = draw_outcomes_reference(cfg.model, mu_c, rng_y, size)
        w = sample_allocations_reference(cfg.design, size, rng_w)
        out.append(np.square((w * (y_t + y_c)).sum(axis=1) / (2.0 * n)))
    return np.concatenate(out)


def squared_errors_over(allocs: np.ndarray, y_t, y_c) -> np.ndarray:
    """(tau_hat - tau)^2 for every allocation, computed the long way."""
    y_t = np.asarray(y_t, dtype=float)
    y_c = np.asarray(y_c, dtype=float)
    n = y_t.shape[0] // 2
    tau = float(np.mean(y_t - y_c))
    out = np.empty(allocs.shape[0])
    for r, w in enumerate(allocs):
        treated = w > 0
        tau_hat = (y_t[treated].sum() - y_c[~treated].sum()) / n
        out[r] = (tau_hat - tau) ** 2
    return out


def spearman(xs, ys) -> float:
    """Spearman rank correlation without external dependencies."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs))
    ry = np.argsort(np.argsort(ys))
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))
