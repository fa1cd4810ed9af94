"""Pairing subjects by covariate similarity.

The pairwise-matching design needs a partition of the 2n subjects into
n pairs with small within-pair covariate distance.  This module
provides the Mahalanobis distance matrix and the one exact minimum-cost
matcher, Edmonds' blossom algorithm on the complete graph.  It calls
networkx's maximum-weight matching on exactly the graph that
nx.min_weight_matching builds (the same inverted weights, the same
edge order), so it returns the pairing that function returns.
networkx is imported inside the matcher, so only a process that builds
a blossom matching loads it.  With a single covariate the grid needs no
graph: the minimum-cost pairing is the sorted blocking with B = n
(designs.build_blocking), which pairs neighbours in stable-sorted
order.  The suboptimal rank-interval grid matcher and its within-pair
gap diagnostic, which only the checks use, live in twoarm.verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Blocking, CovariateMatrix, _frozen
from .designs import regularized_covariance

@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative pairwise distances, zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distances must form a square matrix")
        if not np.isfinite(arr).all():
            raise ValueError("distances must be finite")
        if not np.allclose(arr, arr.T, rtol=0, atol=1e-9):
            raise ValueError("distances must be symmetric")
        if (arr < 0).any():
            raise ValueError("distances must be >= 0")
        if not np.allclose(np.diag(arr), 0.0, rtol=0, atol=1e-12):
            raise ValueError("self-distances must be 0")
        object.__setattr__(self, "values", arr)

    @property
    def n_subjects(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class MatchResult:
    """A pairing with its total within-pair cost."""

    pairing: Blocking
    cost: float


def mahalanobis_distances(x: CovariateMatrix) -> DistanceMatrix:
    """All pairwise (x_i - x_j)' S^-1 (x_i - x_j) distances.

    S is the unbiased sample covariance of the covariates, ridged only
    if near-singular (see designs.regularized_covariance).
    """
    vals = x.values
    m = np.linalg.inv(regularized_covariance(vals))
    xm = vals @ m
    sq = np.einsum("ij,ij->i", xm, vals)
    d = sq[:, None] + sq[None, :] - 2.0 * (xm @ vals.T)
    d = np.maximum((d + d.T) / 2.0, 0.0)
    np.fill_diagonal(d, 0.0)
    return DistanceMatrix(d)


def _pair_cost(pairs, d: np.ndarray) -> float:
    return float(sum(d[i, j] for i, j in pairs))


def match_heuristic(d: DistanceMatrix) -> MatchResult:
    """Minimum-cost perfect matching of the subjects.

    Runs the blossom algorithm on the complete distance graph, which
    minimizes the total within-pair cost in polynomial time.  The graph
    and weights are those of nx.min_weight_matching: edges (i, j), i < j,
    in row-major order, weighted (1 + max d) - d_ij and matched at
    maximum cardinality.  Deterministic for a given distance matrix.
    """
    if d.n_subjects < 2 or d.n_subjects % 2:
        raise ValueError(
            f"matching needs an even subject count >= 2, got {d.n_subjects}"
        )
    import networkx as nx  # loaded here: no other grid path needs it

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
    return MatchResult(Blocking.from_pairs(tuples), _pair_cost(tuples, dist))
