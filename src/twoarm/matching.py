"""Pairing subjects by covariate similarity.

The pairwise-matching design needs a partition of the 2n subjects into
n pairs with small within-pair covariate distance.  This module
provides the Mahalanobis distance matrix (the metric of
designs.mahalanobis_gram, which the pb search shares) and the one exact
minimum-cost matcher, Edmonds' blossom algorithm on the complete graph,
in Galil's primal-dual form.  The matcher is a port of Joris van
Rantwijk's maximum-weight matching code onto integer-indexed lists,
kept to the code's visiting order so that it returns the same pairing
as the reference it was ported from, ties included
(tests/util_oracles.py holds that reference, and the tests compare the
two).  It needs numpy only.  With a single covariate the grid needs no
graph: the minimum-cost pairing is the sorted blocking with B = n
(designs.build_blocking), which pairs neighbours in stable-sorted
order.  The suboptimal rank-interval grid matcher and its within-pair
gap diagnostic, which only the checks use, live in twoarm.criteria.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import Blocking, CovariateMatrix, _check_type, _frozen
from .designs import mahalanobis_gram

@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric non-negative pairwise distances, zero diagonal: values
    is (d + d') / 2 of the accepted d, with its diagonal set to exactly 0."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen("distances", self.values, 2)
        if arr.shape[0] != arr.shape[1]:
            raise ValueError("distances must form a square matrix")
        if not np.allclose(arr, arr.T, rtol=0, atol=1e-9):
            raise ValueError("distances must be symmetric")
        if (arr < 0).any():
            raise ValueError("distances must be >= 0")
        if not np.allclose(np.diag(arr), 0.0, rtol=0, atol=1e-12):
            raise ValueError("self-distances must be 0")
        arr = (arr + arr.T) / 2.0
        np.fill_diagonal(arr, 0.0)
        arr.setflags(write=False)
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

    The h of designs.mahalanobis_gram, the metric the pb search uses,
    made exactly symmetric and clipped at 0.
    """
    _check_type("x", x, CovariateMatrix)
    _, h = mahalanobis_gram(x.values)
    return DistanceMatrix(np.maximum((h + h.T) / 2.0, 0.0))


def _pair_cost(pairs, d: np.ndarray) -> float:
    return float(sum(d[i, j] for i, j in pairs))


def _max_weight_mate(weight: np.ndarray) -> list[int]:
    """Partner of each vertex in a maximum-weight maximum-cardinality matching.

    Van Rantwijk's blossom code, in the revision the tests' reference
    matcher calls, restricted to the one path the grid uses: maximum
    cardinality with float weights (no all-integer arithmetic, no
    optimum verification, no delta1 stop).  It returns as soon as a
    stage finds no delta, without the last dual update, which only the
    optimum verification read.  `weight` is a dense
    symmetric matrix over the complete graph; its diagonal is ignored.
    Vertices are 0..N-1 and non-trivial blossoms take ids N..2N-1.  The
    visiting order is the reference's on a graph whose nodes and
    neighbour lists ascend: vertices and neighbours in index order,
    blossoms in creation order (the insertion order of `blossomdual`),
    so ties resolve the same way.  Slacks and vertex duals are doubled,
    as in the original, and the names follow it.
    """
    nv = len(weight)
    w2 = (2.0 * weight).tolist()
    maxweight = float(weight[~np.eye(nv, dtype=bool)].max())
    mate = [-1] * nv
    label = [0] * (2 * nv)  # 0 free, 1 S, 2 T, 5 S with a breadcrumb
    labeledge = [None] * (2 * nv)
    inblossom = list(range(nv))
    blossomparent = [-1] * (2 * nv)
    blossombase = list(range(nv)) + [-1] * nv
    childs = [None] * (2 * nv)
    edges = [None] * (2 * nv)
    mybestedges = [None] * (2 * nv)
    bestedge = [None] * (2 * nv)
    dualvar = [maxweight] * nv
    blossomdual = {}  # live blossoms, in creation order
    unused = list(range(2 * nv - 1, nv - 1, -1))
    allowedge = bytearray(nv * nv)
    queue = []

    def slack(v, w):
        return dualvar[v] + dualvar[w] - w2[v][w]

    def leaves(b):
        out, stack = [], list(childs[b])
        while stack:
            t = stack.pop()
            if t >= nv:
                stack.extend(childs[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        b = inblossom[w]
        label[w] = label[b] = t
        labeledge[w] = labeledge[b] = None if v is None else (v, w)
        bestedge[w] = bestedge[b] = None
        if t == 1:
            if b >= nv:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        else:
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        path, base = [], -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                v = -1
            else:
                v = labeledge[inblossom[labeledge[b][0]]][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        bb, bv, bw = inblossom[base], inblossom[v], inblossom[w]
        b = unused.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        childs[b] = path = []
        edges[b] = edgs = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            w = labeledge[bw][0]
            bw = inblossom[w]
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        bestedgeto = {}
        for bv in path:
            if bv >= nv and mybestedges[bv] is not None:
                nblist = mybestedges[bv]
                mybestedges[bv] = None
            else:
                members = leaves(bv) if bv >= nv else [bv]
                nblist = [(i, j) for i in members for j in range(nv) if i != j]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        # min keeps the first of equal slacks, as a strict "<" scan does
        bestedge[b] = min(mybestedges[b], key=lambda k: slack(*k), default=None)

    def walk(step, b, arg):
        # step(b, arg) depth first without recursion: each (b', arg') that a
        # step yields runs step(b', arg') to its end before that step resumes.
        stack = [step(b, arg)]
        while stack:
            for sub in stack[-1]:
                stack.append(step(*sub))
                break
            else:
                stack.pop()

    def expand_blossom(b, endstage):
        for s in childs[b]:
            blossomparent[s] = -1
            if s >= nv:
                if endstage and blossomdual[s] == 0:
                    yield s, endstage
                else:
                    for v in leaves(s):
                        inblossom[v] = s
            else:
                inblossom[s] = s
        if not endstage and label[b] == 2:
            relabel(b)
        label[b] = 0
        labeledge[b] = bestedge[b] = None
        del blossomdual[b]
        unused.append(b)

    def relabel(b):
        # An expanding T-blossom hands its labels on to its sub-blossoms.
        sub, edg = childs[b], edges[b]
        entrychild = inblossom[labeledge[b][1]]
        j = sub.index(entrychild)
        if j & 1:
            j -= len(sub)
            jstep = 1
        else:
            jstep = -1
        v, w = labeledge[b]
        while j != 0:
            if jstep == 1:
                p, q = edg[j]
            else:
                q, p = edg[j - 1]
            label[w] = label[q] = 0
            assign_label(w, 2, v)
            allowedge[p * nv + q] = allowedge[q * nv + p] = 1
            j += jstep
            if jstep == 1:
                v, w = edg[j]
            else:
                w, v = edg[j - 1]
            allowedge[v * nv + w] = allowedge[w * nv + v] = 1
            j += jstep
        bw = sub[j]
        label[w] = label[bw] = 2
        labeledge[w] = labeledge[bw] = (v, w)
        bestedge[bw] = None
        j += jstep
        while sub[j] != entrychild:
            bv = sub[j]
            j += jstep
            if label[bv] == 1:
                continue
            if bv >= nv:
                for v in leaves(bv):
                    if label[v]:
                        break
            else:
                v = bv
            if label[v]:
                label[v] = label[mate[blossombase[bv]]] = 0
                assign_label(v, 2, labeledge[v][0])

    def augment_blossom(b, v):
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nv:
            yield t, v
        sub, edg = childs[b], edges[b]
        i = j = sub.index(t)
        if i & 1:
            j -= len(sub)
            jstep = 1
        else:
            jstep = -1
        while j != 0:
            j += jstep
            t = sub[j]
            if jstep == 1:
                w, x = edg[j]
            else:
                x, w = edg[j - 1]
            if t >= nv:
                yield t, w
            j += jstep
            t = sub[j]
            if t >= nv:
                yield t, x
            mate[w] = x
            mate[x] = w
        childs[b] = sub[i:] + sub[:i]
        edges[b] = edg[i:] + edg[:i]
        blossombase[b] = blossombase[childs[b][0]]

    def augment_matching(v, w):
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= nv:
                    walk(augment_blossom, bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= nv:
                    walk(augment_blossom, bt, j)
                mate[j] = s

    while True:
        # A stage: label from the single vertices until a path augments.
        label[:] = [0] * (2 * nv)
        labeledge[:] = bestedge[:] = [None] * (2 * nv)
        for b in blossomdual:
            mybestedges[b] = None
        allowedge[:] = bytes(nv * nv)
        queue.clear()
        for v in range(nv):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, None)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                row, dv, w2v = v * nv, dualvar[v], w2[v]
                for w in range(nv):
                    bv, bw = inblossom[v], inblossom[w]
                    if bv == bw:
                        continue
                    if not allowedge[row + w]:
                        kslack = dv + dualvar[w] - w2v[w]
                        if kslack <= 0:
                            allowedge[row + w] = allowedge[w * nv + v] = 1
                    if allowedge[row + w]:
                        if label[bw] == 0:
                            assign_label(w, 2, v)
                        elif label[bw] == 1:
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        best = bestedge[bv]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                        ):
                            bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        best = bestedge[w]
                        if best is None or kslack < (
                            dualvar[best[0]] + dualvar[best[1]] - w2[best[0]][best[1]]
                        ):
                            bestedge[w] = (v, w)
            if augmented:
                break
            # No augmenting path under these duals: take the least delta.
            deltatype, delta, deltaedge, deltablossom = -1, None, None, None
            for v in range(nv):
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        deltatype, delta, deltaedge = 2, d, bestedge[v]
            for b in itertools.chain(range(nv), blossomdual):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    d = slack(*bestedge[b]) / 2.0
                    if deltatype == -1 or d < delta:
                        deltatype, delta, deltaedge = 3, d, bestedge[b]
            for b, z in blossomdual.items():
                if blossomparent[b] == -1 and label[b] == 2 and (deltatype == -1 or z < delta):
                    deltatype, delta, deltablossom = 4, z, b
            if deltatype == -1:
                # no augmenting path is left: the matching is maximum
                return mate
            for v in range(nv):
                lb = label[inblossom[v]]
                if lb == 1:
                    dualvar[v] -= delta
                elif lb == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta
            if deltatype == 4:
                walk(expand_blossom, deltablossom, False)
            else:
                v, w = deltaedge
                allowedge[v * nv + w] = allowedge[w * nv + v] = 1
                queue.append(v)
        for b in list(blossomdual):
            if (
                b in blossomdual
                and blossomparent[b] == -1
                and label[b] == 1
                and blossomdual[b] == 0
            ):
                walk(expand_blossom, b, True)


def match_heuristic(d: DistanceMatrix) -> MatchResult:
    """Minimum-cost perfect matching of the subjects.

    Runs the blossom algorithm on the complete distance graph, which
    minimizes the total within-pair cost in polynomial time: a
    maximum-cardinality matching of maximum total weight, with weights
    (1 + max d) - d_ij, symmetric because d is.  Those weights and
    the visiting order are the reference matcher's in
    tests/util_oracles.py, so the pairing equals it, ties included.
    Deterministic for a given distance matrix.
    """
    _check_type("d", d, DistanceMatrix)
    if d.n_subjects < 2 or d.n_subjects % 2:
        raise ValueError(
            f"matching needs an even subject count >= 2, got {d.n_subjects}"
        )
    dist = d.values
    weight = (1.0 + float(dist.max())) - dist
    mate = _max_weight_mate(weight)
    tuples = [(i, j) for i, j in enumerate(mate) if i < j]
    return MatchResult(Blocking.from_pairs(tuples), _pair_cost(tuples, dist))
