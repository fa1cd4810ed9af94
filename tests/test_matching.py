import networkx as nx
import numpy as np
import pytest

import twoarm.cli as cli
from twoarm.cli import build_grid
from twoarm.core import Blocking, CovariateMatrix
from twoarm.criteria import match_grid, pair_gap_diagnostic
from twoarm.matching import DistanceMatrix, mahalanobis_distances, match_heuristic
from twoarm.response import (
    default_covariate_source,
    default_model,
    draw_covariates,
    potential_means,
)
from twoarm.streams import substream

from util_oracles import (
    EXACT_CAPACITY,
    CapacityError,
    brute_force_matching_cost,
    match_exact,
    match_networkx_reference,
)


def _random_distances(n_subjects: int, seed: int) -> DistanceMatrix:
    x = CovariateMatrix(np.random.default_rng(seed).normal(size=(n_subjects, 2)))
    return mahalanobis_distances(x)


def _oracle_inputs(p: int):
    """Distance matrices on which the blossom port must equal networkx.

    Uniform and exponential covariates at 2n = 4..64; tie-heavy inputs
    (all-zero and integer-valued distances, duplicated covariate rows, a
    constant covariate), where the port must break ties as networkx does;
    the fig2_design benchmark's covariate panels at this p, 2n = 96,
    seed 101; and three integer matrices at 2n = 20 whose relabelling
    scans a sub-blossom's leaves for a labelled one (at the third, the
    port pairs differently from networkx unless that scan stops at the
    first labelled leaf).
    """
    for n_subjects in (4, 6, 10, 16, 24, 40, 64):
        for seed in range(3):
            rng = np.random.default_rng([p, n_subjects, seed])
            for draw in (rng.uniform, rng.exponential):
                yield mahalanobis_distances(CovariateMatrix(draw(size=(n_subjects, p))))
    for n_subjects in (4, 6, 8, 10, 12, 16, 32):
        yield DistanceMatrix(np.zeros((n_subjects, n_subjects)))
        # thirty draws each, with maxima 3 to 5, because a tie-break that
        # decides the pairing is rare: reversing the tie order of one of
        # the port's least-slack or least-dual choices changes a few of
        # these 630 pairings at most
        for seed in range(30):
            rng = np.random.default_rng([p, n_subjects, seed, 1])
            top = 4 + seed % 3
            upper = np.triu(rng.integers(0, top, (n_subjects, n_subjects)), 1)
            yield DistanceMatrix((upper + upper.T).astype(float))
        for seed in range(2):
            rng = np.random.default_rng([p, n_subjects, seed, 2])
            rows = rng.uniform(size=(n_subjects // 2, p))
            yield mahalanobis_distances(CovariateMatrix(np.repeat(rows, 2, axis=0)))
            vals = rng.uniform(size=(n_subjects, p))
            vals[:, 1] = 1.0
            yield mahalanobis_distances(CovariateMatrix(vals))
    for response in ("continuous", "survival") if p in (2, 5) else ():
        source = default_covariate_source(response, "uniform")
        rng = substream(101, "covariates", "uniform", response, p)
        yield mahalanobis_distances(draw_covariates(source, 96, p, rng))
    for seed in (1228, 3127, 3528):
        upper = np.triu(np.random.default_rng(seed).integers(0, 10, (20, 20)), 1)
        yield DistanceMatrix((upper + upper.T).astype(float))


class TestDistanceMatrix:
    def test_mahalanobis_single_covariate_example(self):
        x = CovariateMatrix([[0.0], [1.0], [2.0], [3.0]])
        d = mahalanobis_distances(x)
        # sample variance 5/3, so d(0, 3) = 9 / (5/3) = 5.4
        assert d.values[0, 3] == pytest.approx(5.4, rel=1e-12)
        assert d.values[1, 2] == pytest.approx(0.6, rel=1e-12)

    def test_symmetric_zero_diagonal_nonnegative(self):
        d = _random_distances(10, 0)
        np.testing.assert_allclose(d.values, d.values.T, atol=0)
        np.testing.assert_array_equal(np.diag(d.values), 0.0)
        assert (d.values >= 0).all()

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        d = np.array([[0.0, bad, 1.0, 1.0], [bad, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="distances must be finite"):
            DistanceMatrix(d)

    def test_near_symmetric_input_is_stored_exactly_symmetric(self):
        # 1e-12 of asymmetry and of self-distance pass the checks; the
        # stored matrix is their exact average, with an exact zero diagonal
        given = _random_distances(24, 5).values + np.triu(np.full((24, 24), 1e-12))
        assert not (given == given.T).all()
        d = DistanceMatrix(given)
        want = (given + given.T) / 2.0
        np.fill_diagonal(want, 0.0)
        assert d.values.tobytes() == want.tobytes()
        assert (d.values == d.values.T).all()
        got, ref = match_heuristic(d), match_networkx_reference(d)
        assert got.pairing.pairs() == ref.pairing.pairs()
        assert got.cost == ref.cost

    def test_mahalanobis_distances_rejects_an_ndarray(self):
        # an ndarray x used to raise AttributeError on x.values
        with pytest.raises(ValueError, match="^x must be a CovariateMatrix, got ndarray$"):
            mahalanobis_distances(np.arange(4.0)[:, None])

    def test_duplicate_rows_distance_zero(self):
        x = CovariateMatrix(np.repeat([[1.0, 2.0], [3.0, 4.0]], 2, axis=0))
        d = mahalanobis_distances(x)
        assert d.values[0, 1] == pytest.approx(0.0, abs=1e-9)
        assert d.values[2, 3] == pytest.approx(0.0, abs=1e-9)


class TestMatchExact:
    def test_clustered_points_example(self):
        pts = np.array([0.0, 1.0, 10.0, 11.0])
        d = DistanceMatrix((pts[:, None] - pts[None, :]) ** 2)
        res = match_exact(d)
        assert res.pairing.pairs() == [(0, 1), (2, 3)]
        assert res.cost == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "match, n_subjects",
        [pytest.param(match_exact, n, id=f"{n}") for n in (4, 6, 8, 10)]
        + [pytest.param(match_heuristic, n, id=f"blossom-{n}") for n in (4, 6, 8, 10)],
    )
    def test_matches_brute_force(self, match, n_subjects):
        for seed in range(8):
            d = _random_distances(n_subjects, 100 * n_subjects + seed)
            res = match(d)
            want = brute_force_matching_cost(d.values)
            assert res.cost == pytest.approx(want, rel=1e-12)

    def test_lexicographic_tie_break(self):
        d = DistanceMatrix(np.zeros((6, 6)))
        res = match_exact(d)
        assert res.pairing.pairs() == [(0, 1), (2, 3), (4, 5)]

    def test_integer_tie_prefers_smallest_partner(self):
        # both pairings cost 2; (0,1),(2,3) is lexicographically first
        d = np.array(
            [
                [0.0, 1.0, 1.0, 9.0],
                [1.0, 0.0, 9.0, 1.0],
                [1.0, 9.0, 0.0, 1.0],
                [9.0, 1.0, 1.0, 0.0],
            ]
        )
        res = match_exact(DistanceMatrix(d))
        assert res.pairing.pairs() == [(0, 1), (2, 3)]

    def test_capacity_error_directs_to_heuristic(self):
        d = _random_distances(EXACT_CAPACITY + 2, 1)
        with pytest.raises(CapacityError, match="match_heuristic"):
            match_exact(d)


class TestMatchHeuristic:
    @pytest.mark.parametrize("n_subjects", [0, 1, 3, 5])
    def test_rejects_odd_or_too_few_subjects(self, n_subjects):
        d = DistanceMatrix(np.ones((n_subjects, n_subjects)) - np.eye(n_subjects))
        with pytest.raises(ValueError, match=f"got {n_subjects}$"):
            match_heuristic(d)

    def test_rejects_an_ndarray(self):
        # an ndarray d used to raise AttributeError on d.n_subjects
        with pytest.raises(ValueError, match="^d must be a DistanceMatrix, got ndarray$"):
            match_heuristic(np.ones((4, 4)) - np.eye(4))

    def test_never_better_than_exact_and_close(self):
        for seed in range(20):
            d = _random_distances(8, 300 + seed)
            exact = match_exact(d).cost
            heur = match_heuristic(d).cost
            assert heur >= exact - 1e-12
            assert heur <= 1.2 * exact + 1e-12

    def test_local_optimum_no_improving_exchange(self):
        d = _random_distances(20, 4)
        res = match_heuristic(d)
        pairs = res.pairing.pairs()
        dist = d.values
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                i1, j1 = pairs[a]
                i2, j2 = pairs[b]
                now = dist[i1, j1] + dist[i2, j2]
                assert dist[i1, i2] + dist[j1, j2] >= now - 1e-9
                assert dist[i1, j2] + dist[j1, i2] >= now - 1e-9

    def test_deterministic(self):
        d = _random_distances(30, 5)
        r1 = match_heuristic(d)
        r2 = match_heuristic(d)
        assert r1.pairing.pairs() == r2.pairing.pairs()
        assert r1.cost == r2.cost

    def test_cost_is_sum_over_pairs(self):
        d = _random_distances(12, 6)
        res = match_heuristic(d)
        total = sum(d.values[i, j] for i, j in res.pairing.pairs())
        assert res.cost == pytest.approx(total, rel=1e-12)


    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_same_pairing_as_networkx_min_weight_matching(self, p):
        for seed in range(4):
            vals = np.random.default_rng(40 + seed).uniform(-1, 1, (24, p))
            d = mahalanobis_distances(CovariateMatrix(vals))
            graph = nx.Graph()
            for i in range(24):
                for j in range(i + 1, 24):
                    graph.add_edge(i, j, weight=float(d.values[i, j]))
            want = sorted(tuple(sorted(e)) for e in nx.min_weight_matching(graph))
            assert match_networkx_reference(d).pairing.pairs() == want
            assert match_heuristic(d).pairing.pairs() == want
        for d in _oracle_inputs(p):
            got, want = match_heuristic(d), match_networkx_reference(d)
            assert got.pairing.pairs() == want.pairing.pairs()
            np.testing.assert_array_equal(got.pairing.block_of, want.pairing.block_of)
            assert got.cost == want.cost


def _grid_pm_at_one_covariate(x: CovariateMatrix) -> Blocking:
    """The pm pairing that the grid builds at p=1: sorted blocking, B = n."""
    grid = build_grid(
        {"seed": "0", "reps": "2", "n_subjects": str(x.n_subjects), "designs": "pm"}
    )
    return cli._build_design("pm", x.n_pairs, x, grid, "pm").blocking


def _cost(pairing: Blocking, d: DistanceMatrix) -> float:
    return sum(d.values[i, j] for i, j in pairing.pairs())


class TestMatchSorted:
    """At one covariate the grid's pm cell pairs stable-sorted neighbours,
    which is the minimum-cost matching."""

    @pytest.mark.parametrize("family", ["uniform", "exponential"])
    @pytest.mark.parametrize("n_subjects", [10, 40])
    def test_same_blocking_as_blossom_at_one_covariate(self, family, n_subjects):
        for resp in ("continuous", "count"):
            for seed in range(3):
                x = draw_covariates(
                    default_covariate_source(resp, family),
                    n_subjects, 1, substream(seed, "sorted", family, resp),
                )
                got = _grid_pm_at_one_covariate(x)
                d = mahalanobis_distances(x)
                want = match_heuristic(d)
                assert got.pairs() == want.pairing.pairs()
                np.testing.assert_array_equal(got.block_of, want.pairing.block_of)
                assert _cost(got, d) == pytest.approx(want.cost, rel=1e-12)

    @pytest.mark.parametrize("n_subjects", [4, 6, 8, 10])
    def test_agrees_with_exact(self, n_subjects):
        for seed in range(5):
            x = CovariateMatrix(
                np.random.default_rng(60 + seed).normal(size=(n_subjects, 1))
            )
            got = _grid_pm_at_one_covariate(x)
            d = mahalanobis_distances(x)
            want = match_exact(d)
            assert got.pairs() == want.pairing.pairs()
            assert _cost(got, d) == pytest.approx(want.cost, rel=1e-12, abs=1e-12)

    def test_stable_on_ties(self):
        x = CovariateMatrix([[1.0], [0.0], [1.0], [0.0]])
        assert _grid_pm_at_one_covariate(x).pairs() == [(0, 2), (1, 3)]


class TestMatchGrid:
    def test_interval_count_rule(self):
        # n=16, p=1 -> m = 4; ranks split into 4 intervals of 8
        x = CovariateMatrix(np.arange(32.0)[:, None])
        res = match_grid(x, substream(0, "grid"))
        pairs = res.pairing.pairs()
        assert len(pairs) == 16
        # members of a pair always share the rank interval of width 8
        for a, b in pairs:
            assert a // 8 == b // 8

    def test_all_subjects_paired_once(self):
        rng = np.random.default_rng(7)
        x = CovariateMatrix(rng.normal(size=(40, 3)))
        res = match_grid(x, substream(1, "grid"))
        seen = sorted(i for p in res.pairing.pairs() for i in p)
        assert seen == list(range(40))

    def test_odd_groups_spill_to_overflow(self):
        # n = 5 and m = 2 cut the ranks into two groups of 5; each sends
        # one member to the overflow group, whose pair crosses the groups
        x = CovariateMatrix(np.arange(10.0)[:, None])
        pairs = match_grid(x, substream(2, "grid")).pairing.pairs()
        assert sorted(i for pair in pairs for i in pair) == list(range(10))
        crossing = [(i, j) for i, j in pairs if (i < 5) != (j < 5)]
        assert crossing == [(4, 6)]

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(9)
        x = CovariateMatrix(rng.normal(size=(24, 2)))
        r1 = match_grid(x, substream(3, "grid"))
        r2 = match_grid(x, substream(3, "grid"))
        assert r1.pairing.pairs() == r2.pairing.pairs()

    def test_gap_diagnostic_shrinks_with_n(self):
        model = default_model("continuous", 1)
        diags = []
        for n_subjects in (32, 512):
            vals = []
            for seed in range(5):
                rng = substream(20, "diag", n_subjects, seed)
                x = CovariateMatrix(rng.uniform(-1, 1, (n_subjects, 1)))
                res = match_grid(x, substream(21, "diag", n_subjects, seed))
                mu_t, mu_c = potential_means(model, x)
                vals.append(pair_gap_diagnostic(res.pairing, mu_t + mu_c))
            diags.append(np.mean(vals))
        assert diags[1] < diags[0]


class TestCostOrdering:
    def test_exact_heuristic_grid_chain(self):
        # the three matchers never improve on the one to their left
        for seed in range(12):
            rng = substream(33, "chain", seed)
            x = CovariateMatrix(rng.normal(0.0, 1.0, (12, 2)))
            d = mahalanobis_distances(x)
            exact = match_exact(d)
            heur = match_heuristic(d)
            grid = match_grid(x, substream(33, "chain-grid", seed))
            grid_cost = sum(d.values[a, b] for a, b in grid.pairing.pairs())
            assert grid.cost == pytest.approx(grid_cost, rel=1e-12)
            assert exact.cost <= heur.cost + 1e-12
            assert heur.cost <= grid.cost + 1e-12


class TestPairGapDiagnostic:
    def test_hand_example(self):
        pairing = Blocking.from_pairs([(0, 1), (2, 3)])
        assert pair_gap_diagnostic(pairing, [0.0, 1.0, 5.0, 5.0]) == pytest.approx(0.5)

    def test_zero_for_duplicate_pairs(self):
        pairing = Blocking.from_pairs([(0, 1), (2, 3)])
        assert pair_gap_diagnostic(pairing, [3.0, 3.0, 7.0, 7.0]) == 0.0

    def test_rejects_mu_that_is_not_a_finite_vector(self):
        pairing = Blocking.from_pairs([(0, 1), (2, 3)])
        for bad in (np.zeros((4, 3)), 1.0, [0.0, np.nan, 1.0, 1.0]):
            with pytest.raises(ValueError, match="^mu must be (1-D|finite)"):
                pair_gap_diagnostic(pairing, bad)

    def test_length_mismatch_rejected(self):
        pairing = Blocking.from_pairs([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            pair_gap_diagnostic(pairing, [1.0, 2.0])
