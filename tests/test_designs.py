import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.criteria import enumerate_allocations, mahalanobis_imbalance
from twoarm.designs import (
    _RESTART_CHUNK,
    DesignSpec,
    _descend_lockstep,
    _objectives,
    _pattern_table,
    build_blocking,
    design_covariance,
    greedy_pair_switch,
    mahalanobis_gram,
    regularized_covariance,
    sample_allocations,
)
from twoarm.matching import mahalanobis_distances
from twoarm.streams import substream

from util_oracles import (
    ROW_BLOCK_DRAWS,
    balanced_allocations,
    block_allocations,
    build_blocking_reference,
    descend_reference,
    greedy_pair_switch_reference,
    sample_allocations_reference,
)

# chi-square critical values at alpha = 0.001, by degrees of freedom
_CHI2_001 = {3: 16.266, 5: 20.515, 15: 37.697, 35: 66.619, 69: 111.055}


def _block_counts(n_subjects):
    """Every B that cuts n_subjects into blocks of one even size."""
    return [b for b in range(1, n_subjects + 1) if n_subjects % (2 * b) == 0]


def _permuted_ids(n_subjects, n_blocks, rng):
    """block_of of B equal blocks, ids scattered over the subjects."""
    return rng.permutation(np.arange(n_subjects) // (n_subjects // n_blocks))


class TestDesignSpec:
    def test_factories(self):
        assert DesignSpec.bcrd(6).blocking.n_blocks == 1
        b = DesignSpec.block(Blocking([0, 0, 1, 1]))
        assert b.blocking.n_blocks == 2
        pm = DesignSpec.pm(Blocking.from_pairs([(0, 1), (2, 3)]))
        assert pm.kind == "pm"
        pb = DesignSpec.pb(Allocation([1, -1, -1, 1]))
        assert pb.blocking is None
        assert pb.n_subjects == 4

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            DesignSpec("pm", blocking=Blocking([0, 0, 0, 0, 1, 1, 1, 1]))
        with pytest.raises(ValueError):
            DesignSpec("bcrd", blocking=Blocking([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            DesignSpec("pb", blocking=Blocking.single(4))
        with pytest.raises(ValueError):
            DesignSpec("block", w_star=Allocation([1, -1]))
        with pytest.raises(ValueError):
            DesignSpec("nope", blocking=Blocking.single(4))

    def test_rejects_structures_that_are_not_their_types(self):
        with pytest.raises(ValueError, match="^blocking must be a Blocking, got list$"):
            DesignSpec.block([0, 0, 1, 1])
        with pytest.raises(ValueError, match="^blocking must be a Blocking, got ndarray$"):
            DesignSpec.pm(np.zeros(4))
        with pytest.raises(ValueError, match="^blocking must be a Blocking, got ndarray$"):
            DesignSpec("bcrd", blocking=np.zeros(4))
        with pytest.raises(ValueError, match="^w_star must be a Allocation, got ndarray$"):
            DesignSpec.pb(np.array([1, -1, 1, -1]))


class TestSampling:
    def test_every_draw_balanced_within_blocks(self):
        # three interleaved blocks: of 4, drawn by pattern index, and of
        # 24, drawn by sorting uniforms
        for m in (4, 24):
            blocking = Blocking(np.arange(3 * m) % 3)
            spec = DesignSpec.block(blocking)
            draws = sample_allocations(spec, 500, substream(1, "bal"))
            assert set(np.unique(draws)) == {-1, 1}
            for members in blocking.blocks():
                np.testing.assert_array_equal(draws[:, members].sum(axis=1), 0)

    def test_bcrd_uniform_over_support(self):
        spec = DesignSpec.bcrd(4)
        draws = sample_allocations(spec, 60_000, substream(2, "chi2"))
        support = balanced_allocations(4)
        codes = (draws[:, None, :] == support[None, :, :]).all(axis=2)
        counts = codes.sum(axis=0)
        assert counts.sum() == 60_000
        expected = 60_000 / len(support)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < _CHI2_001[len(support) - 1]

    def test_pm_pairs_flip_uniformly_and_independently(self):
        spec = DesignSpec.pm(Blocking.from_pairs([(0, 1), (2, 3)]))
        draws = sample_allocations(spec, 60_000, substream(3, "chi2"))
        # encode the 4 equally likely (pair1, pair2) patterns
        code = (draws[:, 0] > 0) * 2 + (draws[:, 2] > 0)
        counts = np.bincount(code, minlength=4)
        chi2 = float(((counts - 15_000.0) ** 2 / 15_000.0).sum())
        assert chi2 < _CHI2_001[3]

    def test_pb_support_and_frequency(self):
        w_star = Allocation([1, -1, 1, -1])
        spec = DesignSpec.pb(w_star)
        draws = sample_allocations(spec, 100_000, substream(4, "pb"))
        match = (draws == w_star.signs).all(axis=1)
        mirror = (draws == -w_star.signs).all(axis=1)
        assert np.all(match | mirror)
        freq = match.mean()
        assert abs(freq - 0.5) < 3 * np.sqrt(0.25 / 100_000)

    def test_single_draw_wrapper(self):
        draws = sample_allocations(DesignSpec.bcrd(6), 1, substream(5, "one"))
        assert draws.shape == (1, 6)
        assert Allocation(draws[0]).n_subjects == 6

    @pytest.mark.parametrize("n_draws", ROW_BLOCK_DRAWS)
    @pytest.mark.parametrize("design", ["bcrd", 2, 8, 48, "pb"])
    def test_row_blocks_equal_the_whole_block_draw(self, design, n_draws):
        # At 2n = 96 a bcrd row block is 682 rows; B = 48 blocks of two
        # fit a whole chunk in one row block.  Sorted blockings scatter
        # each block's members over the subjects.
        x = CovariateMatrix(substream(21, "rows-x").random((96, 2)))
        if design == "bcrd":
            spec = DesignSpec.bcrd(96)
        elif design == "pb":
            spec = DesignSpec.pb(greedy_pair_switch(x, 2, substream(21, "rows-pb")))
        else:
            spec = DesignSpec.block(build_blocking(x, design))
        rng = substream(22, n_draws, "rows")
        ref_rng = substream(22, n_draws, "rows")
        got = sample_allocations(spec, n_draws, rng)
        want = sample_allocations_reference(spec, n_draws, ref_rng)
        assert got.shape == want.shape == (n_draws, 96)
        assert got.dtype == want.dtype == np.int8
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _PreparedUniforms:
    """A generator stand-in whose random() hands out a prepared sequence
    of uniforms in row-major order, as a real stream hands out its own:
    so the sampler's row blocks and the oracle's whole block draws see
    the same values, and `taken` counts the values each side used."""

    def __init__(self, values):
        self._values = np.ravel(values)
        self.taken = 0

    def random(self, shape):
        size = int(np.prod(shape))
        out = self._values[self.taken : self.taken + size].reshape(shape)
        self.taken += size
        return out.copy()


def _tied_rows(kinds, m, rng):
    """One (len(kinds), m) block of uniforms, each row of its kind:
    "distinct" leaves the row as drawn; "cut" ties its m/2-th and next
    smallest values; "below" and "above" tie its two smallest and two
    largest (not at the cut for m >= 4); "equal" makes the whole row one
    value; "coarse" rounds it to thirds, which ties it many times over."""
    kinds = np.asarray(kinds)
    u = rng.random((kinds.size, m))
    order = np.argsort(u, axis=1)
    h = m // 2
    for kind, to, rank in (("cut", h, h - 1), ("below", 1, 0), ("above", -2, -1)):
        rows = np.flatnonzero(kinds == kind)
        u[rows, order[rows, to]] = u[rows, order[rows, rank]]
    equal, coarse = kinds == "equal", kinds == "coarse"
    u[equal] = u[equal, :1]
    u[coarse] = np.floor(u[coarse] * 3.0) / 3.0
    return u


_TIE_LAYOUTS = {
    # every row block ties at the cut somewhere
    "every-kind": ("distinct", "cut", "below", "above", "equal", "coarse"),
    # ties away from the cut only: every row block takes the sort path
    "no-cut-tie": ("distinct", "below", "above"),
    # one tie at the cut in the last row, so only its row block defers
    "last-row-tie": ("distinct", "below", "above"),
}


class TestTiesAtTheCut:
    @pytest.mark.parametrize("layout", list(_TIE_LAYOUTS))
    @pytest.mark.parametrize("m", [24, 32, 48, 96])
    def test_tied_uniforms_give_the_argsort_signs(self, m, layout):
        # 8,192 rows at 2n = 96 cut into row blocks of 682 to 2,730 rows.
        # Only blocks of more than 16 subjects draw uniforms.
        n_draws = 8192
        kinds = _TIE_LAYOUTS[layout]
        row_kinds = [kinds[r % len(kinds)] for r in range(n_draws)]
        if layout == "last-row-tie":
            row_kinds[-1] = "cut"
        blocking = Blocking(_permuted_ids(96, 96 // m, substream(31, m, "ids")))
        spec = DesignSpec.bcrd(96) if m == 96 else DesignSpec.block(blocking)
        rng = substream(32, m, layout, "ties")
        values = np.stack([_tied_rows(row_kinds, m, rng) for _ in range(96 // m)])
        stub, ref_stub = _PreparedUniforms(values), _PreparedUniforms(values)
        got = sample_allocations(spec, n_draws, stub)
        want = sample_allocations_reference(spec, n_draws, ref_stub)
        assert got.dtype == want.dtype == np.int8
        assert got.tobytes() == want.tobytes()
        assert stub.taken == ref_stub.taken == values.size
        for members in spec.blocking.blocks():
            np.testing.assert_array_equal(got[:, members].sum(axis=1), 0)


class TestPatternDraws:
    """Blocks of at most 16 subjects draw one pattern index per (row, block)."""

    @pytest.mark.parametrize(
        "block_of, support_size",
        [
            ([0] * 8, 70),
            # two blocks of four, scattered: 6 x 6 joint patterns, so the
            # test also sees whether the blocks are drawn independently
            ([0, 1, 1, 0, 1, 0, 0, 1], 36),
            # four scattered pairs
            ([0, 1, 2, 1, 3, 0, 3, 2], 16),
        ],
        ids=["bcrd", "B=2", "pm"],
    )
    def test_uniform_over_the_whole_support_at_2n_8(self, block_of, support_size):
        blocking = Blocking(block_of)
        if blocking.n_blocks == 1:
            spec = DesignSpec.bcrd(8)
        elif blocking.is_pairing:
            spec = DesignSpec.pm(blocking)
        else:
            spec = DesignSpec.block(blocking)
        n_draws = 100_000
        draws = sample_allocations(spec, n_draws, substream(41, *block_of, "law"))
        support = block_allocations(block_of)
        assert len(support) == support_size
        # each allocation coded by its treated subjects' bits
        bits = 1 << np.arange(8)
        codes, support_codes = (draws > 0) @ bits, (support > 0) @ bits
        assert np.isin(codes, support_codes).all()
        counts = np.bincount(codes, minlength=256)[support_codes]
        expected = n_draws / support_size
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < _CHI2_001[support_size - 1]

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_table_rows_are_the_balanced_halves_in_combinations_order(self, m):
        table = _pattern_table(m)
        assert not table.flags.writeable
        signs = table.view(np.int8).reshape(-1, m)
        count = math.comb(m, m // 2)
        assert signs.shape == (count, m)
        assert set(np.unique(signs)) == {-1, 1}
        np.testing.assert_array_equal(signs.sum(axis=1), 0)
        assert len({row.tobytes() for row in signs}) == count
        treated = [tuple(np.flatnonzero(row > 0)) for row in signs]
        assert treated == list(itertools.combinations(range(m), m // 2))

    def test_each_table_is_built_once_and_keeps_no_subtable(self):
        # tracemalloc sees numpy's array allocations.  The build writes
        # the table in place: its peak is the table and some KB of
        # Python objects, where a copy of each (n, k) subtable would add
        # over 300 KB, and with
        # the collector off even a subtable held in a reference cycle
        # would stay beside the table.
        _pattern_table.cache_clear()
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = _pattern_table(16)
            kept, peak = (v - before for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert table.nbytes == math.comb(16, 8) * 16
        assert table.nbytes <= kept <= peak < table.nbytes + 65_536
        for m in (4, 16, 4, 16, 4):
            assert _pattern_table(m) is _pattern_table(m)
        info = _pattern_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 9, 2)
        assert _pattern_table(16) is table


class TestDesignCovariance:
    @pytest.mark.parametrize(
        "spec",
        [
            DesignSpec.bcrd(4),
            DesignSpec.bcrd(6),
            DesignSpec.block(Blocking([0, 0, 1, 1, 0, 0, 1, 1])),
            DesignSpec.pm(Blocking.from_pairs([(0, 5), (1, 3), (2, 4)])),
        ],
    )
    def test_matches_exact_enumeration(self, spec):
        allocs = enumerate_allocations(spec).astype(float)
        exact = (allocs[:, :, None] * allocs[:, None, :]).mean(axis=0)
        np.testing.assert_allclose(
            design_covariance(spec), exact, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "spec",
        [
            DesignSpec.block(Blocking([0, 0, 1, 1, 0, 0, 1, 1])),
            DesignSpec.pb(Allocation([1, -1, -1, 1])),
        ],
        ids=["block", "pb"],
    )
    def test_is_read_only(self, spec):
        sigma = design_covariance(spec)
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 1] = 0.0

    def test_pb_rank_one(self):
        w = Allocation([1, 1, -1, -1])
        sigma = design_covariance(DesignSpec.pb(w))
        np.testing.assert_array_equal(sigma, np.outer(w.signs, w.signs))

    def test_block_rows_sum_to_zero_within_blocks(self):
        blocking = Blocking([0, 1, 0, 1, 2, 2, 0, 1, 2, 0, 1, 2])
        sigma = design_covariance(DesignSpec.block(blocking))
        for members in blocking.blocks():
            np.testing.assert_allclose(
                sigma[np.ix_(members, members)].sum(axis=1), 0.0, atol=1e-12
            )

    @pytest.mark.parametrize("n_subjects", [4, 12, 48])
    def test_equals_per_block_reference_on_permuted_ids(self, n_subjects):
        rng = np.random.default_rng(n_subjects)
        for b in _block_counts(n_subjects):
            ids = _permuted_ids(n_subjects, b, rng)
            want = np.zeros((n_subjects, n_subjects))
            for k in range(b):
                members = np.flatnonzero(ids == k)
                want[np.ix_(members, members)] = -1.0 / (members.size - 1)
            np.fill_diagonal(want, 1.0)
            got = design_covariance(DesignSpec.block(Blocking(ids)))
            np.testing.assert_array_equal(got, want)


class TestEnumerateAllocations:
    def test_bcrd_support_size_and_uniqueness(self):
        allocs = enumerate_allocations(DesignSpec.bcrd(4))
        assert allocs.shape == (6, 4)
        assert len({tuple(r) for r in allocs}) == 6

    def test_pm_support_is_sign_patterns(self):
        spec = DesignSpec.pm(Blocking.from_pairs([(0, 1), (2, 3), (4, 5)]))
        allocs = enumerate_allocations(spec)
        assert allocs.shape == (8, 6)

    def test_block_support_matches_oracle(self):
        ids = [0, 0, 1, 1, 1, 1, 0, 0]
        spec = DesignSpec.block(Blocking(ids))
        np.testing.assert_array_equal(
            enumerate_allocations(spec), block_allocations(ids)
        )

    @pytest.mark.parametrize("n_subjects", [4, 6, 8, 12])
    def test_support_rows_in_oracle_order_on_permuted_ids(self, n_subjects):
        # block 0's pattern varies slowest, members ascending in a block
        rng = np.random.default_rng(n_subjects)
        for _ in range(5):
            for b in _block_counts(n_subjects):
                ids = _permuted_ids(n_subjects, b, rng)
                np.testing.assert_array_equal(
                    enumerate_allocations(DesignSpec.block(Blocking(ids))),
                    block_allocations(ids),
                )

    @pytest.mark.parametrize("n_subjects", [4, 8, 12, 16])
    def test_sampler_draws_the_support_rows_numbered_by_their_digits(self, n_subjects):
        # a twin stream redraws the sampler's (N, B) pattern indices; read
        # as B base-k digits, block 0's the most significant, each row's
        # indices number the support row that the sampler returned
        rng = np.random.default_rng(200 + n_subjects)
        for b in _block_counts(n_subjects):
            spec = DesignSpec.block(Blocking(_permuted_ids(n_subjects, b, rng)))
            m = n_subjects // b
            k = math.comb(m, m // 2)
            draws = sample_allocations(spec, 300, substream(61, n_subjects, b))
            twin = substream(61, n_subjects, b)
            index = twin.integers(0, k, (300, b), dtype=np.int16).astype(np.intp)
            support = enumerate_allocations(spec)
            np.testing.assert_array_equal(
                draws, support[np.ravel_multi_index(index.T, (k,) * b)]
            )

    def test_support_cap(self):
        with pytest.raises(ValueError):
            enumerate_allocations(DesignSpec.bcrd(30), max_support=1000)


class TestBuildBlocking:
    def test_single_covariate_sorted_cut(self):
        x = CovariateMatrix([[5.0], [1.0], [3.0], [2.0]])
        blocking = build_blocking(x, 2)
        np.testing.assert_array_equal(blocking.block_of, [1, 0, 1, 0])

    def test_second_covariate_splits_supergroups(self):
        # covariate 1 defines two super-groups of 4; covariate 2 orders
        # inside each; blocks of 2 then pick the halves by covariate 2
        x = CovariateMatrix(
            [
                [0.0, 9.0],
                [1.0, 1.0],
                [2.0, 8.0],
                [3.0, 2.0],
                [10.0, 7.0],
                [11.0, 3.0],
                [12.0, 6.0],
                [13.0, 4.0],
            ]
        )
        blocking = build_blocking(x, 4)
        blocks = [list(b) for b in blocking.blocks()]
        assert [1, 3] in blocks and [0, 2] in blocks
        assert [5, 7] in blocks and [4, 6] in blocks

    def test_two_blocks_split_by_second_covariate_alone(self):
        # with B=2 the single super-group is the whole sample, so the
        # cut is by covariate 2 only
        rng = np.random.default_rng(0)
        first = rng.normal(size=8)
        second = np.array([5.0, 1.0, 6.0, 2.0, 7.0, 3.0, 8.0, 4.0])
        x = CovariateMatrix(np.column_stack([first, second]))
        blocking = build_blocking(x, 2)
        low = set(np.flatnonzero(second <= 4.0))
        blocks = [set(b) for b in blocking.blocks()]
        assert low in blocks

    def test_third_covariate_ignored(self):
        rng = np.random.default_rng(1)
        base = np.column_stack([rng.normal(size=8), rng.normal(size=8)])
        x2 = CovariateMatrix(base)
        x3 = CovariateMatrix(np.column_stack([base, rng.normal(size=8)]))
        np.testing.assert_array_equal(
            build_blocking(x2, 4).block_of, build_blocking(x3, 4).block_of
        )

    def test_stable_on_ties(self):
        x = CovariateMatrix([[1.0], [1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(build_blocking(x, 2).block_of, [0, 0, 1, 1])

    @pytest.mark.parametrize("n_subjects", [16, 48, 96])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("rounded", [False, True], ids=["distinct", "ties"])
    def test_matches_supergroup_reference(self, rounded, p, n_subjects):
        # odd B leaves a shorter last super-group; one-decimal covariates
        # tie on both sort keys
        vals = np.random.default_rng(n_subjects + p).uniform(-1, 1, (n_subjects, p))
        if rounded:
            vals = np.round(vals, 1)
            assert all(np.unique(col).size < n_subjects for col in vals[:, :2].T)
        x = CovariateMatrix(vals)
        for b in _block_counts(n_subjects):
            np.testing.assert_array_equal(
                build_blocking(x, b).block_of, build_blocking_reference(vals, b)
            )

    def test_divisibility_errors(self):
        x = CovariateMatrix(np.arange(8.0)[:, None])
        with pytest.raises(ValueError):
            build_blocking(x, 3)
        x6 = CovariateMatrix(np.arange(6.0)[:, None])
        with pytest.raises(ValueError):
            build_blocking(x6, 2)  # block size 3 is odd
        with pytest.raises(ValueError):
            build_blocking(x, 0)

    def test_rejects_covariates_that_are_not_a_covariate_matrix(self):
        with pytest.raises(ValueError, match="^x must be a CovariateMatrix, got ndarray$"):
            build_blocking(np.zeros((4, 1)), 2)


class TestMahalanobisGram:
    def test_single_covariate_example(self):
        # sample variance 5/3: g_ij = 0.6 x_i x_j, h_ij = 0.6 (x_i - x_j)^2
        vals = np.array([[0.0], [1.0], [2.0], [3.0]])
        g, h = mahalanobis_gram(vals)
        np.testing.assert_allclose(g, 0.6 * np.outer(vals, vals), rtol=1e-12)
        np.testing.assert_allclose(h, 0.6 * (vals - vals.T) ** 2, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_h_is_the_pairwise_distance_with_an_exact_zero_diagonal(self, p):
        vals = np.random.default_rng(p).exponential(size=(24, p))
        _, h = mahalanobis_gram(vals)
        m = np.linalg.inv(regularized_covariance(vals))
        diff = vals[:, None, :] - vals[None, :, :]
        np.testing.assert_allclose(h, np.einsum("ijk,kl,ijl->ij", diff, m, diff), atol=1e-9)
        assert (np.diag(h) == 0.0).all()
        # the matching's distances are h made exactly symmetric
        d = mahalanobis_distances(CovariateMatrix(vals)).values
        assert d.tobytes() == np.maximum((h + h.T) / 2.0, 0.0).tobytes()

    def test_a_constant_covariate_is_ridged_not_singular(self):
        # S is singular; its ridge leaves the other covariate's distances
        vals = np.column_stack([np.arange(8.0), np.ones(8)])
        g, h = mahalanobis_gram(vals)
        assert np.isfinite(g).all()
        np.testing.assert_allclose(h, mahalanobis_gram(vals[:, :1])[1], rtol=1e-7)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([[0.0, 1.0], [2.0], [3.0, 4.0], [5.0, 6.0]], "^values must be 2-D, got a ragged sequence$"),
            ([["a", "b"], ["c", "d"]], "^values must be numeric, got dtype <U1$"),
            (np.arange(4.0), "^values must be 2-D$"),
            ([[0.0, 1.0], [np.inf, 2.0], [3.0, 4.0], [5.0, 6.0]], "^values must be finite, got inf$"),
        ],
        ids=["ragged", "strings", "1-D", "non-finite"],
    )
    def test_bad_values_fail_by_name(self, values, message):
        # ragged rows used to raise numpy's unnamed inhomogeneous-shape error
        for f in (mahalanobis_gram, regularized_covariance):
            with pytest.raises(ValueError, match=message):
                f(values)


class TestRegularizedCovariance:
    def test_plain_case_is_unbiased_covariance(self):
        vals = np.array([[0.0], [1.0], [2.0], [3.0]])
        np.testing.assert_allclose(regularized_covariance(vals), [[5.0 / 3.0]])

    def test_duplicate_column_gets_ridge(self):
        rng = np.random.default_rng(2)
        col = rng.normal(size=8)
        vals = np.column_stack([col, col])
        s = regularized_covariance(vals)
        assert np.linalg.matrix_rank(s) == 2
        assert np.all(np.isfinite(np.linalg.inv(s)))

    def test_constant_columns_fall_back_to_identity(self):
        vals = np.ones((6, 3))
        np.testing.assert_array_equal(regularized_covariance(vals), np.eye(3))


class TestGreedyPairSwitch:
    def test_finds_exact_balance(self):
        x = CovariateMatrix([[1.0], [2.0], [3.0], [4.0]])
        w = greedy_pair_switch(x, 10, substream(6, "greedy"))
        assert mahalanobis_imbalance(x, w) == pytest.approx(0.0, abs=1e-12)
        assert abs(int(x.values[:, 0] @ w.signs)) == 0

    def test_objective_monotone_along_descent(self):
        # every descent ends no higher than it started, balanced, and at
        # an allocation that no single (+1, -1) swap improves
        g, h = mahalanobis_gram(np.random.default_rng(7).normal(size=(12, 2)))
        starts = np.vstack([[1.0, -1.0] * 6, _random_starts(39, 12, 70)])
        ends = _descend_lockstep(g, h, starts.copy())
        for w0, w in zip(starts, ends):
            obj = float(w @ g @ w)
            assert obj <= float(w0 @ g @ w0) + 1e-9
            assert w.sum() == 0.0
            for i in np.flatnonzero(w == 1):
                for j in np.flatnonzero(w == -1):
                    s = w.copy()
                    s[i], s[j] = -1.0, 1.0
                    assert float(s @ g @ s) >= obj - 1e-9 * (1.0 + abs(obj))

    def test_descent_preserves_balance(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(10, 3))
        x = CovariateMatrix(vals)
        w = greedy_pair_switch(x, 5, substream(9, "greedy"))
        assert int(w.signs.sum()) == 0

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=(20, 2))
        x = CovariateMatrix(vals)
        w1 = greedy_pair_switch(x, 8, substream(11, "greedy"))
        w2 = greedy_pair_switch(x, 8, substream(11, "greedy"))
        np.testing.assert_array_equal(w1.signs, w2.signs)

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(12)
        vals = rng.normal(size=(16, 2))
        x = CovariateMatrix(vals)
        objs = []
        for restarts in (1, 4, 16):
            w = greedy_pair_switch(x, restarts, substream(13, "greedy"))
            objs.append(mahalanobis_imbalance(x, w))
        assert objs[1] <= objs[0] + 1e-9
        assert objs[2] <= objs[1] + 1e-9

    def test_beats_typical_random_allocation(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(24, 2))
        x = CovariateMatrix(vals)
        w = greedy_pair_switch(x, 20, substream(15, "greedy"))
        best = mahalanobis_imbalance(x, w)
        draws = sample_allocations(DesignSpec.bcrd(24), 200, substream(16, "ref"))
        random_objs = [
            mahalanobis_imbalance(x, Allocation(d.astype(int))) for d in draws
        ]
        assert best < np.median(random_objs)

    def test_restarts_validated(self):
        x = CovariateMatrix(np.arange(4.0)[:, None])
        with pytest.raises(ValueError):
            greedy_pair_switch(x, 0, substream(17, "greedy"))
        with pytest.raises(ValueError, match="^allocation and covariates disagree on 2n$"):
            mahalanobis_imbalance(x, Allocation([1, -1, 1, -1, 1, -1]))

    def test_rejects_covariates_that_are_not_a_covariate_matrix(self):
        # an ndarray x used to raise AttributeError on x.n_subjects
        with pytest.raises(ValueError, match="^x must be a CovariateMatrix, got ndarray$"):
            greedy_pair_switch(np.arange(4.0)[:, None], 1, substream(17, "greedy"))

    def test_imbalance_rejects_arguments_that_are_not_their_types(self):
        x = CovariateMatrix(np.arange(4.0)[:, None])
        w = Allocation([1, -1, 1, -1])
        with pytest.raises(ValueError, match="^x must be a CovariateMatrix, got ndarray$"):
            mahalanobis_imbalance(np.zeros((4, 1)), w)
        with pytest.raises(ValueError, match="^w must be a Allocation, got list$"):
            mahalanobis_imbalance(x, [1, -1, 1, -1])


def _random_starts(count, n_subjects, seed):
    rng = np.random.default_rng(seed)
    half = [1.0, -1.0] * (n_subjects // 2)
    return np.array([rng.permutation(half) for _ in range(count)])


def _uniform_panel(seed, n_subjects, p):
    return CovariateMatrix(np.random.default_rng(seed).uniform(-1, 1, (n_subjects, p)))


def _tied_or_skewed_panel(kind, seed, n_subjects, p):
    rng = np.random.default_rng(seed)
    if kind == "duplicated":
        # every covariate row twice, so many swaps tie exactly in h
        return rng.permutation(np.repeat(rng.uniform(-1, 1, (n_subjects // 2, p)), 2, axis=0))
    if kind == "exponential":
        return rng.exponential(size=(n_subjects, p))
    return rng.integers(0, 2, size=(n_subjects, p)).astype(float)


def _count_tied_starts(g, h, starts):
    """Starts whose best first swap is an exact tie of several swaps."""
    tied = 0
    for w0 in starts:
        tr, ct = np.flatnonzero(w0 == 1), np.flatnonzero(w0 == -1)
        gw = g @ w0
        delta = h[np.ix_(tr, ct)] + gw[ct][None, :] - gw[tr][:, None]
        tied += int(np.count_nonzero(delta == delta.min()) > 1)
    return tied


class TestLockstepMatchesReference:
    """The lockstep search returns the one-restart-at-a-time search's bits."""

    @pytest.mark.parametrize("n_subjects", [12, 16, 96])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_w_star_and_endpoints(self, seed, p, n_subjects):
        x = _uniform_panel(seed, n_subjects, p)
        path = (seed, "pb-ref", p, n_subjects)
        got = greedy_pair_switch(x, 40, substream(*path))
        want = greedy_pair_switch_reference(x, 40, substream(*path))
        np.testing.assert_array_equal(got.signs, want.signs)
        # every restart, not only the winner, ends where it ends alone
        g, h = mahalanobis_gram(x.values)
        starts = _random_starts(40, n_subjects, seed)
        ends = _descend_lockstep(g, h, starts.copy())
        for w0, w in zip(starts, ends):
            np.testing.assert_array_equal(w, descend_reference(g, w0)[0])

    @pytest.mark.parametrize("restarts", [1, 63, 65, 200])
    def test_restart_counts_off_the_chunk(self, restarts):
        assert restarts % _RESTART_CHUNK
        x = _uniform_panel(21, 16, 2)
        rng_got, rng_want = substream(22, "pb-count"), substream(22, "pb-count")
        got = greedy_pair_switch(x, restarts, rng_got)
        want = greedy_pair_switch_reference(x, restarts, rng_want)
        np.testing.assert_array_equal(got.signs, want.signs)
        # spawned chunk by chunk, the parent still hands out `restarts` children
        spawned = [r.bit_generator.seed_seq.n_children_spawned for r in (rng_got, rng_want)]
        assert spawned == [restarts, restarts]

    def test_row_major_tie_break(self):
        # integer covariates tie many swaps exactly; the first minimum in
        # row-major (treated, control) order must win, as in the reference
        vals = np.random.default_rng(23).integers(0, 3, size=(12, 1)).astype(float)
        g, h = mahalanobis_gram(vals)
        starts = _random_starts(50, 12, 100)
        assert _count_tied_starts(g, h, starts) > 0
        ends = _descend_lockstep(g, h, starts.copy())
        for w0, w in zip(starts, ends):
            np.testing.assert_array_equal(w, descend_reference(g, w0)[0])
        x = CovariateMatrix(vals)
        np.testing.assert_array_equal(
            greedy_pair_switch(x, 50, substream(24, "pb-tie")).signs,
            greedy_pair_switch_reference(x, 50, substream(24, "pb-tie")).signs,
        )

    @pytest.mark.parametrize("n_subjects", [12, 16, 24])
    @pytest.mark.parametrize("p", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["duplicated", "exponential", "integer"])
    def test_tied_and_skewed_panels(self, kind, p, n_subjects):
        # exact ties in h (duplicated rows, integer covariates) and skewed
        # exponential covariates: every restart ends where it ends alone,
        # after swaps have left the slots out of subject order
        vals = _tied_or_skewed_panel(kind, 30 + p, n_subjects, p)
        g, h = mahalanobis_gram(vals)
        starts = _random_starts(60, n_subjects, 31 + p)
        if kind != "exponential":
            assert _count_tied_starts(g, h, starts) > 0
        ends = _descend_lockstep(g, h, starts.copy())
        for w0, w in zip(starts, ends):
            np.testing.assert_array_equal(w, descend_reference(g, w0)[0])
        x = CovariateMatrix(vals)
        path = (32, "pb-tied", kind, p, n_subjects)
        np.testing.assert_array_equal(
            greedy_pair_switch(x, 60, substream(*path)).signs,
            greedy_pair_switch_reference(x, 60, substream(*path)).signs,
        )

    @pytest.mark.parametrize("n_subjects", [4, 12, 96])
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_batched_objectives_equal_one_row_at_a_time(self, p, n_subjects):
        g, _ = mahalanobis_gram(_uniform_panel(40 + p, n_subjects, p).values)
        rows = _random_starts(70, n_subjects, 41)
        want = np.array([float(row @ g @ row) for row in rows])
        assert _objectives(g, rows).tobytes() == want.tobytes()
