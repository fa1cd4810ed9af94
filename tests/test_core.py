import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.criteria import (
    CriterionInputs,
    OutcomePair,
    estimand,
    estimate,
    pair_gap_diagnostic,
    pb_quantile,
    pm_conditional_variance,
    squared_error,
)
from twoarm.designs import DesignSpec, build_blocking, greedy_pair_switch, sample_allocations
from twoarm.matching import DistanceMatrix
from twoarm.montecarlo import CellConfig, bootstrap_ci
from twoarm.response import (
    CovariateSource,
    ResponseModel,
    default_covariate_source,
    default_model,
    draw_covariates,
    draw_outcomes,
)
from twoarm.streams import chunks, substream

from util_oracles import balanced_allocations


_W4 = Allocation([1, -1, 1, -1])
_PAIRS4 = Blocking.from_pairs([(0, 1), (2, 3)])

# Every boundary that converts a caller's array: (field, a valid value,
# the call that takes a value in that field's place).
BOUNDARIES = {
    "CovariateMatrix": ("covariates", np.zeros((4, 1)), CovariateMatrix),
    "Allocation": ("allocation signs", [1, -1, 1, -1], Allocation),
    "Blocking": ("block_of", [0, 0, 1, 1], Blocking),
    "Blocking.from_pairs": ("pair index", [[0, 1], [2, 3]], Blocking.from_pairs),
    "DistanceMatrix": ("distances", np.zeros((4, 4)), DistanceMatrix),
    "ResponseModel.beta0": (
        "beta0", 0.0, lambda v: ResponseModel("continuous", v, [1.0], 0.0)),
    "ResponseModel.beta": (
        "beta", [1.0], lambda v: ResponseModel("continuous", 0.0, v, 0.0)),
    "ResponseModel.beta_t": (
        "beta_t", 0.0, lambda v: ResponseModel("continuous", 0.0, [1.0], v)),
    "draw_outcomes.mu": (
        "mu", np.zeros(4),
        lambda v: draw_outcomes(default_model("continuous", 1), v, substream(0, "io"), 2)),
    "CovariateSource.half_width": (
        "half_width", 1.0, lambda v: CovariateSource("uniform", v)),
    "CriterionInputs.mu": (
        "mu", np.zeros(4), lambda v: CriterionInputs(v, np.ones(4), np.eye(4))),
    "CriterionInputs.rho": (
        "rho", np.ones(4), lambda v: CriterionInputs(np.zeros(4), v, np.eye(4))),
    "CriterionInputs.sigma_w": (
        "sigma_w", np.eye(4), lambda v: CriterionInputs(np.zeros(4), np.ones(4), v)),
    "OutcomePair.y_t": ("y_t", [1.0, 2.0], lambda v: OutcomePair(v, [0.0, 1.0])),
    "OutcomePair.y_c": ("y_c", [0.0, 1.0], lambda v: OutcomePair([1.0, 2.0], v)),
    "pm_conditional_variance.v": ("v", [1.0, 2.0], pm_conditional_variance),
    "pb_quantile.mu": ("mu", np.zeros(4), lambda v: pb_quantile(_W4, v, np.ones(4))),
    "pb_quantile.rho": ("rho", np.ones(4), lambda v: pb_quantile(_W4, np.zeros(4), v)),
    "pb_quantile.level": (
        "level", 0.95, lambda v: pb_quantile(_W4, np.zeros(4), np.ones(4), v)),
    "pair_gap_diagnostic.mu": ("mu", np.zeros(4), lambda v: pair_gap_diagnostic(_PAIRS4, v)),
}


def _non_finite(good):
    bad = np.array(good, dtype=float)
    bad.flat[0] = np.inf
    return bad


@pytest.mark.parametrize("boundary", BOUNDARIES)
class TestOutsideInput:
    """Each boundary names its field on ragged, non-numeric, wrong-rank or
    non-finite input, in a ValueError that starts with the field."""

    def check(self, boundary, make_bad):
        field, good, call = BOUNDARIES[boundary]
        call(good)  # the valid value passes, so the bad one fails for its defect
        with pytest.raises(ValueError, match=f"^{field} must be "):
            call(make_bad(good))

    def test_ragged_is_named(self, boundary):
        self.check(boundary, lambda good: [[1.0], [1.0, 2.0]])

    def test_non_numeric_is_named(self, boundary):
        for to_bad in (lambda good: np.asarray(good).astype(str),
                       lambda good: np.full(np.shape(good), None),
                       lambda good: np.ones(np.shape(good), dtype=bool)):
            self.check(boundary, to_bad)

    def test_wrong_rank_is_named(self, boundary):
        self.check(boundary, lambda good: np.asarray(good)[None])

    def test_non_finite_is_named(self, boundary):
        self.check(boundary, _non_finite)


@pytest.mark.parametrize(
    "boundary", [name for name, (_, good, _) in BOUNDARIES.items() if np.size(good) > 1]
)
@pytest.mark.parametrize("flag", [True, np.True_])
def test_a_bool_among_numbers_is_named(boundary, flag):
    # numpy reads [True, -1, 1, -1] as the numbers [1, -1, 1, -1], so
    # Allocation([True, -1, 1, -1]) and Blocking.from_pairs([(True, 0),
    # (2, 3)]) used to pass
    field, good, call = BOUNDARIES[boundary]
    bad = np.asarray(good).tolist()
    first = bad
    while isinstance(first[0], list):
        first = first[0]
    first[0] = flag
    with pytest.raises(ValueError, match=f"^{field} must be numeric, got a bool entry$"):
        call(bad)


class TestCovariateMatrix:
    def test_basic_properties(self):
        x = CovariateMatrix([[0.0, 1.0], [1.0, 3.0], [2.0, 5.0], [3.0, 7.0]])
        assert x.n_subjects == 4
        assert x.n_covariates == 2
        assert x.n_pairs == 2

    def test_rejects_odd_or_tiny_row_counts(self):
        with pytest.raises(ValueError):
            CovariateMatrix(np.zeros((5, 1)))
        with pytest.raises(ValueError):
            CovariateMatrix(np.zeros((2, 1)))

    def test_rejects_non_finite(self):
        vals = np.zeros((4, 1))
        vals[2, 0] = np.inf
        with pytest.raises(ValueError):
            CovariateMatrix(vals)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            CovariateMatrix(np.zeros(4))
        with pytest.raises(ValueError, match="^need at least one covariate column$"):
            CovariateMatrix(np.zeros((4, 0)))

    def test_values_are_immutable_copies(self):
        raw = np.zeros((4, 1))
        x = CovariateMatrix(raw)
        raw[0, 0] = 9.0
        assert x.values[0, 0] == 0.0
        with pytest.raises(ValueError):
            x.values[0, 0] = 1.0


class TestAllocation:
    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            Allocation([1, 1, 1, -1])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Allocation([1, 0, -1, 1])

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            Allocation([1, -1, 1])
        with pytest.raises(ValueError, match="allocation signs must be non-empty"):
            Allocation([])

    def test_rejects_non_integer_signs(self):
        # an int8 cast would truncate them to [1, -1]
        with pytest.raises(ValueError, match="^allocation signs must be integers, got 1.5$"):
            Allocation([1.5, -1.5])
        assert Allocation(np.array([1.0, -1.0])).signs.tolist() == [1, -1]


class TestBlocking:
    def test_single(self):
        b = Blocking.single(6)
        assert b.n_blocks == 1
        assert b.block_size == 6

    def test_from_pairs_roundtrip(self):
        b = Blocking.from_pairs([(0, 3), (1, 2)])
        assert b.is_pairing
        assert b.pairs() == [(0, 3), (1, 2)]

    def test_from_pairs_rejects_reuse(self):
        with pytest.raises(ValueError):
            Blocking.from_pairs([(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="^a pair cannot repeat an index$"):
            Blocking.from_pairs([(0, 0), (1, 2)])
        with pytest.raises(ValueError, match="^pair index 5 out of range for 2n=4$"):
            Blocking.from_pairs([(0, 5), (1, 2)])

    def test_from_pairs_rejects_non_integer_indices(self):
        # int() would truncate 1.7 to the pair (0, 1)
        with pytest.raises(ValueError, match="pair index must be integers, got 1.7"):
            Blocking.from_pairs([(0, 1.7), (2, 3)])
        assert Blocking.from_pairs([(np.int64(0), 1), (2, 3)]).pairs() == [(0, 1), (2, 3)]

    def test_from_pairs_rejects_entries_that_are_not_two_indices(self):
        with pytest.raises(ValueError, match="a pair must be two indices, got 3"):
            Blocking.from_pairs([(0, 1, 2), (3, 4, 5)])
        for bad in ([(0,), (1, 2)], [0, (1, 2)]):
            with pytest.raises(ValueError, match="pair index must be 2-D, got a ragged sequence"):
                Blocking.from_pairs(bad)

    def test_from_pairs_takes_an_integer_array_and_numpy_ints(self):
        pairs = np.array([[4, 1], [0, 5], [3, 2]])
        blocking = Blocking.from_pairs(pairs)
        np.testing.assert_array_equal(blocking.block_of, [1, 0, 2, 2, 0, 1])
        assert Blocking.from_pairs(pairs.astype(np.int16)).pairs() == [(0, 5), (1, 4), (2, 3)]
        listed = [(np.int32(i), np.uint8(j)) for i, j in pairs]
        np.testing.assert_array_equal(Blocking.from_pairs(listed).block_of, blocking.block_of)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (np.array([[True, False], [False, True]]), "^pair index must be numeric, got dtype bool$"),
            (np.arange(6).reshape(2, 3), "^a pair must be two indices, got 3$"),
            ([0, 1, 2, 3], "^pair index must be 2-D$"),
            ([(0, -1), (2, 3)], "^pair index -1 out of range for 2n=4$"),
            ([(0, 2), (1, 2), (3, 4)], "^subject 2 appears in two pairs$"),
            ([(0, 1), (2, 3), (1, 0)], "^subject 0 appears in two pairs$"),
            ([(0, np.nan), (2, 3)], "^pair index must be finite, got nan$"),
        ],
        ids=["bools", "three-columns", "1-D", "negative", "reuse", "reuse-reversed", "nan"],
    )
    def test_from_pairs_rejects_bad_pairs_by_name(self, pairs, message):
        with pytest.raises(ValueError, match=message):
            Blocking.from_pairs(pairs)

    def test_rejects_uneven_blocks(self):
        with pytest.raises(ValueError):
            Blocking([0, 0, 0, 1])
        with pytest.raises(ValueError, match="block_of must be non-empty"):
            Blocking([])
        with pytest.raises(ValueError, match="^block_of must be 1-D$"):
            Blocking([[0, 0], [1, 1]])

    def test_rejects_non_integer_block_ids(self):
        # an int64 cast would truncate them to [0, 0, 1, 1]
        with pytest.raises(ValueError, match="^block_of must be integers, got 0.5$"):
            Blocking([0.5, 0.5, 1.2, 1.2])
        assert Blocking(np.array([0, 0, 1, 1], dtype=np.int8)).n_blocks == 2

    def test_rejects_odd_block_size(self):
        with pytest.raises(ValueError):
            Blocking([0, 0, 0, 1, 1, 1])

    def test_rejects_gapped_ids(self):
        with pytest.raises(ValueError):
            Blocking([0, 0, 2, 2])

    def test_blocks_listing(self):
        b = Blocking([1, 0, 1, 0])
        got = [list(g) for g in b.blocks()]
        assert got == [[1, 3], [0, 2]]

    @pytest.mark.parametrize("n_blocks", [1, 2, 3, 6])
    def test_blocks_is_one_member_array(self, n_blocks):
        size = 12 // n_blocks
        ids = np.random.default_rng(n_blocks).permutation(np.arange(12) // size)
        got = Blocking(ids).blocks()
        assert got.shape == (n_blocks, size) and got.dtype == np.int64
        for b in range(n_blocks):
            np.testing.assert_array_equal(got[b], np.flatnonzero(ids == b))

    def test_pairs_requires_size_two(self):
        with pytest.raises(ValueError):
            Blocking.single(4).pairs()


class TestOutcomePair:
    def test_holds_read_only_copies(self):
        y_t = np.array([1.0, 2.0])
        out = OutcomePair(y_t, [0.0, 1.0])
        y_t[0] = 9.0
        np.testing.assert_array_equal(out.y_t, [1.0, 2.0])
        assert out.n_subjects == 2
        with pytest.raises(ValueError):
            out.y_c[0] = 9.0

    def test_rejects_non_1d_and_non_finite(self):
        with pytest.raises(ValueError, match="y_t must be 1-D"):
            OutcomePair([[1.0, 2.0]], [0.0, 1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="y_c must be finite"):
                OutcomePair([1.0, 2.0], [0.0, bad])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            OutcomePair([1.0, 2.0], [0.0])


_X4 = CovariateMatrix([[0.0], [0.5], [1.0], [2.0]])
_BCRD4 = DesignSpec.bcrd(4)
_MODEL = default_model("continuous", 1)
_RNG = np.random.default_rng(0)
_SOURCE = default_covariate_source("continuous")

# Every count checked at the boundary: where -> (name, call), where
# call(value) passes value as that count and valid values elsewhere.
_COUNTS = {
    "CellConfig.n_reps": (
        "n_reps", lambda v: CellConfig("c", _MODEL, _X4, _BCRD4, v, 1)
    ),
    "CellConfig.master_seed": (
        "master_seed", lambda v: CellConfig("c", _MODEL, _X4, _BCRD4, 10, v)
    ),
    "substream": ("master_seed", lambda v: substream(v, "a")),
    "draw_covariates.n_subjects": (
        "n_subjects", lambda v: draw_covariates(_SOURCE, v, 1, _RNG)
    ),
    "draw_covariates.n_covariates": (
        "n_covariates", lambda v: draw_covariates(_SOURCE, 4, v, _RNG)
    ),
    "default_model": ("n_covariates", lambda v: default_model("continuous", v)),
    "bootstrap_ci": (
        "n_resamples", lambda v: bootstrap_ci([1.0, 2.0], np.mean, v, rng=_RNG)
    ),
    "sample_allocations": ("n_draws", lambda v: sample_allocations(_BCRD4, v, _RNG)),
    "draw_outcomes": ("n_draws", lambda v: draw_outcomes(_MODEL, [0.0], _RNG, v)),
    "build_blocking": ("n_blocks", lambda v: build_blocking(_X4, v)),
    "greedy_pair_switch": ("restarts", lambda v: greedy_pair_switch(_X4, v, _RNG)),
    "chunks": ("total", chunks),
}


@pytest.mark.parametrize("where", sorted(_COUNTS))
def test_counts_must_be_integers_at_or_above_their_minimum(where):
    name, call = _COUNTS[where]
    for bad in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{name} must be >= \\d+, got -1$"):
        call(-1)


@pytest.mark.parametrize("where", sorted(_COUNTS))
def test_counts_reject_booleans_by_name(where):
    # operator.index(True) is 1, so a flag would pass as a count
    name, call = _COUNTS[where]
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got (np\\.)?True"):
            call(bad)


class TestEstimatorAlgebra:
    def test_estimate_example(self):
        out = OutcomePair([3.0, 5.0], [1.0, 2.0])
        assert estimate(Allocation([1, -1]), out) == pytest.approx(1.0)

    def test_estimand_example(self):
        out = OutcomePair([3.0, 5.0], [1.0, 2.0])
        assert estimand(out) == pytest.approx(2.5)

    def test_squared_error_example(self):
        out = OutcomePair([3.0, 5.0], [1.0, 2.0])
        assert squared_error(Allocation([1, -1]), out) == pytest.approx(2.25)

    def test_estimate_group_sum_form(self):
        rng = np.random.default_rng(5)
        out = OutcomePair(rng.normal(size=6), rng.normal(size=6))
        w = Allocation([1, 1, -1, -1, 1, -1])
        manual = out.y_t[[0, 1, 4]].mean() - out.y_c[[2, 3, 5]].mean()
        assert estimate(w, out) == pytest.approx(manual, rel=1e-12)

    def test_length_mismatch_rejected(self):
        out = OutcomePair([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            estimate(Allocation([1, -1, 1, -1]), out)


@st.composite
def outcome_and_allocation(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    y_t = draw(st.lists(finite, min_size=2 * n, max_size=2 * n))
    y_c = draw(st.lists(finite, min_size=2 * n, max_size=2 * n))
    signs = draw(st.permutations([1] * n + [-1] * n))
    return OutcomePair(y_t, y_c), Allocation(list(signs))


@given(outcome_and_allocation())
@settings(max_examples=200, deadline=None)
def test_squared_error_matches_direct_path(case):
    out, w = case
    direct = (estimate(w, out) - estimand(out)) ** 2
    quad = squared_error(w, out)
    assert quad == pytest.approx(direct, rel=1e-9, abs=1e-9)


@given(outcome_and_allocation())
@settings(max_examples=200, deadline=None)
def test_mirror_allocations_average_to_estimand(case):
    out, w = case
    avg = 0.5 * (estimate(w, out) + estimate(Allocation(-w.signs), out))
    assert avg == pytest.approx(estimand(out), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n_subjects", [4, 6, 8])
def test_enumeration_average_is_estimand(n_subjects):
    rng = np.random.default_rng(n_subjects)
    out = OutcomePair(rng.normal(size=n_subjects), rng.normal(size=n_subjects))
    ests = [
        estimate(Allocation(w.astype(int)), out)
        for w in balanced_allocations(n_subjects)
    ]
    assert np.mean(ests) == pytest.approx(estimand(out), rel=1e-12, abs=1e-12)
