import math
import tracemalloc
import warnings
from dataclasses import asdict, astuple, replace
from statistics import NormalDist

import numpy as np
import pytest

import twoarm.montecarlo
from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.criteria import (
    CriterionInputs,
    OutcomePair,
    convergence_study,
    enumerate_design_oracle,
    mean_mse,
)
from twoarm.designs import DesignSpec, build_blocking, design_covariance, greedy_pair_switch
from twoarm.montecarlo import (
    C_95,
    CellConfig,
    CriterionReport,
    _Z,
    _exact_ranks,
    bootstrap_ci,
    run_cell,
    simulate_squared_errors,
)
from twoarm.response import (
    RESPONSE_KINDS,
    ResponseModel,
    default_covariate_source,
    default_model,
    draw_covariates,
    draw_outcomes,
    potential_means,
    residual_variances,
)
from twoarm.streams import CHUNK_SIZE, substream

from util_oracles import (
    ROW_BLOCK_DRAWS,
    approx_q95_rows,
    balanced_allocations,
    binomial_tail_reference,
    bootstrap_ci_reference,
    bootstrap_statistics_reference,
    delta_se_reference,
    draw_outcomes_reference,
    exact_bootstrap_rank_reference,
    simulate_squared_errors_reference,
    squared_errors_over,
)


def _row_mean(v):
    return v.mean(axis=1)


def _order_statistic_rows(v):
    """Row-wise ceil(0.95 * N)-th order statistic of a (b, N) block, in
    place: a statistic that bootstrap_ci resamples as it does any other."""
    k = math.ceil(0.95 * v.shape[1])
    v.partition(k - 1, axis=1)
    return v[:, k - 1]


# (1 - 0.95) / 2, as montecarlo computes it
_ALPHA = (1.0 - 0.95) / 2.0


# Each quantile figure on a 1-D sample, as its textbook formula: the
# oracles that run_cell's point values must equal bit for bit.
_REFERENCE_STATISTICS = {
    "emp_q95": lambda s: np.sort(s)[math.ceil(0.95 * s.size) - 1],
    "approx_q95": lambda s: float(s.mean()) + C_95 * float(s.std(ddof=1)),
}


def _pm_cell(n_reps=20_000, seed=404):
    x = CovariateMatrix([[0.0], [0.5], [1.0], [2.0]])
    model = default_model("continuous", 1)
    spec = DesignSpec.pm(Blocking([0, 0, 1, 1]))
    return CellConfig(
        cell_id="unit::pm::4",
        model=model,
        x=x,
        design=spec,
        n_reps=n_reps,
        master_seed=seed,
    )


def _alone(cfg):
    """A cell's squared errors, simulated as its own one-cell panel."""
    (sq,) = simulate_squared_errors([cfg], cfg.cell_id)
    return sq


def _empirical_quantile(samples):
    """run_cell's emp_q95 of a 1-D sample: the sorted sample at the rank
    k that _exact_ranks gives."""
    samples = np.asarray(samples, dtype=float)
    return np.sort(samples)[_exact_ranks(samples.size)[0] - 1]


class TestEmpiricalQuantile:
    def test_integer_grid(self):
        samples = np.arange(1.0, 101.0)
        assert _empirical_quantile(samples) == 95.0
        # ceil(0.95 * 21) = 20
        assert _empirical_quantile(np.arange(1.0, 22.0)) == 20.0

    def test_small_sample_order_statistic(self):
        assert _empirical_quantile([4.0, 2.0, 1.0, 3.0]) == 4.0
        assert _empirical_quantile([7.0]) == 7.0

    def test_invariant_to_order(self):
        rng = substream(8, "shuffle")
        samples = rng.normal(0.0, 1.0, 501)
        shuffled = rng.permutation(samples)
        assert _empirical_quantile(samples) == _empirical_quantile(shuffled)


class TestBootstrapCi:
    def test_degenerate_sample_collapses(self):
        ci = bootstrap_ci(np.full(50, 3.25), _row_mean, rng=substream(1, "b"))
        assert ci == (3.25, 3.25)

    def test_ordered_and_deterministic(self):
        samples = substream(2, "data").normal(0.0, 1.0, 200)
        a = bootstrap_ci(samples, _row_mean, rng=substream(2, "boot"))
        b = bootstrap_ci(samples, _row_mean, rng=substream(2, "boot"))
        assert a == b
        assert a[0] <= a[1]

    def test_interval_narrows_with_sample_size(self):
        rng = substream(3, "narrow")
        small = bootstrap_ci(rng.normal(0.0, 1.0, 40), _row_mean, rng=substream(3, "b1"))
        large = bootstrap_ci(rng.normal(0.0, 1.0, 4000), _row_mean, rng=substream(3, "b2"))
        assert large[1] - large[0] < small[1] - small[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]), _row_mean, rng=substream(1, "b"))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(5), _row_mean, n_resamples=0, rng=substream(1, "b"))
        # no unseeded default: every interval needs a seed-derived stream
        with pytest.raises(TypeError):
            bootstrap_ci(np.ones(5), _row_mean)

    def test_coverage_for_the_mean(self):
        # nominal 95% percentile intervals for a Gaussian mean
        hits = 0
        n_outer = 300
        for r in range(n_outer):
            samples = substream(1000 + r, "cov").normal(0.0, 1.0, 200)
            lo, hi = bootstrap_ci(
                samples, _row_mean, n_resamples=300, rng=substream(1000 + r, "boot")
            )
            hits += lo <= 0.0 <= hi
        assert 0.89 <= hits / n_outer <= 0.99

    def test_statistic_must_be_row_wise(self):
        samples = substream(4, "data").normal(0.0, 1.0, 30)
        # a 1-D statistic reduces the whole block to one scalar, which
        # would otherwise broadcast into every slot of the block
        bad = (np.mean, lambda v: v.mean(axis=1)[:-1], lambda v: v.mean(axis=0))
        for statistic in bad:
            with pytest.raises(ValueError, match="statistic must map"):
                bootstrap_ci(samples, statistic, n_resamples=5, rng=substream(4, "b"))

    @pytest.mark.parametrize("n_resamples", [1, 7, 64, 65, 131])
    @pytest.mark.parametrize("n", [1, 3, 1000, 8193, 12500, 65537])
    @pytest.mark.parametrize(
        "rows, reference",
        [
            (_order_statistic_rows, _REFERENCE_STATISTICS["emp_q95"]),
            (approx_q95_rows, _REFERENCE_STATISTICS["approx_q95"]),
        ],
        ids=["empirical", "approx"],
    )
    def test_equals_one_resample_at_a_time(self, rows, reference, n, n_resamples):
        # Block sizes 65536 // n leave ragged last blocks and, at
        # n = 65537, blocks of one row.
        samples = np.square(substream(n, "eq-data").normal(0.0, 1.0, n))
        rng = substream(n, n_resamples, "eq-boot")
        ref_rng = substream(n, n_resamples, "eq-boot")
        with warnings.catch_warnings():
            # n = 1 has no sample sd: both sides give nan
            warnings.simplefilter("ignore", RuntimeWarning)
            got = bootstrap_ci(samples, rows, n_resamples=n_resamples, rng=rng)
            want = bootstrap_ci_reference(
                samples, reference, n_resamples=n_resamples, rng=ref_rng
            )
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_resamples", [1, 65, 131])
    @pytest.mark.parametrize("n", [1, 3, 1000, 8193, 12500, 65537])
    def test_rank_interval_equals_one_resample_at_a_time_on_ties(self, n, n_resamples):
        # A lattice sample ties most replicates with many others; a
        # row-wise order statistic must still give the bytes of one
        # resample at a time.
        chi2 = np.square(substream(n, "tie-data").normal(0.0, 1.0, n))
        samples = np.floor(3 * chi2) / 9
        if n >= 1000:
            assert np.unique(samples).size < n // 10
        rng = substream(n, n_resamples, "tie-boot")
        ref_rng = substream(n, n_resamples, "tie-boot")
        got = bootstrap_ci(samples, _order_statistic_rows, n_resamples=n_resamples, rng=rng)
        want = bootstrap_ci_reference(
            samples, _REFERENCE_STATISTICS["emp_q95"], n_resamples, rng=ref_rng
        )
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "b, n", [(5, 12500), (3, 12500), (65, 1000), (25, 1000), (1, 65537), (8, 2)]
    )
    def test_approx_rows_equal_numpy_mean_plus_std(self, b, n):
        # One mean per row, in numpy's own variance sequence: full and
        # ragged bootstrap blocks must give numpy's mean and std bytes.
        # A numpy release that changes that sequence fails here.
        v = np.square(substream(b, n, "approx-rows").normal(0.0, 1.0, (b, n)))
        want = v.mean(axis=1) + C_95 * v.std(axis=1, ddof=1)
        assert approx_q95_rows(v.copy()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001, 8193])
    def test_block_draw_consumes_the_stream_like_sequential_draws(self, n):
        # bootstrap_ci's bytes rest on this property of numpy's bounded
        # integers; a numpy release that breaks it fails here
        rng_block = substream(9, n, "pin")
        rng_seq = substream(9, n, "pin")
        block = rng_block.integers(0, n, (5, n))
        seq = np.stack([rng_seq.integers(0, n, n) for _ in range(5)])
        assert np.array_equal(block, seq)
        assert rng_block.bit_generator.state == rng_seq.bit_generator.state
        assert rng_block.random() == rng_seq.random()


def _report_of(samples):
    """run_cell's report on a given sample of squared errors."""
    samples = np.asarray(samples, dtype=float)
    cfg = CellConfig(
        cell_id="exact::sample",
        model=default_model("continuous", 1),
        x=CovariateMatrix([[0.0], [0.5], [1.0], [2.0]]),
        design=DesignSpec.bcrd(4),
        n_reps=samples.size,
        master_seed=5,
    )
    return run_cell(cfg, samples)


class TestExactInterval:
    """emp_q95's interval is the exact percentile-bootstrap law of the
    ceil(0.95 N)-th order statistic, with no resampling."""

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_the_law_over_every_resample(self, n, tied):
        samples = np.array([1.7, 0.3, 2.9, 0.8, 1.1, 2.2])[:n]
        if tied:
            # a tie at the top, where the quantile's ranks sit
            samples[-1] = samples[:-1].max() if n > 2 else samples[0]
        # All n**n resamples are equally likely: the bootstrap law as the
        # number of resamples goes to infinity.  Each endpoint is the
        # smallest value whose share of the law reaches its level.
        resamples = samples[np.indices((n,) * n).reshape(n, -1).T]
        stats = np.sort(np.sort(resamples, axis=1)[:, math.ceil(0.95 * n) - 1])
        want = tuple(
            float(stats[math.ceil(level * stats.size) - 1])
            for level in (_ALPHA, 1.0 - _ALPHA)
        )
        report = _report_of(samples)
        assert (report.emp_q95_lo, report.emp_q95_hi) == want

    @pytest.mark.parametrize("n", [2, 3, 7, 20, 300, 1000, 2500, 12500])
    def test_ranks_equal_the_plain_python_oracle(self, n):
        k, j_lo, j_hi = _exact_ranks(n)
        assert k == math.ceil(0.95 * n)
        assert j_lo == exact_bootstrap_rank_reference(n, _ALPHA)
        assert j_hi == exact_bootstrap_rank_reference(n, 1.0 - _ALPHA)
        # each rank is the first at which the tail reaches its level
        for j, level in ((j_lo, _ALPHA), (j_hi, 1.0 - _ALPHA)):
            assert binomial_tail_reference(n, j / n, k) >= level
            assert binomial_tail_reference(n, (j - 1) / n, k) < level

    @pytest.mark.parametrize("kind", ["chi2", "lattice"])
    def test_many_resamples_land_inside_the_exact_law(self, kind):
        # 20,000 resamples, one at a time: each endpoint of their
        # percentile interval lies between the exact law's quantiles at
        # its level plus and minus four standard errors of a share.
        n, reps = 2500, 20_000
        chi2 = np.square(substream(n, "exact-data").normal(0.0, 1.0, n))
        samples = chi2 if kind == "chi2" else np.floor(3 * chi2) / 9
        got = bootstrap_ci_reference(
            samples, _REFERENCE_STATISTICS["emp_q95"], reps,
            rng=substream(n, kind, "exact-boot"),
        )
        s = np.sort(samples)
        delta = 4.0 * math.sqrt(_ALPHA * (1.0 - _ALPHA) / reps)
        report = _report_of(samples)
        exact = (report.emp_q95_lo, report.emp_q95_hi)
        for end, at, level in zip(got, exact, (_ALPHA, 1.0 - _ALPHA)):
            low = s[exact_bootstrap_rank_reference(n, level - delta) - 1]
            high = s[exact_bootstrap_rank_reference(n, level + delta) - 1]
            assert low <= end <= high
            assert low <= at <= high

    def test_interval_holds_the_point_at_every_small_n(self):
        for n in range(2, 61):
            samples = np.square(substream(n, "small-n").normal(0.0, 1.0, n))
            report = _report_of(samples)
            assert report.emp_q95_lo <= report.emp_q95 <= report.emp_q95_hi, n


def _criterion_6_samples(blocks):
    """The squared errors of criterion 6's blocking-sweep cells at the
    given block counts (2n = 96, continuous, p = 1, 20,000 replicates):
    a cell's sample depends only on its own config and its panel id."""
    seed, response, p, n_sub = 20260814, "continuous", 1, 96
    rng = substream(seed, "covariates", "uniform", response, p)
    x = draw_covariates(default_covariate_source(response), n_sub, p, rng)
    model = default_model(response, p)
    cells = [
        CellConfig(
            f"{response}|p{p}|block|B{b}|n{n_sub}", model, x,
            DesignSpec.block(build_blocking(x, b)), 20_000, seed,
        )
        for b in blocks
    ]
    return cells, simulate_squared_errors(cells, f"{response}|p{p}|n{n_sub}")


class TestDeltaInterval:
    """approx_q95's interval is approx_q95 -+ z * se, se the delta-method
    (infinitesimal jackknife) standard error, with no resampling."""

    def test_z_is_the_normal_quantile(self):
        assert _Z == NormalDist().inv_cdf(1.0 - _ALPHA)

    def test_report_ignores_cell_id_and_master_seed(self):
        cfg = _pm_cell(n_reps=2000)
        sq = _alone(cfg)
        want = run_cell(cfg, sq)
        for other in (
            replace(cfg, cell_id="another cell"),
            replace(cfg, master_seed=cfg.master_seed + 1),
            replace(cfg, cell_id="x", master_seed=0),
        ):
            assert run_cell(other, sq) == want

    @pytest.mark.parametrize("value", [0.0, 0.1, 1.0 / 3.0, 3.25, 1e-300])
    @pytest.mark.parametrize("n", [2, 3, 7, 1000, 12500])
    def test_a_constant_sample_collapses_to_its_point(self, value, n):
        # sd is 0, or a rounding residue whose standard error vanishes
        # beside the point
        report = _report_of(np.full(n, value))
        assert report.approx_q95_lo == report.approx_q95 == report.approx_q95_hi

    def test_an_overflowing_interval_raises(self):
        # sd is finite (about 9.5e151), but the outlier's influence value
        # (about 7.8e154) squares past the float range
        samples = np.zeros(1000)
        samples[0] = 3e153
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="^approx_q95 interval must be finite$"):
                _report_of(samples)

    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 12500])
    @pytest.mark.parametrize("kind", ["chi2", "lognormal", "lattice", "two-point"])
    def test_half_width_equals_the_moment_oracle(self, kind, n):
        z = substream(n, kind, "delta-data").normal(0.0, 1.0, n)
        samples = {
            "chi2": np.square(z),
            "lognormal": np.exp(2.0 * z),
            "lattice": np.floor(3 * np.square(z)) / 9,
            "two-point": np.where(z > 0.5, 2.0, 1.0),
        }[kind]
        if np.ptp(samples) == 0:  # a short lattice or two-point draw
            samples[0] += 1.0
        report = _report_of(samples)
        half = NormalDist().inv_cdf(1.0 - _ALPHA) * delta_se_reference(samples)
        assert report.approx_q95_hi - report.approx_q95 == pytest.approx(half, rel=1e-9)
        assert report.approx_q95 - report.approx_q95_lo == pytest.approx(half, rel=1e-9)

    def test_covers_pb_exact_target(self):
        # pb's squared error is (w*'v / 2n)^2 with w*'v ~ N(m, s^2) for
        # the continuous response, so its mean + 1.645 sd is exact:
        # (m^2 + s^2 + 1.645 sqrt(2 s^4 + 4 m^2 s^2)) / 4n^2.  The
        # interval must cover it in 95% of cells, within four binomial
        # standard errors, over 400 seeds.
        x = CovariateMatrix(np.linspace(0.0, 1.0, 8)[:, None])
        model = default_model("continuous", 1)
        w_star = Allocation([1, 1, 1, 1, -1, -1, -1, -1])
        mu_t, mu_c = potential_means(model, x)
        m = float(w_star.signs @ (mu_t + mu_c))
        s2 = float(residual_variances(model, mu_t, mu_c).sum())
        target = (m * m + s2 + C_95 * math.sqrt(2 * s2 * s2 + 4 * m * m * s2)) / 64.0
        seeds = 400
        hits = 0
        for seed in range(seeds):
            cfg = CellConfig("delta::pb", model, x, DesignSpec.pb(w_star), 1000, seed)
            report = run_cell(cfg)
            hits += report.approx_q95_lo <= target <= report.approx_q95_hi
        band = 4.0 * math.sqrt(0.95 * 0.05 / seeds)
        assert abs(hits / seeds - 0.95) <= band, hits

    @pytest.mark.parametrize("b", [1, 48])
    def test_agrees_with_many_resamples_on_criterion_6_cells(self, b):
        # 20,000 percentile-bootstrap resamples, one at a time, as
        # bootstrap_ci_reference draws them: each endpoint of the delta
        # interval lies between the resampled statistics' quantiles at
        # its level plus and minus four standard errors of a share, and
        # so does the resampled interval's own endpoint.
        (cfg,), (sq,) = _criterion_6_samples([b])
        reps = 20_000
        stats = bootstrap_statistics_reference(
            sq, _REFERENCE_STATISTICS["approx_q95"], reps, rng=substream(b, "delta-boot")
        )
        resampled = np.quantile(stats, [_ALPHA, 1.0 - _ALPHA])
        report = run_cell(cfg, sq)
        delta = 4.0 * math.sqrt(_ALPHA * (1.0 - _ALPHA) / reps)
        ends = (report.approx_q95_lo, report.approx_q95_hi)
        for end, boot, level in zip(ends, resampled, (_ALPHA, 1.0 - _ALPHA)):
            low, high = np.quantile(stats, [level - delta, level + delta])
            assert low <= boot <= high
            assert low <= end <= high


class TestCellConfig:
    def test_validation(self):
        x = CovariateMatrix([[0.0], [0.5], [1.0], [2.0]])
        model = default_model("continuous", 1)
        spec = DesignSpec.bcrd(4)
        with pytest.raises(ValueError):
            CellConfig("c", model, x, spec, n_reps=1, master_seed=0)
        for cell_id in (None, 7, b"c"):
            with pytest.raises(ValueError, match="cell_id must be a str"):
                CellConfig(cell_id, model, x, spec, n_reps=10, master_seed=0)
        # bootstrap_reps is gone: passing it fails loudly
        with pytest.raises(TypeError, match="bootstrap_reps"):
            CellConfig("c", model, x, spec, n_reps=10, master_seed=0, bootstrap_reps=1000)
        with pytest.raises(ValueError):
            CellConfig("c", model, x, DesignSpec.bcrd(6), n_reps=10, master_seed=0)
        with pytest.raises(ValueError):
            CellConfig("c", default_model("continuous", 2), x, spec,
                       n_reps=10, master_seed=0)
        # a wrong type is named, not an AttributeError deep inside
        for field, bad, got in (
            ("design", None, "NoneType"),
            ("x", x.values, "ndarray"),
            ("model", "continuous", "str"),
            ("cell_id", 7, "int"),
        ):
            fields = dict(cell_id="c", model=model, x=x, design=spec, n_reps=10, master_seed=0)
            fields[field] = bad
            with pytest.raises(ValueError, match=f"^{field} must be a [A-Za-z]+, got {got}$"):
                CellConfig(**fields)


class TestSimulateSquaredErrors:
    def test_shape_sign_and_determinism(self):
        cfg = _pm_cell(n_reps=500)
        sq = _alone(cfg)
        assert sq.shape == (500,)
        assert (sq >= 0.0).all()
        np.testing.assert_array_equal(sq, _alone(cfg))

    def test_cell_id_separates_streams(self):
        a = _pm_cell(n_reps=500)
        b = CellConfig(
            cell_id="unit::pm::4b",
            model=a.model,
            x=a.x,
            design=a.design,
            n_reps=500,
            master_seed=a.master_seed,
        )
        assert not np.array_equal(_alone(a), _alone(b))

    def test_spans_chunk_boundaries(self):
        cfg = _pm_cell(n_reps=8192 + 100)
        sq = _alone(cfg)
        assert sq.shape == (8292,)
        assert np.isfinite(sq).all()

    @pytest.mark.parametrize("kind", RESPONSE_KINDS)
    def test_full_and_ragged_chunks_match_the_separate_array_contrast(self, kind):
        # One full 8,192-draw chunk and one ragged chunk at 2n = 96, for
        # a bcrd and a B = 8 cell: the in-place chunk loop must give the
        # bytes of w * (y_t + y_c) built from separate arrays.
        x = draw_covariates(default_covariate_source(kind), 96, 2, substream(7, "x", kind))
        for design in (DesignSpec.bcrd(96), DesignSpec.block(build_blocking(x, 8))):
            cfg = CellConfig(
                cell_id=f"chunks::{kind}::{design.kind}",
                model=default_model(kind, 2),
                x=x,
                design=design,
                n_reps=8192 + 100,
                master_seed=29,
            )
            got = _alone(cfg)
            assert got.tobytes() == simulate_squared_errors_reference(cfg).tobytes()

    @pytest.mark.parametrize("n_draws", ROW_BLOCK_DRAWS)
    @pytest.mark.parametrize("kind", RESPONSE_KINDS)
    def test_consecutive_draws_equal_one_whole_draw(self, kind, n_draws):
        # The chunk loop draws the control arm one row block at a time,
        # so draw_outcomes of n1 rows and then n2 rows on one stream
        # must give the bytes and the end state of the oracle's one
        # whole draw of n1 + n2 rows (the continuous one is
        # rng.normal(mu, 1.0), the proportion one rng.beta), for every
        # split.  A row block is 682 rows at 2n = 96.
        x = draw_covariates(default_covariate_source(kind), 96, 2, substream(7, "x", kind))
        model = default_model(kind, 2)
        mu = potential_means(model, x)[0]
        want_rng = substream(33, n_draws, kind)
        want = draw_outcomes_reference(model, mu, want_rng, n_draws)
        assert want.shape == (n_draws, 96)
        for n1 in ROW_BLOCK_DRAWS:
            if n1 > n_draws:
                continue
            rng = substream(33, n_draws, kind)
            got = np.concatenate(
                [draw_outcomes(model, mu, rng, n1), draw_outcomes(model, mu, rng, n_draws - n1)]
            )
            assert got.tobytes() == want.tobytes(), n1
            assert rng.bit_generator.state == want_rng.bit_generator.state, n1

    @pytest.mark.parametrize(
        "kind, limit",
        [("continuous", 1.5), ("incidence", 1.5), ("proportion", 1.5),
         ("count", 1.5), ("survival", 1.5)],
    )
    def test_a_chunk_peaks_at_one_outcome_buffer(self, kind, limit):
        # tracemalloc sees numpy's array allocations.  One full chunk at
        # 2n = 96 holds one (8192, 96) float64 buffer for every response,
        # plus row blocks and int8 signs; a whole control-arm draw would
        # add a buffer, and a bcrd block's whole uniforms and argsort two.
        x = draw_covariates(default_covariate_source(kind), 96, 2, substream(7, "x", kind))
        model = default_model(kind, 2)
        buffer = CHUNK_SIZE * 96 * 8

        def peak_of(cells, panel_id):
            tracemalloc.start()
            try:
                simulate_squared_errors(cells, panel_id)
                return tracemalloc.get_traced_memory()[1] / buffer
            finally:
                tracemalloc.stop()

        for design in (DesignSpec.bcrd(96), DesignSpec.block(build_blocking(x, 48))):
            cfg = CellConfig(
                cell_id=f"peak::{kind}::{design.kind}",
                model=model,
                x=x,
                design=design,
                n_reps=CHUNK_SIZE,
                master_seed=41,
            )
            peak = peak_of([cfg], cfg.cell_id)
            assert peak <= limit, (design.kind, peak)
        # A 10-cell panel over two full chunks: one shared outcome
        # buffer, a bcrd sampler's row blocks beside it, and ten
        # result arrays.  Keeping the first chunk's buffer alive across
        # the second draw would pass two buffers.
        cells = [
            CellConfig(
                cell_id=f"peak::{kind}::B{b}",
                model=model,
                x=x,
                design=DesignSpec.block(build_blocking(x, b)),
                n_reps=2 * CHUNK_SIZE,
                master_seed=41,
            )
            for b in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)
        ]
        peak = peak_of(cells, f"peak::{kind}")
        assert peak <= 1.8, ("10-cell panel", peak)

    def test_mean_matches_the_analytic_criterion(self):
        cfg = _pm_cell(n_reps=40_000)
        sq = _alone(cfg)
        mu_t, mu_c = potential_means(cfg.model, cfg.x)
        rho = residual_variances(cfg.model, mu_t, mu_c)
        inputs = CriterionInputs(mu_t + mu_c, rho, design_covariance(cfg.design))
        target = mean_mse(inputs)
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - target) <= 3.5 * se


def _panel(kind, n_reps, designs, seed=29, panel_id="panel"):
    """Cells of one 2n = 96, p = 2 panel, one per design, sharing one
    model and one covariate draw."""
    x = draw_covariates(default_covariate_source(kind), 96, 2, substream(7, "x", kind))
    model = default_model(kind, 2)
    return [
        CellConfig(f"{panel_id}::{label}", model, x, make(x), n_reps, seed)
        for label, make in designs
    ]


_FOUR_DESIGNS = (
    ("bcrd", lambda x: DesignSpec.bcrd(96)),
    ("B8", lambda x: DesignSpec.block(build_blocking(x, 8))),
    ("pm", lambda x: DesignSpec.pm(Blocking.from_pairs(build_blocking(x, 48).pairs()))),
    ("pb", lambda x: DesignSpec.pb(greedy_pair_switch(x, 8, substream(3, "pb")))),
)


class TestPanel:
    @pytest.mark.parametrize("kind", RESPONSE_KINDS)
    def test_each_cell_equals_its_one_cell_panel(self, kind):
        # Over a full and a ragged chunk, a cell's squared errors depend
        # on its own config and the panel id, not on the other cells.
        cells = _panel(kind, 8192 + 100, _FOUR_DESIGNS)
        together = simulate_squared_errors(cells, "pid")
        assert len(together) == len(cells)
        for cell, got in zip(cells, together):
            alone = simulate_squared_errors([cell], "pid")[0]
            assert got.tobytes() == alone.tobytes(), cell.cell_id

    def test_a_lone_cell_is_its_own_panel(self):
        # run_cell(cfg) simulates the cell as the one-cell panel keyed by
        # its cell id, and no other panel id gives its report
        cfg = _pm_cell(n_reps=500)
        (sq,) = simulate_squared_errors([cfg], cfg.cell_id)
        want = np.array(astuple(run_cell(cfg, sq)))
        assert np.array(astuple(run_cell(cfg))).tobytes() == want.tobytes()
        (other,) = simulate_squared_errors([cfg], "another panel")
        assert not np.array_equal(np.array(astuple(run_cell(cfg, other))), want)

    def test_a_panel_draws_its_outcomes_once(self, monkeypatch):
        calls = []

        def counting(model, mu, rng, n_draws):
            calls.append(n_draws)
            return draw_outcomes(model, mu, rng, n_draws)

        monkeypatch.setattr(twoarm.montecarlo, "draw_outcomes", counting)
        blocks = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48)
        designs = [
            (f"B{b}", lambda x, b=b: DesignSpec.block(build_blocking(x, b))) for b in blocks
        ]
        cells = _panel("continuous", 8192 + 100, designs)
        simulate_squared_errors(cells, "ten")
        ten = list(calls)
        calls.clear()
        simulate_squared_errors(cells[:1], "one")
        assert ten == calls
        assert sum(calls) == 2 * (8192 + 100)

    @pytest.mark.parametrize("kind", RESPONSE_KINDS)
    def test_pb_scores_w_star_without_drawing_its_coin(self, kind, monkeypatch):
        # (-w*'v)^2 is (w*'v)^2 bitwise, so the chunk loop scores w*
        # itself and must still give the bytes of the oracle, which draws
        # the coin, over a full and a ragged chunk.
        (cfg,) = _panel(kind, 8192 + 100, _FOUR_DESIGNS[3:])

        def no_draw(spec, n_draws, rng):
            raise AssertionError("a pb cell drew allocations")

        monkeypatch.setattr(twoarm.montecarlo, "sample_allocations", no_draw)
        got = _alone(cfg)
        assert got.tobytes() == simulate_squared_errors_reference(cfg).tobytes()

    def test_cells_that_disagree_are_rejected(self):
        cells = _panel("continuous", 300, _FOUR_DESIGNS[:2])
        first = cells[0]
        x2 = CovariateMatrix(first.x.values.copy())
        variants = {
            "model": dict(model=default_model("continuous", 2)),
            "x": dict(x=x2),
            "n_reps": dict(n_reps=301),
            "master_seed": dict(master_seed=30),
        }
        for name, change in variants.items():
            fields = dict(
                cell_id="odd", model=first.model, x=first.x, design=first.design,
                n_reps=first.n_reps, master_seed=first.master_seed,
            )
            odd = CellConfig(**{**fields, **change})
            with pytest.raises(ValueError, match=f"must share {name}: 'odd'"):
                simulate_squared_errors([*cells, odd], "pid")
        with pytest.raises(ValueError, match="no cells"):
            simulate_squared_errors([], "pid")


class TestRunCell:
    def test_report_is_reproducible(self):
        cfg = _pm_cell(n_reps=2000)
        a = run_cell(cfg)
        b = run_cell(cfg)
        assert isinstance(a, CriterionReport)
        assert a == b

    def test_cached_ranks_give_the_reports_of_a_cold_cache(self):
        # The ranks are cached per N.  Each size is summarised once on a
        # cleared cache and then again, in another order, on the warm
        # one: a cache keyed on anything but N would hand one size's
        # ranks to another.
        sizes = (2, 3, 1000, 2500, 12500)
        samples = {n: np.square(substream(n, "rank-cache").normal(0.0, 1.0, n)) for n in sizes}
        cold = {}
        for n in sizes:
            _exact_ranks.cache_clear()
            cold[n] = _report_of(samples[n])
        _exact_ranks.cache_clear()
        for n in sizes:
            assert _report_of(samples[n]) == cold[n]
        for n in reversed(sizes):
            assert _report_of(samples[n]) == cold[n]
        info = _exact_ranks.cache_info()
        assert (info.misses, info.currsize) == (len(sizes), len(sizes))
        assert {n: _exact_ranks(n) for n in sizes} == {
            n: _exact_ranks.__wrapped__(n) for n in sizes
        }

    def test_summarises_a_given_sample(self):
        cfg = _pm_cell(n_reps=2000)
        sq = simulate_squared_errors([cfg], "some panel")[0]
        kept = sq.copy()
        assert run_cell(cfg, sq) != run_cell(cfg)
        assert run_cell(cfg, sq) == run_cell(cfg, kept)
        assert sq.tobytes() == kept.tobytes()
        with pytest.raises(ValueError, match=r"sq must have shape \(2000,\), got \(1999,\)"):
            run_cell(cfg, sq[1:])

    @pytest.mark.parametrize("beta, finite", [(150.0, True), (184.0, False)])
    def test_overflowing_sd_raises(self, beta, finite):
        # at beta 184 the squared errors (mean ~1e158) are finite but
        # their variance is not, which would make sd and approx_q95 inf
        cfg = CellConfig(
            cell_id=f"overflow::{beta}",
            model=ResponseModel("survival", 0.0, np.array([beta]), 0.0),
            x=CovariateMatrix(np.linspace(-1, 1, 16)[:, None]),
            design=DesignSpec.bcrd(16),
            n_reps=200,
            master_seed=3,
        )
        if finite:
            report = run_cell(cfg)
            assert np.isfinite([report.sd_sq_err, report.approx_q95_hi]).all()
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="^sd_sq_err must be finite$"):
                run_cell(cfg)

    def test_report_equals_reference_statistics_on_an_untouched_sample(self):
        # Every figure from its textbook formula on an untouched copy of
        # the sample: the point values bit for bit, the delta interval
        # from the moment oracle's standard error.
        cfg = _pm_cell(n_reps=3000)
        sq = _alone(cfg)
        want = {"mean_sq_err": float(sq.mean()), "sd_sq_err": float(sq.std(ddof=1))}
        for column in ("emp_q95", "approx_q95"):
            want[column] = float(_REFERENCE_STATISTICS[column](sq.copy()))
        s = np.sort(sq)
        want["emp_q95_lo"], want["emp_q95_hi"] = (
            float(s[exact_bootstrap_rank_reference(sq.size, level) - 1])
            for level in (_ALPHA, 1.0 - _ALPHA)
        )
        half = NormalDist().inv_cdf(1.0 - _ALPHA) * delta_se_reference(sq)
        got = asdict(run_cell(cfg))
        for column, sign in (("approx_q95_lo", -1.0), ("approx_q95_hi", 1.0)):
            assert got.pop(column) == pytest.approx(want["approx_q95"] + sign * half, rel=1e-12)
        assert got == want

    def test_summary_fields_are_consistent(self):
        cfg = _pm_cell(n_reps=2000)
        report = run_cell(cfg)
        sq = _alone(cfg)
        assert report.mean_sq_err == pytest.approx(float(sq.mean()), rel=1e-12)
        assert report.sd_sq_err == pytest.approx(float(sq.std(ddof=1)), rel=1e-12)
        assert report.emp_q95 == np.sort(sq)[math.ceil(0.95 * sq.size) - 1]
        assert report.approx_q95 == pytest.approx(
            report.mean_sq_err + 1.645 * report.sd_sq_err, rel=1e-12
        )
        assert report.emp_q95_lo <= report.emp_q95 <= report.emp_q95_hi
        assert report.approx_q95_lo <= report.approx_q95 <= report.approx_q95_hi

    @pytest.mark.parametrize(
        "design, kind, expected",
        [
            (
                DesignSpec.pm(Blocking([0, 0, 1, 1])),
                "continuous",
                (
                    0.8191249577564128,
                    1.0158599987194328,
                    2.8153900573854567,
                    (2.2888579890587377, 3.1259237016057773),
                    2.4902146556498796,
                    (2.1378679343099503, 2.842561376989809),
                ),
            ),
            (
                DesignSpec.pb(Allocation([1, -1, -1, 1])),
                "survival",
                (
                    0.623159408098188,
                    0.4624211328599276,
                    1.4554141853901286,
                    (1.3319439505704138, 1.645655107365447),
                    1.383842171652769,
                    (1.2634674986405663, 1.5042168446649715),
                ),
            ),
        ],
        ids=["pm", "pb"],
    )
    def test_pinned_report_values(self, design, kind, expected):
        # Exact values of a tiny cell, so that any change to the bytes
        # the summary path produces fails here, not only in results.csv.
        cfg = CellConfig(
            cell_id=f"pinned::{design.kind}",
            model=default_model(kind, 1),
            x=CovariateMatrix([[0.0], [0.5], [1.0], [2.0]]),
            design=design,
            n_reps=300,
            master_seed=11,
        )
        report = run_cell(cfg)
        got = (
            report.mean_sq_err,
            report.sd_sq_err,
            report.emp_q95,
            (report.emp_q95_lo, report.emp_q95_hi),
            report.approx_q95,
            (report.approx_q95_lo, report.approx_q95_hi),
        )
        assert got == expected


class TestEnumerateDesignOracle:
    def test_pb_support_is_a_mirror_pair(self):
        w_star = Allocation([1, -1, 1, -1])
        spec = DesignSpec.pb(w_star)
        outcomes = OutcomePair([1.0, 2.0, 4.0, 0.0], [0.5, 1.5, 3.5, 1.0])
        mean, var = enumerate_design_oracle(spec, outcomes)
        v = outcomes.y_t + outcomes.y_c
        expected = float(v @ w_star.signs) ** 2 / 16.0
        assert mean == pytest.approx(expected, rel=1e-12)
        assert var == 0.0

    def test_bcrd_matches_the_long_way_round(self):
        spec = DesignSpec.bcrd(6)
        rng = substream(21, "oracle")
        y_t = rng.normal(0.0, 1.0, 6)
        y_c = rng.normal(0.0, 1.0, 6)
        outcomes = OutcomePair(y_t, y_c)
        mean, var = enumerate_design_oracle(spec, outcomes)
        sq = squared_errors_over(balanced_allocations(6), y_t, y_c)
        assert mean == pytest.approx(float(sq.mean()), rel=1e-12)
        assert var == pytest.approx(float(sq.var()), rel=1e-12)

    def test_rejects_outcomes_of_another_size(self):
        with pytest.raises(ValueError, match="outcomes have 2 subjects.*has 4"):
            enumerate_design_oracle(
                DesignSpec.bcrd(4), OutcomePair([1.0, 2.0], [0.0, 1.0])
            )


class TestConvergenceStudy:
    def test_zero_gap_designs_sit_on_half(self):
        rows = convergence_study(["pm", "pb"], [16], n_reps=20_000, master_seed=606)
        assert len(rows) == 2
        for row in rows:
            assert row["pm_reference"] == pytest.approx(0.125)
            assert row["pb_reference"] == pytest.approx(0.5)
            assert row["pm_enumeration_candidate"] == pytest.approx(0.5)
            assert abs(row["scaled_variance"] - 0.5) <= 4.0 * row["se"]

    def test_rows_track_the_grid(self):
        rows = convergence_study(["pb"], [8, 16], n_reps=400, master_seed=9)
        assert [row["n_subjects"] for row in rows] == [8, 16]
        assert all(row["design"] == "pb" for row in rows)
        assert all(row["n_reps"] == 400 for row in rows)

    def test_rejects_other_designs_and_odd_sizes(self):
        with pytest.raises(ValueError):
            convergence_study(["bcrd"], [8], n_reps=100, master_seed=0)
        with pytest.raises(ValueError, match="n_subjects_grid.*got 7"):
            convergence_study(["pm"], [7], n_reps=100, master_seed=0)
        with pytest.raises(ValueError, match="n_subjects_grid.*got 2"):
            convergence_study(["pm"], [2], n_reps=100, master_seed=0)

    def test_rejects_non_integer_and_too_small_sizes(self):
        for bad in (8.0, "8", True, np.float64(8.0), None):
            with pytest.raises(ValueError, match="n_subjects_grid.*integer, got"):
                convergence_study(["pb"], [bad], n_reps=10, master_seed=0)
        for n_sub in (-4, 0, 2):
            with pytest.raises(ValueError, match=f"n_subjects_grid.*>= 4, got {n_sub}"):
                convergence_study(["pm"], [n_sub], n_reps=10, master_seed=0)
        (row,) = convergence_study(["pm"], [np.int64(8)], n_reps=10, master_seed=0)
        assert type(row["n_subjects"]) is int and row["n_subjects"] == 8

    def test_each_entry_is_its_own_noise_only_panel(self):
        # the row is n^2/4 times the variance of the cell convergence::<kind>::<2n>
        # run alone on a zero covariate with no signal
        rows = convergence_study(["pm", "pb"], [8], n_reps=300, master_seed=12)
        model = ResponseModel(kind="continuous", beta0=0.0, beta=np.ones(1), beta_t=0.0)
        x = CovariateMatrix(np.zeros((8, 1)))
        specs = {
            "pm": DesignSpec.pm(Blocking(np.arange(8) // 2)),
            "pb": DesignSpec.pb(Allocation(np.tile(np.array([1, -1], dtype=np.int8), 4))),
        }
        for row, kind in zip(rows, ("pm", "pb")):
            cell_id = f"convergence::{kind}::8"
            cfg = CellConfig(cell_id, model, x, specs[kind], 300, 12)
            (sq,) = simulate_squared_errors([cfg], cell_id)
            assert list(row) == [
                "design", "n_subjects", "n_reps", "scaled_variance", "se",
                "pm_reference", "pb_reference", "pm_enumeration_candidate",
            ]
            assert (row["design"], row["n_subjects"], row["n_reps"]) == (kind, 8, 300)
            assert row["scaled_variance"] == 4 * 4 / 4.0 * float(sq.var(ddof=1))

    def test_deterministic(self):
        a = convergence_study(["pm"], [8], n_reps=500, master_seed=3)
        b = convergence_study(["pm"], [8], n_reps=500, master_seed=3)
        assert a == b
