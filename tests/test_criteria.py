import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoarm.cli as cli
import twoarm.criteria
from twoarm.core import Allocation, Blocking, CovariateMatrix
from twoarm.criteria import (
    PB_REFERENCE,
    PM_COND_VAR_COEFF,
    PM_COND_VAR_COEFF_REPORTED,
    PM_ENUMERATION_CANDIDATE,
    PM_REFERENCE,
    CriterionInputs,
    convergence_study,
    enumerate_allocations,
    mean_mse,
    pb_quantile,
    pm_conditional_variance,
    variance_decomposition_terms,
)
from twoarm.designs import DesignSpec, design_covariance
from twoarm.montecarlo import C_95, CellConfig, run_cell
from twoarm.response import (
    default_covariate_source,
    default_model,
    draw_covariates,
    draw_outcomes,
    potential_means,
    residual_variances,
)
from twoarm.streams import substream

from util_oracles import sign_patterns


def _pm_spec(n_subjects):
    return DesignSpec.pm(Blocking(np.arange(n_subjects) // 2))


class TestTailConstant:
    def test_standard_levels_use_rounded_values(self):
        assert C_95 == 1.645


class TestCriterionInputs:
    def test_defaults(self):
        sigma = design_covariance(DesignSpec.bcrd(4))
        inputs = CriterionInputs(np.zeros(4), np.ones(4), sigma)
        assert inputs.n_pairs == 2

    def test_validation(self):
        sigma = design_covariance(DesignSpec.bcrd(4))
        with pytest.raises(ValueError):
            CriterionInputs(np.zeros((2, 2)), np.ones(4), sigma)
        with pytest.raises(ValueError):
            CriterionInputs(np.zeros(4), np.ones(3), sigma)
        with pytest.raises(ValueError):
            CriterionInputs(np.zeros(6), np.ones(6), sigma)
        with pytest.raises(ValueError):
            CriterionInputs(np.zeros(4), [1.0, 1.0, -0.5, 1.0], sigma)
        with pytest.raises(ValueError, match="^subject count must be even$"):
            CriterionInputs(np.zeros(3), np.ones(3), np.eye(3))
        with pytest.raises(ValueError, match="^subject count must be > 0, got 0$"):
            CriterionInputs([], [], np.zeros((0, 0)))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="mu must be finite"):
                CriterionInputs([0.0, bad, 0.0, 0.0], np.ones(4), sigma)
            with pytest.raises(ValueError, match="rho must be finite"):
                CriterionInputs(np.zeros(4), [1.0, 1.0, bad, 1.0], sigma)

    def test_sigma_w_must_be_a_square_symmetric_unit_diagonal_match(self):
        asymmetric = np.eye(4)
        asymmetric[0, 1] = 0.5
        cases = [
            (np.ones((2, 3)), "^sigma_w must be square$"),
            (np.ones(4), "^sigma_w must be square$"),
            (asymmetric, "^sigma_w must be symmetric$"),
            (0.5 * np.eye(4), "^sigma_w diagonal must be exactly 1$"),
            (design_covariance(DesignSpec.bcrd(6)), "^mu length must match sigma_w$"),
        ]
        for sigma, message in cases:
            with pytest.raises(ValueError, match=message):
                CriterionInputs(np.zeros(4), np.ones(4), sigma)

    def test_arrays_are_read_only(self):
        sigma = np.array(design_covariance(DesignSpec.bcrd(4)))
        inputs = CriterionInputs(np.zeros(4), np.ones(4), sigma)
        sigma[0, 1] = 0.0
        assert inputs.sigma_w[0, 1] == pytest.approx(-1.0 / 3.0)
        for arr in (inputs.mu, inputs.rho, inputs.sigma_w):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestMeanMse:
    def test_quadratic_form_by_hand(self):
        # mu' Sigma mu = (2 - (-1))^2 = 9 at 2n = 2, so the mean is 9 / 4
        sigma = np.array([[1.0, -1.0], [-1.0, 1.0]])
        inputs = CriterionInputs([2.0, -1.0], np.zeros(2), sigma)
        assert mean_mse(inputs) == pytest.approx(2.25, rel=1e-12)

    def test_single_nonzero_mean_under_bcrd(self):
        # mu' Sigma mu = 1 at 2n = 4, so the mean is 1 / 16
        sigma = design_covariance(DesignSpec.bcrd(4))
        inputs = CriterionInputs([1.0, 0.0, 0.0, 0.0], np.zeros(4), sigma)
        assert mean_mse(inputs) == pytest.approx(0.0625, rel=1e-12)

    def test_pairwise_matching_uses_within_pair_gaps(self):
        sigma = design_covariance(_pm_spec(4))
        inputs = CriterionInputs([3.0, 1.0, 0.0, 0.0], np.zeros(4), sigma)
        # ((3 - 1)^2 + 0) / 16
        assert mean_mse(inputs) == pytest.approx(0.25, rel=1e-12)

    def test_noise_only_term_ignores_the_design(self):
        for spec in (DesignSpec.bcrd(4), _pm_spec(4)):
            sigma = design_covariance(spec)
            inputs = CriterionInputs(np.zeros(4), np.full(4, 1.0), sigma)
            assert mean_mse(inputs) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            DesignSpec.bcrd(4),
            DesignSpec.bcrd(6),
            DesignSpec.bcrd(8),
            DesignSpec.block(Blocking([0, 0, 0, 0, 1, 1, 1, 1])),
            _pm_spec(8),
            DesignSpec.pb(Allocation([1, -1, 1, -1, 1, -1])),
        ],
        ids=["bcrd4", "bcrd6", "bcrd8", "block8", "pm8", "pb6"],
    )
    def test_matches_enumeration_over_the_support(self, spec):
        rng = substream(314, "mean-mse", spec.kind, spec.n_subjects)
        n = spec.n_subjects // 2
        allocs = enumerate_allocations(spec).astype(float)
        sigma = design_covariance(spec)
        for _ in range(5):
            mu = rng.normal(0.0, 2.0, spec.n_subjects)
            rho = np.abs(rng.normal(0.0, 1.0, spec.n_subjects))
            oracle = (
                float(np.square(allocs @ mu).mean()) + float(rho.sum())
            ) / (4.0 * n * n)
            got = mean_mse(CriterionInputs(mu, rho, sigma))
            assert got == pytest.approx(oracle, rel=1e-10)

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, c):
        sigma = design_covariance(DesignSpec.bcrd(6))
        mu = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25])
        rho = np.array([1.0, 0.5, 2.0, 0.0, 1.5, 0.75])
        base = mean_mse(CriterionInputs(mu, rho, sigma))
        scaled = mean_mse(CriterionInputs(c * mu, c * c * rho, sigma))
        assert scaled == pytest.approx(c * c * base, rel=1e-9)


class TestPmConditionalVariance:
    def test_coefficient_constants(self):
        assert PM_COND_VAR_COEFF == 0.25
        assert PM_COND_VAR_COEFF_REPORTED == 0.0625

    def test_single_pair_is_degenerate(self):
        assert pm_conditional_variance([4.0, 1.0]) == 0.0

    def test_two_pair_worked_example(self):
        # d = (2, 3): coeff * d1^2 d2^2 / n^4 = 0.25 * 36 / 16
        got = pm_conditional_variance([3.0, 1.0, 0.0, 3.0])
        assert got == pytest.approx(0.5625, rel=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pm_conditional_variance([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pm_conditional_variance(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="v must be"):
            pm_conditional_variance([])

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="v must be finite"):
                pm_conditional_variance([bad, 1.0])

    @pytest.mark.parametrize("n_pairs", [1, 2, 3, 4, 5, 6])
    def test_matches_sign_pattern_enumeration(self, n_pairs):
        rng = substream(271, "pm-cond", n_pairs)
        patterns = sign_patterns(n_pairs)
        # subject-level allocations: pair i occupies positions 2i, 2i+1
        allocs = np.repeat(patterns, 2, axis=1)
        allocs[:, 1::2] *= -1.0
        for _ in range(4):
            v = rng.normal(0.0, 3.0, 2 * n_pairs)
            sq = np.square(allocs @ v / (2.0 * n_pairs))
            oracle = float(sq.var())
            got = pm_conditional_variance(v)
            assert got == pytest.approx(oracle, rel=1e-11, abs=1e-15)

    @given(c=st.floats(0.01, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_quartic_scale_equivariance(self, c):
        v = np.array([1.0, -0.5, 2.0, 0.25, -1.5, 0.75])
        base = pm_conditional_variance(v)
        assert pm_conditional_variance(c * v) == pytest.approx(c**4 * base, rel=1e-9)


def _summary_of(samples):
    """run_cell's report on a given sample."""
    cfg = CellConfig(
        cell_id="unit::approx",
        model=default_model("continuous", 1),
        x=CovariateMatrix([[0.0], [0.5], [1.0], [2.0]]),
        design=DesignSpec.bcrd(4),
        n_reps=len(samples),
        master_seed=1,
    )
    return run_cell(cfg, np.asarray(samples, dtype=float))


class TestApproxQuantile:
    """mean + C_95 * sd and its delta-method interval, as run_cell
    evaluates them."""

    def test_worked_example(self):
        # mean 2, sample variance 4; the deviations -2, 0, 2 have central
        # sums S2 = 8, S3 = 0, S4 = 32, so the influence values'
        # variance is (S2 + C_95^2 (S4 - S2^2 / 3) / (4 * 4)) / 2
        report = _summary_of([0.0, 2.0, 4.0])
        assert report.approx_q95 == pytest.approx(5.29, rel=1e-12)
        se = math.sqrt((8.0 + C_95**2 * (32.0 - 64.0 / 3.0) / 16.0) / 2.0 / 3.0)
        half = 1.959963984540054 * se
        assert report.approx_q95_lo == pytest.approx(5.29 - half, rel=1e-12)
        assert report.approx_q95_hi == pytest.approx(5.29 + half, rel=1e-12)

    def test_zero_variance_returns_the_mean(self):
        report = _summary_of([0.75] * 4)
        assert report.approx_q95_lo == report.approx_q95 == report.approx_q95_hi == 0.75

    def test_rejects_bad_inputs(self):
        # survival means near exp(700) overflow the squared errors
        cfg = CellConfig(
            cell_id="unit::overflow",
            model=default_model("survival", 1),
            x=CovariateMatrix(np.full((4, 1), 700.0)),
            design=DesignSpec.bcrd(4),
            n_reps=8,
            master_seed=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError, match="mean_sq_err must be finite"):
                run_cell(cfg)


class TestPbQuantile:
    W = Allocation(np.tile([1, -1], 48))

    def test_zero_shift_is_the_noise_floor(self):
        # the README's floor: sum(rho) / 4n^2 * chi2_1(0.95) at 2n = 96
        floor = 192.0 * NormalDist().inv_cdf(0.975) ** 2 / 96.0**2
        got = pb_quantile(self.W, np.zeros(96), np.full(96, 2.0))
        assert got == pytest.approx(floor, rel=1e-14)
        assert round(got, 6) == 0.080030

    def test_a_large_shift_leaves_one_normal_tail(self):
        mu = np.zeros(96)
        mu[5] = -800.0  # w*'mu = 800, 57.7 sd from zero
        s = math.sqrt(192.0)
        for level in (0.5, 0.95, 0.99):
            want = ((800.0 + s * NormalDist().inv_cdf(level)) / 96.0) ** 2
            assert pb_quantile(self.W, mu, np.full(96, 2.0), level) == pytest.approx(
                want, rel=1e-13
            )

    def test_depends_on_the_mirror_pair_only(self):
        mu = substream(4, "pbq").normal(0.0, 1.0, 96)
        rho = np.full(96, 2.0)
        mirror = Allocation(-self.W.signs)
        assert pb_quantile(self.W, mu, rho) == pb_quantile(mirror, mu, rho)

    def test_rejects_bad_inputs(self):
        rho = np.full(96, 2.0)
        with pytest.raises(ValueError, match="96 entries"):
            pb_quantile(self.W, np.zeros(95), rho)
        with pytest.raises(ValueError, match="finite"):
            pb_quantile(self.W, np.full(96, np.nan), rho)
        with pytest.raises(ValueError, match="positive sum"):
            pb_quantile(self.W, np.zeros(96), np.zeros(96))
        for level in (0.0, 1.0):
            with pytest.raises(ValueError, match="level"):
                pb_quantile(self.W, np.zeros(96), rho, level)

    def test_grid_cells_lie_in_an_order_statistic_band(self):
        # emp_q95 is the k-th of N order statistics, k = ceil(0.95 N), so
        # it lies below the exact level-quantile exactly when at least k
        # replicates do, a Binomial(N, level) count.  The band puts the
        # level 4 binomial sd either side of 0.95.
        grid = cli.build_grid(
            {
                "seed": "808", "reps": "20000", "n_subjects": "96",
                "responses": "continuous", "p": "1,2,5", "designs": "pb",
                "pb_restarts": "20",
            }
        )
        rows = cli.run_grid(grid)
        half = 4.0 * math.sqrt(0.95 * 0.05 / grid.n_reps)
        for row in rows:
            p = row["p"]
            rng = substream(grid.seed, "covariates", grid.covariate_family, "continuous", p)
            source = default_covariate_source("continuous", grid.covariate_family)
            x = draw_covariates(source, grid.n_subjects, p, rng)
            cell_id = f"continuous|p{p}|pb|B0|n{grid.n_subjects}"
            w_star = cli._build_design("pb", 0, x, grid, cell_id).w_star
            model = default_model("continuous", p)
            mu_t, mu_c = potential_means(model, x)
            rho = residual_variances(model, mu_t, mu_c)
            lo, hi = (pb_quantile(w_star, mu_t + mu_c, rho, 0.95 + d) for d in (-half, half))
            assert lo <= row["emp_q95"] <= hi, (p, lo, row["emp_q95"], hi)


class TestAsymptoticReference:
    def test_published_constants_at_unit_rho(self):
        # rho_bar^2 / 8 for pm, rho_bar^2 / 2 for pb and the candidate
        assert PM_REFERENCE == 0.125
        assert PB_REFERENCE == 0.5
        assert PM_ENUMERATION_CANDIDATE == 0.5


class TestVarianceDecomposition:
    def test_pb_has_no_allocation_term(self):
        spec = DesignSpec.pb(Allocation([1, -1, 1, -1, 1, -1]))
        model = default_model("continuous", 1)
        rng = substream(99, "vd", "pb")
        x_rng = substream(99, "vd-x", "pb")
        x = draw_covariates(default_covariate_source("continuous"), 6, 1, x_rng)
        between, within = variance_decomposition_terms(spec, model, x, 200, rng)
        assert within == 0.0
        assert between > 0.0

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("pm", _pm_spec(6)),
            ("bcrd", DesignSpec.bcrd(6)),
            # pairs (0,3), (1,4), (2,5) are not at consecutive positions
            ("pm-interleaved", DesignSpec.pm(Blocking([0, 1, 2, 0, 1, 2]))),
        ],
        ids=["pm", "bcrd", "pm-interleaved"],
    )
    def test_matches_support_enumeration_on_shared_draws(self, kind, spec):
        n_subjects = spec.n_subjects
        model = default_model("continuous", 2)
        x = draw_covariates(
            default_covariate_source("continuous"),
            n_subjects,
            2,
            substream(55, "vd-x", kind),
        )
        n_draws = 400
        got = variance_decomposition_terms(
            spec, model, x, n_draws, substream(55, "vd", kind)
        )

        # identical draws through an identical stream
        rng = substream(55, "vd", kind)
        mu_t, mu_c = potential_means(model, x)
        v = draw_outcomes(model, mu_t, rng, n_draws) + draw_outcomes(
            model, mu_c, rng, n_draws
        )
        allocs = enumerate_allocations(spec).astype(float)
        n = n_subjects // 2
        sq = np.square(v @ allocs.T / (2.0 * n))
        cond_mean = sq.mean(axis=1)
        cond_var = sq.var(axis=1)
        assert got[0] == pytest.approx(float(cond_mean.var(ddof=1)), rel=1e-9)
        assert got[1] == pytest.approx(float(cond_var.mean()), rel=1e-9)
        # law of total variance over the joint empirical distribution
        total = float(sq.var())
        assert float(cond_mean.var()) + got[1] == pytest.approx(total, rel=1e-9)

    def test_rejects_unenumerable_supports_and_tiny_draws(self):
        model = default_model("continuous", 1)
        x16 = draw_covariates(
            default_covariate_source("continuous"), 16, 1, substream(1, "x16")
        )
        with pytest.raises(ValueError):
            variance_decomposition_terms(
                DesignSpec.bcrd(16), model, x16, 50, substream(1, "vd16")
            )
        x4 = draw_covariates(
            default_covariate_source("continuous"), 4, 1, substream(1, "x4")
        )
        with pytest.raises(ValueError):
            variance_decomposition_terms(
                DesignSpec.bcrd(4), model, x4, 1, substream(1, "vd4")
            )

    def test_rejects_covariates_of_another_size(self):
        model = default_model("continuous", 1)
        x6 = draw_covariates(
            default_covariate_source("continuous"), 6, 1, substream(1, "x6")
        )
        with pytest.raises(ValueError, match="6 subjects but the design has 4"):
            variance_decomposition_terms(
                DesignSpec.bcrd(4), model, x6, 10, substream(1, "vd6")
            )


def test_noise_only_reports_reject_a_bad_entry_before_simulating(monkeypatch):
    # a bad entry after good ones must raise before the good cells run
    def simulate(cells, panel_id):
        raise AssertionError(f"{panel_id} simulated before validation")

    monkeypatch.setattr(twoarm.criteria, "simulate_squared_errors", simulate)
    with pytest.raises(ValueError, match="not 'bcrd'"):
        convergence_study(["pm", "bcrd"], [8], n_reps=10, master_seed=1)
    with pytest.raises(ValueError, match="n_subjects_grid.*got 2"):
        convergence_study(["pm"], [8, 2], n_reps=10, master_seed=1)
    with pytest.raises(ValueError, match="n_subjects_grid.*got 7"):
        convergence_study(["pm", "pb"], [8, 7], n_reps=10, master_seed=1)
    for kind in ("pm", "pb"):
        with pytest.raises(ValueError, match="n_subjects_grid.*integer, got 8.0"):
            convergence_study([kind], [8.0], n_reps=10, master_seed=1)
