import math

import numpy as np
import pytest

from twoarm.core import CovariateMatrix
from twoarm.response import (
    ETA_LIMIT,
    POISSON_MEAN_LIMIT,
    RESPONSE_KINDS,
    CovariateSource,
    OverflowGuardWarning,
    ResponseModel,
    arm_variance,
    default_covariate_source,
    default_model,
    draw_covariates,
    draw_outcomes,
    potential_means,
    residual_variances,
)
from twoarm.streams import substream


class TestResponseModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ResponseModel(kind="ordinal", beta0=0.0, beta=[1.0], beta_t=0.0)

    def test_rejects_bad_shape_and_scale(self):
        with pytest.raises(ValueError):
            ResponseModel(kind="continuous", beta0=0.0, beta=[[1.0]], beta_t=0.0)
        with pytest.raises(ValueError):
            ResponseModel(kind="continuous", beta0=0.0, beta=[], beta_t=0.0)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("beta0", float("nan")),
            ("beta0", "a"),
            ("beta0", None),
            ("beta0", True),
            ("beta_t", float("inf")),
            ("beta_t", "0.1"),
            ("beta", [float("inf")]),
            ("beta", [1.0, float("nan")]),
            ("beta", ["1.0"]),
            ("beta", [1.0, None]),
        ],
    )
    @pytest.mark.parametrize("kind", ["continuous", "count"])
    def test_rejects_non_numeric_or_non_finite_coefficients(self, kind, field, bad):
        # each used to fail late (mu must be finite, a numpy UFuncTypeError,
        # a TypeError, or an overflow warning then a count-mean error)
        coefficients = dict(beta0=0.0, beta=[1.0], beta_t=0.0)
        coefficients[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be (numeric|finite), got "):
            ResponseModel(kind=kind, **coefficients)

    def test_accepts_numpy_and_integer_coefficients(self):
        model = ResponseModel("count", np.float32(-1.0), np.array([1, 2]), 0)
        np.testing.assert_array_equal(model.beta, [1.0, 2.0])

    def test_beta_is_read_only(self):
        model = default_model("continuous", 3)
        with pytest.raises(ValueError):
            model.beta[0] = 9.0

    def test_default_model_coefficients(self):
        model = default_model("count", 4)
        assert model.beta0 == -1.0
        assert model.beta_t == 0.001
        np.testing.assert_array_equal(model.beta, [1.0, -1.0, 1.0, -1.0])
        assert model.n_covariates == 4
        with pytest.raises(ValueError):
            default_model("count", 0)
        with pytest.raises(ValueError):
            default_model("count", 6)


def _eta_mean(kind: str, eta: float) -> float:
    """mu_T of a one-covariate model whose linear component is eta itself."""
    model = ResponseModel(kind=kind, beta0=0.0, beta=[1.0], beta_t=0.0)
    mu_t, _ = potential_means(model, CovariateMatrix(np.full((4, 1), eta)))
    return float(mu_t[0])


class TestLinearComponent:
    # eta = beta0 + x'beta + beta_t w, read off the identity link
    def test_worked_example(self):
        model = default_model("continuous", 1)
        x = CovariateMatrix([[0.0], [0.5], [0.0], [0.5]])
        mu_t, mu_c = potential_means(model, x)
        # -1 + 0 * 1 + 0.001 * 1
        assert mu_t[0] == pytest.approx(-0.999)
        assert mu_c[1] == pytest.approx(-0.501)

    def test_alternating_signs(self):
        model = default_model("continuous", 5)
        mu_t, mu_c = potential_means(model, CovariateMatrix(np.ones((4, 5))))
        # -1 + (1 - 1 + 1 - 1 + 1) +- 0.001
        np.testing.assert_allclose(mu_t, 0.001, rtol=1e-12)
        np.testing.assert_allclose(mu_c, -0.001, rtol=1e-12)

    def test_rejects_bad_inputs(self):
        model = default_model("continuous", 2)
        for p in (1, 3):
            with pytest.raises(ValueError):
                potential_means(model, CovariateMatrix(np.ones((4, p))))


class TestMeanFunction:
    def test_link_values(self):
        assert _eta_mean("incidence", 0.0) == 0.5
        assert _eta_mean("proportion", math.log(3.0)) == pytest.approx(0.75)
        assert _eta_mean("count", 0.0) == 1.0
        assert _eta_mean("survival", 1.0) == pytest.approx(math.e)
        assert _eta_mean("continuous", -0.999) == -0.999

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown response kind 'ordinal'"):
            _eta_mean("ordinal", 0.0)

    def test_clamps_extreme_components(self):
        with pytest.warns(OverflowGuardWarning):
            capped = _eta_mean("count", 800.0)
        assert capped == pytest.approx(math.exp(ETA_LIMIT))
        assert _eta_mean("continuous", 800.0) == 800.0


class TestPotentialMeans:
    def test_identity_link(self):
        model = default_model("continuous", 1)
        x = CovariateMatrix([[0.0], [1.0], [2.0], [3.0]])
        mu_t, mu_c = potential_means(model, x)
        np.testing.assert_allclose(mu_t, [-0.999, 0.001, 1.001, 2.001])
        np.testing.assert_allclose(mu_c, [-1.001, -0.001, 0.999, 1.999])

    def test_inverse_logit_values(self):
        model = ResponseModel(kind="incidence", beta0=0.0, beta=[1.0], beta_t=0.0)
        x = CovariateMatrix([[0.0], [math.log(3.0)], [-math.log(3.0)], [0.0]])
        mu_t, mu_c = potential_means(model, x)
        np.testing.assert_allclose(mu_t, [0.5, 0.75, 0.25, 0.5], rtol=1e-12)
        np.testing.assert_allclose(mu_t, mu_c)

    def test_log_link_values(self):
        model = ResponseModel(kind="count", beta0=0.0, beta=[1.0], beta_t=0.0)
        x = CovariateMatrix([[0.0], [1.0], [2.0], [-1.0]])
        mu_t, _ = potential_means(model, x)
        np.testing.assert_allclose(mu_t, np.exp([0.0, 1.0, 2.0, -1.0]), rtol=1e-12)

    def test_treatment_effect_orders_the_arms(self):
        for kind in RESPONSE_KINDS:
            model = default_model(kind, 2)
            x = draw_covariates(
                default_covariate_source(kind), 8, 2, substream(7, "pm", kind)
            )
            mu_t, mu_c = potential_means(model, x)
            assert (mu_t > mu_c).all()

    def test_extreme_eta_is_clamped_with_warning(self):
        model = default_model("count", 1)
        x = CovariateMatrix([[800.0], [0.0], [-800.0], [0.0]])
        with pytest.warns(OverflowGuardWarning):
            mu_t, _ = potential_means(model, x)
        assert mu_t[0] == pytest.approx(math.exp(ETA_LIMIT))
        assert mu_t[2] == pytest.approx(math.exp(-ETA_LIMIT))

    def test_continuous_eta_is_never_clamped(self):
        model = default_model("continuous", 1)
        x = CovariateMatrix([[800.0], [0.0], [-800.0], [0.0]])
        mu_t, _ = potential_means(model, x)
        assert mu_t[0] == pytest.approx(799.001)

    def test_rejects_covariate_mismatch(self):
        model = default_model("continuous", 2)
        x = CovariateMatrix([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError):
            potential_means(model, x)


class TestMeanValidation:
    def test_incidence_range(self):
        model = default_model("incidence", 1)
        rng = substream(0, "v")
        with pytest.raises(ValueError):
            draw_outcomes(model, [0.5, 1.2], rng, 1)
        with pytest.raises(ValueError):
            draw_outcomes(model, [-0.1, 0.5], rng, 1)

    def test_proportion_open_interval(self):
        model = default_model("proportion", 1)
        rng = substream(0, "v")
        with pytest.raises(ValueError):
            draw_outcomes(model, [0.0, 0.5], rng, 1)
        with pytest.raises(ValueError):
            draw_outcomes(model, [0.5, 1.0], rng, 1)

    def test_positive_means(self):
        rng = substream(0, "v")
        for kind in ("count", "survival"):
            with pytest.raises(ValueError):
                draw_outcomes(default_model(kind, 1), [0.0, 1.0], rng, 1)

    def test_poisson_mean_cap(self):
        model = default_model("count", 1)
        rng = substream(0, "v")
        with pytest.raises(ValueError, match="count means"):
            draw_outcomes(model, [1.0, 2.0 * POISSON_MEAN_LIMIT], rng, 1)

    def test_rejects_non_finite(self):
        model = default_model("continuous", 1)
        with pytest.raises(ValueError):
            draw_outcomes(model, [0.0, math.inf], substream(0, "v"), 1)


class TestDrawOutcomes:
    def test_shapes(self):
        model = default_model("continuous", 1)
        rng = substream(3, "shapes")
        mu = np.zeros(6)
        assert draw_outcomes(model, mu, rng, n_draws=7).shape == (7, 6)

    def test_rejects_bad_shapes_and_counts(self):
        model = default_model("continuous", 1)
        rng = substream(3, "shapes")
        with pytest.raises(ValueError, match="mu must be 1-D"):
            draw_outcomes(model, [[0.0, 1.0]], rng, 2)
        with pytest.raises(ValueError, match="n_draws must be >= 0"):
            draw_outcomes(model, [0.0, 1.0], rng, -1)

    def test_determinism(self):
        model = default_model("survival", 1)
        mu = np.array([1.0, 2.0, 3.0, 4.0])
        a = draw_outcomes(model, mu, substream(11, "det"), n_draws=5)
        b = draw_outcomes(model, mu, substream(11, "det"), n_draws=5)
        np.testing.assert_array_equal(a, b)

    def test_support(self):
        rng = substream(4, "support")
        incidence = draw_outcomes(default_model("incidence", 1), [0.3, 0.7], rng, 200)
        assert set(np.unique(incidence)) <= {0.0, 1.0}
        proportion = draw_outcomes(default_model("proportion", 1), [0.3, 0.7], rng, 200)
        assert ((proportion > 0) & (proportion < 1)).all()
        count = draw_outcomes(default_model("count", 1), [0.5, 4.0], rng, 200)
        assert (count >= 0).all() and (count == np.floor(count)).all()
        survival = draw_outcomes(default_model("survival", 1), [1.0, 2.0], rng, 200)
        assert (survival > 0).all()

    @pytest.mark.parametrize(
        "kind,mu",
        [
            ("continuous", [0.3, -1.2]),
            ("incidence", [0.2, 0.7]),
            ("proportion", [0.3, 0.6]),
            ("count", [0.5, 4.0]),
            ("survival", [1.0, 2.5]),
        ],
    )
    def test_moments_match_closed_form(self, kind, mu):
        model = default_model(kind, 1)
        mu = np.array(mu)
        n_draws = 200_000
        draws = draw_outcomes(model, mu, substream(2026, "moments", kind), n_draws)
        var = arm_variance(model, mu)
        se_mean = np.sqrt(var / n_draws)
        mean_err = np.abs(draws.mean(axis=0) - mu)
        assert (mean_err <= 5 * se_mean + 1e-12).all()
        # 5 sigma on the sample variance, with a kurtosis cushion
        var_err = np.abs(draws.var(axis=0, ddof=1) - var)
        assert (var_err <= 5 * var * math.sqrt(8.0 / n_draws)).all()


class TestArmVariance:
    def test_closed_forms(self):
        mu = np.array([0.25, 0.5])
        np.testing.assert_allclose(
            arm_variance(default_model("continuous", 1), mu), [1.0, 1.0]
        )
        np.testing.assert_allclose(
            arm_variance(default_model("incidence", 1), mu), [0.1875, 0.25]
        )
        np.testing.assert_allclose(
            arm_variance(default_model("proportion", 1), mu), [0.0625, 0.25 / 3.0]
        )
        np.testing.assert_allclose(
            arm_variance(default_model("count", 1), mu), mu
        )
        g1 = math.gamma(1.25)
        g2 = math.gamma(1.5)
        np.testing.assert_allclose(
            arm_variance(default_model("survival", 1), mu),
            mu**2 * (g2 / g1**2 - 1.0),
        )

    def test_residual_variances_add_the_arms(self):
        model = default_model("count", 1)
        mu_t = np.array([1.0, 2.0])
        mu_c = np.array([0.5, 1.5])
        np.testing.assert_allclose(residual_variances(model, mu_t, mu_c), [1.5, 3.5])

    @pytest.mark.parametrize(
        "mu, message",
        [
            ([[1.0], [1.0, 2.0]], "^mu must be 1-D, got a ragged sequence$"),
            (["a"], "^mu must be numeric, got dtype <U1$"),
            ([[1.0, 2.0]], "^mu must be 1-D$"),
            ([1.0, np.nan], "^mu must be finite, got nan$"),
            ([-1.0], "^count means must be > 0$"),
        ],
        ids=["ragged", "string", "2-D", "nan", "negative"],
    )
    def test_rejects_a_mean_that_is_not_valid(self, mu, message):
        model = default_model("count", 1)
        with pytest.raises(ValueError, match=message):
            arm_variance(model, mu)
        with pytest.raises(ValueError, match=message):
            residual_variances(model, [1.0], mu)

    @pytest.mark.parametrize(
        "kind, mu, message",
        [
            ("incidence", [1.5], "^incidence means must lie in \\[0, 1\\]$"),
            ("proportion", [0.0], "^proportion means must lie strictly in \\(0, 1\\)$"),
            ("survival", [0.0], "^survival means must be > 0$"),
        ],
    )
    def test_each_law_checks_its_means(self, kind, mu, message):
        with pytest.raises(ValueError, match=message):
            arm_variance(default_model(kind, 1), mu)

    def test_returns_a_fresh_writeable_array(self):
        mu = np.array([0.5, 2.0])
        for kind in ("continuous", "count"):
            var = arm_variance(default_model(kind, 1), mu)
            assert var.flags.writeable and not np.shares_memory(var, mu)


class TestCovariateSource:
    def test_validation(self):
        with pytest.raises(ValueError, match="family"):
            CovariateSource("gamma", 1.0)
        for family in ("uniform", "exponential"):
            for half_width in (0.0, -1.0, math.nan):
                with pytest.raises(ValueError, match="half_width"):
                    CovariateSource(family, half_width)
            # these used to pass, or fail as a bare TypeError, or fail late at
            # CovariateMatrix with no mention of half_width
            for half_width in (math.inf, "a", None, [1.0]):
                with pytest.raises(ValueError, match="^half_width must be "):
                    CovariateSource(family, half_width)
        assert CovariateSource("uniform", np.float32(2)).half_width == 2.0

    def test_default_scales(self):
        assert default_covariate_source("continuous").half_width == 1.0
        assert default_covariate_source("incidence").half_width == 10.0
        assert default_covariate_source("count").half_width == 5.0
        assert default_covariate_source("proportion").half_width == 1.0
        assert default_covariate_source("survival").half_width == 1.0
        assert default_covariate_source("count").family == "uniform"
        with pytest.raises(ValueError):
            default_covariate_source("ordinal")
        with pytest.raises(ValueError):
            default_covariate_source("count", family="gamma")

    def test_exponential_rate_matches_uniform_variance(self):
        # both families draw with variance half_width^2 / 3 for each kind
        for kind, half_width in (("continuous", 1.0), ("incidence", 10.0), ("count", 5.0)):
            for family in ("uniform", "exponential"):
                src = default_covariate_source(kind, family=family)
                assert src.half_width == half_width
                x = draw_covariates(src, 100_000, 1, substream(5, "var", kind, family))
                assert x.values.var() == pytest.approx(half_width**2 / 3.0, rel=0.05)

    def test_uniform_draws_stay_in_range(self):
        src = default_covariate_source("incidence")
        x = draw_covariates(src, 200, 3, substream(5, "range"))
        assert x.n_subjects == 200 and x.n_covariates == 3
        assert (np.abs(x.values) < 10.0).all()

    def test_uniform_moments(self):
        src = default_covariate_source("continuous")
        x = draw_covariates(src, 100_000, 1, substream(5, "unif"))
        assert x.values.mean() == pytest.approx(0.0, abs=0.01)
        assert x.values.var() == pytest.approx(1.0 / 3.0, rel=0.03)

    def test_exponential_centered_moments(self):
        src = default_covariate_source("continuous", family="exponential")
        x = draw_covariates(src, 100_000, 1, substream(5, "expo"))
        vals = x.values.ravel()
        assert vals.mean() == pytest.approx(0.0, abs=0.01)
        assert vals.var() == pytest.approx(1.0 / 3.0, rel=0.05)
        # shifted exponential keeps its hard left edge at -1/rate,
        # rate = sqrt(12) / (2 * half_width)
        assert vals.min() > -2.0 * src.half_width / math.sqrt(12.0)
        skew = ((vals - vals.mean()) ** 3).mean() / vals.std() ** 3
        assert skew == pytest.approx(2.0, abs=0.1)

    def test_draws_are_deterministic(self):
        src = default_covariate_source("count", family="exponential")
        a = draw_covariates(src, 8, 2, substream(9, "d"))
        b = draw_covariates(src, 8, 2, substream(9, "d"))
        np.testing.assert_array_equal(a.values, b.values)
