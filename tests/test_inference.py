"""Tests for maximum-likelihood fitting, the LR normality test, and ingestion."""

import io
import math

import numpy as np
import pytest

from multiphase.inference import (
    DegenerateSampleError,
    FitConfig,
    IngestionError,
    NestingError,
    ReturnSample,
    fit_normal_null,
    fit_two_phase,
    load_returns,
    log_likelihood_two_phase,
    lr_test,
)
from multiphase.numerics import RngState
from multiphase.phase_kernel import TwoPhaseParams, two_phase_pdf, two_phase_sample

#: (LR, p) rows published alongside the index-return fits.
LR_P_PAIRS = [
    (26.461, 2.69e-7),
    (0.723, 0.395),
    (3.066, 0.080),
    (11.258, 7.93e-4),
    (0.843, 0.359),
    (6.981, 8.24e-3),
]


def gaussian_loglik(x, sigma, t=1.0):
    scale_sq = sigma * sigma * t
    return float(
        np.sum(-0.5 * math.log(2.0 * math.pi * scale_sq) - x**2 / (2.0 * scale_sq))
    )


class TestReturnSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReturnSample(np.array([]))
        with pytest.raises(ValueError):
            ReturnSample(np.array([0.1, float("nan")]))
        with pytest.raises(ValueError):
            ReturnSample(np.array([0.1]), unit="bps")
        with pytest.raises(ValueError):
            ReturnSample(np.array([0.1]), t=0.0)

    def test_fields(self):
        sample = ReturnSample(np.array([0.1, -0.2]), t=2.0, unit="percent", label="x")
        assert sample.size == 2
        assert sample.unit == "percent"


class TestLogLikelihood:
    def test_gaussian_collapse(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(0.0, 0.02, size=200)
        sample = ReturnSample(x, t=1.5)
        value = log_likelihood_two_phase(TwoPhaseParams(0.015, 0.015, -0.004), sample)
        expected = gaussian_loglik(x, 0.015, t=1.5)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_direct_summation(self):
        x = np.array([-0.02, 0.01, 0.03])
        p = TwoPhaseParams(0.01, 0.02, -0.005)
        sample = ReturnSample(x)
        expected = sum(math.log(two_phase_pdf(p, xi, 1.0)) for xi in x)
        value = log_likelihood_two_phase(p, sample)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_q_below_all_data_finite_and_continuous(self):
        x = np.array([-0.02, 0.01, 0.03])
        sample = ReturnSample(x)
        q0 = -0.05  # strictly below min(x); no data point nearby
        base = log_likelihood_two_phase(TwoPhaseParams(0.01, 0.02, q0), sample)
        assert math.isfinite(base)
        for dq in (-1e-9, 1e-9):
            nearby = log_likelihood_two_phase(
                TwoPhaseParams(0.01, 0.02, q0 + dq), sample
            )
            assert nearby == pytest.approx(base, abs=1e-6)

    def test_extreme_observations_stay_finite(self):
        # Log-domain evaluation keeps far-tail observations finite instead of
        # underflowing the density to zero (the -inf sentinel is reserved for
        # genuine non-finite evaluations, which finite data cannot produce).
        sample = ReturnSample(np.array([0.0, 500.0]))
        value = log_likelihood_two_phase(TwoPhaseParams(0.01, 0.01, -0.001), sample)
        assert math.isfinite(value)
        assert value < -1e8

    def test_transcription_identity_randomized(self):
        # 200 randomized (params, data) cases spanning both q branches.
        rng = np.random.Generator(np.random.PCG64(123))
        for case in range(200):
            sigma1, sigma2 = rng.uniform(0.05, 1.5, size=2)
            q = rng.uniform(0.02, 1.0) * (1 if case % 2 == 0 else -1)
            t = rng.uniform(0.25, 4.0)
            x = rng.normal(0.0, 0.5, size=17)
            p = TwoPhaseParams(sigma1, sigma2, q)
            sample = ReturnSample(x, t=t)
            expected = sum(math.log(two_phase_pdf(p, xi, t)) for xi in x)
            value = log_likelihood_two_phase(p, sample)
            assert value == pytest.approx(expected, abs=1e-10)


class TestFitNormalNull:
    def test_two_point_sample(self):
        sigma, loglik = fit_normal_null(ReturnSample(np.array([-1.0, 1.0])))
        assert sigma == pytest.approx(1.0, abs=1e-15)
        assert loglik == pytest.approx(gaussian_loglik(np.array([-1.0, 1.0]), 1.0))

    def test_scale_equivariance(self):
        x = np.array([0.01, -0.03, 0.02, 0.005])
        sigma, _ = fit_normal_null(ReturnSample(x))
        sigma_scaled, _ = fit_normal_null(ReturnSample(100.0 * x))
        assert sigma_scaled == pytest.approx(100.0 * sigma, rel=1e-12)

    def test_monte_carlo_consistency(self):
        gen = RngState(seed=404).generator()
        x = gen.normal(0.0, 0.2, size=10**6)
        sigma, _ = fit_normal_null(ReturnSample(x))
        assert abs(sigma - 0.2) <= 3.0 * 0.2 / math.sqrt(2.0 * 10**6)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            fit_normal_null(ReturnSample(np.array([0.0, 0.0, 0.0])))

    def test_horizon_scaling(self):
        x = np.array([-1.0, 1.0])
        sigma, _ = fit_normal_null(ReturnSample(x, t=4.0))
        assert sigma == pytest.approx(0.5, abs=1e-15)


class TestLrTest:
    def test_equal_likelihoods(self):
        lr, p = lr_test(-10.0, -10.0)
        assert lr == 0.0
        assert p == 1.0

    @pytest.mark.parametrize("lr_value, p_expected", LR_P_PAIRS)
    def test_published_pairs(self, lr_value, p_expected):
        _, p = lr_test(lr_value / 2.0, 0.0)
        assert p == pytest.approx(p_expected, rel=0.02)

    def test_nesting_violation(self):
        with pytest.raises(NestingError):
            lr_test(-10.0, -9.0)

    def test_tiny_negative_clamped(self):
        lr, p = lr_test(-10.0 - 1e-8, -10.0)
        assert lr == 0.0
        assert p == 1.0


class TestFitTwoPhase:
    def test_small_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            fit_two_phase(ReturnSample(np.array([0.01, -0.02, 0.005])))

    def test_synthetic_recovery(self):
        truth = TwoPhaseParams(0.01, 0.035, -0.02)
        draws, _ = two_phase_sample(truth, 1.0, 5 * 10**4, RngState(seed=1000))
        sample = ReturnSample(draws)
        report = fit_two_phase(sample)
        assert report.converged
        assert abs(report.sigma1_hat - truth.sigma1) <= 3.0 * report.se_sigma1
        assert abs(report.sigma2_hat - truth.sigma2) <= 3.0 * report.se_sigma2
        assert abs(report.q_hat - truth.q) <= 3.0 * report.se_q
        assert report.loglik_alt >= log_likelihood_two_phase(truth, sample)

    def test_null_behavior_over_replicates(self):
        # KNOWN-DEFECT: under the Gaussian null q is unidentified and the LR
        # statistic is the supremum of a correlated chi-square(1) field, so
        # the chi-square(1) calibration asserted here fails: measured pass
        # rate is ~91/100 (needs >= 95).  See README "Known failing tests".
        passes = 0
        for i in range(100):
            gen = RngState(seed=90000 + i).generator()
            x = gen.normal(0.0, 0.01, size=5 * 10**4)
            report = fit_two_phase(ReturnSample(x))
            separated = abs(report.sigma1_hat - report.sigma2_hat) <= 3.0 * (
                report.se_sigma1 + report.se_sigma2
            )
            if separated and report.lr_statistic < 6.635:
                passes += 1
        assert passes >= 95

    def test_determinism(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 2000, RngState(seed=55)
        )
        sample = ReturnSample(draws)
        a = fit_two_phase(sample, FitConfig())
        b = fit_two_phase(sample, FitConfig())
        assert a == b

    def test_permuted_sample_gives_identical_report(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 2000, RngState(seed=55)
        )
        permuted = RngState(seed=56).generator().permutation(draws)
        for config in (FitConfig(), FitConfig(demean=True)):
            assert fit_two_phase(ReturnSample(draws), config) == fit_two_phase(
                ReturnSample(permuted), config
            )

    def test_n_evaluations_counts_objective_calls(self, monkeypatch):
        import multiphase.inference as inference

        calls = 0
        original = inference._loglik_terms

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(inference, "_loglik_terms", counted)
        x = RngState(seed=40000).generator().normal(0.0, 0.01, size=500)
        report = fit_two_phase(ReturnSample(x))
        assert report.n_evaluations == calls

    def test_scale_consistency(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 2000, RngState(seed=77)
        )
        frac = fit_two_phase(ReturnSample(draws, unit="fraction"))
        pct = fit_two_phase(ReturnSample(100.0 * draws, unit="percent"))
        assert pct.sigma1_hat == pytest.approx(100.0 * frac.sigma1_hat, rel=1e-4)
        assert pct.sigma2_hat == pytest.approx(100.0 * frac.sigma2_hat, rel=1e-4)
        assert pct.q_hat == pytest.approx(100.0 * frac.q_hat, rel=1e-4)
        assert pct.lr_statistic == pytest.approx(frac.lr_statistic, abs=1e-6)
        assert pct.p_value == pytest.approx(frac.p_value, abs=1e-6)

    def test_lr_nonnegative_and_p_in_range(self):
        for seed in (1, 2, 3):
            gen = RngState(seed=seed).generator()
            x = gen.normal(0.0, 0.02, size=400)
            report = fit_two_phase(ReturnSample(x))
            assert report.lr_statistic >= 0.0
            assert 0.0 <= report.p_value <= 1.0

    def test_demean_flag(self):
        gen = RngState(seed=8).generator()
        x = gen.normal(0.003, 0.02, size=500)
        report = fit_two_phase(ReturnSample(x), FitConfig(demean=True))
        assert report.demeaned
        assert report.converged

    def test_report_json_schema(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 500, RngState(seed=21)
        )
        report = fit_two_phase(ReturnSample(draws))
        payload = report.to_json_dict()
        assert set(payload["estimates"]) == {"sigma1", "sigma2", "q"}
        assert set(payload["standard_errors"]) == {"sigma1", "sigma2", "q", "status"}
        assert set(payload["null"]) == {"sigma", "se_sigma"}
        for key in (
            "loglik_alt",
            "loglik_null",
            "lr_statistic",
            "p_value",
            "sample_size",
            "converged",
            "unit",
            "demeaned",
            "n_evaluations",
        ):
            assert key in payload


class TestLoadReturns:
    def test_single_column(self):
        sample = load_returns(io.StringIO("0.01\n-0.02\n0.005\n"))
        assert sample.size == 3
        assert np.allclose(sample.values, [0.01, -0.02, 0.005])

    def test_two_column_with_header(self):
        text = "date,ret\n2020-01-03,0.012\n2020-01-10,-0.004\n"
        sample = load_returns(io.StringIO(text))
        assert sample.size == 2
        assert np.allclose(sample.values, [0.012, -0.004])

    def test_blank_and_nan_rows_rejected_with_line_numbers(self):
        text = "0.01\n\n0.02\nNaN\n0.03\n"
        with pytest.raises(IngestionError) as excinfo:
            load_returns(io.StringIO(text))
        message = str(excinfo.value)
        assert "2" in message
        assert "4" in message

    def test_empty_input(self):
        with pytest.raises(IngestionError):
            load_returns(io.StringIO(""))

    def test_too_many_columns(self):
        with pytest.raises(IngestionError):
            load_returns(io.StringIO("a,b,c\n1,2,3\n"))

    def test_unit_and_horizon_recorded(self):
        sample = load_returns(
            io.StringIO("1.2\n-0.8\n"), unit="percent", t=0.5, label="weekly"
        )
        assert sample.unit == "percent"
        assert sample.t == 0.5
        assert sample.label == "weekly"
