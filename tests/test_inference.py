"""Tests for maximum-likelihood fitting, the LR normality test, and ingestion."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiphase.inference as inference
from multiphase.inference import (
    DegenerateSampleError,
    IngestionError,
    NestingError,
    ReturnSample,
    davies_p_value,
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
        sample = ReturnSample(np.array([0.1, -0.2]), t=2.0, unit="percent")
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


def loglik_sum(p, x, t):
    """Sum of the per-observation terms at p."""
    return float(inference._loglik_terms(p, x, t).sum())


def kernel_in_sigma_coordinates(p, x, t, work=None):
    """The profile kernel's log-likelihood at p on an ascending x, with its
    gradient and Hessian in (log sigma1, log sigma2), whichever frame it
    works in."""
    work = np.empty((4, x.size)) if work is None else work
    split = inference._profile_split(x, p.q, work)
    flip = split[0]
    a, b = math.log(p.sigma1 * math.sqrt(t)), math.log(p.sigma2 * math.sqrt(t))
    if flip:
        a, b = b, a
    f, ga, gb, haa, hab, hbb = inference._profile_terms(split, a, b, work)
    if flip:
        ga, gb, haa, hbb = gb, ga, hbb, haa
    return f, np.array([ga, gb]), np.array([[haa, hab], [hab, hbb]])


def summand_scale(p, x, t):
    """Sum of the magnitudes of the per-observation terms: the scale that
    rounding in either summation order is relative to (the total itself can
    cancel to near zero)."""
    return float(np.abs(inference._loglik_terms(p, x, t)).sum())


@st.composite
def sorted_kernel_cases(draw):
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60))
    x = np.sort(np.array(values, dtype=float))
    small = 10.0 ** draw(st.floats(-11.0, 0.0))
    ratio = 10.0 ** draw(st.floats(0.0, 4.0))
    sigma1, sigma2 = small, small * ratio
    if draw(st.booleans()):
        sigma1, sigma2 = sigma2, sigma1
    where = draw(st.sampled_from(["free", "at", "below", "above", "outside"]))
    if where == "free":
        q = draw(st.floats(-1.0, 1.0))
    elif where == "outside":
        q = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0 + 1e-9, 10.0))
    else:
        xi = float(x[draw(st.integers(0, x.size - 1))])
        toward = {"at": xi, "below": -np.inf, "above": np.inf}[where]
        q = np.nextafter(xi, toward)
    t = draw(st.floats(0.01, 10.0))
    return TwoPhaseParams(sigma1, sigma2, float(q)), x, t


class TestSortedLoglik:
    """The profile kernel, the log-likelihood of a sorted sample, against the
    per-observation terms."""

    @settings(max_examples=300, deadline=None)
    @given(case=sorted_kernel_cases())
    def test_matches_per_observation_terms(self, case):
        # Both signs of q, q at a data point and one ulp either side of it, q
        # outside all data, sigma ratios up to 1e4 and sigma down to 1e-11.
        p, x, t = case
        expected = loglik_sum(p, x, t)
        value = kernel_in_sigma_coordinates(p, x, t)[0]
        assert math.isfinite(expected) and math.isfinite(value)
        assert abs(value - expected) <= 1e-12 * summand_scale(p, x, t)

    def test_tiny_sigma_point_of_a_gaussian_fit(self):
        # Gaussian n = 500 sample (PCG64 seed [1, 1], scale 0.01) at the point
        # sigma2 = 7.3e-11 that a simplex fit once reached on it.  Expanding
        # sum (x - m)^2 as sum x^2 - 2 m sum x + k m^2 there reports 1629.50
        # against the true 1615.74; the fit must report the true value.  The
        # pinned value is the sum of the log densities in 50-digit mpmath
        # arithmetic (mpmath.npdf on each side of q, from the float64 x).
        x = np.sort(np.random.Generator(np.random.PCG64([1, 1])).normal(0.0, 0.01, 500))
        p = TwoPhaseParams(
            0.009678594843092001, 7.296131776713791e-11, -0.02481027536224259
        )
        expected = loglik_sum(p, x, 1.0)
        assert expected == pytest.approx(1615.7373455010699, rel=1e-12)
        error = abs(kernel_in_sigma_coordinates(p, x, 1.0)[0] - expected)
        assert error <= 1e-12 * summand_scale(p, x, 1.0)
        report = fit_two_phase(ReturnSample(x))
        fitted = TwoPhaseParams(report.sigma1_hat, report.sigma2_hat, report.q_hat)
        assert report.loglik_alt == pytest.approx(
            log_likelihood_two_phase(fitted, ReturnSample(x)), rel=1e-10
        )

    def test_call_allocates_no_sample_sized_arrays(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 5 * 10**4, RngState(seed=3)
        )
        x = np.sort(draws)
        work = np.empty((4, x.size))
        for q in (-0.02, 0.01):
            p = TwoPhaseParams(0.011, 0.03, q)
            kernel_in_sigma_coordinates(p, x, 1.0, work)
            tracemalloc.start()
            try:
                kernel_in_sigma_coordinates(p, x, 1.0, work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024


@st.composite
def profile_kernel_cases(draw):
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40))
    x = np.sort(np.array(values, dtype=float))
    small = 10.0 ** draw(st.floats(-3.0, 0.5))
    ratio = 10.0 ** draw(st.floats(0.0, 3.0))
    sigma1, sigma2 = small, small * ratio
    if draw(st.booleans()):
        sigma1, sigma2 = sigma2, sigma1
    where = draw(st.sampled_from(["free", "at", "below", "above"]))
    if where == "free":
        q = draw(st.floats(-1.0, 1.0))
    else:
        xi = float(x[draw(st.integers(0, x.size - 1))])
        toward = {"at": xi, "below": -np.inf, "above": np.inf}[where]
        q = np.nextafter(xi, toward)
    t = draw(st.floats(0.1, 4.0))
    return TwoPhaseParams(sigma1, sigma2, float(q)), x, t


class TestProfileKernel:
    @settings(max_examples=200, deadline=None)
    @given(case=profile_kernel_cases())
    def test_score_and_hessian_match_central_differences(self, case):
        # Both signs of q, q at a data point or one ulp either side of it,
        # sigma ratios up to 1e3 either way; differences of _loglik_terms in
        # (log sigma1, log sigma2) at fixed q, where it is smooth.
        p, x, t = case
        value, grad, hess = kernel_in_sigma_coordinates(p, x, t)
        theta = np.log([p.sigma1, p.sigma2])

        def loglik(th):
            params = TwoPhaseParams(math.exp(th[0]), math.exp(th[1]), p.q)
            return loglik_sum(params, x, t)

        h = 1e-4
        steps = np.eye(2) * h
        fd_grad = np.array(
            [(loglik(theta + e) - loglik(theta - e)) / (2.0 * h) for e in steps]
        )
        fd_hess = np.array(
            [
                [
                    (
                        loglik(theta + ei + ej) - loglik(theta + ei - ej)
                        - loglik(theta - ei + ej) + loglik(theta - ei - ej)
                    ) / (4.0 * h * h)
                    for ej in steps
                ]
                for ei in steps
            ]
        )
        # Near rho = -1 (the source side much narrower), log1p(rho e^z)
        # carries an absolute rounding error of about eps * sigma ratio per
        # term, which the second differences amplify by 1/h^2.
        ratio = max(p.sigma1 / p.sigma2, p.sigma2 / p.sigma1)
        scale = summand_scale(p, x, t) + x.size * ratio
        assert abs(value - loglik(theta)) <= 1e-12 * scale
        assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * scale
        assert np.max(np.abs(hess - fd_hess)) <= 1e-6 * scale

    @settings(max_examples=200, deadline=None)
    @given(case=profile_kernel_cases())
    def test_mirror_identity(self, case):
        # l(sigma1, sigma2, q; x) = l(sigma2, sigma1, -q; -x): the kernel
        # handles q > 0 through it, so both sides of it must agree.
        p, x, t = case
        mirrored = TwoPhaseParams(p.sigma2, p.sigma1, -p.q)
        y = -x[::-1]
        scale = summand_scale(p, x, t) + x.size
        assert abs(loglik_sum(p, x, t) - loglik_sum(mirrored, y, t)) <= (
            1e-12 * scale
        )
        value, grad, hess = kernel_in_sigma_coordinates(p, x, t)
        value_m, grad_m, hess_m = kernel_in_sigma_coordinates(mirrored, y, t)
        assert abs(value - value_m) <= 1e-12 * scale
        assert np.max(np.abs(grad - grad_m[::-1])) <= 1e-12 * scale
        assert np.max(np.abs(hess - hess_m[::-1, ::-1])) <= 1e-12 * scale

    @pytest.mark.parametrize("q", [-0.3, -0.02, 0.25])
    def test_score_outer_product_matches_per_observation_differences(self, q):
        # q away from every data point and from 0, where each term has a kink.
        gen = np.random.Generator(np.random.PCG64(9))
        x = np.sort(gen.normal(0.0, 0.5, 40))
        t, sigma1, sigma2 = 1.7, 0.3, 0.55
        theta = np.array([math.log(sigma1), math.log(sigma2), q])

        def terms(th):
            params = TwoPhaseParams(math.exp(th[0]), math.exp(th[1]), th[2])
            return inference._loglik_terms(params, x, t)

        h = 1e-6
        scores = np.array(
            [(terms(theta + e) - terms(theta - e)) / (2.0 * h) for e in np.eye(3) * h]
        )
        work = np.empty((4, x.size))
        ab = (math.log(sigma1 * math.sqrt(t)), math.log(sigma2 * math.sqrt(t)))
        outer = inference._profile_scores(
            inference._profile_split(x, q, work), x, ab, work
        )
        expected = scores @ scores.T
        assert np.max(np.abs(outer - expected)) <= 1e-7 * np.max(np.abs(expected))


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
        a = fit_two_phase(sample)
        b = fit_two_phase(sample)
        assert a == b

    def test_permuted_sample_gives_identical_report(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 2000, RngState(seed=55)
        )
        permuted = RngState(seed=56).generator().permutation(draws)
        for demean in (False, True):
            assert fit_two_phase(ReturnSample(draws), demean=demean) == fit_two_phase(
                ReturnSample(permuted), demean=demean
            )

    def test_n_evaluations_counts_objective_calls(self, monkeypatch):
        # Every kernel that passes over the sample counts.
        calls = 0

        def counting(original):
            def counted(*args):
                nonlocal calls
                calls += 1
                return original(*args)

            return counted

        for name in ("_profile_split", "_profile_terms", "_profile_scores"):
            monkeypatch.setattr(inference, name, counting(getattr(inference, name)))
        x = RngState(seed=40000).generator().normal(0.0, 0.01, size=500)
        report = fit_two_phase(ReturnSample(x))
        assert report.n_evaluations == calls

    @pytest.mark.parametrize("seed, kink", [(1, None), (2, "zero"), (15, "data")])
    def test_se_status_flags_kinks(self, seed, kink):
        # Boundary at 0: seed 1's q_hat lies away from every kink, seed 2's
        # within the refinement's resolution of 0, seed 15's within it of a
        # data point.
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, 0.0), 1.0, 500, RngState(seed=seed)
        )
        report = fit_two_phase(ReturnSample(draws))
        grid = report.diagnostics.profile_q
        best = int(np.argmax(report.diagnostics.profile_loglik))
        resolution = 1e-4 * (grid[min(best + 1, 48)] - grid[max(best - 1, 0)])
        assert (np.min(np.abs(draws - report.q_hat)) <= resolution) == (kink == "data")
        assert (abs(report.q_hat) <= resolution) == (kink == "zero")
        assert report.se_status == ("ok" if kink is None else "approximate")

    def test_se_status_is_scale_free(self):
        samples = [
            RngState(seed=seed).generator().normal(0.0, 0.01, size=500)
            for seed in (40000, 40004, 40012, 40013, 40028)
        ]
        samples.append(
            two_phase_sample(
                TwoPhaseParams(0.01, 0.035, 0.0), 1.0, 500, RngState(seed=2)
            )[0]
        )
        seen = set()
        for x in samples:
            statuses = {
                fit_two_phase(ReturnSample(x * 10.0**k)).se_status
                for k in range(-8, 3)
            }
            assert len(statuses) == 1
            seen |= statuses
        assert seen == {"ok", "approximate"}

    def test_loglik_alt_dominates_profile_and_null(self):
        samples = [
            RngState(seed=40000 + i).generator().normal(0.0, 0.01, size=500)
            for i in range(5)
        ]
        for seed in (21, 55):
            draws, _ = two_phase_sample(
                TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 500, RngState(seed=seed)
            )
            samples.append(draws)
        for x in samples:
            report = fit_two_phase(ReturnSample(x))
            diag = report.diagnostics
            assert len(diag.profile_q) == len(diag.profile_loglik) == 49
            np.testing.assert_allclose(
                diag.profile_q, np.quantile(x, np.linspace(0.02, 0.98, 49)),
                rtol=0.0, atol=1e-15,
            )
            assert report.loglik_alt >= max(diag.profile_loglik)
            assert report.loglik_alt >= report.loglik_null
            assert diag.profile_q[0] <= report.q_hat <= diag.profile_q[-1]

    def test_p_values(self):
        x = RngState(seed=40001).generator().normal(0.0, 0.01, size=500)
        report = fit_two_phase(ReturnSample(x))
        lr, p_chi2 = lr_test(report.loglik_alt, report.loglik_null)
        assert report.lr_statistic == lr
        assert report.p_value_chi2 == p_chi2
        assert report.p_value_method == "davies"
        assert report.p_value == davies_p_value(
            report.lr_statistic, report.diagnostics.total_variation
        )
        assert report.diagnostics.total_variation > 0.0
        assert report.p_value > report.p_value_chi2

    def test_davies_p_value(self):
        # V = 0 leaves the chi-squared(1) tail; the bound grows with V and is
        # capped at 1.
        for lr in (0.0, 0.5, 3.84, 12.0):
            assert davies_p_value(lr, 0.0) == lr_test(lr / 2.0, 0.0)[1]
        for lr in (3.84, 12.0):
            assert davies_p_value(lr, 2.0) > davies_p_value(lr, 1.0)
        assert davies_p_value(0.1, 50.0) == 1.0
        assert davies_p_value(9.0, 3.0) == pytest.approx(
            math.erfc(math.sqrt(4.5)) + 3.0 * math.exp(-4.5) / math.sqrt(2.0 * math.pi),
            rel=1e-14,
        )

    def test_fit_peak_memory_at_n_50k(self):
        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 5 * 10**4, RngState(seed=3)
        )
        sample = ReturnSample(draws)
        fit_two_phase(sample)
        tracemalloc.start()
        try:
            fit_two_phase(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

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
        report = fit_two_phase(ReturnSample(x), demean=True)
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


    def test_report_json_diagnostics(self):
        x = RngState(seed=40002).generator().normal(0.0, 0.01, size=500)
        payload = fit_two_phase(ReturnSample(x)).to_json_dict()
        assert payload["p_value_method"] == "davies"
        assert 0.0 <= payload["p_value_chi2"] <= payload["p_value"] <= 1.0
        diag = payload["diagnostics"]
        assert diag["grid_points"] == 49
        assert len(diag["profile_q"]) == len(diag["profile_loglik"]) == 49
        assert diag["newton_iterations"] > 0
        assert diag["refinement_evaluations"] > 0
        assert diag["total_variation"] > 0.0


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
        sample = load_returns(io.StringIO("1.2\n-0.8\n"), unit="percent", t=0.5)
        assert sample.unit == "percent"
        assert sample.t == 0.5
