"""Tests for the shared numerical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphase.numerics import (
    HessianError,
    QuadratureError,
    RngState,
    erfc,
    integrate_adaptive,
    integrate_vector,
    numerical_hessian,
    std_normal_cdf,
)


class TestStdNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_reference_quantile(self):
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_symmetry_identity(self):
        z = np.linspace(-10.0, 10.0, 401)
        assert np.max(np.abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0)) <= 1e-15

    def test_monotone(self):
        z = np.linspace(-12.0, 12.0, 2001)
        assert np.all(np.diff(std_normal_cdf(z)) >= 0.0)


class TestErfc:
    def test_at_zero(self):
        assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z", [-3, -2, -1, 0, 1, 2, 3])
    def test_cdf_identity(self, z):
        assert erfc(z) == pytest.approx(
            2.0 * std_normal_cdf(-z * math.sqrt(2.0)), abs=1e-13
        )

    def test_reference_value(self):
        assert erfc(1.0) == pytest.approx(0.157299, abs=1e-6)

    def test_identity_on_wide_range(self):
        z = np.linspace(-8.0, 8.0, 321)
        diff = np.abs(erfc(z) - 2.0 * std_normal_cdf(-z * math.sqrt(2.0)))
        assert np.max(diff) <= 1e-13


class TestIntegrateAdaptive:
    def test_polynomial(self):
        value, err = integrate_adaptive(lambda x: x * x, 0.0, 1.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert err >= 0.0

    def test_gaussian_normalization_infinite_range(self):
        value, _ = integrate_adaptive(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi),
            -np.inf,
            np.inf,
            tol=1e-12,
        )
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_beta_half_half_endpoint_singularities(self):
        t = 2.0
        value, _ = integrate_adaptive(
            lambda tau: tau ** -0.5 * (t - tau) ** -0.5,
            0.0,
            t,
            tol=1e-10,
        )
        assert value == pytest.approx(math.pi, abs=1e-8)

    def test_failure_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_adaptive(
                lambda x: math.sin(1.0 / (x + 1e-3)), 0.0, 1.0, tol=1e-15, limit=1
            )
        assert math.isfinite(excinfo.value.best_estimate)

    def test_more_subdivisions_never_hurt(self):
        # Convergence on the singular-kernel family: doubling the subdivision
        # budget does not increase the error against the exact erfc value.
        for alpha, beta, t in [(0.3, 0.5, 2.0), (0.1, 0.9, 1.0), (1.5, 0.05, 0.5)]:
            exact = math.pi * erfc((abs(alpha) + abs(beta)) / math.sqrt(t))

            def integrand(theta):
                sin_sq = math.sin(theta) ** 2
                cos_sq = 1.0 - sin_sq
                if sin_sq == 0.0 or cos_sq == 0.0:
                    return 0.0
                return math.exp(
                    -alpha * alpha / (t * cos_sq) - beta * beta / (t * sin_sq)
                )

            errors = []
            for subdivisions in (25, 50, 100):
                value, _ = integrate_adaptive(
                    integrand, 0.0, math.pi / 2.0, tol=1e-13, limit=subdivisions
                )
                errors.append(abs(2.0 * value - exact))
            assert errors[1] <= errors[0] + 1e-14
            assert errors[2] <= errors[1] + 1e-14

    def test_settings_validation(self):
        square = lambda x: x * x
        with pytest.raises(ValueError):
            integrate_adaptive(square, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrate_adaptive(square, 0.0, 1.0, tol=-1.0)
        with pytest.raises(ValueError):
            integrate_adaptive(square, 0.0, 1.0, limit=0)


class TestIntegrateVector:
    def test_known_integrals(self):
        values, err, calls = integrate_vector(
            lambda x: np.array([x * x, math.exp(x), math.cos(x)]),
            0.0,
            1.0,
            tol=1e-12,
        )
        expected = [1.0 / 3.0, math.e - 1.0, math.sin(1.0)]
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
        assert 0.0 <= err <= 1e-10
        assert calls > 0

    def test_break_point_at_a_kink(self):
        # |x - 0.3| has its kink on the break, so every panel is smooth.
        values, _, _ = integrate_vector(
            lambda x: np.array([abs(x - 0.3), math.exp(-0.5 * x * x)]),
            -1.0,
            1.0,
            tol=1e-12,
            points=(0.3,),
        )
        gaussian = math.sqrt(2.0 * math.pi) * (1.0 - erfc(math.sqrt(0.5)))
        np.testing.assert_allclose(
            values, [(1.3**2 + 0.7**2) / 2.0, gaussian], rtol=0.0, atol=1e-12
        )

    def test_failure_carries_best_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            integrate_vector(
                lambda x: np.array([math.sin(1.0 / (x + 1e-3)), x]),
                0.0, 1.0, tol=1e-15, limit=3,
            )
        assert excinfo.value.best_estimate.shape == (2,)
        assert np.all(np.isfinite(excinfo.value.best_estimate))
        assert excinfo.value.err_est > 0.0

    def test_settings_validation(self):
        pair = lambda x: np.array([x, x * x])
        with pytest.raises(QuadratureError):
            integrate_vector(pair, 0.0, 1.0, tol=0.0)
        with pytest.raises(QuadratureError):
            integrate_vector(pair, 0.0, 1.0, limit=0)


class TestNumericalHessian:
    def test_diagonal_quadratic(self):
        hess = numerical_hessian(
            lambda v: v[0] ** 2 + 3.0 * v[1] ** 2, np.zeros(2)
        )
        assert np.allclose(hess, np.diag([2.0, 6.0]), atol=1e-6)

    def test_cross_term(self):
        hess = numerical_hessian(lambda v: v[0] * v[1], np.zeros(2))
        assert hess[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert hess[1, 0] == pytest.approx(1.0, abs=1e-6)

    def test_symmetry(self):
        hess = numerical_hessian(
            lambda v: math.sin(v[0]) * math.exp(v[1]) + v[0] ** 3,
            np.array([0.3, -0.2]),
        )
        assert np.max(np.abs(hess - hess.T)) <= 1e-10

    def test_nonfinite_raises(self):
        with pytest.raises(HessianError):
            numerical_hessian(lambda v: float("nan"), np.zeros(2))

    def test_against_richardson_extrapolation(self):
        # Two-phase log-likelihood at a fitted optimum: the default-step
        # Hessian must agree with a Richardson-extrapolated reference to 1e-4
        # relative.  The objective is only piecewise smooth in q (kinks at the
        # data points), so the stencil must stay inside the gap around q-hat;
        # the guard below checks the chosen sample leaves enough room.
        from multiphase.inference import (
            ReturnSample,
            fit_two_phase,
            log_likelihood_two_phase,
        )
        from multiphase.phase_kernel import TwoPhaseParams, two_phase_sample

        draws, _ = two_phase_sample(
            TwoPhaseParams(0.01, 0.035, -0.02), 1.0, 300, RngState(seed=20)
        )
        sample = ReturnSample(draws)
        report = fit_two_phase(sample)
        assert report.converged
        gap = np.min(np.abs(draws - report.q_hat))
        assert gap > 8e-5  # stencil half-width below is 4e-5

        theta = np.array(
            [math.log(report.sigma1_hat), math.log(report.sigma2_hat), report.q_hat]
        )

        def negloglik(th):
            p = TwoPhaseParams(math.exp(th[0]), math.exp(th[1]), th[2])
            return -log_likelihood_two_phase(p, sample)

        hess = numerical_hessian(negloglik, theta)

        def central_hessian(step):
            k = theta.size
            out = np.empty((k, k))
            for i in range(k):
                for j in range(k):
                    ei = np.zeros(k)
                    ej = np.zeros(k)
                    ei[i] = step
                    ej[j] = step
                    out[i, j] = (
                        negloglik(theta + ei + ej)
                        - negloglik(theta + ei - ej)
                        - negloglik(theta - ei + ej)
                        + negloglik(theta - ei - ej)
                    ) / (4.0 * step * step)
            return 0.5 * (out + out.T)

        coarse = central_hessian(4e-5)
        fine = central_hessian(2e-5)
        richardson = (4.0 * fine - coarse) / 3.0
        rel = np.max(np.abs(hess - richardson)) / np.max(np.abs(richardson))
        assert rel <= 1e-4


class TestRngState:
    def test_equal_seeds_identical_streams(self):
        a = RngState(seed=42).generator().random(100)
        b = RngState(seed=42).generator().random(100)
        assert np.array_equal(a, b)

    def test_advanced_changes_state(self):
        state = RngState(seed=7)
        gen = state.generator()
        gen.random(10)
        advanced = state.advanced(gen)
        assert advanced != state
        first = advanced.generator().random(5)
        second = advanced.generator().random(5)
        assert np.array_equal(first, second)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_cdf_symmetry_property(z):
    assert abs(std_normal_cdf(z) + std_normal_cdf(-z) - 1.0) <= 1e-15
