"""Tests of the benchmark's independent references.

    python3 -m pytest -q benchmark/test_reference.py

They import nothing from the program: the references must stand on their
own to check it.
"""

import math

import numpy as np
import pytest
from scipy import integrate

import reference as ref

CASES = [
    (0.2, 0.3, -0.1, 1.0),
    (0.3, 0.2, 0.1, 1.0),
    (0.3, 0.4, -0.02, 17 / 365),
    (0.5, 0.1, 0.3, 2.0),
    (0.1, 0.5, -0.3, 0.5),
    (0.01, 0.035, -0.02, 1.0),
    (0.25, 0.25, 0.05, 1.0),
    (0.3, 0.4, 0.0, 1.0),
]


def _pdf(case):
    s1, s2, q, t = case
    return lambda x: float(ref.two_phase_pdf(x, s1, s2, q, t))


def _pieces(case, cut=14.0):
    s1, s2, q, t = case
    span = cut * max(s1, s2) * math.sqrt(t)
    return [(min(q, 0.0) - span, q), (q, max(q, 0.0) + span)]


@pytest.mark.parametrize("case", CASES)
def test_unit_mass(case):
    mass = sum(
        integrate.quad(_pdf(case), a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for a, b in _pieces(case)
    )
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("sigma, q, t", [(0.2, -0.1, 1.0), (0.4, 0.3, 0.25), (1.0, 0.0, 2.0)])
def test_equal_sigmas_give_the_gaussian(sigma, q, t):
    x = np.linspace(-5, 5, 1001) * sigma * math.sqrt(t)
    gauss = np.exp(-0.5 * x**2 / (sigma**2 * t)) / (sigma * math.sqrt(2 * math.pi * t))
    np.testing.assert_allclose(ref.two_phase_pdf(x, sigma, sigma, q, t), gauss, rtol=1e-13, atol=0)


@pytest.mark.parametrize("case", CASES)
def test_continuous_and_flux_continuous_at_q(case):
    s1, s2, q, t = case
    f = _pdf(case)
    below, above = np.nextafter(q, -np.inf), np.nextafter(q, np.inf)
    peak = f(0.0)
    assert abs(f(above) - f(below)) <= 1e-12 * peak
    # Fourth-order one-sided differences, anchored one ulp inside each phase.
    h = 1e-4 * min(s1, s2) * math.sqrt(t)
    coeffs = (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25)
    d_above = sum(c * f(above + k * h) for k, c in enumerate(coeffs)) / h
    d_below = -sum(c * f(below - k * h) for k, c in enumerate(coeffs)) / h
    flux_scale = peak / (min(s1, s2) * math.sqrt(t))
    assert 0.5 * s1**2 * d_above == pytest.approx(0.5 * s2**2 * d_below, abs=1e-6 * flux_scale)


@pytest.mark.parametrize("case", CASES)
def test_cdf_is_the_integral_of_the_density(case):
    s1, s2, q, t = case
    lo = _pieces(case)[0][0]
    scale = max(s1, s2) * math.sqrt(t)
    for x in np.linspace(lo + 6 * scale, _pieces(case)[1][1] - 6 * scale, 9):
        cuts = [lo] + [c for c in (q,) if lo < c < x] + [x]
        quad = sum(
            integrate.quad(_pdf(case), a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
            for a, b in zip(cuts, cuts[1:])
        )
        assert float(ref.two_phase_cdf(x, s1, s2, q, t)) == pytest.approx(quad, abs=1e-10)


@pytest.mark.parametrize("case", CASES)
def test_mean_variance_match_scipy_quadrature(case):
    s1, s2, q, t = case
    pdf = _pdf(case)
    mean = sum(integrate.quad(lambda x: x * pdf(x), a, b, epsabs=1e-14, epsrel=1e-12)[0]
               for a, b in _pieces(case))
    second = sum(integrate.quad(lambda x: x * x * pdf(x), a, b, epsabs=1e-14, epsrel=1e-12)[0]
                 for a, b in _pieces(case))
    ref_mean, ref_var = ref.two_phase_mean_variance(s1, s2, q, t)
    assert ref_mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
    assert ref_var == pytest.approx(second - mean * mean, rel=1e-8)


@pytest.mark.parametrize("sigma, q, t", [(0.2, 0.1, 1.0), (0.35, -0.2, 0.25)])
def test_equal_sigmas_give_gaussian_moments(sigma, q, t):
    mean, var = ref.two_phase_mean_variance(sigma, sigma, q, t)
    assert mean == pytest.approx(0.0, abs=1e-13)
    assert var == pytest.approx(sigma * sigma * t, rel=1e-12)


@pytest.mark.parametrize("case", CASES[:4])
def test_draws_follow_the_cdf(case):
    s1, s2, q, t = case
    draws = ref.two_phase_draws(np.random.default_rng(11), 100_000, s1, s2, q, t)
    distance = ref.ks_distance(draws, lambda x: ref.two_phase_cdf(x, s1, s2, q, t))
    assert distance <= ref.ks_bound(draws.size)


def test_black_scholes_known_value_and_parity():
    # Hull's textbook example: S=42, K=40, r=10%, sigma=20%, 6 months -> 4.76.
    assert ref.black_scholes_call(42.0, 40.0, 0.1, 0.2, 0.5) == pytest.approx(4.7594, abs=1e-4)
    call = ref.black_scholes_call(100.0, 110.0, 0.05, 0.3, 1.0)
    put = ref.black_scholes_call(110.0 * math.exp(-0.05), 100.0, 0.0, 0.3, 1.0)
    # A put on S struck at K is a call on K e^{-rT} struck at S (symmetry).
    assert call - put == pytest.approx(100.0 - 110.0 * math.exp(-0.05), abs=1e-12)


def test_price_quadrature_reduces_to_black_scholes():
    for strike in ref.PUBLISHED_STRIKES:
        for days in ref.PUBLISHED_TAUS_DAYS:
            tau = days / 365.0
            bs = ref.black_scholes_call(100.0, strike, 0.05, 0.3, tau)
            quad = ref.call_price_quadrature(0.3, 0.3, -0.02, 100.0, strike, 0.05, tau)
            assert quad == pytest.approx(bs, abs=1e-9)


def test_published_table_shape():
    assert sorted(ref.PUBLISHED_CALLS) == list(ref.PUBLISHED_TAUS_DAYS)
    for prices in ref.PUBLISHED_CALLS.values():
        assert len(prices) == len(ref.PUBLISHED_STRIKES)
        assert all(a > b for a, b in zip(prices, prices[1:]))


def test_ks_bound_false_alarm_rate():
    n = 1000
    bound = ref.ks_bound(n)
    # DKW-Massart: P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2).
    assert 2.0 * math.exp(-2.0 * n * bound**2) <= 1e-6
    rng = np.random.default_rng(5)
    worst = max(ref.ks_distance(rng.random(n), lambda u: u) for _ in range(200))
    assert worst < bound
