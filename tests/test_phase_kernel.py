"""Tests for the closed-form multi-phase densities, CDFs, moments, samplers."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    batch_moments,
    continuity_mismatch,
    flux_mismatch,
    gaussian_reduction_sup_error,
    iter_parameter_grid,
    normalization_error,
    three_phase_continuity_mismatch,
    three_phase_flux_mismatch,
    three_phase_normalization_error,
    three_phase_quadrature_moments,
)
from multiphase.numerics import QuadratureSpec, RngState, integrate_adaptive
from multiphase.phase_kernel import (
    DomainError,
    PhaseSystem,
    SeriesConsistencyError,
    ThreePhaseParams,
    TwoPhaseParams,
    density_grid,
    three_phase_pdf,
    three_phase_pdf_branch,
    two_phase_cdf,
    two_phase_moments,
    two_phase_pdf,
    two_phase_sample,
    write_density_csv,
    _cdf,
    _moments,
    _pieces,
)

CANONICAL = TwoPhaseParams(0.2, 0.3, -0.1)
THREE_CANONICAL = ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)


def normal_pdf(x, scale):
    return math.exp(-0.5 * (x / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi))


def quadrature_moments(p, t):
    """(mean, variance, skewness, kurtosis) by piecewise adaptive quadrature.

    The oracle for the closed-form two_phase_moments.  The density is
    integrated in units of s = max(sigma)*sqrt(t), so every integral is O(1)
    and the quadrature's tolerances are relative to the law's own scale;
    tails are cut 12 units beyond the source/boundary span, breaks sit at q
    and 0.  Breaks closer than 1e-12 units are merged: QUADPACK rejects an
    interval that narrow (q = 2e-305 gave one).
    """
    s = max(p.sigma1, p.sigma2) * math.sqrt(t)
    u_q = p.q / s
    breaks = []
    for u in sorted({min(u_q, 0.0) - 12.0, u_q, 0.0, max(u_q, 0.0) + 12.0}):
        if not breaks or u - breaks[-1] > 1e-12:
            breaks.append(u)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=200)

    def integral(g):
        integrand = lambda u: g(u) * s * two_phase_pdf(p, s * u, t)
        return sum(
            integrate_adaptive(integrand, a, b, spec)[0]
            for a, b in zip(breaks[:-1], breaks[1:])
        )

    mean = integral(lambda u: u)
    var = integral(lambda u: (u - mean) ** 2)
    mu3 = integral(lambda u: (u - mean) ** 3)
    mu4 = integral(lambda u: (u - mean) ** 4)
    return s * mean, s * s * var, mu3 / var**1.5, mu4 / var**2


def ks_distance(p, t, draws):
    """Kolmogorov-Smirnov distance between the draws and two_phase_cdf."""
    n = draws.size
    cdf_values = np.asarray(two_phase_cdf(p, np.sort(draws), t))
    ranks = np.arange(1, n + 1)
    return max(np.max(ranks / n - cdf_values), np.max(cdf_values - (ranks - 1) / n))


class TestPhaseSystem:
    def test_two_phase_construction(self):
        sys_ = PhaseSystem.from_two_phase(CANONICAL)
        assert sys_.n_phases == 2
        assert sys_.boundaries == (-0.1,)
        assert sys_.source_phase == 1

    def test_three_phase_construction(self):
        sys_ = PhaseSystem.from_three_phase(THREE_CANONICAL)
        assert sys_.n_phases == 3
        assert sys_.boundaries == (0.4, -0.3)
        assert sys_.source_phase == 2

    def test_single_phase(self):
        sys_ = PhaseSystem(sigmas=(0.5,), boundaries=())
        assert sys_.n_phases == 1
        assert sys_.source_phase == 1

    def test_source_phase_brackets_zero(self):
        sys_ = PhaseSystem(sigmas=(0.1, 0.2, 0.3, 0.4), boundaries=(2.0, 1.0, -1.0))
        assert sys_.source_phase == 3

    def test_boundaries_must_decrease(self):
        with pytest.raises(DomainError):
            PhaseSystem(sigmas=(0.1, 0.2, 0.3), boundaries=(-1.0, 1.0))

    def test_boundary_at_zero_assigned_above(self):
        # A boundary exactly at the source belongs to the phase above it,
        # matching the q=0 branch convention of the two-phase density.
        sys_ = PhaseSystem(sigmas=(0.1, 0.2), boundaries=(0.0,))
        assert sys_.source_phase == 1

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            PhaseSystem(sigmas=(0.1, -0.2), boundaries=(1.0,))

    def test_two_phase_params_validation(self):
        with pytest.raises(DomainError):
            TwoPhaseParams(-0.1, 0.3, 0.0)
        with pytest.raises(DomainError):
            TwoPhaseParams(0.1, 0.3, float("inf"))

    def test_three_phase_params_validation(self):
        with pytest.raises(DomainError):
            ThreePhaseParams(0.2, 0.3, 0.25, -0.4, -0.3)
        with pytest.raises(DomainError):
            ThreePhaseParams(0.2, 0.3, 0.25, 0.4, 0.3)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_sigmas_and_horizons_rejected(bad):
    with pytest.raises(DomainError):
        TwoPhaseParams(bad, 0.3, -0.1)
    with pytest.raises(DomainError):
        TwoPhaseParams(0.2, bad, -0.1)
    with pytest.raises(DomainError):
        ThreePhaseParams(0.2, 0.3, bad, 0.4, -0.3)
    with pytest.raises(DomainError):
        PhaseSystem(sigmas=(0.2, bad), boundaries=(0.1,))
    with pytest.raises(DomainError):
        two_phase_pdf(CANONICAL, 0.0, bad)
    with pytest.raises(DomainError):
        two_phase_cdf(CANONICAL, 0.0, bad)
    with pytest.raises(DomainError):
        three_phase_pdf(THREE_CANONICAL, 0.0, bad)


class TestTwoPhasePdf:
    def test_gaussian_reduction_value(self):
        value = two_phase_pdf(TwoPhaseParams(1.0, 1.0, 0.5), 0.0, 1.0)
        assert value == pytest.approx(0.3989422804, abs=1e-10)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_continuity_at_boundary(self, t):
        assert continuity_mismatch(CANONICAL, t) <= 1e-12

    def test_matches_pde_oracle_at_origin(self):
        from multiphase.pde_oracle import solve_for_system

        solution = solve_for_system(
            PhaseSystem.from_two_phase(CANONICAL), 1.0, nx=2001, dt=1e-3
        )
        oracle = float(np.interp(0.0, solution.x, solution.values))
        closed = two_phase_pdf(CANONICAL, 0.0, 1.0)
        assert abs(closed - oracle) / abs(oracle) <= 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            two_phase_pdf(CANONICAL, 0.0, 0.0)
        with pytest.raises(DomainError):
            two_phase_pdf(CANONICAL, 0.0, -1.0)


class TestTwoPhaseCdf:
    def test_gaussian_quantile(self):
        value = two_phase_cdf(TwoPhaseParams(1.0, 1.0, 0.3), 1.6449, 1.0)
        assert value == pytest.approx(0.95, abs=1e-5)

    @pytest.mark.parametrize(
        "p, t",
        [(CANONICAL, 1.0), (TwoPhaseParams(0.5, 0.05, 0.2), 0.25), (TwoPhaseParams(1.0, 1.0, 0.0), 5.0)],
    )
    def test_tail_saturation(self, p, t):
        x = 10.0 * max(p.sigma1, p.sigma2) * math.sqrt(t)
        assert two_phase_cdf(p, x, t) >= 1.0 - 1e-8

    def test_matches_quadrature_of_pdf(self):
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
        lo = -12.0 * 0.3 - 0.1
        part1, _ = integrate_adaptive(
            lambda x: two_phase_pdf(CANONICAL, x, 1.0), lo, CANONICAL.q, spec
        )
        part2, _ = integrate_adaptive(
            lambda x: two_phase_pdf(CANONICAL, x, 1.0), CANONICAL.q, 0.0, spec
        )
        assert two_phase_cdf(CANONICAL, 0.0, 1.0) == pytest.approx(
            part1 + part2, abs=1e-8
        )

    def test_centered_difference_matches_pdf(self):
        h = 1e-6
        for x in np.linspace(-0.9, 0.9, 25):
            derivative = (
                two_phase_cdf(CANONICAL, x + h, 1.0)
                - two_phase_cdf(CANONICAL, x - h, 1.0)
            ) / (2.0 * h)
            assert derivative == pytest.approx(
                two_phase_pdf(CANONICAL, x, 1.0), abs=1e-6
            )


class TestTwoPhaseMoments:
    def test_gaussian_case(self):
        summary = two_phase_moments(TwoPhaseParams(0.4, 0.4, -0.7), 2.0)
        assert summary.skewness == pytest.approx(0.0, abs=1e-8)
        assert summary.kurtosis == pytest.approx(3.0, abs=1e-6)

    def test_mirror_pair(self):
        a = two_phase_moments(TwoPhaseParams(0.2, 0.3, -0.1), 1.0)
        b = two_phase_moments(TwoPhaseParams(0.3, 0.2, 0.1), 1.0)
        assert a.mean == pytest.approx(-b.mean, abs=1e-8)
        assert a.variance == pytest.approx(b.variance, abs=1e-8)
        assert a.skewness == pytest.approx(-b.skewness, abs=1e-8)
        assert a.kurtosis == pytest.approx(b.kurtosis, abs=1e-8)

    def test_far_q_skewness_decays_monotonically(self):
        # Beyond the interior extremum |skewness| must fall steadily to 0 as
        # the boundary moves into the tail.  Lower Gaussian pieces taken as
        # "full minus upper" leave rounding noise of order 1e-15 there,
        # which breaks the monotone decay into ripples.
        sigma1, sigma2, t = 0.025, 0.05, 21.0
        scale = sigma2 * math.sqrt(t)
        for sign in (1.0, -1.0):
            qs = sign * scale * np.linspace(1.0, 12.0, 221)
            skews = [
                two_phase_moments(TwoPhaseParams(sigma1, sigma2, q), t).skewness
                for q in qs
            ]
            magnitude = np.abs(skews)
            assert np.all(np.diff(magnitude) < 0.0), sign

    def test_against_monte_carlo(self):
        p = TwoPhaseParams(0.025, 0.05, -0.05)
        summary = two_phase_moments(p, 21.0)
        draws, _ = two_phase_sample(p, 21.0, 10**7, RngState(seed=2024))
        skew, se_skew, kurt, se_kurt = batch_moments(draws)
        assert abs(summary.skewness - skew) <= 3.0 * se_skew
        assert abs(summary.kurtosis - kurt) <= 3.0 * se_kurt


class TestTwoPhaseSample:
    def test_zero_draws(self):
        draws, _ = two_phase_sample(CANONICAL, 1.0, 0, RngState(seed=1))
        assert draws.size == 0

    def test_determinism(self):
        a, _ = two_phase_sample(CANONICAL, 1.0, 50, RngState(seed=9))
        b, _ = two_phase_sample(CANONICAL, 1.0, 50, RngState(seed=9))
        assert np.array_equal(a, b)

    def test_advanced_state_differs(self):
        _, advanced = two_phase_sample(CANONICAL, 1.0, 50, RngState(seed=9))
        assert advanced != RngState(seed=9)

    def test_kolmogorov_smirnov(self):
        n = 10**5
        draws, _ = two_phase_sample(CANONICAL, 1.0, n, RngState(seed=31))
        sorted_draws = np.sort(draws)
        cdf_values = np.asarray(two_phase_cdf(CANONICAL, sorted_draws, 1.0))
        ranks = np.arange(1, n + 1)
        ks = max(
            np.max(ranks / n - cdf_values), np.max(cdf_values - (ranks - 1) / n)
        )
        assert ks < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize(
        "p, t, seed",
        [
            (TwoPhaseParams(0.2, 0.3, -0.1), 1.0, 4321),
            (TwoPhaseParams(0.3, 0.2, 0.15), 1.0, 4322),
            (TwoPhaseParams(0.2, 0.3, 0.0), 2.0, 4323),
            (TwoPhaseParams(0.25, 0.25, 0.1), 1.0, 4324),
            (TwoPhaseParams(0.03, 0.3, -0.05), 0.5, 4325),
        ],
        ids=["q<0", "q>0", "q=0", "equal-sigma", "ratio-10"],
    )
    def test_kolmogorov_smirnov_million_draws(self, p, t, seed):
        # Dvoretzky-Kiefer-Wolfowitz-Massart bound at a false-alarm
        # probability of 1e-6: sqrt(ln(2/1e-6) / (2n)) = 2.69e-3 at n = 1e6.
        n = 10**6
        draws, _ = two_phase_sample(p, t, n, RngState(seed=seed))
        assert ks_distance(p, t, draws) < math.sqrt(math.log(2e6) / (2.0 * n))

    @pytest.mark.parametrize(
        "sigma1, sigma2, q", [(0.2, 0.3, 0.1), (0.3, 0.2, -0.1), (0.05, 0.5, 0.02)]
    )
    def test_mirror_identity_is_exact(self, sigma1, sigma2, q):
        # The sampler mirrors q > 0 onto q < 0, so for q != 0 the mirrored law
        # with the same seed gives exactly the negated draws.  At q = 0 both
        # sides take the unmirrored branch and the identity holds in law only.
        direct, _ = two_phase_sample(
            TwoPhaseParams(sigma1, sigma2, q), 1.0, 1000, RngState(seed=5)
        )
        mirrored, _ = two_phase_sample(
            TwoPhaseParams(sigma2, sigma1, -q), 1.0, 1000, RngState(seed=5)
        )
        assert np.array_equal(direct, -mirrored)

    def test_uses_no_cdf_or_pdf(self, monkeypatch):
        import multiphase.phase_kernel as kernel

        def forbidden(*args, **kwargs):
            raise AssertionError("sampler evaluated the pdf or cdf")

        monkeypatch.setattr(kernel, "two_phase_cdf", forbidden)
        monkeypatch.setattr(kernel, "two_phase_pdf", forbidden)
        draws, _ = two_phase_sample(CANONICAL, 1.0, 100, RngState(seed=1))
        assert draws.size == 100


class TestThreePhase:
    """The three-phase law from multi-skewed Brownian motion: it must reduce to
    the Gaussian, be continuous at both interfaces, integrate to one and agree
    with the conservative solver.  The series as published fails all four and
    is only kept for test_macroscopic_negative_raises.
    """

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            three_phase_pdf(THREE_CANONICAL, 0.0, -1.0)

    def test_equal_sigma_reduces_to_gaussian(self):
        sigma = 0.3
        value = three_phase_pdf(ThreePhaseParams(sigma, sigma, sigma, 0.4, -0.3), 0.1, 1.0)
        assert value == pytest.approx(normal_pdf(0.1, sigma), abs=1e-8)

    def test_continuity_at_boundaries(self):
        u1_at_q1 = three_phase_pdf_branch(THREE_CANONICAL, THREE_CANONICAL.q1, 1.0)[0]
        u2_at_q1 = three_phase_pdf_branch(THREE_CANONICAL, THREE_CANONICAL.q1, 1.0)[1]
        u2_at_q2 = three_phase_pdf_branch(THREE_CANONICAL, THREE_CANONICAL.q2, 1.0)[1]
        u3_at_q2 = three_phase_pdf_branch(THREE_CANONICAL, THREE_CANONICAL.q2, 1.0)[2]
        assert u1_at_q1 == pytest.approx(u2_at_q1, abs=1e-8)
        assert u2_at_q2 == pytest.approx(u3_at_q2, abs=1e-8)

    def test_matches_pde_oracle_at_origin(self):
        from multiphase.pde_oracle import solve_for_system

        solution = solve_for_system(
            PhaseSystem.from_three_phase(THREE_CANONICAL), 1.0, nx=2001, dt=1e-3
        )
        oracle = float(np.interp(0.0, solution.x, solution.values))
        closed = three_phase_pdf(THREE_CANONICAL, 0.0, 1.0)
        assert abs(closed - oracle) / abs(oracle) <= 1e-3

    @pytest.mark.parametrize(
        "p",
        [THREE_CANONICAL, ThreePhaseParams(0.1, 0.2, 0.3, 0.2, -0.2)],
        ids=["canonical", "narrow"],
    )
    def test_normalization(self, p):
        # The narrow point is where the series as published dives to -1.23.
        scale = max(p.sigma1, p.sigma2, p.sigma3)
        lo, hi = p.q2 - 12.0 * scale, p.q1 + 12.0 * scale
        spec = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10, max_subdivisions=200)
        total = 0.0
        for a, b in zip([lo, p.q2, 0.0, p.q1], [p.q2, 0.0, p.q1, hi]):
            value, _ = integrate_adaptive(
                lambda x: three_phase_pdf(p, x, 1.0), a, b, spec
            )
            total += value
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_macroscopic_negative_raises(self, monkeypatch):
        # A density below -1e-10 must surface, not be clamped away; values
        # within that rounding slack of zero are clamped to 0.
        import multiphase.phase_kernel as phase_kernel

        xs = np.linspace(-1.0, 1.0, 5)
        for low in (-1e-6, -1e-11):
            monkeypatch.setattr(
                phase_kernel, "_pdf",
                lambda phases, x: np.where(np.asarray(x) > 0.5, low, 0.3),
            )
            if low < -1e-10:
                for call in (
                    lambda: three_phase_pdf(THREE_CANONICAL, xs, 1.0),
                    lambda: three_phase_pdf(THREE_CANONICAL, 0.75, 1.0),
                    lambda: density_grid(THREE_CANONICAL, 1.0, xs),
                ):
                    with pytest.raises(SeriesConsistencyError):
                        call()
            else:
                expected = [0.3, 0.3, 0.3, 0.3, 0.0]
                assert list(three_phase_pdf(THREE_CANONICAL, xs, 1.0)) == expected
                assert three_phase_pdf(THREE_CANONICAL, 0.75, 1.0) == 0.0
                assert list(density_grid(THREE_CANONICAL, 1.0, xs).density) == expected


class TestDensityGrid:
    def test_rows_match_pdf(self):
        xs = np.linspace(-1.0, 1.0, 401)
        table = density_grid(CANONICAL, 1.0, xs)
        assert table.x.size == 401
        for x, value in zip(table.x, table.density):
            assert value == pytest.approx(two_phase_pdf(CANONICAL, x, 1.0), rel=1e-13)

    def test_normal_column_matches_when_sigmas_equal(self):
        p = TwoPhaseParams(0.25, 0.25, -0.3)
        xs = np.linspace(-1.0, 1.0, 101)
        table = density_grid(p, 1.0, xs, include_normal=True)
        assert np.max(np.abs(table.density - table.normal_density)) <= 1e-12

    def test_riemann_mass(self):
        scale = 12.0 * 0.3
        xs = np.linspace(-scale - 0.1, scale, 4001)
        table = density_grid(CANONICAL, 1.0, xs)
        mass = np.sum(table.density) * (xs[1] - xs[0])
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_generic_system_flagged_numerical(self):
        sys_ = PhaseSystem(
            sigmas=(0.2, 0.3, 0.25, 0.35), boundaries=(0.5, 0.2, -0.4)
        )
        xs = np.linspace(-0.8, 0.8, 41)
        table = density_grid(sys_, 0.5, xs)
        assert table.source == "numerical"
        assert np.all(table.density >= -1e-10)

    def test_generic_system_builds_no_pieces_without_normal_column(self, monkeypatch):
        import multiphase.phase_kernel as kernel

        def refuse(*args, **kwargs):
            raise AssertionError("the solver path built the Gaussian pieces")

        sys_ = PhaseSystem(
            sigmas=(0.2, 0.3, 0.25, 0.35), boundaries=(0.5, 0.2, -0.4)
        )
        monkeypatch.setattr(kernel, "_gaussian_pieces", refuse)
        table = density_grid(sys_, 0.5, np.linspace(-0.8, 0.8, 41))
        assert table.source == "numerical"
        assert table.normal_density is None

    def test_three_phase_outer_source_closed_form(self):
        from multiphase.pde_oracle import solve_for_system

        sys_ = PhaseSystem(sigmas=(0.2, 0.3, 0.25), boundaries=(-0.2, -0.5))
        solution = solve_for_system(sys_, 0.5)
        table = density_grid(sys_, 0.5, solution.x)
        assert table.source == "closed-form"
        rel = np.max(np.abs(table.density - solution.values)) / np.max(table.density)
        assert rel <= 1e-3

    def test_generic_system_normal_column_variance(self):
        # The normal column of a four-phase system takes the variance of the
        # Gaussian pieces; the solver's grid gives it independently.
        from multiphase.pde_oracle import solve_for_system

        sys_ = PhaseSystem(
            sigmas=(0.2, 0.3, 0.25, 0.35), boundaries=(0.5, 0.2, -0.4)
        )
        table = density_grid(sys_, 0.5, [0.0], include_normal=True)
        variance = 1.0 / (2.0 * math.pi * table.normal_density[0] ** 2)
        solution = solve_for_system(sys_, 0.5)
        x, u = solution.x, solution.values
        mass = np.trapezoid(u, x)
        mean = np.trapezoid(x * u, x) / mass
        grid_variance = np.trapezoid((x - mean) ** 2 * u, x) / mass
        assert abs(variance - grid_variance) <= 1e-3 * grid_variance

    def test_csv_serialization(self):
        xs = np.linspace(-0.5, 0.5, 11)
        table = density_grid(CANONICAL, 1.0, xs, include_normal=True)
        buffer = io.StringIO()
        write_density_csv(table, buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["x", "density", "normal_density"]
        assert len(rows) == 12
        parsed = float(rows[1][1])
        assert parsed == pytest.approx(table.density[0], rel=1e-11)


class TestInvariantSweeps:
    def test_normalization_grid(self):
        worst = max(normalization_error(p, t) for p, t in iter_parameter_grid())
        assert worst <= 1e-8

    def test_continuity_grid(self):
        worst = max(continuity_mismatch(p, t) for p, t in iter_parameter_grid())
        assert worst <= 1e-10

    def test_flux_continuity_grid(self):
        worst = max(flux_mismatch(p, t) for p, t in iter_parameter_grid())
        assert worst <= 1e-6

    @pytest.mark.parametrize("sigma, q, t", [(0.2, -0.1, 1.0), (0.05, 0.3, 0.25), (1.0, 0.0, 5.0)])
    def test_gaussian_reduction(self, sigma, q, t):
        assert gaussian_reduction_sup_error(sigma, q, t) <= 1e-12

    def test_large_q_limit(self):
        p = TwoPhaseParams(0.2, 0.3, 20.0 * 0.3)
        for x in np.linspace(-0.9, 0.9, 19):
            assert two_phase_pdf(p, x, 1.0) == pytest.approx(
                normal_pdf(x, 0.3), abs=1e-8
            )


@st.composite
def moment_cases(draw):
    """sigma1 in [0.01, 1], sigma2 within 10:1 of it, t in [1/365, 21], and q
    either 0 or up to 6 scales max(sigma)*sqrt(t) either side of the source."""
    sigma1 = draw(st.floats(min_value=0.01, max_value=1.0))
    sigma2 = draw(
        st.floats(min_value=max(0.01, sigma1 / 10.0), max_value=min(1.0, 10.0 * sigma1))
    )
    t = draw(st.floats(min_value=1.0 / 365.0, max_value=21.0))
    offset = draw(st.one_of(st.just(0.0), st.floats(min_value=-6.0, max_value=6.0)))
    q = offset * max(sigma1, sigma2) * math.sqrt(t)
    return TwoPhaseParams(sigma1, sigma2, q), t


@settings(max_examples=60, deadline=None)
@given(case=moment_cases())
def test_closed_form_moments_match_quadrature_property(case):
    # Mean to 1e-10 of the standard deviation (the mean can vanish), variance
    # to 1e-10 relative, skewness and kurtosis to 1e-8 absolute.
    p, t = case
    mean, var, skew, kurt = quadrature_moments(p, t)
    summary = two_phase_moments(p, t)
    assert abs(summary.mean - mean) <= 1e-10 * math.sqrt(var)
    assert abs(summary.variance - var) <= 1e-10 * var
    assert abs(summary.skewness - skew) <= 1e-8
    assert abs(summary.kurtosis - kurt) <= 1e-8


@settings(max_examples=80, deadline=None)
@given(
    sigma1=st.floats(min_value=0.05, max_value=2.0),
    sigma2=st.floats(min_value=0.05, max_value=2.0),
    q=st.floats(min_value=-1.5, max_value=1.5),
    x=st.floats(min_value=-3.0, max_value=3.0),
    t=st.floats(min_value=0.1, max_value=5.0),
)
def test_mirror_symmetry_property(sigma1, sigma2, q, x, t):
    direct = two_phase_pdf(TwoPhaseParams(sigma1, sigma2, q), x, t)
    mirrored = two_phase_pdf(TwoPhaseParams(sigma2, sigma1, -q), -x, t)
    assert direct >= 0.0
    assert abs(direct - mirrored) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    sigma1=st.floats(min_value=0.05, max_value=2.0),
    sigma2=st.floats(min_value=0.05, max_value=2.0),
    q=st.floats(min_value=-1.5, max_value=1.5),
    t=st.floats(min_value=0.1, max_value=5.0),
)
def test_cdf_bounds_and_monotonicity_property(sigma1, sigma2, q, t):
    p = TwoPhaseParams(sigma1, sigma2, q)
    xs = np.linspace(-4.0, 4.0, 41)
    values = np.array([two_phase_cdf(p, x, t) for x in xs])
    assert np.all(values >= -1e-15)
    assert np.all(values <= 1.0 + 1e-15)
    assert np.all(np.diff(values) >= -1e-12)


@settings(max_examples=60, deadline=None)
@given(
    sigma1=st.floats(min_value=0.05, max_value=2.0),
    sigma2=st.floats(min_value=0.05, max_value=2.0),
    sigma3=st.floats(min_value=0.05, max_value=2.0),
    q1=st.floats(min_value=0.01, max_value=1.5),
    q2=st.floats(min_value=-1.5, max_value=-0.01),
    t=st.floats(min_value=0.1, max_value=5.0),
)
def test_three_phase_invariants_property(sigma1, sigma2, sigma3, q1, q2, t):
    # Mass, continuity and flux continuity of the three-phase density, as
    # TestInvariantSweeps checks them for two phases.  Density and flux
    # mismatches are measured against the source phase's free Gaussian peak.
    p = ThreePhaseParams(sigma1, sigma2, sigma3, q1, q2)
    peak = 1.0 / (sigma2 * math.sqrt(2.0 * math.pi * t))
    assert three_phase_normalization_error(p, t) <= 1e-8
    assert three_phase_continuity_mismatch(p, t) <= 1e-9 * peak
    assert three_phase_flux_mismatch(p, t) <= 1e-8 * peak * sigma2 / math.sqrt(t)
    # The closed-form cdf and moments of the Gaussian pieces.
    pieces = _pieces(p, t)
    far = q1 + 40.0 * max(sigma1, sigma2, sigma3) * math.sqrt(t)
    assert abs(_cdf(pieces, far) - 1.0) <= 1e-12
    _, var, _, _ = three_phase_quadrature_moments(p, t)
    assert abs(_moments(pieces).variance - var) <= 1e-10 * var
