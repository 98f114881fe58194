"""Acceptance gate: the eight release criteria with pinned tolerances.

Each test encodes one criterion verbatim (tolerances and runtime budgets
included).
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from helpers import (
    TABLE_CALLS,
    TABLE_STRIKES,
    TABLE_TAUS_DAYS,
    batch_moments,
    continuity_mismatch,
    flux_mismatch,
    iter_parameter_grid,
    normalization_error,
)
from multiphase.cli import run as cli_run
from multiphase.inference import ReturnSample, fit_two_phase, lr_test
from multiphase.numerics import RngState
from multiphase.pde_oracle import (
    SolverGrid,
    chapman_kolmogorov_check,
    solve_system,
    three_phase_flux,
    verify_identity_A10,
    verify_identity_A14,
)
from multiphase.phase_kernel import (
    PhaseSystem,
    ThreePhaseParams,
    TwoPhaseParams,
    three_phase_pdf,
    three_phase_pdf_branch,
    two_phase_moments,
    two_phase_pdf,
    two_phase_sample,
)
from multiphase.pricing import (
    OptionTerms,
    PricingModel,
    black_scholes_call,
    drift_mu_bar,
    price_call,
    price_call_detail,
    price_call_quadrature,
    surface,
)

TABLE_PARAMS = TwoPhaseParams(0.3, 0.4, -0.02)
TABLE_MODEL = PricingModel(TABLE_PARAMS)
CANONICAL = TwoPhaseParams(0.2, 0.3, -0.1)
THREE_CANONICAL = ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)
SPOT, RATE = 100.0, 0.05


def test_criterion_1_published_price_grid():
    """48 call prices reproduce the published grid within +-0.001 in < 1 s."""
    start = time.perf_counter()
    rows = surface(TABLE_MODEL, TABLE_STRIKES, TABLE_TAUS_DAYS, spot=SPOT, rate=RATE)
    elapsed = time.perf_counter() - start
    assert len(rows) == 48
    for row in rows:
        expected = TABLE_CALLS[row.tau_days][TABLE_STRIKES.index(row.strike)]
        assert row.price == pytest.approx(expected, abs=0.001), (
            f"tau={row.tau_days}d K={row.strike}"
        )
    assert elapsed < 1.0


def test_criterion_2_lr_p_value_pairs():
    """All six published (LR, p) pairs reproduce within 2% relative on p."""
    pairs = [
        (26.461, 2.69e-7),
        (0.723, 0.395),
        (3.066, 0.080),
        (11.258, 7.93e-4),
        (0.843, 0.359),
        (6.981, 8.24e-3),
    ]
    for lr_value, p_expected in pairs:
        _, p = lr_test(lr_value / 2.0, 0.0)
        assert p == pytest.approx(p_expected, rel=0.02)


def test_criterion_3_density_property_suite():
    """Normalization, continuity, and flux over the pinned parameter grid,
    plus the semigroup (convolution) identity at three time splits; < 60 s."""
    start = time.perf_counter()
    worst_norm = max(normalization_error(p, t) for p, t in iter_parameter_grid())
    worst_cont = max(continuity_mismatch(p, t) for p, t in iter_parameter_grid())
    worst_flux = max(flux_mismatch(p, t) for p, t in iter_parameter_grid())
    grid = SolverGrid(x_min=-2.0, x_max=2.0, nx=301, dt=1e-3)
    worst_ck = max(
        chapman_kolmogorov_check(CANONICAL, s, t, grid)
        for s, t in [(0.2, 1.0), (0.4, 1.0), (0.5, 2.0)]
    )
    elapsed = time.perf_counter() - start
    assert worst_norm <= 1e-8
    assert worst_cont <= 1e-10
    assert worst_flux <= 1e-6
    assert worst_ck <= 1e-4
    assert elapsed < 60.0


def _pde_relative_sup_error(sys_, reference, nx, dt, window=1.0):
    grid = SolverGrid(x_min=-3.2, x_max=3.4, nx=nx, dt=dt)
    solution = solve_system(sys_, grid, 1.0)
    mask = np.abs(solution.x) <= window
    exact = np.array([reference(x) for x in solution.x[mask]])
    return float(np.max(np.abs(solution.values[mask] - exact)) / np.max(exact))


def test_criterion_4_pde_cross_validation_two_phase():
    """Closed form vs conservative solve at nx=2001, dt=1e-4: relative sup
    error <= 1e-3 and >= 3x error reduction under one refinement halving."""
    start = time.perf_counter()
    sys_ = PhaseSystem.from_two_phase(CANONICAL)
    reference = lambda x: two_phase_pdf(CANONICAL, x, 1.0)
    base = _pde_relative_sup_error(sys_, reference, 2001, 1e-4)
    halved = _pde_relative_sup_error(sys_, reference, 4001, 5e-5)
    elapsed = time.perf_counter() - start
    assert base <= 1e-3
    assert base / halved >= 3.0
    assert elapsed < 90.0


def test_criterion_4_pde_cross_validation_three_phase():
    """Three-phase closed form vs conservative solve at nx=2001, dt=1e-4:
    relative sup error <= 1e-3 (the solve starts from a discrete delta at 0,
    not from the closed form)."""
    start = time.perf_counter()
    sys_ = PhaseSystem.from_three_phase(THREE_CANONICAL)
    reference = lambda x: three_phase_pdf(THREE_CANONICAL, x, 1.0)
    base = _pde_relative_sup_error(sys_, reference, 2001, 1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert base <= 1e-3


def test_criterion_5_integral_identities_and_fluxes():
    """Quadrature identities on 20 random triples each within 1e-7; interface
    fluxes match one-sided finite differences of the density within 1e-5."""
    rng = np.random.Generator(np.random.PCG64(424242))
    for _ in range(20):
        q, a2, t = rng.uniform(0.05, 2.0, size=3)
        lhs, rhs = verify_identity_A10(q, a2, t)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))
    for _ in range(20):
        alpha, beta, t = rng.uniform(0.05, 2.0, size=3)
        lhs, rhs = verify_identity_A14(alpha, beta, t)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))

    def one_sided(f, x0, h, side):
        coeffs = (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25)
        return side * sum(c * f(x0 + side * k * h) for k, c in enumerate(coeffs)) / h

    p = THREE_CANONICAL
    for t in (0.5, 1.0, 2.0):
        g1, g2 = three_phase_flux(p, t)
        d1 = one_sided(lambda x: three_phase_pdf_branch(p, x, t)[0], p.q1, 1e-5, +1)
        d3 = one_sided(lambda x: three_phase_pdf_branch(p, x, t)[2], p.q2, 1e-5, -1)
        assert g1 == pytest.approx(0.5 * p.sigma1**2 * d1, abs=1e-5)
        assert g2 == pytest.approx(0.5 * p.sigma3**2 * d3, abs=1e-5)


def test_criterion_6_pricing_consistency():
    """Closed form vs quadrature <= 1e-6 over all four regimes; Gaussian
    reduction <= 1e-10; martingale <= 1e-8; seam continuity <= 1e-6."""
    mirror_model = PricingModel(TwoPhaseParams(0.3, 0.4, 0.02))
    seen = set()
    for model in (TABLE_MODEL, mirror_model):
        for strike in np.linspace(70.0, 130.0, 10):
            for tau_days in np.linspace(10.0, 400.0, 10):
                terms = OptionTerms(
                    spot=SPOT,
                    strike=float(strike),
                    rate=RATE,
                    tau_years=float(tau_days) / 365.0,
                )
                detail = price_call_detail(model, terms)
                seen.add(detail.regime)
                assert detail.price == pytest.approx(
                    price_call_quadrature(model, terms), abs=1e-6
                )
    assert seen == {1, 2, 3, 4}

    flat = PricingModel(TwoPhaseParams(0.3, 0.3, -0.02))
    for tau_days in TABLE_TAUS_DAYS:
        for strike in TABLE_STRIKES:
            terms = OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days)
            bs = black_scholes_call(SPOT, strike, RATE, 0.3, tau_days / 365.0)
            assert price_call(flat, terms) == pytest.approx(bs, abs=1e-10)

    from multiphase.numerics import QuadratureSpec, integrate_adaptive

    for tau_days in (17, 80, 318):
        tau = tau_days / 365.0
        mu_bar = drift_mu_bar(TABLE_PARAMS, RATE, tau)
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
        smax = 0.4 * math.sqrt(tau)
        lo = TABLE_PARAMS.q - 14.0 * smax
        hi = smax * smax + 14.0 * smax
        forward = 0.0
        for a, b in zip((lo, TABLE_PARAMS.q, 0.0), (TABLE_PARAMS.q, 0.0, hi)):
            value, _ = integrate_adaptive(
                lambda z: math.exp(z) * two_phase_pdf(TABLE_PARAMS, z, tau), a, b, spec
            )
            forward += value
        martingale_error = abs(
            math.exp(-RATE * tau) * math.exp(mu_bar * tau) * forward - 1.0
        )
        assert martingale_error <= 1e-8

    for model in (TABLE_MODEL, mirror_model):
        q = model.params.q
        for i in range(50):
            tau = (10.0 + 6.0 * i) / 365.0
            mu_bar = drift_mu_bar(model.params, RATE, tau)
            seam_strike = SPOT * math.exp(q + mu_bar * tau)
            eps = 1e-9 * seam_strike
            lo = price_call(
                model,
                OptionTerms(spot=SPOT, strike=seam_strike - eps, rate=RATE, tau_years=tau),
            )
            hi = price_call(
                model,
                OptionTerms(spot=SPOT, strike=seam_strike + eps, rate=RATE, tau_years=tau),
            )
            assert abs(hi - lo) <= 1e-6


_elapsed_criterion_7 = {}


def test_criterion_7_synthetic_recovery():
    """>= 95 of 100 seeded 5e4-draw fits recover all three parameters within
    3 reported standard errors."""
    start = time.perf_counter()
    truth = TwoPhaseParams(0.01, 0.035, -0.02)
    hits = 0
    for i in range(100):
        draws, _ = two_phase_sample(truth, 1.0, 5 * 10**4, RngState(seed=1000 + i))
        report = fit_two_phase(ReturnSample(draws))
        ok = (
            abs(report.sigma1_hat - truth.sigma1) <= 3.0 * report.se_sigma1
            and abs(report.sigma2_hat - truth.sigma2) <= 3.0 * report.se_sigma2
            and abs(report.q_hat - truth.q) <= 3.0 * report.se_q
        )
        hits += ok
    _elapsed_criterion_7["recovery"] = time.perf_counter() - start
    assert hits >= 95


def test_criterion_7_null_calibration():
    """The 5%-level rejection rate under a Gaussian null must lie in
    [2%, 10%].  The boundary parameter is unidentified under the null, so the
    statistic is the supremum of a chi-square(1) field; its Davies-bound
    p-value rejects 44/1000 (the chi-square(1) tail of the same statistic
    would reject 269/1000)."""
    start = time.perf_counter()
    rejections = 0
    for i in range(1000):
        gen = RngState(seed=40000 + i).generator()
        x = gen.normal(0.0, 0.01, size=500)
        report = fit_two_phase(ReturnSample(x))
        rejections += report.p_value < 0.05
    elapsed = time.perf_counter() - start
    total = elapsed + _elapsed_criterion_7.get("recovery", 0.0)
    assert total < 600.0
    assert 0.02 <= rejections / 1000.0 <= 0.10


def test_criterion_8_moment_structure_and_monte_carlo():
    """Skewness/kurtosis asymptotics, a single interior skew extremum per q
    sign (both horizons), and quadrature moments vs 1e7-draw Monte Carlo."""
    sigma1, sigma2 = 0.025, 0.05

    for t in (5.0, 21.0):
        out, err = io.StringIO(), io.StringIO()
        status = cli_run(
            [
                "moments",
                "--model", "two-phase",
                "--sigma1", str(sigma1),
                "--sigma2", str(sigma2),
                "--t", str(t),
                "--q-grid", "-0.5:0.5:101",
            ],
            stdout=out,
            stderr=err,
        )
        assert status == 0
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        header, data = rows[0], rows[1:]
        assert len(data) == 101
        q_col = header.index("q")
        skew_col = header.index("skewness")
        qs = np.array([float(r[q_col]) for r in data])
        skews = np.array([float(r[skew_col]) for r in data])

        for mask in (qs < 0, qs > 0):
            magnitude = np.abs(skews[mask])
            interior_maxima = sum(
                1
                for i in range(1, len(magnitude) - 1)
                if magnitude[i] > magnitude[i - 1]
                and magnitude[i] > magnitude[i + 1]
            )
            assert interior_maxima == 1

        q_far = 20.0 * sigma2 * math.sqrt(t)
        for q in (q_far, -q_far):
            summary = two_phase_moments(TwoPhaseParams(sigma1, sigma2, q), t)
            assert abs(summary.skewness) <= 1e-3
            assert abs(summary.kurtosis - 3.0) <= 1e-3

    mc_cases = [
        (-0.3, 21.0), (-0.1, 21.0), (0.1, 21.0), (-0.05, 5.0), (0.3, 5.0),
    ]
    for seed_offset, (q, t) in enumerate(mc_cases):
        p = TwoPhaseParams(sigma1, sigma2, q)
        summary = two_phase_moments(p, t)
        draws, _ = two_phase_sample(p, t, 10**7, RngState(seed=6000 + seed_offset))
        skew, se_skew, kurt, se_kurt = batch_moments(draws)
        assert abs(summary.skewness - skew) <= 3.0 * se_skew, (q, t)
        assert abs(summary.kurtosis - kurt) <= 3.0 * se_kurt, (q, t)
