"""Tests for the risk-neutral call pricer, implied vols, and surfaces."""

import io
import math

import numpy as np
import pytest

from helpers import TABLE_CALLS, TABLE_STRIKES, TABLE_TAUS_DAYS
from multiphase.numerics import integrate_adaptive
from multiphase.phase_kernel import TwoPhaseParams, two_phase_pdf
from multiphase.pricing import (
    OptionTerms,
    SurfaceRow,
    VolBoundsError,
    black_scholes_call,
    commensurate_volatility,
    drift_mu_bar,
    implied_vol,
    lambda_normalizer,
    price_call,
    price_call_detail,
    price_call_quadrature,
    put_from_parity,
    surface,
    write_surface_csv,
)

TABLE_PARAMS = TwoPhaseParams(0.3, 0.4, -0.02)
MIRROR_PARAMS = TwoPhaseParams(0.3, 0.4, 0.02)
SPOT, RATE = 100.0, 0.05


def exp_moment_by_quadrature(p, t):
    smax = max(p.sigma1, p.sigma2) * math.sqrt(t)
    lo = min(p.q, 0.0) - 14.0 * smax
    hi = max(p.q, 0.0) + smax * smax + 14.0 * smax
    total = 0.0
    for a, b in zip(sorted({lo, p.q, 0.0, hi})[:-1], sorted({lo, p.q, 0.0, hi})[1:]):
        value, _ = integrate_adaptive(
            lambda z: math.exp(z) * two_phase_pdf(p, z, t), a, b, tol=1e-12
        )
        total += value
    return total


class TestOptionTerms:
    def test_exactly_one_tenor(self):
        with pytest.raises(ValueError):
            OptionTerms(spot=100, strike=90, rate=0.05)
        with pytest.raises(ValueError):
            OptionTerms(spot=100, strike=90, rate=0.05, tau_days=17, tau_years=0.1)

    def test_day_count(self):
        terms = OptionTerms(spot=100, strike=90, rate=0.05, tau_days=73)
        assert terms.tau == pytest.approx(0.2)
        terms252 = OptionTerms(
            spot=100, strike=90, rate=0.05, tau_days=63, day_count=252
        )
        assert terms252.tau == pytest.approx(0.25)
        with pytest.raises(ValueError):
            OptionTerms(spot=100, strike=90, rate=0.05, tau_days=17, day_count=360)

    def test_positive_inputs(self):
        with pytest.raises(ValueError):
            OptionTerms(spot=-1.0, strike=90, rate=0.05, tau_days=17)
        with pytest.raises(ValueError):
            OptionTerms(spot=100, strike=0.0, rate=0.05, tau_days=17)


class TestLambdaNormalizer:
    def test_gaussian_value(self):
        value = lambda_normalizer(TwoPhaseParams(0.3, 0.3, -0.1), 1.0)
        assert value == pytest.approx(math.exp(0.045), abs=1e-9)

    def test_large_q_limit(self):
        sigma2 = 0.4
        p = TwoPhaseParams(0.3, sigma2, 20.0 * sigma2)
        assert lambda_normalizer(p, 1.0) == pytest.approx(
            math.exp(0.5 * sigma2 * sigma2), abs=1e-8
        )

    def test_matches_quadrature(self):
        value = lambda_normalizer(TABLE_PARAMS, 0.25)
        assert value == pytest.approx(
            exp_moment_by_quadrature(TABLE_PARAMS, 0.25), abs=1e-8
        )

    def test_branch_consistency_near_zero(self):
        up = lambda_normalizer(TwoPhaseParams(0.3, 0.4, 1e-8), 1.0)
        down = lambda_normalizer(TwoPhaseParams(0.3, 0.4, -1e-8), 1.0)
        assert abs(up - down) <= 1e-9


class TestDriftMuBar:
    def test_black_scholes_drift(self):
        value = drift_mu_bar(TwoPhaseParams(0.3, 0.3, -0.1), 0.05, 0.7)
        assert value == pytest.approx(0.005, abs=1e-12)

    def test_degenerate_vol(self):
        value = drift_mu_bar(TwoPhaseParams(1e-6, 1e-6, 0.0), 0.0, 1.0)
        assert abs(value) <= 1e-10

    @pytest.mark.parametrize("tau_days", [17, 80, 318])
    def test_martingale_by_quadrature(self, tau_days):
        tau = tau_days / 365.0
        mu_bar = drift_mu_bar(TABLE_PARAMS, RATE, tau)
        forward = SPOT * math.exp(mu_bar * tau) * exp_moment_by_quadrature(
            TABLE_PARAMS, tau
        )
        assert abs(math.exp(-RATE * tau) * forward / SPOT - 1.0) <= 1e-8


class TestPriceCall:
    @pytest.mark.parametrize(
        "tau_days, strike, expected",
        [(17, 80.0, 20.192), (17, 100.0, 3.094), (318, 115.0, 8.767)],
    )
    def test_published_values(self, tau_days, strike, expected):
        terms = OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days)
        assert price_call(TABLE_PARAMS, terms) == pytest.approx(expected, abs=0.001)

    def test_gaussian_reduction_on_grid(self):
        model = TwoPhaseParams(0.3, 0.3, -0.02)
        for tau_days in TABLE_TAUS_DAYS:
            for strike in TABLE_STRIKES:
                terms = OptionTerms(
                    spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days
                )
                bs = black_scholes_call(SPOT, strike, RATE, 0.3, tau_days / 365.0)
                assert price_call(model, terms) == pytest.approx(bs, abs=1e-10)

    def test_all_four_regimes_against_quadrature(self):
        # Regimes 1-2 require q > 0; 3-4 require q <= 0.  The strikes below
        # move m = -ln(S/K) - mu_bar*tau across q in each family.
        cases = [
            (MIRROR_PARAMS, 110.0, 1),
            (MIRROR_PARAMS, 90.0, 2),
            (TABLE_PARAMS, 110.0, 3),
            (TABLE_PARAMS, 90.0, 4),
        ]
        for model, strike, expected_regime in cases:
            terms = OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=80)
            detail = price_call_detail(model, terms)
            assert detail.regime == expected_regime
            quad = price_call_quadrature(model, terms)
            assert detail.price == pytest.approx(quad, abs=1e-6)

    def test_monotonicity_on_grid(self):
        prices = {
            (tau_days, strike): price_call(
                TABLE_PARAMS,
                OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days),
            )
            for tau_days in TABLE_TAUS_DAYS
            for strike in TABLE_STRIKES
        }
        for tau_days in TABLE_TAUS_DAYS:
            row = [prices[(tau_days, k)] for k in TABLE_STRIKES]
            assert all(a >= b for a, b in zip(row, row[1:]))
        for strike in TABLE_STRIKES:
            col = [prices[(t, strike)] for t in TABLE_TAUS_DAYS]
            assert all(a <= b for a, b in zip(col, col[1:]))

    def test_seam_continuity(self):
        # 100 pairs straddling the m = q regime boundary for both q signs.
        for model in (TABLE_PARAMS, MIRROR_PARAMS):
            q = model.q
            for i in range(50):
                tau = (10.0 + 6.0 * i) / 365.0
                mu_bar = drift_mu_bar(model, RATE, tau)
                seam_strike = SPOT * math.exp(q + mu_bar * tau)
                eps = 1e-9 * seam_strike
                lo = price_call(
                    model,
                    OptionTerms(
                        spot=SPOT, strike=seam_strike - eps, rate=RATE, tau_years=tau
                    ),
                )
                hi = price_call(
                    model,
                    OptionTerms(
                        spot=SPOT, strike=seam_strike + eps, rate=RATE, tau_years=tau
                    ),
                )
                assert abs(hi - lo) <= 1e-6

    def test_price_within_bounds(self):
        for tau_days in TABLE_TAUS_DAYS:
            for strike in TABLE_STRIKES:
                terms = OptionTerms(
                    spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days
                )
                price = price_call(TABLE_PARAMS, terms)
                intrinsic = max(
                    0.0, SPOT - strike * math.exp(-RATE * tau_days / 365.0)
                )
                assert intrinsic <= price <= SPOT


class TestPriceCallQuadrature:
    def test_gaussian_matches_black_scholes(self):
        model = TwoPhaseParams(0.3, 0.3, -0.1)
        terms = OptionTerms(spot=SPOT, strike=95.0, rate=RATE, tau_days=80)
        bs = black_scholes_call(SPOT, 95.0, RATE, 0.3, 80 / 365.0)
        assert price_call_quadrature(model, terms) == pytest.approx(bs, abs=1e-8)

    def test_zero_strike_limit(self):
        terms = OptionTerms(spot=SPOT, strike=1e-9, rate=RATE, tau_days=80)
        assert price_call_quadrature(TABLE_PARAMS, terms) == pytest.approx(
            SPOT, abs=1e-6
        )

    def test_table_grid_mutual_consistency(self):
        for tau_days in TABLE_TAUS_DAYS:
            for strike in TABLE_STRIKES:
                terms = OptionTerms(
                    spot=SPOT, strike=strike, rate=RATE, tau_days=tau_days
                )
                closed = price_call(TABLE_PARAMS, terms)
                quad = price_call_quadrature(TABLE_PARAMS, terms)
                assert closed == pytest.approx(quad, abs=1e-6)


class TestBlackScholes:
    def test_zero_vol_is_intrinsic(self):
        assert black_scholes_call(100.0, 90.0, 0.05, 0.0, 0.5) == pytest.approx(
            100.0 - 90.0 * math.exp(-0.025)
        )
        assert black_scholes_call(80.0, 90.0, 0.05, 0.0, 0.5) == 0.0

    def test_zero_strike_limit(self):
        assert black_scholes_call(100.0, 1e-9, 0.05, 0.3, 0.5) == pytest.approx(
            100.0, abs=1e-6
        )

    def test_matches_quadrature_pricer(self):
        model = TwoPhaseParams(0.3, 0.3, 0.1)
        terms = OptionTerms(spot=100.0, strike=100.0, rate=0.05, tau_years=0.25)
        bs = black_scholes_call(100.0, 100.0, 0.05, 0.3, 0.25)
        assert price_call_quadrature(model, terms) == pytest.approx(bs, abs=1e-8)


class TestImpliedVol:
    def test_round_trip(self):
        price = black_scholes_call(100.0, 105.0, 0.03, 0.35, 0.5)
        assert implied_vol(price, 100.0, 105.0, 0.03, 0.5) == pytest.approx(
            0.35, abs=1e-8
        )

    def test_published_price_inversion(self):
        tau = 80 / 365.0
        vol = implied_vol(13.262, 100.0, 90.0, 0.05, tau)
        reprice = black_scholes_call(100.0, 90.0, 0.05, vol, tau)
        assert abs(reprice - 13.262) <= 1e-10 * 100.0

    def test_upper_bound_rejected(self):
        with pytest.raises(VolBoundsError):
            implied_vol(100.0, 100.0, 90.0, 0.05, 0.25)

    def test_intrinsic_rejected(self):
        tau = 0.25
        intrinsic = 100.0 - 90.0 * math.exp(-0.05 * tau)
        with pytest.raises(VolBoundsError):
            implied_vol(intrinsic, 100.0, 90.0, 0.05, tau)

    @pytest.mark.parametrize("strike, expected", [(140.0, 0.300437), (160.0, 0.300313)])
    def test_one_day_deep_out_of_the_money(self, strike, expected):
        # Prices of 7.5e-103 and 8.4e-198: the 1e-10 * spot reprice bound
        # passes any vol here, so only the iteration's own convergence
        # guards the result.  Expected vols are mpmath bisections.
        terms = OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=1)
        price = price_call(TABLE_PARAMS, terms)
        vol = implied_vol(price, SPOT, strike, RATE, terms.tau)
        assert vol == pytest.approx(expected, abs=1e-6)

    def test_round_trip_over_seeded_grid(self):
        rng = np.random.default_rng(20260)
        recovered = 0
        for _ in range(2000):
            strike = SPOT * rng.uniform(0.5, 1.6)
            tau = math.exp(rng.uniform(0.0, math.log(1825.0))) / 365.0
            sigma = rng.uniform(0.05, 1.0)
            price = black_scholes_call(SPOT, strike, RATE, sigma, tau)
            root_tau = math.sqrt(tau)
            sd = sigma * root_tau
            d1 = (math.log(SPOT / strike) + RATE * tau) / sd + 0.5 * sd
            vega = SPOT * root_tau * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
            # a rounding of the price moves the vol by under 1e-10 relative
            well_conditioned = price * 2.2e-16 < 1e-10 * vega * sigma
            try:
                vol = implied_vol(price, SPOT, strike, RATE, tau)
            except VolBoundsError:
                # only a price rounded onto a vol bound may be refused
                assert not well_conditioned
                continue
            reprice = black_scholes_call(SPOT, strike, RATE, vol, tau)
            assert abs(reprice - price) <= 1e-10 * SPOT
            if well_conditioned:
                assert vol == pytest.approx(sigma, rel=1e-9)
                recovered += 1
        assert recovered > 1500


class TestSurface:
    def test_reproduces_published_grid(self):
        rows = surface(
            TABLE_PARAMS, TABLE_STRIKES, TABLE_TAUS_DAYS, spot=SPOT, rate=RATE
        )
        assert len(rows) == 48
        for row in rows:
            expected = TABLE_CALLS[row.tau_days][TABLE_STRIKES.index(row.strike)]
            assert row.price == pytest.approx(expected, abs=0.001)
            assert row.note == ""

    def test_flat_surface_for_equal_sigmas(self):
        model = TwoPhaseParams(0.3, 0.3, -0.02)
        rows = surface(model, (80.0, 100.0, 115.0), (17, 136), spot=SPOT, rate=RATE)
        for row in rows:
            assert row.implied_vol == pytest.approx(0.3, abs=1e-8)

    def test_skew_direction_and_quadrature_agreement(self):
        rows = surface(TABLE_PARAMS, (80.0, 115.0), (17,), spot=SPOT, rate=RATE)
        by_strike = {row.strike: row for row in rows}
        assert by_strike[80.0].implied_vol > by_strike[115.0].implied_vol
        for strike, row in by_strike.items():
            terms = OptionTerms(spot=SPOT, strike=strike, rate=RATE, tau_days=17)
            quad_vol = implied_vol(
                price_call_quadrature(TABLE_PARAMS, terms),
                SPOT,
                strike,
                RATE,
                terms.tau,
            )
            assert row.implied_vol == pytest.approx(quad_vol, abs=1e-6)

    def test_bs_reference_uses_commensurate_vol(self):
        rows = surface(TABLE_PARAMS, (90.0,), (80,), spot=SPOT, rate=RATE)
        vol = commensurate_volatility(TABLE_PARAMS, 80 / 365.0)
        expected = black_scholes_call(SPOT, 90.0, RATE, vol, 80 / 365.0)
        assert rows[0].bs_reference_price == pytest.approx(expected, abs=1e-12)

    def test_csv_serialization(self):
        rows = surface(TABLE_PARAMS, (80.0, 90.0), (17, 45), spot=SPOT, rate=RATE)
        buffer = io.StringIO()
        write_surface_csv(rows, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "tau_days,strike,price,bs_reference_price,implied_vol"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "17"
        assert "." in first[2] and len(first[2].split(".")[1]) == 6

    def test_row_bounds_invariant(self):
        rows = surface(
            TABLE_PARAMS, TABLE_STRIKES, TABLE_TAUS_DAYS, spot=SPOT, rate=RATE
        )
        for row in rows:
            tau = row.tau_days / 365.0
            intrinsic = max(0.0, SPOT - row.strike * math.exp(-RATE * tau))
            assert intrinsic <= row.price <= SPOT


class TestPutFromParity:
    def test_parity_identity_atm(self):
        tau = 0.5
        call = black_scholes_call(100.0, 100.0, 0.05, 0.3, tau)
        put = put_from_parity(call, 100.0, 100.0, 0.05, tau)
        assert put - call == pytest.approx(
            100.0 * math.exp(-0.05 * tau) - 100.0, abs=1e-12
        )

    def test_zero_strike(self):
        assert put_from_parity(100.0, 100.0, 1e-9, 0.05, 0.5) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_published_cell_arithmetic(self):
        put = put_from_parity(12.324, 100.0, 100.0, 0.05, 227 / 365.0)
        assert put == pytest.approx(
            12.324 - 100.0 + 100.0 * math.exp(-0.05 * 227 / 365.0), abs=1e-12
        )


def test_closed_vs_quadrature_two_sign_grid():
    # A 10x10 (strike, maturity) grid per q sign; all four regimes appear.
    strikes = np.linspace(70.0, 130.0, 10)
    taus = np.linspace(10.0, 400.0, 10)
    seen = set()
    for model in (TABLE_PARAMS, MIRROR_PARAMS):
        for strike in strikes:
            for tau_days in taus:
                terms = OptionTerms(
                    spot=SPOT, strike=float(strike), rate=RATE, tau_years=tau_days / 365.0
                )
                detail = price_call_detail(model, terms)
                quad = price_call_quadrature(model, terms)
                seen.add(detail.regime)
                assert detail.price == pytest.approx(quad, abs=1e-6)
    assert seen == {1, 2, 3, 4}
