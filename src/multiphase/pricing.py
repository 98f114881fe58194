"""Risk-neutral European call pricing under the two-phase return law.

The log-price increment Z_tau follows the two-phase density; discounting uses
the exact normalizer Lambda(tau) = E[exp(Z_tau)] so that the discounted stock
is a martingale under the pricing drift mu_bar = r - ln(Lambda(tau))/tau.  The
closed-form price splits into four regimes by the position of the interphase
boundary q relative to 0 and to the effective log-moneyness threshold
m = -ln(S/K) - mu_bar*tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .numerics import (
    BracketError,
    QuadratureSpec,
    find_root_bracketed,
    integrate_adaptive,
    std_normal_cdf,
)
from .phase_kernel import DomainError, TwoPhaseParams, _coeffs
from .phase_kernel import two_phase_moments, two_phase_pdf

__all__ = [
    "PricingError",
    "InternalConsistencyError",
    "VolBoundsError",
    "OptionTerms",
    "PricingModel",
    "PriceDetail",
    "SurfaceRow",
    "lambda_normalizer",
    "drift_mu_bar",
    "price_call",
    "price_call_detail",
    "price_call_quadrature",
    "black_scholes_call",
    "implied_vol",
    "commensurate_volatility",
    "surface",
    "put_from_parity",
    "write_surface_csv",
]

_DAY_COUNTS = (365, 252)


class PricingError(RuntimeError):
    """Pricing computation failed a structural check."""


class InternalConsistencyError(PricingError):
    """A closed-form price left its arbitrage bounds beyond rounding slack."""


class VolBoundsError(ValueError):
    """Target price sits outside the range attainable by any volatility."""


@dataclass(frozen=True)
class OptionTerms:
    """Contract terms; supply exactly one of tau_days / tau_years."""

    spot: float
    strike: float
    rate: float
    tau_days: float | None = None
    tau_years: float | None = None
    day_count: int = 365

    def __post_init__(self):
        if not self.spot > 0:
            raise DomainError(f"spot must be positive, got {self.spot}")
        if not self.strike > 0:
            raise DomainError(f"strike must be positive, got {self.strike}")
        if (self.tau_days is None) == (self.tau_years is None):
            raise DomainError("supply exactly one of tau_days or tau_years")
        if self.day_count not in _DAY_COUNTS:
            raise DomainError(f"day_count must be one of {_DAY_COUNTS}")
        if not self.tau > 0:
            raise DomainError("time to expiry must be positive")

    @property
    def tau(self) -> float:
        if self.tau_years is not None:
            return float(self.tau_years)
        return float(self.tau_days) / self.day_count


@dataclass(frozen=True)
class PricingModel:
    """Two-phase return-law parameters in annualized units."""

    params: TwoPhaseParams


@dataclass(frozen=True)
class PriceDetail:
    """Closed-form price with its regime and risk-neutral drift diagnostics."""

    price: float
    regime: int
    mu_bar: float
    lambda_value: float
    psi1: float
    psi2: float


@dataclass(frozen=True)
class SurfaceRow:
    """One (tau, strike) cell of the implied-volatility surface output."""

    tau_days: float
    strike: float
    price: float
    bs_reference_price: float
    implied_vol: float
    note: str = ""


def lambda_normalizer(p: TwoPhaseParams, t: float) -> float:
    """Exact E[exp(Z_t)] under the two-phase law (branch by sign of q)."""
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    s1, s2, q = p.sigma1, p.sigma2, p.q
    r1, r2 = s1 * math.sqrt(t), s2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    cdf = std_normal_cdf
    if q > 0:
        return float(
            math.exp(0.5 * s1 * s1 * t) * a1 * math.exp(c1 * q)
            * cdf((-q + s1 * s2 * t) / r2)
            + math.exp(0.5 * s2 * s2 * t)
            * (cdf((q - s2 * s2 * t) / r2)
               + refl * math.exp(2.0 * q) * cdf((-q - s2 * s2 * t) / r2))
        )
    return float(
        math.exp(0.5 * s1 * s1 * t)
        * (cdf((-q + s1 * s1 * t) / r1)
           - refl * math.exp(2.0 * q) * cdf((q + s1 * s1 * t) / r1))
        + math.exp(0.5 * s2 * s2 * t) * a2 * math.exp(c2 * q)
        * cdf((q - s1 * s2 * t) / r1)
    )


def drift_mu_bar(p: TwoPhaseParams, rate: float, tau: float) -> float:
    """Annualized risk-neutral drift r - ln(Lambda(tau))/tau."""
    return rate - math.log(lambda_normalizer(p, tau)) / tau


def price_call_detail(model: PricingModel, terms: OptionTerms) -> PriceDetail:
    """Closed-form call price with regime and drift diagnostics.

    Regime selection (ties: q = 0 follows the q <= 0 density convention,
    0 < q = m stays with regime 1, whose closure contains it):
      1: 0 < q <= m       2: q > 0, q > m
      3: q <= 0, q < m    4: m <= q <= 0
    where m = -ln(S/K) - mu_bar*tau.  The price must respect
    (S - K e^{-r tau})^+ <= price <= S; violations beyond 1e-10 * S raise,
    smaller ones are clamped.
    """
    p = model.params
    s1, s2, q = p.sigma1, p.sigma2, p.q
    spot, strike, rate, tau = terms.spot, terms.strike, terms.rate, terms.tau
    r1, r2 = s1 * math.sqrt(tau), s2 * math.sqrt(tau)
    a1, a2, refl, c1, c2 = _coeffs(p)
    cdf = std_normal_cdf

    lam = lambda_normalizer(p, tau)
    mu = rate - math.log(lam) / tau
    log_moneyness = math.log(spot / strike)
    m = -log_moneyness - mu * tau

    if 0.0 < q <= m:
        regime = 1
        psi1 = float(
            a1 * math.exp((mu + 0.5 * s1 * s1 - rate) * tau + c1 * q)
            * cdf((log_moneyness + (mu + s1 * s1) * tau + c1 * q) / r1)
        )
        psi2 = float(a1 * cdf((log_moneyness + mu * tau + c1 * q) / r1))
    elif q > 0.0:
        regime = 2
        psi1 = float(
            math.exp((mu + 0.5 * s2 * s2 - rate) * tau)
            * (cdf((log_moneyness + (mu + s2 * s2) * tau) / r2)
               - cdf((-q + s2 * s2 * tau) / r2)
               + refl * math.exp(2.0 * q)
               * (cdf((log_moneyness + (mu + s2 * s2) * tau + 2.0 * q) / r2)
                  - cdf((q + s2 * s2 * tau) / r2)))
            + a1 * math.exp((mu + 0.5 * s1 * s1 - rate) * tau + c1 * q)
            * cdf((-q + s1 * s2 * tau) / r2)
        )
        psi2 = float(
            cdf((log_moneyness + mu * tau) / r2)
            - refl * cdf(-(log_moneyness + mu * tau + 2.0 * q) / r2)
        )
    elif q <= 0.0 and q < m:
        regime = 3
        psi1 = float(
            math.exp((mu + 0.5 * s1 * s1 - rate) * tau)
            * (cdf((log_moneyness + (mu + s1 * s1) * tau) / r1)
               - refl * math.exp(2.0 * q)
               * cdf((log_moneyness + (mu + s1 * s1) * tau + 2.0 * q) / r1))
        )
        psi2 = float(
            cdf((log_moneyness + mu * tau) / r1)
            - refl * cdf((log_moneyness + mu * tau + 2.0 * q) / r1)
        )
    else:
        regime = 4
        psi1 = float(
            a2 * math.exp((mu + 0.5 * s2 * s2 - rate) * tau + c2 * q)
            * (cdf((log_moneyness + (mu + s2 * s2) * tau + c2 * q) / r2)
               - cdf((-q + s1 * s2 * tau) / r1))
            + math.exp((mu + 0.5 * s1 * s1 - rate) * tau)
            * (cdf((-q + s1 * s1 * tau) / r1)
               - refl * math.exp(2.0 * q) * cdf((q + s1 * s1 * tau) / r1))
        )
        psi2 = float(
            a2 * cdf((log_moneyness + mu * tau + c2 * q) / r2) - refl
        )

    price = spot * psi1 - strike * math.exp(-rate * tau) * psi2
    lower = max(0.0, spot - strike * math.exp(-rate * tau))
    slack = 1e-10 * spot
    if price < lower - slack or price > spot + slack:
        raise InternalConsistencyError(
            f"regime {regime} price {price!r} outside [{lower!r}, {spot!r}] "
            f"beyond slack {slack!r}"
        )
    price = min(max(price, lower), spot)
    return PriceDetail(
        price=price, regime=regime, mu_bar=mu, lambda_value=lam,
        psi1=psi1, psi2=psi2,
    )


def price_call(model: PricingModel, terms: OptionTerms) -> float:
    """Closed-form European call price (see price_call_detail)."""
    return price_call_detail(model, terms).price


def price_call_quadrature(
    model: PricingModel, terms: OptionTerms, spec: QuadratureSpec | None = None
) -> float:
    """Oracle price: discounted payoff integrated against the exact density.

    Integrates (S e^{mu tau + z} - K) u(z, tau) from the exercise threshold
    z* = ln(K/S) - mu tau up to a far cut beyond both the density scale and
    the exponential payoff tilt; the kink at z = q is a quadrature breakpoint.
    """
    spec = spec or QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11, max_subdivisions=200)
    p = model.params
    spot, strike, rate, tau = terms.spot, terms.strike, terms.rate, terms.tau
    mu = drift_mu_bar(p, rate, tau)
    z_star = math.log(strike / spot) - mu * tau
    s_max = max(p.sigma1, p.sigma2) * math.sqrt(tau)
    z_hi = max(p.q, 0.0, z_star) + s_max * s_max + 14.0 * s_max

    def integrand(z: float) -> float:
        payoff = spot * math.exp(mu * tau + z) - strike
        return payoff * float(two_phase_pdf(p, z, tau))

    points = sorted({z_star, p.q, z_hi})
    points = [z for z in points if z_star <= z <= z_hi]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        value, _ = integrate_adaptive(integrand, a, b, spec)
        total += value
    return math.exp(-rate * tau) * total


def black_scholes_call(
    spot: float, strike: float, rate: float, sigma: float, tau: float
) -> float:
    """Standard Black-Scholes call; sigma = 0 degenerates to the forward payoff."""
    if sigma == 0.0 or tau == 0.0:
        return max(0.0, spot - strike * math.exp(-rate * tau))
    root_tau = math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / (
        sigma * root_tau
    )
    d2 = d1 - sigma * root_tau
    return float(
        spot * std_normal_cdf(d1)
        - strike * math.exp(-rate * tau) * std_normal_cdf(d2)
    )


def implied_vol(
    price: float,
    spot: float,
    strike: float,
    rate: float,
    tau: float,
    bracket: tuple[float, float] = (1e-6, 5.0),
) -> float:
    """Black-Scholes volatility reproducing the given price.

    The target must lie strictly between the zero-vol intrinsic value and the
    spot (the sigma -> 0 and sigma -> infinity limits); the recovered vol must
    reprice within 1e-10 * spot.
    """
    lo, hi = bracket
    price_lo = black_scholes_call(spot, strike, rate, lo, tau)
    price_hi = black_scholes_call(spot, strike, rate, hi, tau)
    if not price_lo < price < price_hi:
        raise VolBoundsError(
            f"price {price!r} outside attainable range "
            f"({price_lo!r}, {price_hi!r}) for vol bracket {bracket}"
        )
    vol = find_root_bracketed(
        lambda s: black_scholes_call(spot, strike, rate, s, tau) - price,
        lo,
        hi,
        tol=1e-13,
    )
    repriced = black_scholes_call(spot, strike, rate, vol, tau)
    if abs(repriced - price) > 1e-10 * spot:
        raise PricingError(
            f"implied vol {vol!r} reprices to {repriced!r}, "
            f"off target {price!r} by more than 1e-10 * spot"
        )
    return vol


def commensurate_volatility(p: TwoPhaseParams, tau: float) -> float:
    """Constant vol with the same variance per unit time as the two-phase law."""
    moments = two_phase_moments(p, tau)
    return math.sqrt(moments.variance / tau)


def surface(
    model: PricingModel,
    strikes: Sequence[float],
    taus_days: Sequence[float],
    spot: float,
    rate: float,
    day_count: int = 365,
) -> list[SurfaceRow]:
    """Implied-vol surface rows over a strike x maturity grid.

    Per-cell failures (price at a vol bound, bracket failure) are recorded in
    the row's note with implied_vol = nan; generation continues.
    """
    rows: list[SurfaceRow] = []
    for tau_days in taus_days:
        terms_tau = tau_days / day_count
        sigma_ref = commensurate_volatility(model.params, terms_tau)
        for strike in strikes:
            terms = OptionTerms(
                spot=spot, strike=strike, rate=rate,
                tau_days=tau_days, day_count=day_count,
            )
            price = price_call(model, terms)
            bs_ref = black_scholes_call(spot, strike, rate, sigma_ref, terms_tau)
            try:
                vol = implied_vol(price, spot, strike, rate, terms_tau)
                note = ""
            except (VolBoundsError, BracketError, PricingError) as exc:
                vol = float("nan")
                note = f"{type(exc).__name__}: {exc}"
            rows.append(
                SurfaceRow(
                    tau_days=tau_days,
                    strike=strike,
                    price=price,
                    bs_reference_price=bs_ref,
                    implied_vol=vol,
                    note=note,
                )
            )
    return rows


def put_from_parity(
    call_price: float, spot: float, strike: float, rate: float, tau: float
) -> float:
    """European put via put-call parity on the same discounted forward."""
    return call_price - spot + strike * math.exp(-rate * tau)


def _format_vol(value: float) -> str:
    if math.isnan(value):
        return "nan"
    return np.format_float_positional(
        value, precision=6, unique=False, fractional=False, trim="k"
    )


def write_surface_csv(rows: Sequence[SurfaceRow], stream: TextIO) -> None:
    """Serialize surface rows: prices to 6 decimals, vols to 6 significant digits."""
    stream.write("tau_days,strike,price,bs_reference_price,implied_vol\n")
    for row in rows:
        stream.write(
            f"{row.tau_days:g},{row.strike:g},{row.price:.6f},"
            f"{row.bs_reference_price:.6f},{_format_vol(row.implied_vol)}\n"
        )
