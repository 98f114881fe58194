"""Risk-neutral European call pricing under the two-phase return law.

The log-price increment Z_tau follows the two-phase density; discounting uses
the exact normalizer Lambda(tau) = E[exp(Z_tau)] so that the discounted stock
is a martingale under the pricing drift mu_bar = r - ln(Lambda(tau))/tau.
Both Lambda and the closed-form price are sums over the law's Gaussian
pieces (phase_kernel._gaussian_pieces): a piece w N(z; m, s^2) on its phase
[lo, hi) adds w e^(m + s^2/2) P(lo' <= N(m + s^2, s^2) < hi) to
E[exp(Z); Z >= z*] and w P(lo' <= N(m, s^2) < hi) to P(Z >= z*), where
lo' = max(lo, z*), z* = -ln(S/K) - mu_bar*tau is the exercise threshold, and
z* = -inf gives Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .numerics import integrate_adaptive
from .phase_kernel import DomainError, TwoPhaseParams, _mass, _moments, _pieces
from .phase_kernel import two_phase_moments, two_phase_pdf

__all__ = [
    "PricingError",
    "InternalConsistencyError",
    "VolBoundsError",
    "OptionTerms",
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
    "write_surface_csv",
]

_DAY_COUNTS = (365, 252)
#: implied_vol's volatility bracket; price_call_quadrature's tolerance.
_VOL_BRACKET = (1e-6, 5.0)
_QUAD_TOL = 1e-11
_SQRT_HALF = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


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


def _tilted_sums(phases, z_star: float) -> tuple[float, float]:
    """(E[exp(Z); Z >= z*], P(Z >= z*)) summed over the Gaussian pieces.

    Raises PricingError when a piece's tilt m + s^2/2 overflows exp.
    """
    tilted = mass = 0.0
    for lo, hi, scale, pieces in phases:
        lo = max(lo, z_star)
        if lo >= hi:
            continue
        shift = scale * scale
        for w, m in pieces:
            try:
                growth = math.exp(m + 0.5 * shift)
            except OverflowError:
                raise PricingError(
                    f"a Gaussian piece's tilt m + s^2/2 = {m + 0.5 * shift:.6g} "
                    "overflows exp; E[exp(Z)] is outside the double range"
                ) from None
            tilted += w * growth * _mass(lo, hi, m + shift, scale)
            mass += w * _mass(lo, hi, m, scale)
    return tilted, mass


def lambda_normalizer(p: TwoPhaseParams, t: float) -> float:
    """Exact E[exp(Z_t)] under the two-phase law."""
    return _tilted_sums(_pieces(p, t), -math.inf)[0]


def drift_mu_bar(p: TwoPhaseParams, rate: float, tau: float) -> float:
    """Annualized risk-neutral drift r - ln(Lambda(tau))/tau."""
    return rate - math.log(lambda_normalizer(p, tau)) / tau


def _price_detail(phases, lam: float, q: float, terms: OptionTerms) -> PriceDetail:
    """price_call_detail from the law's pieces and Lambda at the terms' tau."""
    spot, strike, rate, tau = terms.spot, terms.strike, terms.rate, terms.tau
    mu = rate - math.log(lam) / tau
    m = -math.log(spot / strike) - mu * tau
    tilted, psi2 = _tilted_sums(phases, m)
    psi1 = math.exp((mu - rate) * tau) * tilted
    regime = 1 if 0.0 < q <= m else 2 if q > 0.0 else 3 if q < m else 4

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


def price_call_detail(p: TwoPhaseParams, terms: OptionTerms) -> PriceDetail:
    """Closed-form call price with regime and drift diagnostics.

    price = S psi1 - K e^{-r tau} psi2, where psi1 = e^{(mu_bar - r) tau}
    E[exp(Z); Z >= m] and psi2 = P(Z >= m) are sums over the Gaussian pieces
    and m = -ln(S/K) - mu_bar*tau.  The regime is a label (ties: q = 0
    follows the q <= 0 density convention, 0 < q = m stays with regime 1):
      1: 0 < q <= m       2: q > 0, q > m
      3: q <= 0, q < m    4: m <= q <= 0
    The price must respect (S - K e^{-r tau})^+ <= price <= S; violations
    beyond 1e-10 * S raise, smaller ones are clamped.
    """
    phases = _pieces(p, terms.tau)
    lam = _tilted_sums(phases, -math.inf)[0]
    return _price_detail(phases, lam, p.q, terms)


def price_call(p: TwoPhaseParams, terms: OptionTerms) -> float:
    """Closed-form European call price (see price_call_detail)."""
    return price_call_detail(p, terms).price


def price_call_quadrature(p: TwoPhaseParams, terms: OptionTerms) -> float:
    """Oracle price: discounted payoff integrated against the exact density.

    Integrates (S e^{mu tau + z} - K) u(z, tau) from the exercise threshold
    z* = ln(K/S) - mu tau up to a far cut beyond both the density scale and
    the exponential payoff tilt; the kink at z = q is a quadrature breakpoint.
    """
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
        value, _ = integrate_adaptive(integrand, a, b, tol=_QUAD_TOL)
        total += value
    return math.exp(-rate * tau) * total


def black_scholes_call(
    spot: float, strike: float, rate: float, sigma: float, tau: float
) -> float:
    """Standard Black-Scholes call; sigma = 0 degenerates to the forward payoff."""
    discount = strike * math.exp(-rate * tau)
    if sigma == 0.0 or tau == 0.0:
        return max(0.0, spot - discount)
    root_tau = math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / (
        sigma * root_tau
    )
    return _black_scholes(spot, discount, d1, sigma * root_tau)


def _black_scholes(spot, discount, d1, sd, sign=1.0) -> float:
    """The call S N(d1) - K e^{-r tau} N(d2), or for sign = -1 the put."""
    return 0.5 * sign * (
        spot * math.erfc(-sign * d1 * _SQRT_HALF)
        - discount * math.erfc(-sign * (d1 - sd) * _SQRT_HALF)
    )


def implied_vol(
    price: float, spot: float, strike: float, rate: float, tau: float
) -> float:
    """Black-Scholes volatility reproducing the given price.

    The target must lie strictly between the prices at the ends of
    _VOL_BRACKET, near the zero-vol intrinsic value and the spot.  Newton's
    method in sigma on the log price of the out-of-the-money option (Jaeckel
    2006; the put from parity when x = ln(S e^{r tau} / K) > 0), with steps
    that would leave the sign bracket turned into bisections, must converge to
    a step of at most 1e-13 * sigma and reprice within 1e-10 * spot, else
    PricingError.
    """
    lo, hi = _VOL_BRACKET
    price_lo = black_scholes_call(spot, strike, rate, lo, tau)
    price_hi = black_scholes_call(spot, strike, rate, hi, tau)
    if not price_lo < price < price_hi:
        raise VolBoundsError(
            f"price {price!r} outside attainable range "
            f"({price_lo!r}, {price_hi!r}) for vol bracket {_VOL_BRACKET}"
        )
    root_tau = math.sqrt(tau)
    discount = strike * math.exp(-rate * tau)
    x = math.log(spot / discount)
    sign = 1.0 if x <= 0.0 else -1.0
    target = math.log(price if x <= 0.0 else price - (spot - discount))
    vol = 0.3 if lo < 0.3 < hi else 0.5 * (lo + hi)
    for _ in range(100):
        sd = vol * root_tau
        d1 = x / sd + 0.5 * sd
        otm = _black_scholes(spot, discount, d1, sd, sign)
        vega = spot * root_tau * math.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI
        gap = math.log(otm) - target if otm > 0.0 else -math.inf
        if gap < 0.0:
            lo = vol
        elif gap > 0.0:
            hi = vol
        step = -gap * otm / vega if vega > 0.0 and otm > 0.0 else math.inf
        if abs(step) > 1e-13 * vol and not lo < vol + step < hi:
            step = 0.5 * (lo + hi) - vol
        vol += step
        if abs(step) <= 1e-13 * vol:
            break
    else:
        raise PricingError(f"implied vol {vol!r} did not converge in 100 steps")
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
    p: TwoPhaseParams,
    strikes: Sequence[float],
    taus_days: Sequence[float],
    spot: float,
    rate: float,
    day_count: int = 365,
) -> list[SurfaceRow]:
    """Implied-vol surface rows over a strike x maturity grid.

    The Gaussian pieces are built once per maturity; Lambda and the
    commensurate volatility of the Black-Scholes reference both come from
    them.  Per-cell failures (price at a vol bound, no convergence) are
    recorded in the row's note with implied_vol = nan; generation continues.
    """
    rows: list[SurfaceRow] = []
    for tau_days in taus_days:
        terms_tau = tau_days / day_count
        phases = _pieces(p, terms_tau)
        lam = _tilted_sums(phases, -math.inf)[0]
        sigma_ref = math.sqrt(_moments(phases).variance / terms_tau)
        for strike in strikes:
            terms = OptionTerms(
                spot=spot, strike=strike, rate=rate,
                tau_days=tau_days, day_count=day_count,
            )
            price = _price_detail(phases, lam, p.q, terms).price
            bs_ref = black_scholes_call(spot, strike, rate, sigma_ref, terms_tau)
            try:
                vol = implied_vol(price, spot, strike, rate, terms_tau)
                note = ""
            except (VolBoundsError, PricingError) as exc:
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
