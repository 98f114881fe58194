"""Independent references the benchmark checks the program against.

Nothing here imports `multiphase`.  The two-phase law is written as the
piecewise-linear map of skew Brownian motion (SBM): with
beta = (sigma1 - sigma2) / (sigma1 + sigma2), let Y be SBM of skewness beta
started at y0 = -q / sigma(0); then X = q + sigma1 * Y for Y >= 0 and
X = q + sigma2 * Y for Y < 0.  Its density, distribution function and an
exact sampler follow from the SBM transition law (Walsh; Harrison and Shepp
1981; Lejay 2006), which is derived independently of the program's
`a1/a2/refl/c1/c2` closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

#: Published call prices for (sigma1, sigma2, q) = (0.3, 0.4, -0.02), S = 100,
#: r = 5%, strikes 80..115 step 5, maturities in days on a 365-day year.
#: Transcribed from the paper's table, three decimals as printed there.
PUBLISHED_PARAMS = (0.3, 0.4, -0.02)
PUBLISHED_SPOT = 100.0
PUBLISHED_RATE = 0.05
PUBLISHED_STRIKES = (80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0)
PUBLISHED_TAUS_DAYS = (17, 45, 80, 136, 227, 318)
PUBLISHED_CALLS = {
    17: (20.192, 15.252, 10.507, 6.304, 3.094, 1.157, 0.319, 0.065),
    45: (20.673, 16.046, 11.801, 8.128, 5.173, 3.005, 1.586, 0.761),
    80: (21.474, 17.166, 13.262, 9.860, 7.023, 4.775, 3.096, 1.918),
    136: (22.838, 18.861, 15.258, 12.074, 9.335, 7.045, 5.191, 3.739),
    227: (24.950, 21.294, 17.962, 14.970, 12.324, 10.023, 8.055, 6.402),
    318: (26.882, 23.434, 20.271, 17.400, 14.821, 12.530, 10.516, 8.767),
}


def _sbm(sigma1: float, sigma2: float, q: float):
    """Skewness beta and start y0 of the SBM behind the two-phase law."""
    beta = (sigma1 - sigma2) / (sigma1 + sigma2)
    y0 = -q / (sigma1 if q <= 0 else sigma2)
    return beta, y0


def _to_skew(x: np.ndarray, sigma1: float, sigma2: float, q: float):
    """Skew coordinate y of x and the Jacobian 1/sigma(x) of the map."""
    above = x >= q
    scale = np.where(above, sigma1, sigma2)
    return (x - q) / scale, scale


def two_phase_pdf(x, sigma1: float, sigma2: float, q: float, t: float) -> np.ndarray:
    """Density of the two-phase law at horizon t (vectorized in x).

    SBM from y0 >= 0: phi(y - y0) + beta phi(y + y0) for y >= 0 and
    (1 - beta) phi(y - y0) for y < 0; from y0 < 0 the mirror image with
    -beta.  phi is the centred Gaussian density of variance t.
    """
    x = np.asarray(x, dtype=float)
    beta, y0 = _sbm(sigma1, sigma2, q)
    y, scale = _to_skew(x, sigma1, sigma2, q)
    norm = 1.0 / math.sqrt(2.0 * math.pi * t)
    direct = norm * np.exp(-0.5 * (y - y0) ** 2 / t)
    image = norm * np.exp(-0.5 * (np.abs(y) + abs(y0)) ** 2 / t)
    start_side = 1.0 if y0 >= 0 else -1.0
    side = np.where(y >= 0, 1.0, -1.0)
    same_side = side == start_side
    density = np.where(
        same_side, direct + start_side * beta * image, (1.0 + side * beta) * direct
    )
    return density / scale


def two_phase_cdf(x, sigma1: float, sigma2: float, q: float, t: float) -> np.ndarray:
    """Distribution function of the two-phase law (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    beta, y0 = _sbm(sigma1, sigma2, q)
    y, _ = _to_skew(x, sigma1, sigma2, q)
    sd = math.sqrt(t)
    if y0 >= 0:
        at_zero = (1.0 - beta) * ndtr(-y0 / sd)
        below = (1.0 - beta) * ndtr((y - y0) / sd)
        above = (
            at_zero
            + ndtr((y - y0) / sd) - ndtr(-y0 / sd)
            + beta * (ndtr((y + y0) / sd) - ndtr(y0 / sd))
        )
    else:
        at_zero = ndtr(-y0 / sd) - beta * ndtr(y0 / sd)
        below = ndtr((y - y0) / sd) - beta * ndtr((y + y0) / sd)
        above = at_zero + (1.0 + beta) * (ndtr((y - y0) / sd) - ndtr(-y0 / sd))
    return np.where(y < 0, below, above)


def two_phase_draws(
    rng: np.random.Generator, n: int, sigma1: float, sigma2: float, q: float, t: float
) -> np.ndarray:
    """Exact draws of the two-phase law by the Walsh construction of SBM.

    W = y0 + sqrt(t) N is the free endpoint.  If the Brownian bridge from y0
    to W touched 0 (certain when W is across 0, probability
    exp(-2 y0 W / t) otherwise), the sign of Y is that of the last excursion,
    + with probability (1 + beta)/2, and |Y| = |W|; otherwise Y = W.
    """
    beta, y0 = _sbm(sigma1, sigma2, q)
    w = y0 + math.sqrt(t) * rng.standard_normal(n)
    with np.errstate(over="ignore"):
        touch = np.exp(np.minimum(-2.0 * y0 * w / t, 0.0))
    crossed = (w * y0 <= 0) | (rng.random(n) < touch)
    sign = np.where(rng.random(n) < 0.5 * (1.0 + beta), 1.0, -1.0)
    y = np.where(crossed, sign * np.abs(w), w)
    return q + np.where(y >= 0, sigma1, sigma2) * y


def gaussian_null_loglik(x: np.ndarray) -> float:
    """Maximised log-likelihood of a zero-mean Gaussian (t = 1)."""
    x = np.asarray(x, dtype=float)
    var = math.fsum(x * x) / x.size
    return math.fsum(-0.5 * (x * x) / var - 0.5 * math.log(2.0 * math.pi * var))


def two_phase_loglik(x: np.ndarray, sigma1: float, sigma2: float, q: float) -> float:
    """Log-likelihood of the sample under the reference density at t = 1."""
    return math.fsum(np.log(two_phase_pdf(x, sigma1, sigma2, q, 1.0)))


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def black_scholes_call(spot, strike, rate, sigma, tau) -> float:
    """Black-Scholes price of a European call."""
    root = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / root
    d2 = d1 - root
    return spot * normal_cdf(d1) - strike * math.exp(-rate * tau) * normal_cdf(d2)


def black_scholes_vega(spot, strike, rate, sigma, tau) -> float:
    """dC/dsigma of the Black-Scholes call."""
    root = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * tau) / root
    return spot * math.sqrt(tau) * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def gauss_legendre(f, a: float, b: float, width: float) -> float:
    """Integral of a vectorized f over [a, b], 20-point rule on panels <= width."""
    if b <= a:
        return 0.0
    n = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return float(np.sum(half * _GL_WEIGHTS * f(mid + half * _GL_NODES)))


def _integrate_split(f, a: float, b: float, q: float, width: float) -> float:
    """gauss_legendre over [a, b], split at the kink q when it lies inside."""
    cuts = [a] + [c for c in (q,) if a < c < b] + [b]
    return sum(gauss_legendre(f, u, v, width) for u, v in zip(cuts, cuts[1:]))


def two_phase_mean_variance(sigma1: float, sigma2: float, q: float, t: float):
    """Mean and variance of the two-phase law at horizon t by quadrature.

    20-point Gauss-Legendre panels a fifth of the smaller phase scale wide,
    split at q, out to 16 scales past the source and the boundary.
    """
    density = lambda z: two_phase_pdf(z, sigma1, sigma2, q, t)
    smax = max(sigma1, sigma2) * math.sqrt(t)
    width = 0.2 * min(sigma1, sigma2) * math.sqrt(t)
    lo, hi = min(q, 0.0) - 16.0 * smax, max(q, 0.0) + 16.0 * smax
    mean = _integrate_split(lambda z: z * density(z), lo, hi, q, width)
    variance = _integrate_split(lambda z: (z - mean) ** 2 * density(z), lo, hi, q, width)
    return mean, variance


def call_price_quadrature(
    sigma1: float, sigma2: float, q: float, spot: float, strike: float,
    rate: float, tau: float,
) -> float:
    """Martingale-corrected call price by quadrature of the reference density.

    Lambda = E[exp(Z)] and the price e^{-r tau} E[(S e^{mu tau + Z} - K)^+]
    with mu = r - ln(Lambda)/tau are integrated on 20-point Gauss-Legendre
    panels a fifth of the smaller phase scale wide, split at q and at the
    exercise threshold, out to 16 scales past the exponential tilt.
    """
    density = lambda z: two_phase_pdf(z, sigma1, sigma2, q, tau)
    smax = max(sigma1, sigma2) * math.sqrt(tau)
    width = 0.2 * min(sigma1, sigma2) * math.sqrt(tau)
    lo = min(q, 0.0) - 16.0 * smax
    hi = max(q, 0.0) + smax * smax + 16.0 * smax
    lam = _integrate_split(lambda z: np.exp(z) * density(z), lo, hi, q, width)
    mu = rate - math.log(lam) / tau
    z_star = math.log(strike / spot) - mu * tau
    payoff = lambda z: (spot * np.exp(mu * tau + z) - strike) * density(z)
    return math.exp(-rate * tau) * _integrate_split(payoff, max(z_star, lo), hi, q, width)


def ks_distance(draws: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between the draws and a distribution function."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    f = cdf(x)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(n) / n
    return float(max(upper.max(), lower.max()))


def ks_bound(n: int, false_alarm: float = 1e-7) -> float:
    """Dvoretzky-Kiefer-Wolfowitz-Massart bound: P(KS > bound) <= false_alarm."""
    return math.sqrt(math.log(2.0 / false_alarm) / (2.0 * n))


def batch_skew_kurt(draws: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Skewness and raw kurtosis of each whole batch of batch_size draws."""
    n_batches = draws.size // batch_size
    batches = draws[: n_batches * batch_size].reshape(n_batches, batch_size)
    centred = batches - batches.mean(axis=1, keepdims=True)
    m2 = np.mean(centred**2, axis=1)
    m3 = np.mean(centred**3, axis=1)
    m4 = np.mean(centred**4, axis=1)
    return m3 / m2**1.5, m4 / m2**2
