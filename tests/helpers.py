"""Shared oracles and invariant sweeps used by module and acceptance tests."""

import math

import numpy as np

from multiphase.numerics import QuadratureSpec, integrate_adaptive
from multiphase.phase_kernel import (
    ThreePhaseParams,
    TwoPhaseParams,
    _pdf,
    _pieces,
    three_phase_pdf,
    two_phase_pdf,
)
from multiphase.pde_oracle import three_phase_flux

#: Parameter grid pinned by the density-normalization invariant.
SIGMA_GRID = (0.05, 0.2, 0.5, 1.0)
Q_GRID = (-1.0, -0.1, 0.0, 0.1, 1.0)
T_GRID = (0.25, 1.0, 5.0)

#: Published call prices for [sigma1, sigma2, q] = [0.3, 0.4, -0.02],
#: S=100, r=5%, strikes 80..115 step 5, maturities in days (365 day count).
TABLE_STRIKES = (80.0, 85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0)
TABLE_TAUS_DAYS = (17, 45, 80, 136, 227, 318)
TABLE_CALLS = {
    17: (20.192, 15.252, 10.507, 6.304, 3.094, 1.157, 0.319, 0.065),
    45: (20.673, 16.046, 11.801, 8.128, 5.173, 3.005, 1.586, 0.761),
    80: (21.474, 17.166, 13.262, 9.860, 7.023, 4.775, 3.096, 1.918),
    136: (22.838, 18.861, 15.258, 12.074, 9.335, 7.045, 5.191, 3.739),
    227: (24.950, 21.294, 17.962, 14.970, 12.324, 10.023, 8.055, 6.402),
    318: (26.882, 23.434, 20.271, 17.400, 14.821, 12.530, 10.516, 8.767),
}


def iter_parameter_grid():
    for sigma1 in SIGMA_GRID:
        for sigma2 in SIGMA_GRID:
            for q in Q_GRID:
                for t in T_GRID:
                    yield TwoPhaseParams(sigma1, sigma2, q), t


def normalization_error(p: TwoPhaseParams, t: float) -> float:
    """|integral of the density - 1| with tails cut at 12*max(sigma)*sqrt(t)."""
    scale = max(p.sigma1, p.sigma2) * math.sqrt(t)
    lo = min(p.q, 0.0) - 12.0 * scale
    hi = max(p.q, 0.0) + 12.0 * scale
    breaks = sorted({lo, min(max(p.q, lo), hi), min(max(0.0, lo), hi), hi})
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=200)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b > a:
            value, _ = integrate_adaptive(lambda x: two_phase_pdf(p, x, t), a, b, spec)
            total += value
    return abs(total - 1.0)


def continuity_mismatch(p: TwoPhaseParams, t: float) -> float:
    """|u(q-) - u(q+)| via one-sided evaluations a single ulp off the boundary."""
    left = two_phase_pdf(p, np.nextafter(p.q, -np.inf), t)
    right = two_phase_pdf(p, np.nextafter(p.q, np.inf), t)
    return abs(left - right)


def _one_sided_derivative(f, x0: float, h: float, side: int) -> float:
    """4th-order one-sided first derivative using nodes x0, x0+s*h, ..., x0+4*s*h."""
    coeffs = (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25)
    return side * sum(
        c * f(x0 + side * k * h) for k, c in enumerate(coeffs)
    ) / h


def flux_mismatch(p: TwoPhaseParams, t: float, h: float = 1e-5) -> float:
    """|flux(q+) - flux(q-)| with 4th-order stencils, one-sided at the kink.

    The density is only piecewise smooth at q, so the stencils anchor one ulp
    inside each branch; flux on side k is (sigma_k^2 / 2) * du/dx.
    """
    f = lambda x: two_phase_pdf(p, x, t)
    right_anchor = np.nextafter(p.q, np.inf)
    left_anchor = np.nextafter(p.q, -np.inf)
    flux_right = 0.5 * p.sigma1**2 * _one_sided_derivative(f, right_anchor, h, +1)
    flux_left = 0.5 * p.sigma2**2 * _one_sided_derivative(f, left_anchor, h, -1)
    return abs(flux_right - flux_left)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _composite_gauss_legendre(f, a: float, b: float, width: float) -> float:
    """Integral of a vectorized f over [a, b], 10-point rule on panels <= width."""
    n = max(1, math.ceil((b - a) / width))
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return float(np.sum(half * _GL_WEIGHTS * f(mid + half * _GL_NODES)))


def three_phase_normalization_error(p: ThreePhaseParams, t: float) -> float:
    """|integral of the three-phase density - 1|, phase by phase.

    Each phase is integrated on panels a quarter of its own scale
    sigma_k*sqrt(t) wide, and the outer phases are cut 12 scales past their
    boundary, so narrow phases are resolved without an adaptive scalar loop.
    """
    root_t = math.sqrt(t)
    f = lambda x: three_phase_pdf(p, x, t)
    pieces = [
        (p.q1, p.q1 + 12.0 * p.sigma1 * root_t, p.sigma1),
        (p.q2, p.q1, p.sigma2),
        (p.q2 - 12.0 * p.sigma3 * root_t, p.q2, p.sigma3),
    ]
    total = sum(
        _composite_gauss_legendre(f, a, b, 0.25 * sigma * root_t)
        for a, b, sigma in pieces
    )
    return abs(total - 1.0)


def three_phase_quadrature_moments(p: ThreePhaseParams, t: float):
    """(mean, variance, skewness, kurtosis) of the three-phase density by
    phase-by-phase composite Gauss-Legendre quadrature (as in
    three_phase_normalization_error), normalized by the quadrature mass."""
    root_t = math.sqrt(t)
    f = lambda x: three_phase_pdf(p, x, t)
    pieces = [
        (p.q1, p.q1 + 12.0 * p.sigma1 * root_t, p.sigma1),
        (p.q2, p.q1, p.sigma2),
        (p.q2 - 12.0 * p.sigma3 * root_t, p.q2, p.sigma3),
    ]

    def integral(g):
        return sum(
            _composite_gauss_legendre(
                lambda x: g(x) * f(x), a, b, 0.25 * sigma * root_t
            )
            for a, b, sigma in pieces
        )

    mass = integral(lambda x: 1.0)
    mean = integral(lambda x: x) / mass
    var = integral(lambda x: (x - mean) ** 2) / mass
    mu3 = integral(lambda x: (x - mean) ** 3) / mass
    mu4 = integral(lambda x: (x - mean) ** 4) / mass
    return mean, var, mu3 / var**1.5, mu4 / var**2


def three_phase_quadrature_cdf(p: ThreePhaseParams, x: float, t: float) -> float:
    """Adaptive quadrature of three_phase_pdf from 12 scales below q2 up to x,
    split at the kinks q2 and q1 and at the source."""
    lo = p.q2 - 12.0 * max(p.sigma1, p.sigma2, p.sigma3) * math.sqrt(t)
    breaks = [lo] + sorted(b for b in (p.q2, 0.0, p.q1) if lo < b < x) + [x]
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=200)
    return sum(
        integrate_adaptive(lambda y: three_phase_pdf(p, y, t), a, b, spec)[0]
        for a, b in zip(breaks[:-1], breaks[1:])
    )


def three_phase_continuity_mismatch(p: ThreePhaseParams, t: float) -> float:
    """Largest |u(q-) - u(q+)| at q1 and q2, a single ulp off each boundary."""
    f = lambda x: three_phase_pdf(p, x, t)
    return max(
        abs(f(np.nextafter(q, np.inf)) - f(np.nextafter(q, -np.inf)))
        for q in (p.q1, p.q2)
    )


def three_phase_flux_mismatch(p: ThreePhaseParams, t: float) -> float:
    """Largest disagreement among the flux values at each interface.

    At q1 the phase-1 and phase-2 one-sided fluxes (sigma_k^2/2) u_x and the
    closed form g1 of pde_oracle.three_phase_flux are compared, at q2 likewise
    with g2; each stencil step is 1e-3 of its side's scale sigma_k*sqrt(t).
    """
    f = lambda x: three_phase_pdf(p, x, t)

    def flux(q: float, sigma: float, side: int) -> float:
        anchor = np.nextafter(q, side * np.inf)
        h = 1e-3 * sigma * math.sqrt(t)
        return 0.5 * sigma**2 * _one_sided_derivative(f, anchor, h, side)

    g1, g2 = three_phase_flux(p, t)
    at_q1 = (flux(p.q1, p.sigma1, +1), flux(p.q1, p.sigma2, -1), g1)
    at_q2 = (flux(p.q2, p.sigma2, +1), flux(p.q2, p.sigma3, -1), g2)
    return max(max(v) - min(v) for v in (at_q1, at_q2))


def semigroup_scalar(p: TwoPhaseParams, s: float, t: float, x: float) -> float:
    """(p_s o p_(t-s))(x) by one scalar adaptive quadrature per x.

    The integrand p_s(y) p_(t-s)(y -> x) restarts the law at y with its
    boundary at q - y; y runs over 13 outer scales past [min(q, 0),
    max(q, 0)], split at the kink y = q and at the inner kernel's peak y = x.
    """
    smax = max(p.sigma1, p.sigma2)
    y_lo = min(p.q, 0.0) - 13.0 * smax * math.sqrt(s)
    y_hi = max(p.q, 0.0) + 13.0 * smax * math.sqrt(s)
    spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9, max_subdivisions=200)
    outer = _pieces(p, s)

    def integrand(y: float) -> float:
        inner = TwoPhaseParams(p.sigma1, p.sigma2, p.q - y)
        return _pdf(outer, y) * float(two_phase_pdf(inner, x - y, t - s))

    breaks = [y_lo] + sorted(b for b in {p.q, x} if y_lo < b < y_hi) + [y_hi]
    return sum(
        integrate_adaptive(integrand, a, b, spec)[0]
        for a, b in zip(breaks[:-1], breaks[1:])
    )


def gaussian_reduction_sup_error(sigma: float, q: float, t: float) -> float:
    """sup |two-phase pdf - normal pdf| over |x| <= 8*sigma*sqrt(t) when s1=s2."""
    p = TwoPhaseParams(sigma, sigma, q)
    scale = sigma * math.sqrt(t)
    xs = np.linspace(-8.0 * scale, 8.0 * scale, 321)
    worst = 0.0
    for x in xs:
        normal = math.exp(-0.5 * (x / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi))
        worst = max(worst, abs(two_phase_pdf(p, x, t) - normal))
    return worst


def batch_moments(draws: np.ndarray, n_batches: int = 100):
    """Sample skewness/kurtosis with batch-mean standard errors.

    Returns (skew, se_skew, kurt, se_kurt); SEs come from splitting the sample
    into equal batches and taking the spread of per-batch statistics.
    """
    draws = np.asarray(draws, dtype=float)
    batches = draws[: draws.size - draws.size % n_batches].reshape(n_batches, -1)

    def skew_kurt(x):
        centered = x - x.mean(axis=-1, keepdims=True)
        m2 = np.mean(centered**2, axis=-1)
        m3 = np.mean(centered**3, axis=-1)
        m4 = np.mean(centered**4, axis=-1)
        return m3 / m2**1.5, m4 / m2**2

    skew, kurt = skew_kurt(draws)
    batch_skew, batch_kurt = skew_kurt(batches)
    se_skew = batch_skew.std(ddof=1) / math.sqrt(n_batches)
    se_kurt = batch_kurt.std(ddof=1) / math.sqrt(n_batches)
    return float(skew), float(se_skew), float(kurt), float(se_kurt)
