"""Closed-form multi-phase densities, CDFs, moments, and samplers.

A "phase" is a spatial interval with its own diffusion scale sigma_k; a unit
point mass starts at x = 0 and diffuses under the piecewise heat equation with
continuity of u and of the scaled flux (sigma^2/2) u_x at every boundary.  The
two-phase law has exact pdf/CDF branches, closed-form moments and an exact
skew-Brownian sampler.  The three-phase law is a piecewise-linear map of
multi-skewed Brownian motion: a method-of-images sum whose weights are powers
of the interface reflection coefficients, truncated geometrically
(three_phase_pdf_branch).

The three-phase image series as published has no such powers and does not
solve the interface system (the equal-sigma case is not the Gaussian, the
branches jump at the boundaries, and it can go negative).  It is kept, under
three_phase_pdf_as_published, only as the published formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO, Union

import numpy as np

# integrate_adaptive is not called here; it stays a module attribute because
# benchmark/tracing.py wraps the quadrature at this name.
from .numerics import RngState, integrate_adaptive, std_normal_cdf  # noqa: F401

__all__ = [
    "DomainError",
    "SeriesConsistencyError",
    "PhaseSystem",
    "TwoPhaseParams",
    "ThreePhaseParams",
    "MomentSummary",
    "DensityTable",
    "two_phase_pdf",
    "two_phase_cdf",
    "two_phase_moments",
    "two_phase_sample",
    "three_phase_pdf",
    "three_phase_pdf_branch",
    "three_phase_pdf_as_published",
    "density_grid",
    "write_density_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain (sigma <= 0, t <= 0, ...)."""


class SeriesConsistencyError(RuntimeError):
    """A truncated series produced a negative density beyond its tolerance."""


@dataclass(frozen=True)
class TwoPhaseParams:
    """Two-phase law: scale sigma1 above the boundary q, sigma2 below."""

    sigma1: float
    sigma2: float
    q: float

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0):
            raise DomainError(
                f"sigmas must be positive, got ({self.sigma1}, {self.sigma2})"
            )
        if not math.isfinite(self.q):
            raise DomainError(f"q must be finite, got {self.q}")


@dataclass(frozen=True)
class ThreePhaseParams:
    """Three-phase law with boundaries q1 > 0 > q2 and the source in the middle."""

    sigma1: float
    sigma2: float
    sigma3: float
    q1: float
    q2: float

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0 and self.sigma3 > 0):
            raise DomainError(
                "sigmas must be positive, got "
                f"({self.sigma1}, {self.sigma2}, {self.sigma3})"
            )
        if not (self.q1 > 0 > self.q2):
            raise DomainError(f"need q1 > 0 > q2, got q1={self.q1}, q2={self.q2}")


@dataclass(frozen=True)
class PhaseSystem:
    """N phases: sigmas top-down, strictly decreasing boundaries between them.

    Phases are numbered 1..N from the top interval (q_1, +inf) downward; the
    source phase is the 1-based index of the interval containing x = 0, with a
    boundary exactly at 0 assigned to the phase above it.
    """

    sigmas: tuple[float, ...]
    boundaries: tuple[float, ...]

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas)
        boundaries = tuple(float(q) for q in self.boundaries)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "boundaries", boundaries)
        if len(sigmas) < 1:
            raise DomainError("need at least one phase")
        if any(not s > 0 for s in sigmas):
            raise DomainError(f"sigmas must be positive, got {sigmas}")
        if len(boundaries) != len(sigmas) - 1:
            raise DomainError(
                f"{len(sigmas)} phases need {len(sigmas) - 1} boundaries, "
                f"got {len(boundaries)}"
            )
        if any(not math.isfinite(q) for q in boundaries):
            raise DomainError(f"boundaries must be finite, got {boundaries}")
        if any(a <= b for a, b in zip(boundaries, boundaries[1:])):
            raise DomainError(
                f"boundaries must be strictly decreasing, got {boundaries}"
            )

    @property
    def n_phases(self) -> int:
        return len(self.sigmas)

    @property
    def source_phase(self) -> int:
        """1-based index of the phase whose interval contains x = 0."""
        for k, q in enumerate(self.boundaries, start=1):
            if q <= 0.0:
                return k
        return self.n_phases

    @classmethod
    def from_two_phase(cls, p: TwoPhaseParams) -> "PhaseSystem":
        return cls(sigmas=(p.sigma1, p.sigma2), boundaries=(p.q,))

    @classmethod
    def from_three_phase(cls, p: ThreePhaseParams) -> "PhaseSystem":
        return cls(sigmas=(p.sigma1, p.sigma2, p.sigma3), boundaries=(p.q1, p.q2))


@dataclass(frozen=True)
class MomentSummary:
    """First four moments; kurtosis is the raw (non-excess) fourth ratio."""

    mean: float
    variance: float
    skewness: float
    kurtosis: float

    def __post_init__(self):
        if not self.variance > 0:
            raise DomainError(f"variance must be positive, got {self.variance}")
        if self.kurtosis < 1.0 + self.skewness**2 - 1e-8:
            raise DomainError(
                f"kurtosis {self.kurtosis} violates the lower bound "
                f"1 + skewness^2 = {1.0 + self.skewness**2}"
            )


def _check_t(t: float) -> float:
    if not t > 0:
        raise DomainError(f"t must be positive, got {t}")
    return float(t)


def _coeffs(p: TwoPhaseParams):
    """Shared two-phase constants: amplitudes, reflection weight, mean shifts."""
    s1, s2 = p.sigma1, p.sigma2
    a1 = 2.0 * s1 / (s1 + s2)
    a2 = 2.0 * s2 / (s1 + s2)
    refl = (s2 - s1) / (s1 + s2)
    c1 = 1.0 - s1 / s2
    c2 = 1.0 - s2 / s1
    return a1, a2, refl, c1, c2


def _phi(z: np.ndarray, mean: float, scale: float) -> np.ndarray:
    return np.exp(-0.5 * ((z - mean) / scale) ** 2) / (_SQRT_2PI * scale)


def two_phase_pdf(p: TwoPhaseParams, x, t: float):
    """Density of the two-phase law at horizon t; vectorized in x.

    The q > 0 and q <= 0 parameter branches use their own closed forms; the
    boundary point x = q takes the upper-phase expression, and q = 0 is routed
    to the q <= 0 branch.  Scalar x in, scalar out.
    """
    t = _check_t(t)
    x_arr = np.asarray(x, dtype=float)
    r1 = p.sigma1 * math.sqrt(t)
    r2 = p.sigma2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    q = p.q
    if q > 0:
        upper = a1 * _phi(x_arr, c1 * q, r1)
        lower = _phi(x_arr, 0.0, r2) + refl * _phi(x_arr, 2.0 * q, r2)
    else:
        upper = _phi(x_arr, 0.0, r1) - refl * _phi(x_arr, 2.0 * q, r1)
        lower = a2 * _phi(x_arr, c2 * q, r2)
    out = np.where(x_arr >= q, upper, lower)
    return out.item() if np.isscalar(x) or np.ndim(x) == 0 else out


def two_phase_cdf(p: TwoPhaseParams, x, t: float):
    """Distribution function of the two-phase law; vectorized in x."""
    t = _check_t(t)
    x_arr = np.asarray(x, dtype=float)
    r1 = p.sigma1 * math.sqrt(t)
    r2 = p.sigma2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    q = p.q
    cdf = std_normal_cdf
    if q > 0:
        at_q = cdf(q / r2) + refl * cdf(-q / r2)
        below = cdf(x_arr / r2) + refl * cdf((x_arr - 2.0 * q) / r2)
        above = at_q + a1 * (cdf((x_arr - c1 * q) / r1) - cdf(q / r2))
    else:
        at_q = a2 * cdf(q / r1)
        below = a2 * cdf((x_arr - c2 * q) / r2)
        above = (
            at_q
            + cdf(x_arr / r1)
            - cdf(q / r1)
            - refl * (cdf((x_arr - 2.0 * q) / r1) - cdf(-q / r1))
        )
    out = np.where(x_arr <= q, below, above)
    out = np.clip(out, 0.0, 1.0)
    return out.item() if np.isscalar(x) or np.ndim(x) == 0 else out


def _partial_moments(
    weight: float, mean: float, scale: float, cut: float, side: float
) -> list[float]:
    """weight * E[X^k; side*X >= side*cut] for X ~ N(mean, scale^2), k = 0..4.

    side = +1 gives the upper piece.  side = -1 gives the lower piece by
    reflection, E[X^k; X < cut] = (-1)^k E[Y^k; Y >= -cut] with Y = -X:
    taken as "full minus upper", a lower piece holding nearly all the mass
    leaves rounding noise in its small odd moments, which shows as ripples in
    the far-q skewness.  With Y = m + scale*Z and a = (side*cut - m)/scale,
    m = side*mean, the truncated moments M_j = E[Z^j; Z >= a] follow from
    M_0 = Phi(-a), M_1 = phi(a) and M_j = a^(j-1) phi(a) + (j-1) M_(j-2).
    """
    m = side * mean
    a = (side * cut - m) / scale
    dens = math.exp(-0.5 * a * a) / _SQRT_2PI
    z = [float(std_normal_cdf(-a)), dens]
    for j in range(2, 5):
        z.append(a ** (j - 1) * dens + (j - 1) * z[j - 2])
    return [
        side**k * weight
        * sum(math.comb(k, j) * m ** (k - j) * scale**j * z[j] for j in range(k + 1))
        for k in range(5)
    ]


def two_phase_moments(p: TwoPhaseParams, t: float) -> MomentSummary:
    """Mean, variance, skewness, and kurtosis at horizon t, in closed form.

    Each side of q holds one or two Gaussian pieces of the density (see
    two_phase_pdf); their truncated raw moments E[X^k; X >= q] and
    E[X^k; X < q] are summed for k = 0..4 and converted to central moments.
    """
    t = _check_t(t)
    r1, r2 = p.sigma1 * math.sqrt(t), p.sigma2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    q = p.q
    if q > 0:
        pieces = [
            _partial_moments(a1, c1 * q, r1, q, 1.0),
            _partial_moments(1.0, 0.0, r2, q, -1.0),
            _partial_moments(refl, 2.0 * q, r2, q, -1.0),
        ]
    else:
        pieces = [
            _partial_moments(1.0, 0.0, r1, q, 1.0),
            _partial_moments(-refl, 2.0 * q, r1, q, 1.0),
            _partial_moments(a2, c2 * q, r2, q, -1.0),
        ]
    _, m1, m2, m3, m4 = (math.fsum(column) for column in zip(*pieces))
    var = m2 - m1 * m1
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return MomentSummary(m1, var, mu3 / var**1.5, mu4 / var**2)


def two_phase_sample(
    p: TwoPhaseParams, t: float, n: int, rng: RngState
) -> tuple[np.ndarray, RngState]:
    """n i.i.d. draws by the exact skew-Brownian sampler: one normal, one uniform each.

    The law is a piecewise-linear map of skew Brownian motion (Harrison &
    Shepp 1981; Lejay 2006).  Mirrored so that the source lies in the upper
    phase (for q > 0 the sigmas swap, q and the draws change sign),
    Y = (X - q)/sigma(X) is skew Brownian motion from a = -q/sigma1 >= 0 with
    skew beta = (sigma1 - sigma2)/(sigma1 + sigma2).  R = |Y_t| is distributed
    as |a + sqrt(t) Z|, and given R the upper side has probability
    (1 + beta e)/(1 + e), e = exp(-2 R a / t).  Deterministic given rng;
    returns (draws, advanced rng state).
    """
    t = _check_t(t)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    gen = rng.generator()
    if n == 0:
        return np.empty(0), rng.advanced(gen)
    s1, s2, q, sign = p.sigma1, p.sigma2, p.q, 1.0
    if q > 0:
        s1, s2, q, sign = s2, s1, -q, -1.0
    beta = (s1 - s2) / (s1 + s2)
    a = -q / s1
    r = np.abs(a + math.sqrt(t) * gen.standard_normal(n))
    e = np.exp(-2.0 * a / t * r)
    upper = gen.random(n) * (1.0 + e) < 1.0 + beta * e
    x = np.where(upper, q + s1 * r, q - s2 * r)
    return sign * x, rng.advanced(gen)


def _three_phase_images(p: ThreePhaseParams, series_tol: float):
    """Skew coordinates, image weights and term count of the three-phase law.

    Returns (b1, b2, span, beta1, beta2, rho, n_terms): the boundaries
    bk = qk/sigma2 in the skew coordinate y, the slab width span = b1 - b2,
    the interface skews beta1 = (s1-s2)/(s1+s2) and beta2 = (s2-s3)/(s2+s3),
    the round-trip reflection rho = r1*r2 with r1 = -beta1 and r2 = +beta2,
    and the number of shells n = 0..n_terms-1 after which the geometric tail
    sum_{n >= n_terms} |rho|^n falls below series_tol.
    """
    if not series_tol > 0:
        raise DomainError(f"series_tol must be positive, got {series_tol}")
    s1, s2, s3 = p.sigma1, p.sigma2, p.sigma3
    beta1 = (s1 - s2) / (s1 + s2)
    beta2 = (s2 - s3) / (s2 + s3)
    rho = -beta1 * beta2
    n_terms = 1
    if rho != 0.0:
        decay = math.log(series_tol * (1.0 - abs(rho))) / math.log(abs(rho))
        n_terms = max(1, math.ceil(decay))
    b1, b2 = p.q1 / s2, p.q2 / s2
    return b1, b2, b1 - b2, beta1, beta2, rho, n_terms


def three_phase_pdf_branch(
    p: ThreePhaseParams, x, t: float, series_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three density branches (u1, u2, u3), each evaluated everywhere.

    Exposed so boundary one-sided values and fluxes can be probed directly;
    three_phase_pdf selects the phase-appropriate branch pointwise.

    The law is a piecewise-linear map of multi-skewed Brownian motion
    (Ramirez 2011; Lejay 2006).  In y = b1 + (x-q1)/s1 above q1, y = x/s2
    between the boundaries and y = b2 + (x-q2)/s3 below q2 (continuous at
    both), with phi_t the centred Gaussian density of variance t:

        u1 = (1+beta1)/s1 sum_n rho^n [phi_t(y+2nL) + r2 phi_t(y-2b2+2nL)]
        u2 = (1/s2) {phi_t(y) + sum_{n>=1} rho^n [phi_t(y-2nL) + phi_t(y+2nL)]
             + sum_n rho^n [r1 phi_t(y-2b1-2nL) + r2 phi_t(y-2b2+2nL)]}
        u3 = (1-beta2)/s3 sum_n rho^n [phi_t(y-2nL) + r1 phi_t(y-2b1-2nL)]

    with sums over n >= 0 unless marked and L = b1 - b2 (see
    _three_phase_images for the constants).  Each branch is written in its
    own phase's coordinate, extended linearly past that phase's boundary.
    """
    t = _check_t(t)
    b1, b2, span, beta1, beta2, rho, n_terms = _three_phase_images(p, series_tol)
    r1, r2 = -beta1, beta2
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    y1 = b1 + (x_arr - p.q1) / p.sigma1
    y2 = x_arr / p.sigma2
    y3 = b2 + (x_arr - p.q2) / p.sigma3
    sd = math.sqrt(t)

    def phi(z: np.ndarray) -> np.ndarray:
        return _phi(z, 0.0, sd)

    u1 = np.zeros_like(x_arr)
    u2 = phi(y2)
    u3 = np.zeros_like(x_arr)
    for n in range(n_terms):
        weight = rho**n
        shift = 2.0 * n * span
        u1 += weight * (phi(y1 + shift) + r2 * phi(y1 - 2.0 * b2 + shift))
        u3 += weight * (phi(y3 - shift) + r1 * phi(y3 - 2.0 * b1 - shift))
        u2 += weight * (
            r1 * phi(y2 - 2.0 * b1 - shift) + r2 * phi(y2 - 2.0 * b2 + shift)
        )
        if n > 0:
            u2 += weight * (phi(y2 - shift) + phi(y2 + shift))
    return (
        (1.0 + beta1) / p.sigma1 * u1,
        u2 / p.sigma2,
        (1.0 - beta2) / p.sigma3 * u3,
    )


def _select_phase(p: ThreePhaseParams, x, t: float, branches, series_tol: float):
    """Pick u1/u2/u3 by phase, clamp rounding-level negatives, raise on others."""
    u1, u2, u3 = branches
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.where(x_arr >= p.q1, u1, np.where(x_arr >= p.q2, u2, u3))
    floor = out.min()
    if floor < -series_tol:
        raise SeriesConsistencyError(
            f"series produced density {floor:.6g} < -series_tol="
            f"{-series_tol:.1g} at x={x_arr[out.argmin()]:.6g}, t={t}"
        )
    out = np.where((out < 0.0) & (out >= -series_tol), 0.0, out)
    return out.item() if np.isscalar(x) or np.ndim(x) == 0 else out


def three_phase_pdf(
    p: ThreePhaseParams, x, t: float, series_tol: float = 1e-10
):
    """Three-phase density, selected by phase; vectorized in x.

    Exact up to the geometric truncation of three_phase_pdf_branch.  Values
    within series_tol of zero are clamped to 0; a negative value beyond that
    tolerance raises SeriesConsistencyError rather than being hidden.
    """
    return _select_phase(
        p, x, t, three_phase_pdf_branch(p, x, t, series_tol), series_tol
    )


def _published_branches(
    p: ThreePhaseParams, x, t: float, series_tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The image-series branches (u1, u2, u3) exactly as published."""
    t = _check_t(t)
    if not series_tol > 0:
        raise DomainError(f"series_tol must be positive, got {series_tol}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    s1, s2, s3 = p.sigma1, p.sigma2, p.sigma3
    q1, q2 = p.q1, p.q2
    r1 = s1 * math.sqrt(t)
    r2 = s2 * math.sqrt(t)
    r3 = s3 * math.sqrt(t)

    def gauss_sq(arg: np.ndarray, scale: float) -> np.ndarray:
        return np.exp(-0.5 * (arg / scale) ** 2)

    def sum_shells(term: Callable[[int], np.ndarray]) -> np.ndarray:
        """Sum term(n) over n in Z by symmetric shells with a relative cutoff."""
        total = term(0)
        shell = 1
        while True:
            add = term(shell) + term(-shell)
            total = total + add
            if shell >= 3:
                scale = np.maximum(np.max(np.abs(total)), 1e-300)
                if np.max(np.abs(add)) < series_tol * scale:
                    break
            shell += 1
            if shell > 200:
                break
        return total

    # Upper branch: images reflected through q1, distances mapped by sigma1/sigma2.
    def u1_term(n: int) -> np.ndarray:
        c_a = abs((2 * n + 1) * q1 - 2 * n * q2)
        c_b = abs((2 * n - 1) * q1 - 2 * n * q2)
        return gauss_sq(x_arr - q1 + (s1 / s2) * c_a, r1) + gauss_sq(
            x_arr - q1 + (s1 / s2) * c_b, r1
        )

    u1 = (s1 / s2) / (_SQRT_2PI * s1 * math.sqrt(t)) * sum_shells(u1_term)

    # Middle branch: free slab images minus two boundary-exchange double sums.
    def u21_term(n: int) -> np.ndarray:
        return gauss_sq(x_arr + 2 * n * q1 - 2 * n * q2, r2) + gauss_sq(
            x_arr + 2 * n * q1 - (2 * n + 2) * q2, r2
        )

    u21 = sum_shells(u21_term) / (_SQRT_2PI * s2 * math.sqrt(t))

    def u22_term(n: int) -> np.ndarray:
        base = np.abs(x_arr + 2 * n * q1 - (2 * n + 1) * q2)

        def inner(m: int) -> np.ndarray:
            c_a = abs(2 * m * q1 - (2 * m - 1) * q2)
            c_b = abs(2 * m * q1 - (2 * m + 1) * q2)
            return gauss_sq(base + c_a, r2) + gauss_sq(base + c_b, r2)

        return sum_shells(inner)

    u22 = (s3 / s2) / (_SQRT_2PI * s2 * math.sqrt(t)) * sum_shells(u22_term)

    def u23_term(n: int) -> np.ndarray:
        base = np.abs(x_arr + (2 * n - 1) * q1 - 2 * n * q2)

        def inner(m: int) -> np.ndarray:
            c_a = abs((2 * m + 1) * q1 - 2 * m * q2)
            c_b = abs((2 * m - 1) * q1 - 2 * m * q2)
            return gauss_sq(base + c_a, r2) + gauss_sq(base + c_b, r2)

        return sum_shells(inner)

    u23 = (s1 / s2) / (_SQRT_2PI * s2 * math.sqrt(t)) * sum_shells(u23_term)
    u2 = u21 - u22 - u23

    # Lower branch: mirror image of the upper one through q2.
    def u3_term(n: int) -> np.ndarray:
        c_a = abs(2 * n * q1 - (2 * n - 1) * q2)
        c_b = abs(2 * n * q1 - (2 * n + 1) * q2)
        return gauss_sq(x_arr - q2 - (s3 / s2) * c_a, r3) + gauss_sq(
            x_arr - q2 - (s3 / s2) * c_b, r3
        )

    u3 = (s3 / s2) / (_SQRT_2PI * s3 * math.sqrt(t)) * sum_shells(u3_term)
    return u1, u2, u3


def three_phase_pdf_as_published(
    p: ThreePhaseParams, x, t: float, series_tol: float = 1e-10
):
    """The three-phase image series as published, selected by phase.

    Kept as the paper's formula, not as a density: it has no powers of the
    interface reflection coefficients, so it does not solve the interface
    system (equal sigmas do not give the Gaussian, the branches jump at the
    boundaries) and it can go macroscopically negative.  The same guard as
    three_phase_pdf applies: a value below -series_tol raises
    SeriesConsistencyError instead of being clamped.
    """
    return _select_phase(
        p, x, t, _published_branches(p, x, t, series_tol), series_tol
    )


@dataclass(frozen=True)
class DensityTable:
    """Grid evaluation of a density, optionally with a matched normal column."""

    x: np.ndarray
    density: np.ndarray
    normal_density: np.ndarray | None
    source: str  # "closed-form" or "numerical"


ModelLike = Union[TwoPhaseParams, ThreePhaseParams, PhaseSystem]


def density_grid(
    model: ModelLike,
    t: float,
    x_grid: Sequence[float],
    include_normal: bool = False,
    series_tol: float = 1e-10,
) -> DensityTable:
    """Densities over a grid of x values, in grid order.

    Two- and three-phase models use their closed forms; any other PhaseSystem
    is evaluated by the finite-difference solver and flagged "numerical".  The
    optional normal column is the zero-mean Gaussian of commensurate variance
    (same variance as the model's law at horizon t).
    """
    t = _check_t(t)
    x_arr = np.asarray(list(x_grid), dtype=float)
    if x_arr.size == 0:
        raise DomainError("x_grid must be nonempty")

    two: TwoPhaseParams | None = None
    three: ThreePhaseParams | None = None
    if isinstance(model, TwoPhaseParams):
        two = model
    elif isinstance(model, ThreePhaseParams):
        three = model
    elif isinstance(model, PhaseSystem):
        if model.n_phases == 2:
            two = TwoPhaseParams(model.sigmas[0], model.sigmas[1], model.boundaries[0])
        elif model.n_phases == 3 and model.source_phase == 2:
            three = ThreePhaseParams(*model.sigmas, *model.boundaries)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    if two is not None:
        dens = np.asarray(two_phase_pdf(two, x_arr, t), dtype=float)
        source = "closed-form"
        variance = two_phase_moments(two, t).variance if include_normal else None
    elif three is not None:
        dens = np.asarray(three_phase_pdf(three, x_arr, t, series_tol), dtype=float)
        source = "closed-form"
        variance = None
        if include_normal:
            # Variance from a dedicated wide grid, independent of the caller's.
            smax = max(three.sigma1, three.sigma2, three.sigma3)
            span = 12.0 * smax * math.sqrt(t)
            wide = np.linspace(three.q2 - span, three.q1 + span, 4001)
            variance = _grid_variance(
                wide, np.asarray(three_phase_pdf(three, wide, t, series_tol))
            )
    else:
        from . import pde_oracle  # local import: pde_oracle depends on this module

        solution = pde_oracle.solve_for_system(model, t)
        dens = np.interp(x_arr, solution.x, solution.values)
        source = "numerical"
        variance = _grid_variance(solution.x, solution.values) if include_normal else None

    normal = None
    if include_normal:
        normal = _phi(x_arr, 0.0, math.sqrt(variance))
    return DensityTable(x=x_arr, density=dens, normal_density=normal, source=source)


def _grid_variance(x: np.ndarray, density: np.ndarray) -> float:
    mass = np.trapezoid(density, x)
    mean = np.trapezoid(x * density, x) / mass
    return float(np.trapezoid((x - mean) ** 2 * density, x) / mass)


def _format_sig12(value: float) -> str:
    return np.format_float_positional(
        value, precision=12, unique=False, fractional=False, trim="k"
    )


def write_density_csv(table: DensityTable, stream: TextIO) -> None:
    """Serialize a DensityTable: header x,density[,normal_density], 12 sig digits."""
    cols = ["x", "density"]
    if table.normal_density is not None:
        cols.append("normal_density")
    stream.write(",".join(cols) + "\n")
    for i in range(table.x.size):
        row = [_format_sig12(table.x[i]), _format_sig12(table.density[i])]
        if table.normal_density is not None:
            row.append(_format_sig12(table.normal_density[i]))
        stream.write(",".join(row) + "\n")
