"""Closed-form multi-phase densities, CDFs, moments, and samplers.

A "phase" is a spatial interval with its own diffusion scale sigma_k; a unit
point mass starts at x = 0 and diffuses under the piecewise heat equation with
continuity of u and of the scaled flux (sigma^2/2) u_x at every boundary.  The
law is a piecewise-linear map of multi-skewed Brownian motion (Ramirez 2011;
Lejay 2006), so for any number of phases it is a sum of Gaussian pieces
w N(x; m, (sigma_k sqrt(t))^2), each restricted to its phase interval, cut
to a finite sum under a stated bound (_gaussian_pieces).  The pdf, cdf and
moments here, and the normalizer and call prices in pricing, are sums over
those pieces.  Two-phase draws come from an exact skew-Brownian sampler.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# integrate_adaptive is not called here; benchmark/tracing.py wraps it at this
# name.  Holding it loads no scipy.integrate: numerics imports that on a call.
from .numerics import RngState, integrate_adaptive, std_normal_cdf  # noqa: F401

__all__ = [
    "DomainError",
    "SeriesConsistencyError",
    "PhaseSystem",
    "TwoPhaseParams",
    "ThreePhaseParams",
    "MomentSummary",
    "two_phase_pdf",
    "two_phase_cdf",
    "two_phase_moments",
    "two_phase_sample",
    "three_phase_pdf",
    "three_phase_pdf_branch",
    "density_grid",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain (sigma <= 0, t <= 0, ...)."""


class SeriesConsistencyError(RuntimeError):
    """A sum of Gaussian pieces gave a density below zero beyond rounding."""


@dataclass(frozen=True)
class PhaseSystem:
    """N phases: sigmas top-down, strictly decreasing boundaries between them.

    Phases are numbered 1..N from the top interval (q_1, +inf) downward; the
    source phase is the 1-based index of the interval containing x = 0, with a
    boundary exactly at 0 assigned to the phase above it.  This is the one
    validator of every model: the named models below are PhaseSystems.
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
        if not all(0 < s < math.inf for s in sigmas):
            raise DomainError(f"sigmas must be positive and finite, got {sigmas}")
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
        return 1 + sum(q > 0.0 for q in self.boundaries)

    @staticmethod
    def from_two_phase(p: PhaseSystem) -> PhaseSystem:
        """A plain PhaseSystem with the sigmas and boundaries of p."""
        return PhaseSystem(p.sigmas, p.boundaries)

    from_three_phase = from_two_phase


class TwoPhaseParams(PhaseSystem):
    """Two-phase law: scale sigma1 above the boundary q, sigma2 below."""

    def __init__(self, sigma1: float, sigma2: float, q: float):
        super().__init__((sigma1, sigma2), (q,))

    sigma1 = property(lambda self: self.sigmas[0])
    sigma2 = property(lambda self: self.sigmas[1])
    q = property(lambda self: self.boundaries[0])


class ThreePhaseParams(PhaseSystem):
    """Three-phase law with boundaries q1 > 0 > q2 and the source in the middle."""

    def __init__(
        self, sigma1: float, sigma2: float, sigma3: float, q1: float, q2: float
    ):
        super().__init__((sigma1, sigma2, sigma3), (q1, q2))
        if not self.q1 > 0 > self.q2:
            raise DomainError(f"need q1 > 0 > q2, got q1={self.q1}, q2={self.q2}")

    sigma1 = property(lambda self: self.sigmas[0])
    sigma2 = property(lambda self: self.sigmas[1])
    sigma3 = property(lambda self: self.sigmas[2])
    q1 = property(lambda self: self.boundaries[0])
    q2 = property(lambda self: self.boundaries[1])


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
    if not 0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    return float(t)


#: A ray is split only while |w| exp(-E/2) exceeds this (see _gaussian_pieces):
#: ten binary orders below the unit roundoff 2^-53.
_PRUNE = 2.0**-63


def _gaussian_pieces(
    sigmas: Sequence[float], boundaries: Sequence[float], t: float
) -> list[tuple[float, float, float, list[list[float]]]]:
    """The law at horizon t as Gaussian pieces, grouped by phase top-down.

    Returns (lo, hi, scale, pieces) per phase: the phase interval [lo, hi),
    its scale sigma_k*sqrt(t) and a list of [w, m] pairs, so that the density
    on [lo, hi) is sum w N(x; m, scale^2).

    Rays expand in the skew coordinate y = int_0^x dx/sigma, where every
    piece has variance t; distances are in y, in units of sqrt(t).  A ray in
    phase f meeting the interface to phase g splits into a reflection through
    it, weight R = (sf - sg)/(sf + sg), and a transmission into g at the same
    y, weight T = 2 sg/(sf + sg), keeping u and (sigma^2/2) u_x continuous.
    Every piece is an image of the source, y = 2 sum_i c_i y_i with integer
    c (reflection at interface i maps c to e_i - c), and rays of one image
    meeting one interface from one phase merge exactly: unmerged, four or
    more phases grow exponentially.  A new ray next meets the other
    interface of its phase, so its distance d to it grows along every path;
    rays split in order of d, after all paths to their image have merged.

    Pruning.  With a_i the direct distance from the source to interface i,
    a ray of weight w, d from interface i, has excess E = d^2 - a_i^2 and is
    split only while |w| exp(-E/2) > _PRUNE = 2^-63.  E never falls along a
    path, since the path to any interface grows at least as fast as the
    direct distance.  A piece of weight v lying L beyond the interface j it
    came through (so E = L^2 - a_j^2) adds, at x in its phase z past j, at
    most |v| phi(L + z)/(sigma sqrt(t)) <= |v| exp(-E/2) f(x) to the density,
    f(x) = N(y(x); 0, t)/sigma(x) being the free density of the skew
    coordinate (y(x) lies within a_j + z of the source), and by the Mills
    ratio at most |v| Phi(-L) <= |v| exp(-E/2) / 2 to the cdf.  So an unsplit
    ray's descendants add at most A 2^-63 f(x) to the density and A 2^-64 to
    the cdf, A being their absolute weight over |w|: below the unit roundoff
    2^-53 of the local density u(x) wherever u(x) >= 2^-10 A f(x).  Summed
    over all unsplit rays, the pieces matched a 40-scale expansion to
    rounding on seeded systems of up to five phases
    (scripts/piece_pruning.py).  The source ray (w = 1, E = 0) always splits,
    so two phases always get their exact three pieces.
    """
    n = len(sigmas)
    scales = [s * math.sqrt(t) for s in sigmas]
    source = sum(q > 0.0 for q in boundaries)
    reach = [0.0] * (n - 1)  # a_i: direct distance from the source
    for step in (-1, 1):
        k, x, a = source, 0.0, 0.0
        i = source - 1 if step < 0 else source
        while 0 <= i < n - 1:
            a += abs(boundaries[i] - x) / scales[k]
            reach[i], x, k, i = a, boundaries[i], k + step, i + step
    found = [{} for _ in sigmas]  # per phase: image c -> [w, m]
    rays = {}  # (phase, interface, image c) -> [w, m]
    queue = []  # (distance, phase, interface, image c)

    def emit(k: int, m: float, w: float, came_from: int, c: tuple) -> None:
        found[k].setdefault(c, [0.0, m])[0] += w
        for i in (k - 1, k):
            if i != came_from and 0 <= i < n - 1:
                distance = abs(m - boundaries[i]) / scales[k]
                excess = distance * distance - reach[i] * reach[i]
                if abs(w) * math.exp(-0.5 * excess) > _PRUNE:
                    if (k, i, c) not in rays:
                        rays[k, i, c] = [0.0, m]
                        heapq.heappush(queue, (distance, k, i, c))
                    rays[k, i, c][0] += w

    emit(source, 0.0, 1.0, -1, (0,) * (n - 1))
    while queue:
        _, k, i, c = heapq.heappop(queue)
        w, m = rays.pop((k, i, c))
        q = boundaries[i]
        g = i + 1 if k == i else i
        sf, sg = sigmas[k], sigmas[g]
        ratio = sg / sf
        mirror = tuple([(j == i) - cj for j, cj in enumerate(c)])
        emit(k, 2.0 * q - m, (sf - sg) / (sf + sg) * w, i, mirror)
        emit(g, (1.0 - ratio) * q + ratio * m, 2.0 * sg / (sf + sg) * w, i, c)
    edges = (math.inf, *boundaries, -math.inf)
    return [
        (edges[k + 1], edges[k], scales[k], list(found[k].values()))
        for k in range(n)
    ]


def _pieces(model: PhaseSystem, t: float):
    """_gaussian_pieces of a model with sigmas and boundaries."""
    return _gaussian_pieces(model.sigmas, model.boundaries, _check_t(t))


def _phase_sum(scale: float, pieces, x: np.ndarray) -> np.ndarray:
    """One phase's sum w N(x; m, scale^2), evaluated at every x."""
    total = np.zeros_like(x)
    for w, m in pieces:
        total += w * np.exp(-0.5 * ((x - m) / scale) ** 2)
    return total / (_SQRT_2PI * scale)


def _pdf(phases, x):
    """Density from the pieces of x's phase; a scalar x takes a math path.

    The boundary point belongs to the phase above it.  Scalar x in, float out.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        for lo, _, scale, pieces in phases:
            if x >= lo:
                total = 0.0
                for w, m in pieces:
                    z = (x - m) / scale
                    total += w * math.exp(-0.5 * z * z)
                return total / (_SQRT_2PI * scale)
        return math.nan
    x_arr = np.asarray(x, dtype=float)
    lows = [lo for lo, _, _, _ in reversed(phases)]
    phase = len(phases) - np.searchsorted(lows, x_arr, side="right")
    return np.choose(phase, [_phase_sum(s, pcs, x_arr) for _, _, s, pcs in phases])


def _mass(lo: float, hi: float, mean: float, scale: float) -> float:
    """P(lo <= X < hi) for X ~ N(mean, scale^2), from the smaller tail."""
    a = (lo - mean) / scale * _SQRT_HALF
    b = (hi - mean) / scale * _SQRT_HALF
    if a > 0.0:
        return 0.5 * (math.erfc(a) - math.erfc(b))
    return 0.5 * (math.erfc(-b) - math.erfc(-a))


def _cdf(phases, x):
    """Distribution function: each piece's mass on [lo, min(x, hi)).

    A piece's mass comes from its smaller tail; the sum is clipped to [0, 1]
    against rounding.  Vectorized in x.
    """
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    for lo, hi, scale, pieces in phases:
        top = np.clip(x_arr, lo, hi)
        for w, m in pieces:
            a, b = (lo - m) / scale, (top - m) / scale
            if a > 0.0:
                out += w * (std_normal_cdf(-a) - std_normal_cdf(-b))
            else:
                out += w * (std_normal_cdf(b) - std_normal_cdf(a))
    out = np.clip(out, 0.0, 1.0)
    return out.item() if out.ndim == 0 else out


def two_phase_pdf(p: TwoPhaseParams, x, t: float):
    """Density of the two-phase law at horizon t; vectorized in x.

    The boundary point x = q takes the upper-phase value.  Scalar x in,
    scalar out.
    """
    return _pdf(_pieces(p, t), x)


def two_phase_cdf(p: TwoPhaseParams, x, t: float):
    """Distribution function of the two-phase law; vectorized in x."""
    return _cdf(_pieces(p, t), x)


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
    M_0 = Phi(-a) = erfc(a / sqrt 2) / 2, M_1 = phi(a) and
    M_j = a^(j-1) phi(a) + (j-1) M_(j-2).  An infinite cut gives the full
    (cut = -side*inf) or empty moments.
    """
    m = side * mean
    a = (side * cut - m) / scale
    dens = math.exp(-0.5 * a * a) / _SQRT_2PI
    z = [0.5 * math.erfc(a * _SQRT_HALF), dens]
    for j in range(2, 5):
        z.append((a ** (j - 1) * dens if dens else 0.0) + (j - 1) * z[j - 2])
    try:
        return [
            side**k * weight
            * sum(math.comb(k, j) * m ** (k - j) * scale**j * z[j] for j in range(k + 1))
            for k in range(5)
        ]
    except OverflowError:
        raise DomainError(
            f"the raw moments of a Gaussian piece with mean {mean!r} and scale "
            f"{scale!r} overflow the double range"
        ) from None


def _moments(phases) -> MomentSummary:
    """Mean, variance, skewness and kurtosis from the pieces, in closed form.

    Each piece's truncated raw moments E[X^k; lo <= X < hi], k = 0..4, are
    summed and converted to central moments.  An outer phase takes its
    pieces' tails beyond its one boundary; an inner phase takes a difference
    of two tails, upper ones when the piece's mean lies below the phase and
    lower ones otherwise.  Never "full minus tail" (see _partial_moments).
    """
    columns = []
    for lo, hi, scale, pieces in phases:
        for w, m in pieces:
            side = 1.0 if hi == math.inf or (lo > -math.inf and m <= lo) else -1.0
            near, far = (lo, hi) if side > 0 else (hi, lo)
            moments = _partial_moments(w, m, scale, near, side)
            if math.isfinite(far):
                beyond = _partial_moments(w, m, scale, far, side)
                moments = [a - b for a, b in zip(moments, beyond)]
            columns.append(moments)
    _, m1, m2, m3, m4 = (math.fsum(column) for column in zip(*columns))
    var = m2 - m1 * m1
    if not var * var > 0.0:  # the kurtosis divides by var^2
        raise DomainError(
            f"variance {var!r} is zero or its square underflows; "
            "skewness and kurtosis are undefined in double precision"
        )
    mu3 = m3 - 3.0 * m1 * m2 + 2.0 * m1**3
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1**4
    return MomentSummary(m1, var, mu3 / var**1.5, mu4 / var**2)


def two_phase_moments(p: TwoPhaseParams, t: float) -> MomentSummary:
    """Mean, variance, skewness, and kurtosis at horizon t, in closed form."""
    return _moments(_pieces(p, t))


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
    (1 + beta e)/(1 + e), e = exp(-2 R a / t).  An upper draw q + sigma1 R
    is formed without adding q, so it keeps its digits however far the
    boundary lies.  Deterministic given rng; returns (draws, advanced rng
    state).
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
    z = math.sqrt(t) * gen.standard_normal(n)
    e = np.exp(-2.0 * a / t * np.abs(a + z))
    upper = gen.random(n) * (1.0 + e) < 1.0 + beta * e
    # q + s1 |a + z| with q = -s1 a cancelled: s1 z, or -s1 (2a + z) where a + z < 0.
    x = np.where(a + z >= 0.0, s1 * z, -s1 * (2.0 * a + z))
    x = np.where(upper, x, q - s2 * np.abs(a + z))
    return sign * x, rng.advanced(gen)


def three_phase_pdf_branch(
    p: ThreePhaseParams, x, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three density branches (u1, u2, u3), each evaluated everywhere.

    Exposed so boundary one-sided values and fluxes can be probed directly;
    three_phase_pdf selects the phase-appropriate branch pointwise.  Branch k
    is the sum of phase k's Gaussian pieces (see _gaussian_pieces), unmasked,
    so it extends smoothly past that phase's boundaries.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    return tuple(
        _phase_sum(scale, pieces, x_arr) for _, _, scale, pieces in _pieces(p, t)
    )


def _checked(x, t: float, values):
    """Clamp density values within rounding (1e-10) below zero to 0, raise on
    lower ones."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.atleast_1d(np.asarray(values, dtype=float))
    floor = out.min()
    if floor < -1e-10:
        raise SeriesConsistencyError(
            f"density {floor:.6g} < -1e-10 at x={x_arr[out.argmin()]:.6g}, t={t}"
        )
    out = np.where((out < 0.0) & (out >= -1e-10), 0.0, out)
    return out.item() if np.isscalar(x) or np.ndim(x) == 0 else out


def three_phase_pdf(p: ThreePhaseParams, x, t: float):
    """Three-phase density, the pieces of x's phase; vectorized in x.

    Values within rounding (1e-10) of zero are clamped to 0; a negative value
    beyond that raises SeriesConsistencyError rather than being hidden.
    """
    return _checked(x, t, _pdf(_pieces(p, t), x))


def density_grid(
    model: PhaseSystem,
    t: float,
    x_grid: Sequence[float],
    include_normal: bool = False,
) -> dict[str, np.ndarray]:
    """Densities over a grid of x values, in grid order, as the columns
    {"x", "density"[, "normal_density"]} that _csv writes.

    Any model, of any number of phases and the source in any of them, is a
    sum of its Gaussian pieces (_gaussian_pieces, whose pruning bound holds
    at every grid point).  The optional normal column is the zero-mean
    Gaussian of commensurate variance (the variance of the model's law at
    horizon t, from the same pieces).
    """
    t = _check_t(t)
    x_arr = np.asarray(list(x_grid), dtype=float)
    if x_arr.size == 0:
        raise DomainError("x_grid must be nonempty")
    phases = _pieces(model, t)
    columns = {"x": x_arr, "density": _checked(x_arr, t, _pdf(phases, x_arr))}
    if include_normal:
        scale = math.sqrt(_moments(phases).variance)
        columns["normal_density"] = _phase_sum(scale, [(1.0, 0.0)], x_arr)
    return columns


def _format_sig12(value: float) -> str:
    """value with 12 significant digits, as every CSV output writes it."""
    return np.format_float_positional(
        value, precision=12, unique=False, fractional=False, trim="k"
    )


def _csv(columns: dict) -> str:
    """CSV text: the column names, then one _format_sig12 row per index."""
    lines = [",".join(columns)]
    lines += [",".join(map(_format_sig12, row)) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"
