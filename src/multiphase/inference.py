"""Maximum likelihood fitting of the two-phase law to return samples.

The alternative model is the exact two-phase density (sigma1, sigma2, q); the
null is a zero-mean Gaussian, nested at sigma1 = sigma2 for every q.  So q is
not identified under the null, and the likelihood-ratio statistic is the
supremum over q of a chi-squared(1) process.  The fit profiles the likelihood
in q and reports the Davies (1987) upper bound for that supremum as its
p-value; the one-degree chi-squared tail p = erfc(sqrt(lr / 2)) is kept
alongside (lr_test).

Three evaluations of the log-likelihood share one formula: _loglik_terms gives
the per-observation terms (log_likelihood_two_phase reports which of them are
non-finite), _sorted_loglik gives their sum on a sample sorted once, and the
profile kernel (_profile_split, _profile_terms, _profile_scores) gives the
sum with its score and Hessian in the two log scales at fixed q.  All split
the sorted sample at q into two slices and work in preallocated buffers, so
no call makes a sample-sized allocation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np
from scipy.optimize import minimize_scalar

# minimize and numerical_hessian are not called here; they stay module
# attributes because benchmark/tracing.py wraps them at these names.
from scipy.optimize import minimize  # noqa: F401

from .numerics import erfc, numerical_hessian  # noqa: F401
from .phase_kernel import TwoPhaseParams, _coeffs

__all__ = [
    "DegenerateSampleError",
    "NestingError",
    "IngestionError",
    "ReturnSample",
    "FitConfig",
    "FitReport",
    "FitDiagnostics",
    "log_likelihood_two_phase",
    "fit_normal_null",
    "lr_test",
    "davies_p_value",
    "fit_two_phase",
    "load_returns",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Profile grid: 49 sample quantiles, trimmed to 2-98% (Andrews 1993).
_GRID_LEVELS = np.linspace(0.02, 0.98, 49)
#: Newton's limits at fixed q: iterations, largest step in a log scale, and
#: the half-width of the box around the null's log scale it stays in.
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_STEP = 2.0
_LOG_SCALE_BOX = 30.0
#: Brent stops refining q within this fraction of its bracket.
_REFINE_XATOL = 1e-4
_UNITS = ("fraction", "percent")


class DegenerateSampleError(ValueError):
    """The sample admits no maximum likelihood scale (e.g. all zeros)."""


class NestingError(RuntimeError):
    """Alternative log-likelihood fell below the null's beyond rounding slack."""


class IngestionError(ValueError):
    """Input rows could not be parsed as finite numeric returns."""


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """Observed log-returns at a common horizon t (default one day = 1 unit)."""

    values: np.ndarray
    t: float = 1.0
    unit: str = "fraction"
    label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", arr)
        if arr.size == 0:
            raise DegenerateSampleError("return sample is empty")
        if not np.all(np.isfinite(arr)):
            raise IngestionError("return sample contains non-finite values")
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        if not self.t > 0:
            raise ValueError(f"horizon t must be positive, got {self.t}")

    @property
    def size(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FitConfig:
    """Fit settings: tol stops each profile Newton solve once its predicted
    log-likelihood gain falls to tol or below."""

    tol: float = 1e-8
    demean: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class FitDiagnostics:
    """How the profile fit reached its estimate.

    profile_q and profile_loglik are the grid of boundaries and the profile
    log-likelihood there; newton_iterations totals the Newton steps over the
    grid and the refinement; refinement_evaluations counts the profile
    evaluations of the bounded Brent search; total_variation is V of the
    Davies bound.
    """

    profile_q: tuple[float, ...]
    profile_loglik: tuple[float, ...]
    newton_iterations: int
    refinement_evaluations: int
    total_variation: float

    def to_json_dict(self) -> dict:
        return {"grid_points": len(self.profile_q), **asdict(self)}


@dataclass(frozen=True)
class FitReport:
    """Point estimates, standard errors, and the normality test verdict."""

    sigma1_hat: float
    sigma2_hat: float
    q_hat: float
    se_sigma1: float | None
    se_sigma2: float | None
    se_q: float | None
    sigma_null_hat: float
    se_sigma_null: float
    loglik_alt: float
    loglik_null: float
    lr_statistic: float
    p_value: float
    sample_size: int
    converged: bool
    unit: str
    demeaned: bool
    se_status: str
    n_evaluations: int
    p_value_chi2: float
    p_value_method: str
    diagnostics: FitDiagnostics

    def __post_init__(self):
        if self.lr_statistic < 0:
            raise ValueError("lr_statistic must be non-negative")
        if not (0.0 <= self.p_value <= 1.0 and 0.0 <= self.p_value_chi2 <= 1.0):
            raise ValueError("p_value must lie in [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "estimates": {
                "sigma1": self.sigma1_hat,
                "sigma2": self.sigma2_hat,
                "q": self.q_hat,
            },
            "standard_errors": {
                "sigma1": self.se_sigma1,
                "sigma2": self.se_sigma2,
                "q": self.se_q,
                "status": self.se_status,
            },
            "null": {
                "sigma": self.sigma_null_hat,
                "se_sigma": self.se_sigma_null,
            },
            "loglik_alt": self.loglik_alt,
            "loglik_null": self.loglik_null,
            "lr_statistic": self.lr_statistic,
            "p_value": self.p_value,
            "p_value_chi2": self.p_value_chi2,
            "p_value_method": self.p_value_method,
            "sample_size": self.sample_size,
            "converged": self.converged,
            "unit": self.unit,
            "demeaned": self.demeaned,
            "n_evaluations": self.n_evaluations,
            "diagnostics": self.diagnostics.to_json_dict(),
        }


def _loglik_terms(p: TwoPhaseParams, x: np.ndarray, t: float) -> np.ndarray:
    """Per-observation log density, evaluated in the log domain.

    On each side of q the density is either a single scaled Gaussian or a sum
    of two whose first exponent dominates, so the mixture term is a log1p of a
    ratio that never exceeds one in magnitude.
    """
    s1 = p.sigma1 * math.sqrt(t)
    s2 = p.sigma2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    out = np.empty_like(x)
    if p.q > 0:
        hi = x >= p.q
        out[hi] = (
            math.log(a1)
            - 0.5 * ((x[hi] - c1 * p.q) / s1) ** 2
            - math.log(s1)
            - _LOG_SQRT_2PI
        )
        lo = ~hi
        e_main = -0.5 * (x[lo] / s2) ** 2
        e_image = -0.5 * ((x[lo] - 2.0 * p.q) / s2) ** 2
        out[lo] = (
            e_main
            + np.log1p(refl * np.exp(e_image - e_main))
            - math.log(s2)
            - _LOG_SQRT_2PI
        )
    else:
        lo = x < p.q
        out[lo] = (
            math.log(a2)
            - 0.5 * ((x[lo] - c2 * p.q) / s2) ** 2
            - math.log(s2)
            - _LOG_SQRT_2PI
        )
        hi = ~lo
        e_main = -0.5 * (x[hi] / s1) ** 2
        e_image = -0.5 * ((x[hi] - 2.0 * p.q) / s1) ** 2
        out[hi] = (
            e_main
            + np.log1p(-refl * np.exp(e_image - e_main))
            - math.log(s1)
            - _LOG_SQRT_2PI
        )
    return out


def log_likelihood_two_phase(p: TwoPhaseParams, sample: ReturnSample) -> float:
    """Total log-likelihood of the sample under the two-phase density.

    Equals sum(log pdf(x_i)) exactly; the log-domain evaluation keeps it
    finite even when individual densities underflow in linear arithmetic.
    Returns -inf (with a warning naming the offending observations) only if a
    term is numerically non-finite.
    """
    with np.errstate(over="raise"):
        terms = _loglik_terms(p, sample.values, sample.t)
    if not np.all(np.isfinite(terms)):
        bad = np.flatnonzero(~np.isfinite(terms))
        warnings.warn(
            f"log-likelihood underflow at observation indices {bad[:5].tolist()}"
            f"{'...' if bad.size > 5 else ''}; returning -inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return float("-inf")
    return float(terms.sum())


def fit_normal_null(sample: ReturnSample) -> tuple[float, float]:
    """Zero-mean Gaussian MLE: sigma_hat = sqrt(sum x^2 / (n t)) and its loglik."""
    x = sample.values
    ss = float(np.dot(x, x))
    if ss == 0.0:
        raise DegenerateSampleError("all observations are zero; scale MLE degenerate")
    n = x.size
    sigma = math.sqrt(ss / (n * sample.t))
    s = sigma * math.sqrt(sample.t)
    loglik = -n * _LOG_SQRT_2PI - n * math.log(s) - 0.5 * n
    return sigma, loglik


def lr_test(loglik_alt: float, loglik_null: float) -> tuple[float, float]:
    """Likelihood-ratio statistic and chi-squared(1) upper-tail p-value.

    Nesting requires loglik_alt >= loglik_null up to optimizer slack (1e-6);
    a larger shortfall indicates a failed alternative fit and raises.
    """
    if loglik_alt < loglik_null - 1e-6:
        raise NestingError(
            f"alternative loglik {loglik_alt:.6f} below null {loglik_null:.6f}; "
            "the nested model cannot fit worse, so the fit did not converge"
        )
    lr = max(0.0, 2.0 * (loglik_alt - loglik_null))
    p_value = float(erfc(math.sqrt(lr / 2.0)))
    return lr, p_value


def _sorted_loglik(
    p: TwoPhaseParams, x: np.ndarray, x2: np.ndarray, t: float, work: np.ndarray
) -> float:
    """Total log-likelihood of an ascending sample x, with x2 = x*x.

    The same sum as _loglik_terms(p, x, t).sum(), without masks or
    temporaries: one searchsorted splits x at q into two slices, and every
    array pass writes into the caller's scratch buffer work (same shape as x).
    On the single-Gaussian side the squares come from one dot product of
    x - c*q.  On the mixed side the main exponent sums x2 and the image term
    is log1p(+-refl * exp(z)) with z = 2q(x - q)/s^2, the exact value of
    e_image - e_main; z <= 0 there, so nothing overflows.  Sums of (x - m)^2
    are never expanded into sum x^2 - 2m sum x + k m^2: at the tiny scales
    the simplex visits, that difference of large sums loses every digit.
    """
    s1 = p.sigma1 * math.sqrt(t)
    s2 = p.sigma2 * math.sqrt(t)
    a1, a2, refl, c1, c2 = _coeffs(p)
    q = float(p.q)
    k = int(np.searchsorted(x, q))  # x[:k] < q <= x[k:]
    if q > 0:
        single, s, log_a, c = slice(k, None), s1, math.log(a1), c1
        mixed, s_mix, r = slice(None, k), s2, refl
    else:
        single, s, log_a, c = slice(None, k), s2, math.log(a2), c2
        mixed, s_mix, r = slice(k, None), s1, -refl

    d = np.subtract(x[single], c * q, out=work[single])
    total = d.size * (log_a - math.log(s) - _LOG_SQRT_2PI) - 0.5 * float(
        np.dot(d, d)
    ) / (s * s)

    z = work[mixed]
    np.subtract(x[mixed], q, out=z)
    np.multiply(z, 2.0 * q / (s_mix * s_mix), out=z)
    np.exp(z, out=z)
    np.multiply(z, r, out=z)
    np.log1p(z, out=z)
    total += (
        float(z.sum())
        - 0.5 * float(x2[mixed].sum()) / (s_mix * s_mix)
        - z.size * (math.log(s_mix) + _LOG_SQRT_2PI)
    )
    return total


def davies_p_value(lr: float, total_variation: float) -> float:
    """Davies (1987) upper bound on P(sup_q LR(q) > lr) under the null.

    p = erfc(sqrt(lr / 2)) + V exp(-lr / 2) / sqrt(2 pi), capped at 1, where V
    is the total variation over q of the signed root of LR(q).
    """
    tail = erfc(math.sqrt(lr / 2.0))
    return min(1.0, tail + total_variation * math.exp(-0.5 * lr) * _INV_SQRT_2PI)


def _profile_split(x: np.ndarray, q: float, work: np.ndarray) -> tuple:
    """Constants of the profile kernel at boundary q on an ascending sample x.

    The kernel works in the frame where the boundary lies at or below the
    source, q' = -|q| <= 0: for q > 0 the identity
    l(sigma1, sigma2, q; x) = l(sigma2, sigma1, -q; -x) maps the sample to
    y = -x, which here is only index arithmetic on x.  In that frame the
    "single" side y < q' is one scaled Gaussian and the "mixed" side y >= q'
    holds the source and its image.  work[0] receives u = y - q' for every
    observation (u < 0 on the single side, u >= 0 on the mixed one), and the
    single side reduces to three scalars: k, sum u and sum u^2.

    Returns (flip, single, mixed, q', k, sum u, sum u^2, m, sum y^2 over mixed).
    """
    u = work[0]
    flip = q > 0.0
    if flip:
        j = int(np.searchsorted(x, q, side="right"))  # x[:j] <= q < x[j:]
        single, mixed = slice(j, None), slice(None, j)
        np.subtract(q, x, out=u)
    else:
        j = int(np.searchsorted(x, q))  # x[:j] < q <= x[j:]
        single, mixed = slice(None, j), slice(j, None)
        np.subtract(x, q, out=u)
    us, xm = u[single], x[mixed]
    return (
        flip, single, mixed, -abs(q),
        us.size, float(us.sum()), float(np.dot(us, us)),
        xm.size, float(np.dot(xm, xm)),
    )


def _profile_terms(split: tuple, a: float, b: float, work: np.ndarray) -> tuple:
    """Log-likelihood in the frame of split (see _profile_split) at log scales
    a (mixed side, which holds the source) and b (single side), with its
    gradient and Hessian in (a, b): (l, l_a, l_b, l_aa, l_ab, l_bb).

    With s = exp(a), rho = (exp(a) - exp(b))/(exp(a) + exp(b)) and
    z = 2 q' u / s^2 <= 0, the mixed side is
    sum(-y^2 / 2s^2 - log s + log1p(rho e^z)); rho' = (1 - rho^2)/2 in a.
    Its derivatives need six sums over h = e^z / (1 + rho e^z): of h, h^2,
    h u, h^2 u, h u^2 and h^2 u^2.  The single side is
    k log a_single - sum (u/exp(b) + q'/exp(a))^2 / 2 - k (b + log sqrt(2 pi)),
    whose square expands into three sums of one sign (u < 0, q' <= 0).
    work rows 1-3 are scratch.
    """
    _, _, mixed, q, k, su, suu, m, syy = split
    s_mixed, s_single = math.exp(a), math.exp(b)
    ia, ib = 1.0 / s_mixed, 1.0 / s_single
    amp_mixed, amp_single, refl, _, _ = _coeffs(TwoPhaseParams(s_mixed, s_single, q))
    rho = -refl
    r = 0.5 * amp_mixed * amp_single  # (1 - rho^2) / 2
    pi_k = 0.5 * amp_mixed * k  # k exp(a) / (exp(a) + exp(b))

    big_p = suu * ib * ib
    big_q = 2.0 * q * su * ia * ib
    big_r = k * q * q * ia * ia
    value = k * (math.log(amp_single) - b - _LOG_SQRT_2PI) - 0.5 * (big_p + big_q + big_r)
    ga = -pi_k + 0.5 * big_q + big_r
    gb = pi_k - k + big_p + 0.5 * big_q
    curv = 0.5 * r * k
    haa = -curv - 0.5 * big_q - 2.0 * big_r
    hab = curv - 0.5 * big_q
    hbb = -curv - 2.0 * big_p - 0.5 * big_q

    big_e = syy * ia * ia
    value -= 0.5 * big_e + m * (a + _LOG_SQRT_2PI)
    ga += big_e - m
    haa -= 2.0 * big_e
    if m:
        c = 2.0 * q * ia * ia  # z = c u
        u, w, d, h = work[0, mixed], work[1, mixed], work[2, mixed], work[3, mixed]
        np.multiply(u, c, out=w)
        np.exp(w, out=w)
        np.multiply(w, rho, out=d)
        np.log1p(d, out=h)
        value += float(h.sum())
        d += 1.0
        np.divide(w, d, out=h)
        np.multiply(h, u, out=w)
        h1 = float(h.sum())
        h2 = float(np.dot(h, h))
        hz = c * float(np.dot(h, u))
        h2z = c * float(np.dot(w, h))
        hzz = c * c * float(np.dot(w, u))
        h2zz = c * c * float(np.dot(w, w))
        ga += r * h1 - 2.0 * rho * hz
        gb -= r * h1
        rr, rh1 = r * r * h2, rho * r * h1
        haa += (
            -rr - 4.0 * r * (hz - rho * h2z) + 4.0 * rho * (hzz - rho * h2zz)
            - rh1 + 4.0 * rho * hz
        )
        hab += rr + 2.0 * r * (hz - rho * h2z) + rh1
        hbb -= rr + rh1
    return value, ga, gb, haa, hab, hbb


def _profile_scores(
    split: tuple, x: np.ndarray, ab: tuple[float, float], work: np.ndarray
) -> np.ndarray:
    """Outer product of the per-observation scores in (log sigma1, log sigma2,
    q) at ab = (log s1, log s2), s = sigma sqrt(t), on the split of
    _profile_split: sum over i of s_i s_i^T.

    The scores fill work rows 1-3, in the frame's coordinates (a, b, q'):
    single side, with v = u/exp(b) + q'/exp(a):
      (-pi + v q'/exp(a), pi - 1 + v u/exp(b), -v (1/exp(a) - 1/exp(b)));
    mixed side, with z and h as in _profile_terms:
      (y^2/exp(2a) - 1 + h (r - 2 rho z), -r h, 2 rho h (u - q')/exp(2a)).
    The frame's (a, b, q') are (log sigma1, log sigma2, q), or
    (log sigma2, log sigma1, -q) when flipped.
    """
    flip, single, mixed, q, *_ = split
    a, b = (ab[1], ab[0]) if flip else ab
    s_mixed, s_single = math.exp(a), math.exp(b)
    ia, ib = 1.0 / s_mixed, 1.0 / s_single
    amp_mixed, amp_single, refl, _, _ = _coeffs(TwoPhaseParams(s_mixed, s_single, q))
    rho = -refl
    r = 0.5 * amp_mixed * amp_single
    pi = 0.5 * amp_mixed

    u, sa, sb, sq = work[0, single], work[1, single], work[2, single], work[3, single]
    np.multiply(u, ib, out=sq)
    sq += q * ia  # v
    np.multiply(sq, q * ia, out=sa)
    sa -= pi
    np.multiply(sq, u, out=sb)
    sb *= ib
    sb += pi - 1.0
    sq *= ib - ia

    c = 2.0 * q * ia * ia
    u, sa, sb, sq = work[0, mixed], work[1, mixed], work[2, mixed], work[3, mixed]
    np.multiply(u, c, out=sq)  # z
    np.exp(sq, out=sb)
    np.multiply(sb, rho, out=sa)
    sa += 1.0
    np.divide(sb, sa, out=sb)  # h
    np.multiply(sq, -2.0 * rho, out=sa)
    sa += r
    sa *= sb
    ym = x[mixed]
    np.multiply(ym, ym, out=sq)
    sq *= ia * ia
    sq -= 1.0
    sa += sq
    np.subtract(u, q, out=sq)
    sq *= 2.0 * rho * ia * ia
    sq *= sb
    sb *= -r

    scores = work[1:]
    outer = scores @ scores.T
    if flip:
        order = [1, 0, 2]
        outer = outer[np.ix_(order, order)]
        outer[2, :2] *= -1.0
        outer[:2, 2] *= -1.0
    return outer


def _profile_newton(
    x: np.ndarray, q: float, start: tuple[float, float], work: np.ndarray,
    tol: float, lo: float, hi: float,
) -> tuple:
    """Maximise the log-likelihood over both log scales at fixed q.

    Damped Newton from start = (log s1, log s2), s = sigma sqrt(t), with the
    closed-form score and Hessian of _profile_terms; where the Hessian is not
    negative definite the step is the gradient over the sum of the Hessian's
    magnitudes.  Steps are capped at _NEWTON_MAX_STEP per log scale, kept in
    [lo, hi], and halved until the log-likelihood does not fall.  Stops once
    the predicted gain is at most tol.

    Returns (loglik, (log s1, log s2), iterations, converged, kernel calls).
    """
    split = _profile_split(x, q, work)
    flip = split[0]
    a, b = (start[1], start[0]) if flip else start
    f, ga, gb, haa, hab, hbb = _profile_terms(split, a, b, work)
    calls = 2
    converged = False
    iterations = 0
    while iterations < _NEWTON_MAX_ITER:
        det = haa * hbb - hab * hab
        if haa < 0.0 and det > 0.0:
            da = (hab * gb - hbb * ga) / det
            db = (hab * ga - haa * gb) / det
            gain = 0.5 * (ga * da + gb * db)
        else:
            scale = abs(haa) + abs(hab) + abs(hbb) or 1.0
            da, db = ga / scale, gb / scale
            gain = ga * da + gb * db
        if not gain > tol:
            converged = True
            break
        step = max(abs(da), abs(db))
        if step > _NEWTON_MAX_STEP:
            da *= _NEWTON_MAX_STEP / step
            db *= _NEWTON_MAX_STEP / step
        iterations += 1
        for _ in range(40):
            a_new = min(max(a + da, lo), hi)
            b_new = min(max(b + db, lo), hi)
            out = _profile_terms(split, a_new, b_new, work)
            calls += 1
            if out[0] >= f:
                break
            da *= 0.5
            db *= 0.5
        else:
            converged = True  # no ascent left at rounding level
            break
        a, b = a_new, b_new
        f, ga, gb, haa, hab, hbb = out
    ab = (b, a) if flip else (a, b)
    return f, ab, iterations, converged, calls


def fit_two_phase(sample: ReturnSample, config: FitConfig | None = None) -> FitReport:
    """Fit (sigma1, sigma2, q) by maximum likelihood, profiled over q, and
    test against the Gaussian null.

    At each fixed q the log-likelihood is maximised over (log sigma1,
    log sigma2) by _profile_newton.  The profile is taken on 49 sample
    quantiles from 2% to 98%, centre out, each Newton warm-started from its
    neighbour's solution and the centre from sigma1 = sigma2 = the null's
    sigma.  A bounded Brent search then refines q between the best grid
    point's neighbours, each Newton starting where the last one ended; the
    best grid point is kept if the refinement ends lower.  So q_hat lies in
    the 2-98% sample quantiles, and loglik_alt is at least every grid
    profile value and the null's (at sigma1 = sigma2 the model is the null
    for every q).

    The p-value is the Davies bound (davies_p_value) with M = LR and V the
    total variation over the grid of sign(sigma1(q) - sigma2(q)) sqrt(LR(q));
    p_value_chi2 is the chi-squared(1) tail of the same LR (lr_test).
    Standard errors come from the outer product of the per-observation
    scores, the delta method mapping log-scale variances back to sigma; they
    are flagged approximate when q_hat sits within 1e-6 of a data point,
    where the likelihood has a kink.  The sample is sorted once (a
    permutation gives an identical report), and n_evaluations counts every
    pass of the kernel over it (_profile_split, _profile_terms and
    _profile_scores calls).
    """
    cfg = config or FitConfig()
    if sample.size < 10:
        raise DegenerateSampleError(
            f"need at least 10 observations to fit, got {sample.size}"
        )
    x = np.sort(sample.values)
    demeaned = cfg.demean
    if demeaned:
        x -= x.mean()
    sample = ReturnSample(x, t=sample.t, unit=sample.unit, label=sample.label)

    sigma_null, loglik_null = fit_normal_null(sample)
    se_sigma_null = sigma_null / math.sqrt(2.0 * sample.size)
    log_null = math.log(sigma_null * math.sqrt(sample.t))
    lo, hi = log_null - _LOG_SCALE_BOX, log_null + _LOG_SCALE_BOX
    grid = np.quantile(x, _GRID_LEVELS)
    work = np.empty((4, x.size))
    n_evaluations = newton_iterations = 0

    def profile(q, start):
        nonlocal n_evaluations, newton_iterations
        f, ab, its, ok, calls = _profile_newton(x, q, start, work, cfg.tol, lo, hi)
        n_evaluations += calls
        newton_iterations += its
        return f, ab, ok

    n_grid = grid.size
    solved = [None] * n_grid  # (loglik, (log s1, log s2), converged) per point
    centre = n_grid // 2
    solved[centre] = profile(float(grid[centre]), (log_null, log_null))
    for j in range(centre + 1, n_grid):
        solved[j] = profile(float(grid[j]), solved[j - 1][1])
    for j in range(centre - 1, -1, -1):
        solved[j] = profile(float(grid[j]), solved[j + 1][1])
    values = [f for f, _, _ in solved]

    best = int(np.argmax(values))
    loglik_alt, ab_hat, converged = solved[best]
    q_hat = float(grid[best])
    refinement_evaluations = 0
    bracket = (float(grid[max(best - 1, 0)]), float(grid[min(best + 1, n_grid - 1)]))
    if bracket[1] > bracket[0]:
        tried = []

        def negative_profile(q):
            f, ab, ok = profile(float(q), tried[-1][2] if tried else ab_hat)
            tried.append((f, float(q), ab, ok))
            return -f

        res = minimize_scalar(
            negative_profile, bounds=bracket, method="bounded",
            options={"xatol": _REFINE_XATOL * (bracket[1] - bracket[0])},
        )
        refinement_evaluations = len(tried)
        f, q, ab, ok = max(tried, key=lambda item: item[0])
        if f > loglik_alt:
            loglik_alt, q_hat, ab_hat, converged = f, q, ab, ok and bool(res.success)

    sigma1_hat, sigma2_hat = (math.exp(v) / math.sqrt(sample.t) for v in ab_hat)
    lr, p_value_chi2 = lr_test(loglik_alt, loglik_null)
    roots = [
        math.copysign(math.sqrt(max(0.0, 2.0 * (f - loglik_null))), ab[0] - ab[1])
        for f, ab, _ in solved
    ]
    total_variation = float(np.abs(np.diff(roots)).sum())
    p_value = davies_p_value(lr, total_variation)

    outer = _profile_scores(_profile_split(x, q_hat, work), x, ab_hat, work)
    n_evaluations += 2
    se_sigma1 = se_sigma2 = se_q = None
    se_status = "unavailable"
    try:
        variances = np.diag(np.linalg.inv(outer))
        if np.all(np.linalg.eigvalsh(outer) > 0) and np.all(variances > 0):
            se_sigma1 = sigma1_hat * math.sqrt(variances[0])
            se_sigma2 = sigma2_hat * math.sqrt(variances[1])
            se_q = math.sqrt(variances[2])
            se_status = "ok"
            k = int(np.searchsorted(x, q_hat))
            gap = min(abs(x[i] - q_hat) for i in (k - 1, k) if 0 <= i < x.size)
            if gap < 1e-6:
                se_status = "approximate"
    except np.linalg.LinAlgError:
        pass

    return FitReport(
        sigma1_hat=sigma1_hat,
        sigma2_hat=sigma2_hat,
        q_hat=q_hat,
        se_sigma1=se_sigma1,
        se_sigma2=se_sigma2,
        se_q=se_q,
        sigma_null_hat=sigma_null,
        se_sigma_null=se_sigma_null,
        loglik_alt=loglik_alt,
        loglik_null=loglik_null,
        lr_statistic=lr,
        p_value=p_value,
        sample_size=sample.size,
        converged=converged,
        unit=sample.unit,
        demeaned=demeaned,
        se_status=se_status,
        n_evaluations=n_evaluations,
        p_value_chi2=p_value_chi2,
        p_value_method="davies",
        diagnostics=FitDiagnostics(
            profile_q=tuple(float(q) for q in grid),
            profile_loglik=tuple(values),
            newton_iterations=newton_iterations,
            refinement_evaluations=refinement_evaluations,
            total_variation=total_variation,
        ),
    )


def load_returns(
    source: str | TextIO,
    unit: str = "fraction",
    t: float = 1.0,
    label: str | None = None,
) -> ReturnSample:
    """Read returns from CSV: one value column, or (date, value) pairs.

    A non-numeric first row is treated as a header; any later non-numeric,
    blank, or non-finite row fails the whole load with its line number(s).
    """
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return load_returns(fh, unit=unit, t=t, label=label or source)
    rows = list(csv.reader(source))
    values: list[float] = []
    bad: list[int] = []
    for idx, row in enumerate(rows, start=1):
        if not row:
            bad.append(idx)
            continue
        cell = row[-1].strip() if len(row) <= 2 else None
        if cell is None:
            bad.append(idx)
            continue
        try:
            value = float(cell)
        except ValueError:
            if idx == 1 and not values:
                continue  # header row
            bad.append(idx)
            continue
        if not math.isfinite(value):
            bad.append(idx)
            continue
        values.append(value)
    if bad:
        raise IngestionError(
            f"non-numeric, blank, or non-finite rows at line(s) {bad}"
        )
    if not values:
        raise IngestionError("no numeric rows found")
    return ReturnSample(np.array(values), t=t, unit=unit, label=label)
