"""Maximum likelihood fitting of the two-phase law to return samples.

The alternative model is the exact two-phase density (sigma1, sigma2, q); the
null is a zero-mean Gaussian, nested at sigma1 = sigma2 for every q.  So q is
not identified under the null, and the likelihood-ratio statistic is the
supremum over q of a chi-squared(1) process.  The fit profiles the likelihood
in q and reports the Davies (1987) upper bound for that supremum as its
p-value; the one-degree chi-squared tail p = erfc(sqrt(lr / 2)) is kept
alongside (lr_test).

Two evaluations of the log-likelihood share one formula: _loglik_terms gives
the per-observation terms (log_likelihood_two_phase sums them and reports
which are non-finite), and the profile kernel (_profile_split,
_profile_terms, _profile_scores), which the fit runs, gives their sum with
its score and Hessian in the two log scales at fixed q.  The kernel splits
the sorted sample at q into two slices and works in preallocated buffers, so
no call makes a sample-sized allocation.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

# numerical_hessian and minimize are not called here; benchmark/tracing.py
# wraps them at these names.  minimize resolves on first read through the
# module __getattr__ below, so importing this module loads no scipy.optimize.
# The fit itself needs only numpy and math: its normal tails are math.erfc
# and its refinement is _bounded_brent.
from .numerics import numerical_hessian  # noqa: F401
from .phase_kernel import TwoPhaseParams

__all__ = [
    "DegenerateSampleError",
    "NestingError",
    "IngestionError",
    "ReturnSample",
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
#: Newton's limits at fixed q: the predicted log-likelihood gain at which it
#: stops, iterations, largest step in a log scale, and the half-width of the
#: box around the null's log scale it stays in.
_NEWTON_TOL = 1e-8
_NEWTON_MAX_ITER = 50
_NEWTON_MAX_STEP = 2.0
_LOG_SCALE_BOX = 30.0
#: Brent stops refining q within this fraction of its bracket, or after this
#: many profile evaluations.
_REFINE_XATOL = 1e-4
_REFINE_MAXFUN = 500
_UNITS = ("fraction", "percent")


def __getattr__(name):
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class DegenerateSampleError(ValueError):
    """The sample admits no maximum likelihood scale (e.g. all zeros)."""


class NestingError(RuntimeError):
    """Alternative log-likelihood fell below the null's beyond rounding slack."""


class IngestionError(ValueError):
    """Input rows could not be parsed as finite numeric returns."""


@dataclass(frozen=True, eq=False)
class ReturnSample:
    """Observed log-returns at a common horizon t (default one day = 1 unit).

    unit is a label carried into the FitReport; the values are not scaled, so
    the estimates come back in the sample's own units.
    """

    values: np.ndarray
    t: float = 1.0
    unit: str = "fraction"

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


def _coeffs(s1: float, s2: float) -> tuple[float, float, float]:
    """Two-phase constants of the log-domain likelihood for the scales
    (s1, s2): amplitudes and reflection weight."""
    a1 = 2.0 * s1 / (s1 + s2)
    a2 = 2.0 * s2 / (s1 + s2)
    refl = (s2 - s1) / (s1 + s2)
    return a1, a2, refl


def _loglik_terms(p: TwoPhaseParams, x: np.ndarray, t: float) -> np.ndarray:
    """Per-observation log density, evaluated in the log domain.

    For q > 0 the identity l(sigma1, sigma2, q; x) = l(sigma2, sigma1, -q; -x)
    maps the inputs to q <= 0.  There the side x < q is a single scaled
    Gaussian and the side x >= q a sum of two whose first exponent dominates,
    so the mixture term is a log1p of a ratio that never exceeds one in
    magnitude.  Two forms avoid cancellation: the single Gaussian's
    standardised distance (x - c q)/s2, c = 1 - s2/s1, is taken as
    (x - q)/s2 + q/s1, and the image exponent less the main one as
    z = 2q(x - q)/s1^2 (<= 0 on that side), not as a difference of two large
    exponents.
    """
    sigma1, sigma2, q = p.sigma1, p.sigma2, p.q
    if q > 0:
        sigma1, sigma2, q, x = sigma2, sigma1, -q, -x
    _, a2, refl = _coeffs(sigma1, sigma2)
    s1 = sigma1 * math.sqrt(t)
    s2 = sigma2 * math.sqrt(t)
    out = np.empty_like(x)
    lo = x < q
    out[lo] = (
        math.log(a2)
        - 0.5 * ((x[lo] - q) / s2 + q / s1) ** 2
        - math.log(s2)
        - _LOG_SQRT_2PI
    )
    hi = ~lo
    z = 2.0 * q * (x[hi] - q) / (s1 * s1)
    out[hi] = (
        -0.5 * (x[hi] / s1) ** 2
        + np.log1p(-refl * np.exp(z))
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
    """Zero-mean Gaussian MLE: sigma_hat = sqrt(sum x^2 / (n t)) and its loglik.

    Raises DegenerateSampleError when every observation is zero, and when
    sum x^2 overflows or falls below the smallest normal double, where the
    scale would be infinite or would have lost its digits.
    """
    x = sample.values
    with np.errstate(over="ignore"):
        ss = float(np.dot(x, x))
    if not sys.float_info.min <= ss < math.inf:
        if not np.any(x):
            raise DegenerateSampleError("all observations are zero; scale MLE degenerate")
        fault = "overflows" if ss == math.inf else "underflows"
        raise DegenerateSampleError(
            f"the sum of squared observations {fault} ({ss!r}); rescale the sample"
        )
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
    p_value = math.erfc(math.sqrt(lr / 2.0))
    return lr, p_value


def davies_p_value(lr: float, total_variation: float) -> float:
    """Davies (1987) upper bound on P(sup_q LR(q) > lr) under the null.

    p = erfc(sqrt(lr / 2)) + V exp(-lr / 2) / sqrt(2 pi), capped at 1, where V
    is the total variation over q of the signed root of LR(q).
    """
    tail = math.erfc(math.sqrt(lr / 2.0))
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
    amp_mixed, amp_single, refl = _coeffs(s_mixed, s_single)
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
    amp_mixed, amp_single, refl = _coeffs(s_mixed, s_single)
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
    lo: float, hi: float,
) -> tuple:
    """Maximise the log-likelihood over both log scales at fixed q.

    Damped Newton from start = (log s1, log s2), s = sigma sqrt(t), with the
    closed-form score and Hessian of _profile_terms; where the Hessian is not
    negative definite the step is the gradient over the sum of the Hessian's
    magnitudes.  Steps are capped at _NEWTON_MAX_STEP per log scale, kept in
    [lo, hi], and halved until the log-likelihood does not fall.  Stops once
    the predicted gain is at most _NEWTON_TOL.

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
        if not gain > _NEWTON_TOL:
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


def _bounded_brent(
    func, a: float, b: float, xatol: float
) -> tuple[float, float, bool]:
    """Minimise func on [a, b] by Brent's (1973, ch. 5) bounded search.

    A step-for-step port of SciPy's minimize_scalar(method="bounded"): the
    same constants, parabola acceptance tests, tolerance updates and stopping
    rule, so it evaluates func at the same points.  It stops after 500
    evaluations.  Returns (x, func(x), success); success is False at that
    limit or when func returned NaN.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    success = True
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q  # + 0.0 turns -0.0 into 0.0, as in SciPy
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _REFINE_MAXFUN:
            success = False
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        success = False
    return xf, fx, success


def fit_two_phase(sample: ReturnSample, demean: bool = False) -> FitReport:
    """Fit (sigma1, sigma2, q) by maximum likelihood, profiled over q, and
    test against the Gaussian null; demean subtracts the sample mean first.

    At each fixed q the log-likelihood is maximised over (log sigma1,
    log sigma2) by _profile_newton.  The profile is taken on 49 sample
    quantiles from 2% to 98%, centre out, each Newton warm-started from its
    neighbour's solution and the centre from sigma1 = sigma2 = the null's
    sigma.  A bounded Brent (1973) search then refines q between the best
    grid point's neighbours, each Newton starting where the last one ended;
    the best grid point is kept if the refinement ends lower.  So q_hat lies
    in the 2-98% sample quantiles, and loglik_alt is at least every grid
    profile value and the null's (at sigma1 = sigma2 the model is the null
    for every q).  The search is the in-house _bounded_brent, which
    evaluates the same q as SciPy's minimize_scalar(method="bounded"), so
    the fit needs no SciPy.

    The p-value is the Davies bound (davies_p_value) with M = LR and V the
    total variation over the grid of sign(sigma1(q) - sigma2(q)) sqrt(LR(q));
    p_value_chi2 is the chi-squared(1) tail of the same LR (lr_test).
    Standard errors come from the outer product of the per-observation
    scores, the delta method mapping log-scale variances back to sigma; they
    are flagged approximate when q_hat lies within the refinement's
    resolution (_REFINE_XATOL times the bracket width) of a kink of the
    likelihood in q: the order statistics either side of q_hat, and 0.  The
    sample is sorted once (a permutation gives an identical report), and
    n_evaluations counts every pass of the kernel over it (_profile_split,
    _profile_terms and _profile_scores calls).
    """
    if sample.size < 10:
        raise DegenerateSampleError(
            f"need at least 10 observations to fit, got {sample.size}"
        )
    x = np.sort(sample.values)
    if demean:
        x -= x.mean()
    sample = ReturnSample(x, t=sample.t, unit=sample.unit)

    sigma_null, loglik_null = fit_normal_null(sample)
    se_sigma_null = sigma_null / math.sqrt(2.0 * sample.size)
    log_null = math.log(sigma_null * math.sqrt(sample.t))
    lo, hi = log_null - _LOG_SCALE_BOX, log_null + _LOG_SCALE_BOX
    grid = np.quantile(x, _GRID_LEVELS)
    work = np.empty((4, x.size))
    n_evaluations = newton_iterations = 0

    def profile(q, start):
        nonlocal n_evaluations, newton_iterations
        f, ab, its, ok, calls = _profile_newton(x, q, start, work, lo, hi)
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
    resolution = _REFINE_XATOL * (bracket[1] - bracket[0])
    if bracket[1] > bracket[0]:
        tried = []

        def negative_profile(q):
            f, ab, ok = profile(q, tried[-1][2] if tried else ab_hat)
            tried.append((f, q, ab, ok))
            return -f

        _, _, success = _bounded_brent(negative_profile, *bracket, resolution)
        refinement_evaluations = len(tried)
        f, q, ab, ok = max(tried, key=lambda item: item[0])
        if f > loglik_alt:
            loglik_alt, q_hat, ab_hat, converged = f, q, ab, ok and success

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
        # Definiteness is judged on the correlation matrix: the q entries of
        # outer scale as 1/x^2, so its own eigenvalues depend on the units.
        d = np.sqrt(np.diag(outer))
        correlation = outer / np.outer(d, d)
        if np.all(np.linalg.eigvalsh(correlation) > 0) and np.all(variances > 0):
            se_sigma1 = sigma1_hat * math.sqrt(variances[0])
            se_sigma2 = sigma2_hat * math.sqrt(variances[1])
            se_q = math.sqrt(variances[2])
            k = int(np.searchsorted(x, q_hat))
            kinks = [0.0] + [float(x[i]) for i in (k - 1, k) if 0 <= i < x.size]
            near_kink = min(abs(v - q_hat) for v in kinks) <= resolution
            se_status = "approximate" if near_kink else "ok"
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
        demeaned=demean,
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
) -> ReturnSample:
    """Read returns from CSV: one value column, or (date, value) pairs.

    A non-numeric first row is treated as a header; any later non-numeric,
    blank, or non-finite row fails the whole load with its line number(s).
    """
    if isinstance(source, str):
        with open(source, newline="") as fh:
            return load_returns(fh, unit=unit, t=t)
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
    return ReturnSample(np.array(values), t=t, unit=unit)
