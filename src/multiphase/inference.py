"""Maximum likelihood fitting of the two-phase law to return samples.

The alternative model is the exact two-phase density (sigma1, sigma2, q); the
null is a zero-mean Gaussian, nested at sigma1 = sigma2.  The likelihood-ratio
statistic is mapped to a p-value by the one-degree chi-squared upper tail,
p = erfc(sqrt(lr / 2)).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import TextIO

import numpy as np
from scipy.optimize import minimize

from .numerics import HessianError, erfc, numerical_hessian
from .phase_kernel import TwoPhaseParams, _coeffs

__all__ = [
    "DegenerateSampleError",
    "NestingError",
    "IngestionError",
    "ReturnSample",
    "FitConfig",
    "FitReport",
    "log_likelihood_two_phase",
    "fit_normal_null",
    "lr_test",
    "fit_two_phase",
    "load_returns",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
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
    """Optimizer settings: stage plan is simplex exploration then Newton polish."""

    tol: float = 1e-8
    max_iter: int = 600
    demean: bool = False
    n_starts: int = 5
    stages: tuple[str, ...] = ("simplex", "newton")

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        for s in self.stages:
            if s not in ("simplex", "newton"):
                raise ValueError(f"unknown stage {s!r}")


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

    def __post_init__(self):
        if self.lr_statistic < 0:
            raise ValueError("lr_statistic must be non-negative")
        if not 0.0 <= self.p_value <= 1.0:
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
            "sample_size": self.sample_size,
            "converged": self.converged,
            "unit": self.unit,
            "demeaned": self.demeaned,
            "n_evaluations": self.n_evaluations,
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


def _neg_loglik_theta(theta: np.ndarray, x: np.ndarray, t: float) -> float:
    """Objective in unconstrained coordinates (log sigma1, log sigma2, q)."""
    sigma1 = math.exp(theta[0])
    sigma2 = math.exp(theta[1])
    if not (1e-12 < sigma1 < 1e12 and 1e-12 < sigma2 < 1e12):
        return 1e300
    p = TwoPhaseParams(sigma1, sigma2, theta[2])
    terms = _loglik_terms(p, x, t)
    if not np.all(np.isfinite(terms)):
        return 1e300
    return -float(terms.sum())


def _gradient(fn, theta: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = max(step, step * abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def _newton_polish(
    fn, theta: np.ndarray, tol: float, q_positive: bool
) -> tuple[np.ndarray, bool]:
    """Damped Newton descent restricted to the q-sign branch of the start."""
    theta = theta.copy()
    f_cur = fn(theta)
    converged = False
    for _ in range(50):
        grad = _gradient(fn, theta)
        try:
            hess = numerical_hessian(fn, theta)
            delta = np.linalg.solve(hess, -grad)
        except (HessianError, np.linalg.LinAlgError):
            delta = -grad
        if not np.all(np.isfinite(delta)):
            delta = -grad
        scale = 1.0
        improved = False
        for _ in range(12):
            cand = theta + scale * delta
            if q_positive:
                cand[2] = max(cand[2], 1e-300)
            else:
                cand[2] = min(cand[2], 0.0)
            f_new = fn(cand)
            if f_new < f_cur:
                step_size = float(np.max(np.abs(cand - theta)))
                theta, f_prev, f_cur = cand, f_cur, f_new
                improved = True
                if step_size < tol and f_prev - f_cur < tol:
                    converged = True
                break
            scale *= 0.5
        if converged or not improved:
            if not improved:
                converged = True  # local stationarity: no descent direction left
            break
    return theta, converged


def fit_two_phase(sample: ReturnSample, config: FitConfig | None = None) -> FitReport:
    """Fit (sigma1, sigma2, q) by maximum likelihood and test against the null.

    Multi-start Nelder-Mead in (log sigma1, log sigma2, q) explores both signs
    of q, then a damped Newton stage polishes the winning branch.  Standard
    errors come from the observed information (numerical Hessian) with the
    delta method mapping log-scale variances back to sigma; they are flagged
    approximate when q_hat sits within 1e-6 of a data point, where the
    likelihood has a kink.  The sample is sorted once (the likelihood ignores
    order, so a permutation gives an identical report); n_evaluations counts
    every objective call, the final one and the standard-error Hessian's too.
    """
    cfg = config or FitConfig()
    if sample.size < 10:
        raise DegenerateSampleError(
            f"need at least 10 observations to fit, got {sample.size}"
        )
    x = np.sort(sample.values)
    demeaned = cfg.demean
    if demeaned:
        x = x - x.mean()
    sample = ReturnSample(x, t=sample.t, unit=sample.unit, label=sample.label)

    sigma_null, loglik_null = fit_normal_null(sample)
    se_sigma_null = sigma_null / math.sqrt(2.0 * sample.size)

    n_evaluations = 0

    def fn(theta: np.ndarray) -> float:
        nonlocal n_evaluations
        n_evaluations += 1
        return _neg_loglik_theta(theta, x, sample.t)

    log_s = math.log(sigma_null)
    width = sigma_null * math.sqrt(sample.t)
    q_starts = [width, -width, 2.0 * width, -2.0 * width, -1e-12 * width]
    starts = [np.array([log_s, log_s, q0]) for q0 in q_starts[: cfg.n_starts]]

    best = None
    nm_converged = False
    if "simplex" in cfg.stages:
        for theta0 in starts:
            res = minimize(
                fn,
                theta0,
                method="Nelder-Mead",
                options={
                    "xatol": 1e-6,
                    "fatol": cfg.tol,
                    "maxiter": cfg.max_iter,
                    "maxfev": 4 * cfg.max_iter,
                },
            )
            if best is None or res.fun < best.fun:
                best = res
        theta = best.x.copy()
        nm_converged = bool(best.success)
    else:
        theta = starts[0]

    newton_converged = False
    if "newton" in cfg.stages:
        theta, newton_converged = _newton_polish(
            fn, theta, cfg.tol, q_positive=theta[2] > 0
        )

    sigma1_hat = math.exp(theta[0])
    sigma2_hat = math.exp(theta[1])
    q_hat = float(theta[2])
    loglik_alt = -fn(theta)
    lr, p_value = lr_test(loglik_alt, loglik_null)

    se_sigma1 = se_sigma2 = se_q = None
    se_status = "unavailable"
    try:
        hess = numerical_hessian(fn, theta)
        cov = np.linalg.inv(hess)
        variances = np.diag(cov)
        if np.all(np.linalg.eigvalsh(hess) > 0) and np.all(variances > 0):
            se_sigma1 = sigma1_hat * math.sqrt(variances[0])
            se_sigma2 = sigma2_hat * math.sqrt(variances[1])
            se_q = math.sqrt(variances[2])
            se_status = "ok"
            if np.min(np.abs(x - q_hat)) < 1e-6:
                se_status = "approximate"
    except (HessianError, np.linalg.LinAlgError):
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
        converged=bool(newton_converged or nm_converged),
        unit=sample.unit,
        demeaned=demeaned,
        se_status=se_status,
        n_evaluations=n_evaluations,
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
