"""Shared numerical primitives: array normal CDF, quadrature, Hessians, RNG.

Everything here is a thin, contract-checked layer over scipy/numpy so that the
rest of the package has a single place to look for tolerances and failure
semantics.  All functions are pure; random state is an explicit value.
Each function imports the SciPy subpackage it wraps on its first call
(scipy.special for the normal CDF, scipy.integrate for quadrature), so
importing this module loads numpy alone.  Scalar normal tails elsewhere in
the package are math.erfc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RngState",
    "QuadratureError",
    "HessianError",
    "std_normal_cdf",
    "integrate_adaptive",
    "integrate_vector",
    "numerical_hessian",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the best estimate
    (an array for a vector integrand) and its error estimate."""

    def __init__(self, message: str, best_estimate, err_est: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.err_est = err_est


class HessianError(ValueError):
    """Objective returned a non-finite value during differencing."""


@dataclass(frozen=True)
class RngState:
    """Explicit, value-semantics random state on PCG64: same seed, same stream."""

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def advanced(self, generator: np.random.Generator) -> "RngState":
        """Next state after use: reseed from one further draw of the stream."""
        new_seed = int(generator.integers(0, 2**64, dtype=np.uint64))
        return replace(self, seed=new_seed)


def std_normal_cdf(z):
    """Standard normal CDF Phi(z); accepts scalars or arrays."""
    from scipy import special

    return special.ndtr(z)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    limit: int = 200,
) -> tuple[float, float]:
    """Adaptive quadrature of f over (a, b); endpoints may be +-inf.

    tol is both the absolute and the relative tolerance, and limit the
    subdivision budget; SciPy rejects tol <= 0 or limit < 1 with ValueError.
    Returns (value, error_estimate).  Integrable endpoint singularities of the
    1/sqrt kind are handled by the underlying subdivision+extrapolation rule.
    Raises QuadratureError (carrying the best estimate) on non-convergence.
    """
    from scipy import integrate

    out = integrate.quad(
        f, a, b, epsabs=tol, epsrel=tol, limit=limit, full_output=True
    )
    if len(out) >= 4:
        value, err_est = out[0], out[1]
        raise QuadratureError(str(out[3]), best_estimate=value, err_est=err_est)
    value, err_est = out[0], out[1]
    return value, err_est


def integrate_vector(
    f: Callable[[float], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-10,
    limit: int = 200,
    points: Sequence[float] = (),
) -> tuple[np.ndarray, float, int]:
    """Adaptive quadrature of a vector-valued f over [a, b], split at points.

    Every component shares one Gauss-Kronrod subdivision, refined until the
    max-norm error estimate meets tol, absolute and relative, within limit
    subdivisions.  Returns (values, error_estimate, integrand_calls).  Raises
    QuadratureError (carrying the best estimate) on non-convergence, which
    includes tol <= 0 and limit < 1.
    """
    from scipy import integrate

    values, err_est, info = integrate.quad_vec(
        f, a, b, epsabs=tol, epsrel=tol, norm="max", limit=limit,
        points=points, full_output=True,
    )
    if not info.success:
        raise QuadratureError(info.message, best_estimate=values, err_est=err_est)
    return values, err_est, info.neval


def numerical_hessian(
    f: Callable[[np.ndarray], float],
    x: Sequence[float],
    step: float = 1e-5,
) -> np.ndarray:
    """Symmetric central-difference Hessian with h_i = max(step, step*|x_i|)."""
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    x = np.asarray(x, dtype=float)
    k = x.size
    h = np.maximum(step, step * np.abs(x))

    def ev(point: np.ndarray) -> float:
        val = float(f(point))
        if not np.isfinite(val):
            raise HessianError(f"objective non-finite at {point.tolist()}")
        return val

    f0 = ev(x)
    hess = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        hess[i, i] = (ev(x + ei) - 2.0 * f0 + ev(x - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                ev(x + ei + ej) - ev(x + ei - ej) - ev(x - ei + ej) + ev(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return 0.5 * (hess + hess.T)
