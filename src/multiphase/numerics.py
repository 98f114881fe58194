"""Shared numerical primitives: array normal CDF, quadrature, Hessians, RNG.

Everything here is a contract-checked layer over numpy, with two thin
SciPy wrappers, so that the rest of the package has a single place to look
for tolerances and failure semantics.  All functions are pure; random state
is an explicit value.  The wrappers import the SciPy subpackage they wrap on
their first call (scipy.special for the array normal CDF, scipy.integrate
for the scalar integrate_adaptive), so importing this module loads numpy
alone.  integrate_vector, the vector quadrature of the semigroup and
identity checks, is an in-house port of scipy.integrate.quad_vec's
Gauss-Kronrod scheme for finite bounds, and loads no SciPy.  Scalar normal
tails elsewhere in the package are math.erfc.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
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
    includes tol <= 0 and limit < 1, and ValueError unless a and b are finite.

    A port of scipy.integrate.quad_vec with norm="max" on finite bounds,
    step for step: QUADPACK's 21-point rule and error estimate on each
    interval (_gk21), a heap of intervals by error, batches of up to 128 of
    the worst while their error sum stays within the global error less
    tol/8, each bisected, and a stop once the global error is below tol/8
    (else on rounding error or non-finite errors; quad_vec also asks for at
    least 2 intervals, which every batch leaves).  Its sums add node by
    node, as quad_vec's do, so on a vector of two or more components it
    makes the same integrand calls and returns the same values and error
    estimate to the last bit.  Infinite bounds, which quad_vec maps onto
    finite ones, are not taken; tol <= 0 fails after the first pass, where
    quad_vec would bisect until a stop rule fires.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    edges = [a]
    for p in sorted(map(float, points)):
        if a < p < b and p != edges[-1]:
            edges.append(p)
    edges.append(b)

    # Heap entries (-error, x1, x2, serial, integral): the serial orders equal
    # keys, which only zero-length intervals at float resolution can share,
    # so that heapq never compares two integrals.
    serial = itertools.count()
    heap, total, error, rounding = [], 0.0, 0.0, 0.0
    for x1, x2 in zip(edges, edges[1:]):
        ig, err, rnd = _gk21(f, x1, x2)
        total, error, rounding = total + ig, error + err, rounding + rnd
        heap.append((-err, x1, x2, next(serial), ig))
    heapq.heapify(heap)
    calls = 21 * len(heap)
    if not tol > 0:
        raise QuadratureError(
            f"tol must be > 0, got {tol}", best_estimate=total, err_est=error + rounding
        )

    status = "Target precision not reached."
    goal = max(tol, tol * float(np.max(np.abs(total))))
    while heap and len(heap) < limit:
        batch, err_sum = [], 0.0
        for j in range(128):
            if not heap or (j > 0 and err_sum > error - goal / 8):
                break
            batch.append(heapq.heappop(heap))
            err_sum -= batch[-1][0]
        for neg_old_err, x1, x2, _, old in batch:
            c = 0.5 * (x1 + x2)
            (ig1, err1, rnd1), (ig2, err2, rnd2) = _gk21(f, x1, c), _gk21(f, c, x2)
            calls += 42
            total = total + (ig1 + ig2 - old)
            error += err1 + err2 + neg_old_err
            rounding += rnd1 + rnd2
            heapq.heappush(heap, (-err1, x1, c, next(serial), ig1))
            heapq.heappush(heap, (-err2, c, x2, next(serial), ig2))
        goal = max(tol, tol * float(np.max(np.abs(total))))
        if error < goal / 8:
            return total, error + rounding, calls
        if error < rounding:
            status = "Target precision could not be reached due to rounding error."
            break
        if not (math.isfinite(error) and math.isfinite(rounding)):
            status = "Non-finite values encountered."
            break
    raise QuadratureError(
        f"{status} ({len(heap)} intervals, limit {limit})",
        best_estimate=total, err_est=error + rounding,
    )


#: QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21), with the digits
#: of scipy.integrate._quad_vec._quadrature_gk21: the ten positive nodes
#: descending, then 0, then their negatives.  The 10-point Gauss rule uses
#: the odd-indexed nodes.
_GK21_POSITIVE = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_GK21_NODES = (*_GK21_POSITIVE, 0.0, *(-x for x in reversed(_GK21_POSITIVE)))
_KRONROD_HALF = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_KRONROD = np.array([*_KRONROD_HALF, *reversed(_KRONROD_HALF[:-1])])[:, None]
_GAUSS_HALF = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GAUSS = np.array([*_GAUSS_HALF, *reversed(_GAUSS_HALF)])[:, None]


def _gk21(f: Callable[[float], np.ndarray], a: float, b: float):
    """f over [a, b] by the 21-point Kronrod rule: (integral, error, rounding).

    The error is QUADPACK's: the Kronrod-Gauss difference, in the max norm,
    scaled by dabs min(1, (200 err/dabs)^1.5) with dabs the rule's integral
    of |f - mean|, and raised to the rounding floor 50 eps h int|f| when that
    is a normal number.  The 21 values of f are stacked as rows, and each sum
    is one weighted sum down the rows, which numpy adds row by row, as
    quad_vec's loop does, when f has two or more components.  A matrix
    product adds in another order, and the error estimate, from a
    difference of two nearly equal sums, then moved by up to 9e-5 relative
    on the semigroup check's integrand.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.array([f(c + h * x) for x in _GK21_NODES], dtype=float)
    if fv.ndim != 2:
        raise ValueError(
            f"the integrand must return a 1-D array, got shape {fv.shape[1:]}"
        )
    s_k = (_KRONROD * fv).sum(axis=0)
    err = float(np.max(np.abs((s_k - (_GAUSS * fv[1::2]).sum(axis=0)) * h)))
    dabs = float(np.max(np.abs((_KRONROD * np.abs(fv - s_k / 2.0)).sum(axis=0) * h)))
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    s_abs = (_KRONROD * np.abs(fv)).sum(axis=0)
    rounding = float(np.max(np.abs(50 * sys.float_info.epsilon * h * s_abs)))
    if rounding > sys.float_info.min:
        err = max(err, rounding)
    return h * s_k, err, rounding


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
