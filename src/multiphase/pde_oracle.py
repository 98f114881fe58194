"""Independent numerical ground truth for the interface diffusion system.

A conservative finite-volume Crank-Nicolson solver for du/dt = d/dx(D du/dx)
with piecewise-constant D = sigma_k^2/2 on a grid with a cell face at every
boundary, started from a discrete delta at 0 so that no closed form enters
the solve, plus semigroup and integral-identity checks used to cross-validate
every closed form in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .numerics import erfc, integrate_adaptive, integrate_vector
from .phase_kernel import (
    DomainError,
    ModelLike,
    ThreePhaseParams,
    TwoPhaseParams,
    _csv,
    _pdf,
    _pieces,
    two_phase_pdf,
)

__all__ = [
    "SolverFailure",
    "SolverGrid",
    "GridSolution",
    "solve_system",
    "solve_for_system",
    "chapman_kolmogorov_check",
    "verify_identity_A10",
    "verify_identity_A14",
    "three_phase_flux",
    "write_solution_csv",
    "solution_report",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SolverFailure(RuntimeError):
    """The solve violated a sanity bound (mass drift, negativity); see message."""


@dataclass(frozen=True)
class SolverGrid:
    """Requested discretization: spatial window, cell count, step, start-up time."""

    x_min: float
    x_max: float
    nx: int = 2001
    dt: float = 1e-4
    t_warm: float = 0.05

    def __post_init__(self):
        if not -math.inf < self.x_min < self.x_max < math.inf:
            raise DomainError(
                f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if self.nx < 201:
            raise DomainError(f"nx must be >= 201, got {self.nx}")
        if not 0 < self.dt < math.inf:
            raise DomainError(f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.t_warm < math.inf:
            raise DomainError(f"t_warm must be positive and finite, got {self.t_warm}")


@dataclass(frozen=True)
class GridSolution:
    """Discrete density u(x, t) on cell centers, with conservation diagnostics."""

    grid: SolverGrid
    t: float
    x: np.ndarray
    values: np.ndarray
    mass: float
    max_mass_deviation: float
    boundary_snap: tuple[float, ...]
    dt_effective: float


def _implicit_solver(h: np.ndarray, conductance: np.ndarray, dt: float):
    """v = A^-1 (h u) for A = H + (dt/2) L, factored once for this dt.

    H is the diagonal of cell widths and L the conductance Laplacian with
    closed ends, so A is symmetric positive definite and tridiagonal: LAPACK
    dpttrf factors it as L D L^T without pivoting, and dpttrs solves.  The
    returned v is the implicit-Euler step of dt/2, and 2 v - u is the
    Crank-Nicolson step of dt, since its right-hand side (H - (dt/2) L) u is
    (2 H - A) u.  Raises SolverFailure if the factorization breaks down.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs

    coupling = 0.5 * dt * conductance
    main = h.copy()
    main[:-1] += coupling
    main[1:] += coupling
    d, e, info = dpttrf(main, -coupling)
    if info != 0:
        raise SolverFailure(
            f"dpttrf could not factor H + (dt/2) L at dt={dt:.3g} (info {info})"
        )

    def solve(u: np.ndarray) -> np.ndarray:
        return dpttrs(d, e, h * u, overwrite_b=True)[0]

    return solve


def solve_system(sys: ModelLike, grid: SolverGrid, t_end: float) -> GridSolution:
    """Finite-volume solve of the interface system from a point mass at 0.

    sys is any model with sigmas (top-down) and boundaries (decreasing).

    Every boundary is a cell face: each phase interval, cut at the window
    ends, holds max(1, round(length / ((x_max - x_min) / nx))) uniform cells,
    and every face gets the conductance 1/(h_i/(2 D_i) + h_(i+1)/(2 D_(i+1))),
    D = sigma^2/2.  The start is a discrete delta (unit mass, zero first
    moment) on the two cell centers around 0; ceil(t_warm/dt) steps reach
    t_warm, the first of them two implicit-Euler half-steps (Rannacher
    start-up), and Crank-Nicolson steps of dt_effective run on to t_end.
    Far-field faces are closed, so the cell mass sum(h*u) stays 1 to
    rounding; raises SolverFailure if it drifts by more than 1e-4 or the
    solution dips below -1e-10.
    """
    if not t_end > grid.t_warm:
        raise DomainError(f"t_end={t_end} must exceed t_warm={grid.t_warm}")
    lo_required, hi_required = _window(sys, t_end, 8.0)
    if grid.x_min > lo_required or grid.x_max < hi_required:
        raise DomainError(
            f"window [{grid.x_min}, {grid.x_max}] too narrow; need "
            f"[{lo_required:.3g}, {hi_required:.3g}] to keep far-field mass negligible"
        )

    # Phase intervals bottom-up: edges ascend, sigmas run top-down.
    edges = (grid.x_min, *reversed(sys.boundaries), grid.x_max)
    target = (grid.x_max - grid.x_min) / grid.nx
    counts = [max(1, round((b - a) / target)) for a, b in zip(edges, edges[1:])]
    faces = np.concatenate(
        [[grid.x_min]]
        + [np.linspace(a, b, n + 1)[1:] for a, b, n in zip(edges, edges[1:], counts)]
    )
    snaps = tuple(float(np.min(np.abs(faces - q))) for q in sys.boundaries)
    h = np.diff(faces)
    x = 0.5 * (faces[:-1] + faces[1:])
    diffusivity = np.repeat(0.5 * np.asarray(sys.sigmas[::-1]) ** 2, counts)
    conductance = 1.0 / (
        h[:-1] / (2.0 * diffusivity[:-1]) + h[1:] / (2.0 * diffusivity[1:])
    )

    j = int(np.searchsorted(x, 0.0, side="right")) - 1
    u = np.zeros(x.size)
    u[j] = x[j + 1] / (x[j + 1] - x[j]) / h[j]
    u[j + 1] = -x[j] / (x[j + 1] - x[j]) / h[j + 1]

    n_warm = math.ceil(grid.t_warm / grid.dt)
    warm = _implicit_solver(h, conductance, grid.t_warm / n_warm)
    n_steps = max(1, round((t_end - grid.t_warm) / grid.dt))
    dt_eff = (t_end - grid.t_warm) / n_steps
    main = _implicit_solver(h, conductance, dt_eff)
    # (solver, Crank-Nicolson?): two implicit-Euler half-steps, then CN.
    schedule = (
        [(warm, False)] * 2 + [(warm, True)] * (n_warm - 1) + [(main, True)] * n_steps
    )
    max_dev = 0.0
    for solve, crank_nicolson in schedule:
        v = solve(u)
        u = 2.0 * v - u if crank_nicolson else v
        max_dev = max(max_dev, abs(float(h @ u) - 1.0))

    mass = float(h @ u)
    solution = GridSolution(
        grid=grid,
        t=t_end,
        x=x,
        values=u,
        mass=mass,
        max_mass_deviation=max_dev,
        boundary_snap=snaps,
        dt_effective=dt_eff,
    )
    if not abs(mass - 1.0) <= 1e-4:
        raise SolverFailure(
            f"mass drift |{mass:.8f} - 1| > 1e-4 (max step deviation {max_dev:.3g})"
        )
    floor = float(u.min())
    if floor < -1e-10:
        raise SolverFailure(
            f"negative density {floor:.3g} < -1e-10 at x={x[u.argmin()]:.4g}"
        )
    return solution


def _window(sys: ModelLike, t: float, scales: float = 8.5) -> tuple[float, float]:
    """[min(boundaries, 0), max(boundaries, 0)] widened on each side by scales
    times max(sigma) sqrt(t): the window solve_for_system sizes (8.5 scales),
    or the narrowest that solve_system accepts (8)."""
    span = scales * max(sys.sigmas) * math.sqrt(t)
    return min((*sys.boundaries, 0.0)) - span, max((*sys.boundaries, 0.0)) + span


def solve_for_system(
    sys: ModelLike,
    t_end: float,
    nx: int = 2001,
    dt: float = 1e-3,
    t_warm: float = 0.05,
) -> GridSolution:
    """solve_system with an automatically sized window for the given horizon."""
    if t_end <= t_warm:
        t_warm = t_end / 2.0
    grid = SolverGrid(*_window(sys, t_end), nx=nx, dt=dt, t_warm=t_warm)
    return solve_system(sys, grid, t_end)


def chapman_kolmogorov_check(
    p: TwoPhaseParams, s: float, t: float, grid: SolverGrid
) -> float:
    """Max abs deviation of the time-s/time-(t-s) convolution from the time-t law.

    The convolution is int p_s(y) p_(t-s)(y -> x) dy, checked at 61 x points
    spanning the grid window with x = 0 and x = q inserted.  Restarted from
    y, the law sees its boundary at q - y, so the inner factor is the
    two-phase law with boundary q - y evaluated at x - y; the outer time-s
    law is fixed, so its Gaussian pieces are built once.  The integrand is
    the vector over all x, integrated by one adaptive quadrature in y within
    13 outer scales of [min(q, 0), max(q, 0)], with a break at y = q, where
    the source crosses the boundary, the one kink in y of both factors (the
    inner factor's kink sits at x = q for every y).  So that no peak, about
    w = min(sigma) sqrt(min(s, t - s)) wide, falls between the nodes, the
    range starts cut into equal panels at most 40 w wide, refined up to 400
    subdivisions.  Beyond 50 panels that leaves too little room, so the check
    raises DomainError rather than return a wrong error: with q = 0 and s
    near t, once (t - s)/s < 1.69e-4 (max(sigma)/min(sigma))^2.
    (0.2, 0.3, -0.1) passes at s = 0.999 t and raises at s = 0.9998 t.
    """
    return _chapman_kolmogorov(p, s, t, grid)[0]


def _chapman_kolmogorov(
    p: TwoPhaseParams, s: float, t: float, grid: SolverGrid
) -> tuple[float, float, int]:
    """chapman_kolmogorov_check with the quadrature's error estimate and
    number of integrand calls: (max_abs_error, error_estimate, calls)."""
    xs = np.unique(
        np.concatenate([np.linspace(grid.x_min, grid.x_max, 61), [0.0, p.q]])
    )
    values, err_est, calls = _semigroup(p, s, t, xs)
    worst = float(np.max(np.abs(values - two_phase_pdf(p, xs, t))))
    return worst, err_est, calls


def _semigroup(
    p: TwoPhaseParams, s: float, t: float, xs: np.ndarray
) -> tuple[np.ndarray, float, int]:
    """The convolution (p_s o p_(t-s))(x) at every x of xs, by the quadrature
    of chapman_kolmogorov_check: (values, error_estimate, calls)."""
    if not 0 < s < t < math.inf:
        raise DomainError(f"need 0 < s < t < inf, got s={s}, t={t}")
    smax, smin = max(p.sigmas), min(p.sigmas)
    y_lo = min(p.q, 0.0) - 13.0 * smax * math.sqrt(s)
    y_hi = max(p.q, 0.0) + 13.0 * smax * math.sqrt(s)
    width = smin * math.sqrt(min(s, t - s))
    panels = math.ceil((y_hi - y_lo) / (40.0 * width))
    if panels > 50:
        raise DomainError(f"s={s}, t={t}: peaks {width:.3g} wide need "
                          f"{panels} quadrature panels, more than 50")
    outer = _pieces(p, s)

    def integrand(y: float) -> np.ndarray:
        inner = TwoPhaseParams(p.sigma1, p.sigma2, p.q - y)
        return _pdf(outer, y) * two_phase_pdf(inner, xs - y, t - s)

    points = (p.q, *np.linspace(y_lo, y_hi, panels + 1)[1:-1])
    return integrate_vector(integrand, y_lo, y_hi, tol=1e-9, limit=400, points=points)


def verify_identity_A10(q: float, a2: float, t: float) -> tuple[float, float]:
    """Time integral of the one-sided heat-flux kernel vs its erfc closed form.

    lhs = integral_0^t exp(-q^2/(4 a2 tau)) tau^{-1/2} (t-tau)^{-1/2} dtau,
    rhs = pi * erfc(|q| / (2 sqrt(a2 t))): the case alpha = 0,
    beta = q/(2 sqrt(a2)) of verify_identity_A14, whose integrand it is.
    """
    if not (a2 > 0 and t > 0):
        raise DomainError(f"need a2 > 0 and t > 0, got a2={a2}, t={t}")
    return verify_identity_A14(0.0, q / (2.0 * math.sqrt(a2)), t)


def verify_identity_A14(alpha: float, beta: float, t: float) -> tuple[float, float]:
    """Two-sided singular convolution integral vs its erfc closed form.

    lhs = integral_0^t exp(-alpha^2/(t-tau)) exp(-beta^2/tau)
          tau^{-1/2} (t-tau)^{-1/2} dtau,
    computed after the substitution tau = t sin^2(theta), which removes both
    endpoint singularities; rhs = pi * erfc((|alpha| + |beta|) / sqrt(t)).
    """
    if not t > 0:
        raise DomainError(f"need t > 0, got {t}")

    def integrand(theta: float) -> float:
        sin_sq = math.sin(theta) ** 2
        cos_sq = 1.0 - sin_sq
        if sin_sq == 0.0 or cos_sq == 0.0:
            return 0.0
        return math.exp(-alpha * alpha / (t * cos_sq) - beta * beta / (t * sin_sq))

    value, _ = integrate_adaptive(integrand, 0.0, math.pi / 2.0, tol=1e-12)
    lhs = 2.0 * value
    rhs = math.pi * float(erfc((abs(alpha) + abs(beta)) / math.sqrt(t)))
    return lhs, rhs


def three_phase_flux(p: ThreePhaseParams, t: float) -> tuple[float, float]:
    """Closed-form interface fluxes (g1 at q1, g2 at q2) of the three-phase law.

    g1 = (sigma1^2/2) du1/dx at q1 and g2 = (sigma3^2/2) du3/dx at q2, the
    exact derivatives of the outer phases' Gaussian pieces (see
    phase_kernel._gaussian_pieces); flux continuity makes them equal to the
    phase-2 values.  A piece w N(x; m, s^2) of phase k, s = sigma_k sqrt(t),
    contributes -(w/(2t)) (x - m) N(x; m, s^2).
    """
    phases = _pieces(p, t)

    def flux(phase, x: float) -> float:
        _, _, scale, pieces = phase
        return -sum(
            w * (x - m) * math.exp(-0.5 * ((x - m) / scale) ** 2) for w, m in pieces
        ) / (2.0 * t * _SQRT_2PI * scale)

    return flux(phases[0], p.q1), flux(phases[2], p.q2)


def write_solution_csv(solution: GridSolution, stream: TextIO) -> None:
    """Serialize a GridSolution as `x,u` rows (12 significant digits)."""
    stream.write(_csv({"x": solution.x, "u": solution.values}))


def solution_report(
    solution: GridSolution,
    reference: Callable[[np.ndarray], np.ndarray] | None = None,
    window: tuple[float, float] | None = None,
) -> dict:
    """JSON-ready report: mass, grid metadata, and sup error vs a closed form."""
    report = {
        "t": solution.t,
        "mass": solution.mass,
        "max_mass_deviation": solution.max_mass_deviation,
        "boundary_snap": list(solution.boundary_snap),
        "grid": {
            "x_min": solution.grid.x_min,
            "x_max": solution.grid.x_max,
            "nx": solution.grid.nx,
            "n_cells": int(solution.x.size),
            "dt": solution.grid.dt,
            "dt_effective": solution.dt_effective,
            "t_warm": solution.grid.t_warm,
        },
        "sup_error_vs_closed_form": None,
    }
    if reference is not None:
        lo, hi = window if window is not None else (solution.x[0], solution.x[-1])
        mask = (solution.x >= lo) & (solution.x <= hi)
        ref_vals = np.asarray(reference(solution.x[mask]), dtype=float)
        err = np.max(np.abs(solution.values[mask] - ref_vals)) / np.max(
            np.abs(ref_vals)
        )
        report["sup_error_vs_closed_form"] = float(err)
        report["window"] = [float(lo), float(hi)]
    return report
