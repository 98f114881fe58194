"""Grid-refinement study: closed-form densities vs the conservative solver.

For each resolution the script reports the relative sup error between the
closed-form density and a finite-volume solve of the interface system at
t = 1.  The solve has a cell face at every boundary and starts from a
discrete delta at 0 (two implicit-Euler half-steps, then Crank-Nicolson), so
no closed form enters it.  Both the two-phase and the three-phase errors
shrink 3.4x or more per halving of dx and dt (second order).

Usage: python3 scripts/pde_convergence.py [--t 1.0]
"""

import argparse

import numpy as np

from multiphase.pde_oracle import SolverGrid, solve_system
from multiphase.phase_kernel import (
    PhaseSystem,
    ThreePhaseParams,
    TwoPhaseParams,
    three_phase_pdf,
    two_phase_pdf,
)

TWO_PHASE = TwoPhaseParams(0.2, 0.3, -0.1)
THREE_PHASE = ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)
LEVELS = [(1001, 2e-4), (2001, 1e-4), (4001, 5e-5)]


def sup_error(system, reference, nx, dt, t, window=1.0):
    grid = SolverGrid(x_min=-3.2, x_max=3.4, nx=nx, dt=dt)
    solution = solve_system(system, grid, t)
    mask = np.abs(solution.x) <= window
    exact = np.array([reference(x) for x in solution.x[mask]])
    return float(np.max(np.abs(solution.values[mask] - exact)) / np.max(exact))


def run_study(label, system, reference, t):
    print(f"\n{label}: relative sup error on |x| <= 1 at t = {t}")
    print(f"{'nx':>6} {'dt':>9} {'sup error':>12} {'ratio':>7}")
    previous = None
    for nx, dt in LEVELS:
        error = sup_error(system, reference, nx, dt, t)
        ratio = f"{previous / error:7.2f}" if previous else "      -"
        print(f"{nx:>6} {dt:>9.0e} {error:>12.3e} {ratio}")
        previous = error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=float, default=1.0, help="comparison time")
    args = parser.parse_args(argv)

    run_study(
        "two-phase (0.2, 0.3, -0.1)",
        PhaseSystem.from_two_phase(TWO_PHASE),
        lambda x: two_phase_pdf(TWO_PHASE, x, args.t),
        args.t,
    )
    run_study(
        "three-phase (0.2, 0.3, 0.25, 0.4, -0.3)",
        PhaseSystem.from_three_phase(THREE_PHASE),
        lambda x: three_phase_pdf(THREE_PHASE, x, args.t),
        args.t,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
