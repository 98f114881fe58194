"""Tests for the conservative finite-difference solver and identity checks."""

import io
import json
import math

import numpy as np
import pytest

from helpers import semigroup_scalar
from multiphase.pde_oracle import (
    SolverFailure,
    SolverGrid,
    chapman_kolmogorov_check,
    report_to_json,
    solution_report,
    solve_for_system,
    solve_system,
    three_phase_flux,
    verify_identity_A10,
    verify_identity_A14,
    write_solution_csv,
)
from multiphase import pde_oracle, phase_kernel
from multiphase.phase_kernel import (
    DomainError,
    PhaseSystem,
    ThreePhaseParams,
    TwoPhaseParams,
    _pdf,
    _pieces,
    three_phase_pdf,
    three_phase_pdf_branch,
    two_phase_pdf,
)

CANONICAL = TwoPhaseParams(0.2, 0.3, -0.1)
THREE_CANONICAL = ThreePhaseParams(0.2, 0.3, 0.25, 0.4, -0.3)


def heat_kernel(x, sigma, t):
    scale = sigma * math.sqrt(t)
    return np.exp(-0.5 * (x / scale) ** 2) / (scale * math.sqrt(2.0 * math.pi))


class TestSolverGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolverGrid(x_min=1.0, x_max=-1.0, nx=2001, dt=1e-4)
        with pytest.raises(DomainError):
            SolverGrid(x_min=-1.0, x_max=1.0, nx=101, dt=1e-4)
        with pytest.raises(DomainError):
            SolverGrid(x_min=-1.0, x_max=1.0, nx=2001, dt=0.0)
        with pytest.raises(DomainError):
            SolverGrid(x_min=-1.0, x_max=1.0, nx=2001, dt=1e-4, t_warm=-0.1)

    def test_window_too_narrow_rejected(self):
        grid = SolverGrid(x_min=-0.5, x_max=0.5, nx=301, dt=1e-3)
        with pytest.raises(DomainError):
            solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 1.0)

    def test_t_end_before_warm_start_rejected(self):
        grid = SolverGrid(x_min=-4.0, x_max=4.0, nx=301, dt=1e-3, t_warm=0.05)
        with pytest.raises(DomainError):
            solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 0.01)


def test_non_finite_grid_rejected():
    with pytest.raises(DomainError):
        SolverGrid(x_min=-math.inf, x_max=4.0)
    with pytest.raises(DomainError):
        SolverGrid(x_min=-4.0, x_max=math.nan)
    with pytest.raises(DomainError):
        SolverGrid(x_min=-4.0, x_max=4.0, dt=math.inf)
    with pytest.raises(DomainError):
        SolverGrid(x_min=-4.0, x_max=4.0, t_warm=math.inf)


def dense_scheme(sys_: PhaseSystem, grid: SolverGrid, t_end: float):
    """The finite-volume scheme of solve_system's docstring, stepped with dense
    H +- (dt/2) L and numpy.linalg.solve: (x, u) at t_end."""
    edges = (grid.x_min, *reversed(sys_.boundaries), grid.x_max)
    target = (grid.x_max - grid.x_min) / grid.nx
    faces, diffusivity = [grid.x_min], []
    for a, b, sigma in zip(edges, edges[1:], reversed(sys_.sigmas)):
        n = max(1, round((b - a) / target))
        faces.extend(np.linspace(a, b, n + 1)[1:])
        diffusivity.extend([0.5 * sigma**2] * n)
    faces, diffusivity = np.array(faces), np.array(diffusivity)
    h = np.diff(faces)
    x = 0.5 * (faces[:-1] + faces[1:])
    c = 1.0 / (h[:-1] / (2.0 * diffusivity[:-1]) + h[1:] / (2.0 * diffusivity[1:]))
    lap = np.diag(np.r_[c, 0.0] + np.r_[0.0, c]) - np.diag(c, 1) - np.diag(c, -1)
    big_h = np.diag(h)

    j = int(np.searchsorted(x, 0.0, side="right")) - 1
    u = np.zeros(x.size)
    u[j] = x[j + 1] / (x[j + 1] - x[j]) / h[j]
    u[j + 1] = -x[j] / (x[j + 1] - x[j]) / h[j + 1]

    n_warm = math.ceil(grid.t_warm / grid.dt)
    dt_warm = grid.t_warm / n_warm
    n_steps = max(1, round((t_end - grid.t_warm) / grid.dt))
    dt_main = (t_end - grid.t_warm) / n_steps
    for _ in range(2):
        u = np.linalg.solve(big_h + 0.5 * dt_warm * lap, big_h @ u)
    for dt, n in [(dt_warm, n_warm - 1), (dt_main, n_steps)]:
        for _ in range(n):
            u = np.linalg.solve(
                big_h + 0.5 * dt * lap, (big_h - 0.5 * dt * lap) @ u
            )
    return x, u


class TestTextbookScheme:
    def test_matches_dense_steps(self):
        # 10 start-up steps (two implicit-Euler half-steps first), then 30 CN.
        grid = SolverGrid(x_min=-1.0, x_max=1.0, nx=201, dt=1e-3, t_warm=0.01)
        sys_ = PhaseSystem.from_two_phase(CANONICAL)
        solution = solve_system(sys_, grid, 0.04)
        x, u = dense_scheme(sys_, grid, 0.04)
        np.testing.assert_allclose(solution.x, x, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(solution.values - u)) / np.max(u) <= 1e-12
        assert solution.max_mass_deviation <= 1e-12

    def test_factorization_failure_raises(self):
        with pytest.raises(SolverFailure):
            pde_oracle._implicit_solver(
                np.array([1.0, -1.0, 1.0]), np.array([0.1, 0.1]), 1.0
            )


class TestSolveSystem:
    def test_single_phase_heat_kernel(self):
        grid = SolverGrid(x_min=-9.0, x_max=9.0, nx=2001, dt=1e-4)
        solution = solve_system(PhaseSystem(sigmas=(1.0,), boundaries=()), grid, 1.0)
        sup = np.max(np.abs(solution.values - heat_kernel(solution.x, 1.0, 1.0)))
        assert sup <= 1e-4

    def test_single_phase_mass_every_step(self):
        grid = SolverGrid(x_min=-9.0, x_max=9.0, nx=2001, dt=1e-3)
        solution = solve_system(PhaseSystem(sigmas=(1.0,), boundaries=()), grid, 1.0)
        assert abs(solution.mass - 1.0) <= 1e-6
        assert solution.max_mass_deviation <= 1e-6

    def test_two_phase_against_closed_form(self):
        grid = SolverGrid(x_min=-3.0, x_max=3.0, nx=2001, dt=1e-3)
        solution = solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 1.0)
        window = np.abs(solution.x) <= 1.0
        exact = np.array([two_phase_pdf(CANONICAL, x, 1.0) for x in solution.x])
        rel = np.max(np.abs(solution.values - exact)[window]) / np.max(exact[window])
        assert rel <= 1e-3

    def test_refinement_reduces_error(self):
        sys_ = PhaseSystem.from_two_phase(CANONICAL)
        errors = []
        for nx, dt in [(1001, 2e-3), (2001, 1e-3)]:
            grid = SolverGrid(x_min=-3.0, x_max=3.0, nx=nx, dt=dt)
            solution = solve_system(sys_, grid, 1.0)
            window = np.abs(solution.x) <= 1.0
            exact = np.array([two_phase_pdf(CANONICAL, x, 1.0) for x in solution.x])
            errors.append(
                np.max(np.abs(solution.values - exact)[window]) / np.max(exact[window])
            )
        assert errors[0] / errors[1] >= 3.0

    def test_nonnegativity(self):
        grid = SolverGrid(x_min=-3.0, x_max=3.0, nx=1001, dt=1e-3)
        solution = solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 1.0)
        assert float(np.min(solution.values)) >= -1e-10

    def test_boundary_snap_reported(self):
        grid = SolverGrid(x_min=-3.0, x_max=3.0, nx=1001, dt=1e-3)
        solution = solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 1.0)
        assert len(solution.boundary_snap) == 1
        assert 0.0 <= solution.boundary_snap[0] < (6.0 / 1000)

    def test_dt_effective_lands_on_t_end(self):
        grid = SolverGrid(x_min=-3.0, x_max=3.0, nx=1001, dt=7e-4)
        solution = solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 0.8)
        n_steps = round((0.8 - grid.t_warm) / solution.dt_effective)
        assert n_steps * solution.dt_effective == pytest.approx(
            0.8 - grid.t_warm, abs=1e-12
        )

    def test_independent_of_closed_forms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the solve called a closed form")

        grid = SolverGrid(x_min=-3.2, x_max=3.4, nx=1001, dt=1e-3)
        with monkeypatch.context() as patch:
            patch.setattr(phase_kernel, "_gaussian_pieces", refuse)
            patch.setattr(pde_oracle, "two_phase_pdf", refuse)
            two = solve_system(PhaseSystem.from_two_phase(CANONICAL), grid, 1.0)
            three = solve_system(
                PhaseSystem.from_three_phase(THREE_CANONICAL), grid, 1.0
            )
        for solution, exact in [
            (two, two_phase_pdf(CANONICAL, two.x, 1.0)),
            (three, three_phase_pdf(THREE_CANONICAL, three.x, 1.0)),
        ]:
            rel = np.max(np.abs(solution.values - exact)) / np.max(exact)
            assert rel <= 1e-3

    def test_generic_four_phase_solves(self):
        sys_ = PhaseSystem(sigmas=(0.2, 0.3, 0.25, 0.35), boundaries=(0.5, 0.2, -0.4))
        solution = solve_for_system(sys_, 0.5, nx=801, dt=1e-3)
        assert abs(solution.mass - 1.0) <= 1e-4
        assert float(np.min(solution.values)) >= -1e-10


@pytest.mark.parametrize(
    "sys_",
    [
        PhaseSystem(sigmas=(0.2, 0.3, 0.25, 0.35), boundaries=(0.5, 0.2, -0.4)),
        PhaseSystem(
            sigmas=(0.2, 0.35, 0.25, 0.3, 0.22),
            boundaries=(0.6, 0.25, -0.15, -0.5),
        ),
    ],
    ids=["four-phase", "five-phase"],
)
def test_many_phase_convergence_to_pieces(sys_):
    # Every boundary is a cell face, so the error falls at second order
    # instead of stalling at the distance a boundary was moved to fit the grid.
    errors = []
    for nx, dt in [(2001, 1e-3), (4001, 5e-4)]:
        solution = solve_for_system(sys_, 0.5, nx=nx, dt=dt)
        assert max(solution.boundary_snap) <= 1e-12
        exact = _pdf(_pieces(sys_, 0.5), solution.x)
        errors.append(np.max(np.abs(solution.values - exact)) / np.max(exact))
    assert errors[0] <= 1e-3
    assert errors[0] / errors[1] >= 3.0


class TestChapmanKolmogorov:
    GRID = SolverGrid(x_min=-2.0, x_max=2.0, nx=301, dt=1e-3)

    def test_gaussian_convolution_identity(self):
        err = chapman_kolmogorov_check(
            TwoPhaseParams(0.3, 0.3, -0.1), 0.4, 1.0, self.GRID
        )
        assert err <= 1e-10

    def test_two_phase_midpoint(self):
        err = chapman_kolmogorov_check(CANONICAL, 0.4, 1.0, self.GRID)
        assert err <= 1e-4

    def test_degenerate_split(self):
        err = chapman_kolmogorov_check(CANONICAL, 0.999, 1.0, self.GRID)
        assert err <= 1e-4

    def test_invalid_times(self):
        with pytest.raises(DomainError):
            chapman_kolmogorov_check(CANONICAL, 1.0, 1.0, self.GRID)

    def test_invariant_pairs(self):
        for s, t in [(0.2, 1.0), (0.4, 1.0), (0.5, 2.0)]:
            assert chapman_kolmogorov_check(CANONICAL, s, t, self.GRID) <= 1e-4


class TestSemigroupQuadrature:
    """The vector quadrature against one scalar quadrature per x."""

    @pytest.mark.parametrize("q", [-0.1, 0.15])
    @pytest.mark.parametrize("s", [0.4, 0.999])
    def test_matches_scalar_per_x(self, q, s):
        p = TwoPhaseParams(0.2, 0.3, q)
        xs = np.array([-1.2, -0.4, 0.0, q, 0.3, 1.1])
        values, err_est, calls = pde_oracle._semigroup(p, s, 1.0, xs)
        reference = np.array([semigroup_scalar(p, s, 1.0, x) for x in xs])
        assert np.max(np.abs(values - reference)) <= 1e-9
        assert 0.0 <= err_est <= 1e-8
        assert calls > 0

    def test_report_carries_error_estimate_and_calls(self):
        grid = SolverGrid(x_min=-2.0, x_max=2.0, nx=301, dt=1e-3)
        error, err_est, calls = pde_oracle._chapman_kolmogorov(
            CANONICAL, 0.4, 1.0, grid
        )
        assert error == chapman_kolmogorov_check(CANONICAL, 0.4, 1.0, grid)
        assert 0.0 <= err_est <= 1e-8
        assert calls > 0

    def test_infinite_horizon_rejected(self):
        with pytest.raises(DomainError):
            pde_oracle._semigroup(CANONICAL, 0.4, math.inf, np.array([0.0]))


class TestIdentityA14:
    def test_zero_parameters_give_pi(self):
        lhs, rhs = verify_identity_A14(0.0, 0.0, 2.0)
        assert lhs == pytest.approx(math.pi, abs=1e-8)
        assert rhs == pytest.approx(math.pi, abs=1e-15)

    def test_argument_swap_symmetry(self):
        lhs_ab, _ = verify_identity_A14(0.3, 0.5, 2.0)
        lhs_ba, _ = verify_identity_A14(0.5, 0.3, 2.0)
        assert lhs_ab == pytest.approx(lhs_ba, abs=1e-12)

    def test_reference_point(self):
        lhs, rhs = verify_identity_A14(0.3, 0.5, 2.0)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


class TestIdentityA10:
    def test_zero_boundary_gives_pi(self):
        lhs, rhs = verify_identity_A10(0.0, 0.045, 1.0)
        assert lhs == pytest.approx(math.pi, abs=1e-8)
        assert rhs == pytest.approx(math.pi, abs=1e-15)

    def test_sign_symmetry(self):
        lhs_pos, _ = verify_identity_A10(0.2, 0.045, 1.0)
        lhs_neg, _ = verify_identity_A10(-0.2, 0.045, 1.0)
        assert lhs_pos == lhs_neg

    def test_reference_point(self):
        lhs, rhs = verify_identity_A10(0.2, 0.045, 1.0)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


def test_identities_randomized_triples():
    rng = np.random.Generator(np.random.PCG64(777))
    for _ in range(20):
        q, a2, t = rng.uniform(0.05, 2.0, size=3)
        lhs, rhs = verify_identity_A10(q, a2, t)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))
        alpha, beta, t2 = rng.uniform(0.05, 2.0, size=3)
        lhs, rhs = verify_identity_A14(alpha, beta, t2)
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


class TestThreePhaseFlux:
    def test_mirror_antisymmetry(self):
        p = ThreePhaseParams(0.2, 0.3, 0.2, 0.35, -0.35)
        g1, g2 = three_phase_flux(p, 1.0)
        assert g1 == pytest.approx(-g2, abs=1e-10)

    @staticmethod
    def _one_sided(f, x0, h, side):
        coeffs = (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25)
        return side * sum(c * f(x0 + side * k * h) for k, c in enumerate(coeffs)) / h

    def test_g1_matches_branch_derivative(self):
        p = THREE_CANONICAL
        g1, _ = three_phase_flux(p, 1.0)
        derivative = self._one_sided(
            lambda x: three_phase_pdf_branch(p, x, 1.0)[0], p.q1, 1e-5, +1
        )
        assert g1 == pytest.approx(0.5 * p.sigma1**2 * derivative, abs=1e-5)

    def test_g2_matches_branch_derivative(self):
        p = THREE_CANONICAL
        _, g2 = three_phase_flux(p, 1.0)
        derivative = self._one_sided(
            lambda x: three_phase_pdf_branch(p, x, 1.0)[2], p.q2, 1e-5, -1
        )
        assert g2 == pytest.approx(0.5 * p.sigma3**2 * derivative, abs=1e-5)


class TestSerialization:
    def test_solution_csv(self):
        solution = solve_for_system(
            PhaseSystem.from_two_phase(CANONICAL), 0.5, nx=501, dt=1e-3
        )
        buffer = io.StringIO()
        write_solution_csv(solution, buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == solution.x.size + 1

    def test_report_round_trip(self):
        solution = solve_for_system(
            PhaseSystem.from_two_phase(CANONICAL), 0.5, nx=501, dt=1e-3
        )
        report = solution_report(
            solution,
            reference=lambda xs: np.array(
                [two_phase_pdf(CANONICAL, x, 0.5) for x in xs]
            ),
            window=(-1.0, 1.0),
        )
        parsed = json.loads(report_to_json(report))
        assert "mass" in parsed
        assert "sup_error_vs_closed_form" in parsed
        assert "grid" in parsed
        assert parsed["sup_error_vs_closed_form"] <= 1e-2
