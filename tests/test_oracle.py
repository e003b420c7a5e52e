import numpy as np
import pytest

from ilse import (
    OptimizationError,
    RankDeficiencyError,
    backward_error_estimate,
    least_squares_multiplier,
    minimize_estimate,
    solve_ilse,
)
from ilse import oracle
from ilse.oracle import estimate_gradient_fd, estimate_on_grid, estimate_via_normal_equations

from conftest import solved_case, t1_grid_minimum

Y01 = np.array([0.1])


class TestMinimizeEstimate:
    def test_exact_solution_gives_zero(self, t1, unit_weights):
        sol = solve_ilse(t1)
        result = minimize_estimate(t1, sol.x, unit_weights, xi0=sol.xi, seed=5)
        assert result.rho_star <= 1e-12
        assert result.xi_star == pytest.approx(sol.xi, abs=1e-4)

    def test_matches_exhaustive_grid_on_t1(self, t1, unit_weights):
        xi_grid, rho_grid = t1_grid_minimum()
        result = minimize_estimate(t1, Y01, unit_weights, seed=3)
        assert result.rho_star <= rho_grid + 1e-12
        assert abs(result.rho_star - rho_grid) <= 1e-3

    def test_no_constraints_evaluates_once(self, unit_weights):
        problem, sol, _, psol = solved_case(21, s=0)
        result = minimize_estimate(problem, psol.x, unit_weights, xi0=sol.xi, seed=2)
        assert result.converged and result.iterations == 1
        assert result.xi_star.shape == (0,)
        assert result.rho_star == backward_error_estimate(problem, psol.x, np.zeros(0), unit_weights)

    def test_all_failures_raise(self, t1, unit_weights, monkeypatch):
        def always_rank_deficient(problem, y, xi, w):
            raise RankDeficiencyError("forced", sigma_min=0.0)

        monkeypatch.setattr(oracle, "backward_error_estimate", always_rank_deficient)
        with pytest.raises(OptimizationError):
            minimize_estimate(t1, Y01, unit_weights, seed=1)


class TestGrid:
    def test_requires_single_constraint(self, unit_weights):
        problem, sol, pert, psol = solved_case(31, s=2)
        with pytest.raises(ValueError):
            estimate_on_grid(problem, psol.x, unit_weights, 0.0, 1.0, 0.1)

    def test_grid_value_matches_direct_evaluation(self, t1, unit_weights):
        xi_star, rho_star = estimate_on_grid(t1, Y01, unit_weights, 0.8, 1.0, 1e-3)
        direct = estimate_via_normal_equations(t1, Y01, np.array([xi_star]), unit_weights)
        assert rho_star == pytest.approx(direct, rel=1e-12)


class TestGradient:
    def test_small_at_grid_minimum(self, t1, unit_weights):
        xi_star, _ = t1_grid_minimum()
        h = 1e-4
        grad = estimate_gradient_fd(t1, Y01, np.array([xi_star]), unit_weights, h=h)
        assert abs(grad[0]) <= 10 * h

    def test_vanishes_at_exact_solution(self, t1, unit_weights):
        sol = solve_ilse(t1)
        h = 1e-6
        grad = estimate_gradient_fd(t1, sol.x, sol.xi, unit_weights, h=h)
        assert np.all(np.abs(grad) <= 10 * h)

    def test_directional_consistency(self, unit_weights):
        problem, sol, pert, psol = solved_case(55, s=3)
        y = psol.x
        xi = 1.3 * least_squares_multiplier(problem, y) + 0.05
        h = 1e-6 * (1 + np.linalg.norm(xi))
        grad = estimate_gradient_fd(problem, y, xi, unit_weights, h=h)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(problem.s)
        u /= np.linalg.norm(u)
        up = backward_error_estimate(problem, y, xi + h * u, unit_weights)
        down = backward_error_estimate(problem, y, xi - h * u, unit_weights)
        directional = (up - down) / (2 * h)
        assert directional == pytest.approx(float(grad @ u), rel=1e-4, abs=1e-12)


class TestNormalEquationsOracle:
    def test_agrees_with_qr_path_on_benign_instances(self, unit_weights):
        for seed in range(5):
            problem, sol, pert, psol = solved_case(seed + 40)
            y = psol.x
            xi1 = least_squares_multiplier(problem, y)
            qr = backward_error_estimate(problem, y, xi1, unit_weights)
            gram = estimate_via_normal_equations(problem, y, xi1, unit_weights)
            assert qr == pytest.approx(gram, rel=1e-8)
