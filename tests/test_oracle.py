import numpy as np
import pytest

from ilse import (
    OptimizationError,
    RankDeficiencyError,
    WeightScheme,
    backward_error_estimate,
    least_squares_multiplier,
    minimize_estimate,
    solve_ilse,
)
from ilse import oracle
from ilse.oracle import estimate_on_grid, estimate_via_normal_equations

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

    def test_batched_scan_matches_the_per_point_loop(self):
        # J(t) = J0 + t dJ reassociates the arithmetic of a per-point J, so
        # the scan agrees with the loop to rounding, not bitwise.
        problem, _, _, psol = solved_case(5, s=1)
        w = WeightScheme(1.5, 0.7, 2.0)
        xi1 = least_squares_multiplier(problem, psol.x)[0]
        ts = np.arange(xi1 - 1.0, xi1 + 1.0 + 0.5e-2, 1e-2)
        loop = [estimate_via_normal_equations(problem, psol.x, np.array([t]), w) for t in ts]
        best = int(np.argmin(loop))
        xi_star, rho_star = estimate_on_grid(problem, psol.x, w, xi1 - 1.0, xi1 + 1.0, 1e-2)
        assert xi_star == ts[best]
        assert rho_star == pytest.approx(loop[best], rel=1e-12)


class TestNormalEquationsOracle:
    def test_agrees_with_qr_path_on_benign_instances(self, unit_weights):
        for seed in range(5):
            problem, sol, pert, psol = solved_case(seed + 40)
            y = psol.x
            xi1 = least_squares_multiplier(problem, y)
            qr = backward_error_estimate(problem, y, xi1, unit_weights)
            gram = estimate_via_normal_equations(problem, y, xi1, unit_weights)
            assert qr == pytest.approx(gram, rel=1e-8)
