import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import ilse

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


# Objectives for the comparison with scipy: (name, func, x0, xatol, fatol).
# Values are rounded down to a grid, so that steps tie with the worst
# vertex, contractions fail and the simplex shrinks. inf stands in for a
# rank-deficient rho, and NaN vertices sort last. The s = 4 and s = 12
# starts have zero entries, which the start simplex sets to 0.00025.
def _stepped(f, h=1e-2):
    return lambda x: float(np.floor(f(x) / h) * h)


def _walled(f, wall):
    return lambda x: np.inf if x.sum() > wall else f(x)


def _quadratic(s, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((s, s))
    H, c = G @ G.T + 0.1 * np.eye(s), rng.standard_normal(s)
    return lambda x: float(x @ H @ x + c @ x)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _v_with_walls(x):
    return np.nan if x[0] > 0.5 else (np.inf if x[0] > 0.35 else abs(x[0] - 0.3))


NELDER_MEAD_CASES = [
    ("s1", _stepped(_v_with_walls), np.array([-1.0]), 1e-10, 1e-10),
    ("s4", _walled(_stepped(_rosenbrock), 1.5), np.array([0.0, 1.5, 0.0, -0.5]), 1e-8, 1e-8),
    ("s12", _walled(_stepped(_quadratic(12, 7)), 0.5), np.r_[np.zeros(3), np.linspace(-1.0, 1.0, 9)],
     1e-8, 1e-8),
]


def _scipy_nelder_mead(func, x0, maxfev, xatol, fatol, callback=None):
    return minimize(func, x0, method="Nelder-Mead", callback=callback,
                    options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})


def _evaluation_kinds(func, x0, xatol, fatol):
    """The step that makes each evaluation of scipy's run to convergence:
    "start", "reflection", "expansion", "contraction" or "shrink".

    scipy's callback runs once per iteration, after the sort. An iteration
    that evaluates once accepts its reflection, one that evaluates twice
    expands when the reflection beat the best vertex and contracts
    otherwise, and one that evaluates N + 2 times contracts and then
    shrinks the N other vertices.
    """
    N = len(x0)
    values, iterations = [], []

    def counted(x):
        values.append(func(x))
        return values[-1]

    def iteration_end(intermediate_result):
        iterations.append((len(values), intermediate_result.fun))

    res = _scipy_nelder_mead(counted, x0, 10**6, xatol, fatol, callback=iteration_end)
    assert res.success
    kinds = ["start"] * (N + 1)
    best = np.sort(values[:N + 1])[0]
    for end, best_after in iterations:
        step = end - len(kinds)
        if step == 1:
            kinds += ["reflection"]
        elif step == 2:
            kinds += ["reflection", "expansion" if values[len(kinds)] < best else "contraction"]
        else:
            assert step == N + 2
            kinds += ["reflection", "contraction"] + ["shrink"] * N
        best = best_after
    assert len(kinds) == len(values) == res.nfev
    return kinds, values


def _assert_bitwise_scipy(func, x0, maxfev, xatol, fatol):
    """_nelder_mead's (x, fun, nfev, success) equal scipy's bit for bit."""
    ref = _scipy_nelder_mead(func, x0, maxfev, xatol, fatol)
    x, fun, nfev, success = oracle._nelder_mead(func, x0, maxfev, xatol, fatol)
    assert x.tobytes() == ref.x.tobytes(), maxfev
    assert np.float64(fun).tobytes() == np.float64(ref.fun).tobytes(), maxfev
    assert (nfev, success) == (ref.nfev, ref.success), maxfev
    return nfev, success


class TestNelderMead:
    @pytest.mark.parametrize("name, func, x0, xatol, fatol", NELDER_MEAD_CASES,
                             ids=[case[0] for case in NELDER_MEAD_CASES])
    def test_bitwise_scipy_wherever_the_budget_runs_out(self, name, func, x0, xatol, fatol):
        kinds, _ = _evaluation_kinds(func, x0, xatol, fatol)
        assert set(kinds) == {"start", "reflection", "expansion", "contraction", "shrink"}
        # A budget of k stops the run at its evaluation k + 1. Budgets: every
        # one through the first iteration, the first and the last evaluation
        # of each step kind, and each evaluation of the first shrink. The
        # converged run's own count is spent before its stopping test, so
        # the search converges only with one evaluation to spare.
        N = len(x0)
        first_shrink = kinds.index("shrink")
        budgets = set(range(1, N + 3)) | set(range(first_shrink, first_shrink + N)) | {len(kinds)}
        for kind in ("reflection", "expansion", "contraction"):
            budgets |= {kinds.index(kind), len(kinds) - 1 - kinds[::-1].index(kind)}
        for maxfev in sorted(budgets):
            assert _assert_bitwise_scipy(func, x0, maxfev, xatol, fatol) == (maxfev, False)
        for maxfev in (len(kinds) + 1, 10**6):
            assert _assert_bitwise_scipy(func, x0, maxfev, xatol, fatol) == (len(kinds), True)

    def test_cases_evaluate_inf_and_nan(self):
        values = np.concatenate([_evaluation_kinds(func, x0, xatol, fatol)[1]
                                 for _, func, x0, xatol, fatol in NELDER_MEAD_CASES])
        assert np.isinf(values).any() and np.isnan(values).any()

    def test_a_shrink_cut_short_sorts_its_new_best_first(self):
        # The first shrink point of the s = 4 case, made the global minimum:
        # a budget spent later in that shrink leaves it in the simplex.
        _, func, x0, xatol, fatol = NELDER_MEAD_CASES[1]
        points = []
        kinds, _ = _evaluation_kinds(lambda x: points.append(x.tobytes()) or func(x), x0, xatol, fatol)
        i = kinds.index("shrink")
        assert points[i] not in points[:i]
        dented = lambda x: -1.0 if x.tobytes() == points[i] else func(x)
        for maxfev in range(i + 1, i + len(x0)):
            _assert_bitwise_scipy(dented, x0, maxfev, xatol, fatol)

    def test_nan_in_the_final_simplex_is_the_result(self):
        # The start simplex has f(0.48) = inf and f(0.504) = NaN; the
        # reflection to 0.456 is inf too, and the budget runs out at the
        # contraction, so fun is NaN.
        func = NELDER_MEAD_CASES[0][1]
        assert _assert_bitwise_scipy(func, np.array([0.48]), 3, 1e-10, 1e-10) == (3, False)
        assert np.isnan(oracle._nelder_mead(func, np.array([0.48]), 3, 1e-10, 1e-10)[1])

    def test_tied_and_nan_start_values_sort_like_scipy(self):
        # Past 16 entries np.argsort can reorder the ties of an array that
        # it sorted itself when NaN is among them, so sorting the start
        # simplex twice, as scipy does, is not the same as once.
        func = lambda x: [0.0, 1.0, np.nan][int(np.floor(20.0 * x.sum())) % 3]
        x0 = np.random.default_rng(0).uniform(0.5, 1.5, 16)
        for maxfev in range(17, 40):
            _assert_bitwise_scipy(func, x0, maxfev, 1e-8, 1e-8)

    def test_each_evaluation_gets_its_own_copy(self):
        # An objective that overwrites its argument changes nothing.
        _, func, x0, xatol, fatol = NELDER_MEAD_CASES[1]

        def scribble(x):
            value = func(x)
            x[:] = 7.0
            return value

        assert _assert_bitwise_scipy(scribble, x0, 10**6, xatol, fatol)[1]

    def test_package_imports_no_scipy_optimize(self):
        # scipy.optimize adds about 20 MB of resident memory; the search
        # must not pull it in.
        code = (
            "import sys, numpy as np, ilse\n"
            "from ilse import IlseProblem, SignatureMatrix, WeightScheme, minimize_estimate\n"
            "t1 = IlseProblem(np.array([[1.0], [0.0]]), np.ones(2), np.ones((1, 1)), np.zeros(1),"
            " SignatureMatrix(1, 1))\n"
            "minimize_estimate(t1, np.array([0.1]), WeightScheme(1.0, 1.0, 1.0), seed=1)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        src = str(Path(ilse.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestLeastSquaresBackwardError:
    """oracle.ls_backward_error: the closed form of Walden, Karlson & Sun."""

    @staticmethod
    def plain(seed, m=4, n=2):
        rng = np.random.default_rng(seed)
        return ilse.IlseProblem(A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
                                B=np.zeros((0, n)), d=np.zeros(0), sig=ilse.SignatureMatrix(m, 0))

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_a_direct_minimization(self, seed):
        # min |[E, theta1 f]|_F over (E, f) subject to the normal equations
        # (A + E)^T ((b + f) - (A + E) y) = 0 of the perturbed problem.
        problem = self.plain(seed, m=3, n=1)
        m, n = problem.m, problem.n
        rng = np.random.default_rng(10 + seed)
        y, w = rng.standard_normal(n), WeightScheme(theta1=float(np.exp(rng.uniform(-1, 1))))

        def split(v):
            return v[:m * n].reshape(m, n), v[m * n:]

        def normal_equations(v):
            E, f = split(v)
            return (problem.A + E).T @ ((problem.b + f) - (problem.A + E) @ y)

        def norm_sq(v):
            E, f = split(v)
            return float(np.sum(E * E) + w.theta1**2 * f @ f)

        best = min(
            minimize(norm_sq, start, method="SLSQP", constraints={"type": "eq", "fun": normal_equations},
                     options={"ftol": 1e-14, "maxiter": 500}).fun
            for start in rng.standard_normal((20, m * n + m))
        )
        assert oracle.ls_backward_error(problem, y, w) == pytest.approx(np.sqrt(best), rel=1e-7)

    def test_zero_at_the_least_squares_solution(self):
        problem = self.plain(4)
        x = np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]
        assert oracle.ls_backward_error(problem, x, WeightScheme()) <= 1e-14

    def test_zero_residual(self):
        problem = self.plain(5)
        y = np.ones(problem.n)
        exact = ilse.IlseProblem(A=problem.A, b=problem.A @ y, B=problem.B, d=problem.d, sig=problem.sig)
        assert oracle.ls_backward_error(exact, y, WeightScheme()) == 0.0

    def test_needs_plain_least_squares(self, t1, unit_weights):
        with pytest.raises(ValueError, match="s = 1 and q = 1"):
            oracle.ls_backward_error(t1, Y01, unit_weights)
        problem = self.plain(6)
        indefinite = ilse.IlseProblem(A=problem.A, b=problem.b, B=problem.B, d=problem.d,
                                      sig=ilse.SignatureMatrix(3, 1))
        with pytest.raises(ValueError, match="s = 0 and q = 1"):
            oracle.ls_backward_error(indefinite, np.zeros(problem.n), unit_weights)
