import numpy as np
import pytest

from ilse import (
    IllPosedProblemError,
    IlseProblem,
    SignatureMatrix,
    assemble_augmented,
    check_well_posedness,
    gen_ilse_instance,
    normal_equation_residuals,
    solve_ilse,
)
from ilse import properties

from conftest import assert_row_passes, small_params


def indefinite_on_nullspace():
    # N(B) = span{e2} and e2^T diag(1,-1) e2 = -1: uniqueness condition fails.
    return IlseProblem(
        A=np.eye(2), b=np.zeros(2), B=np.array([[1.0, 0.0]]), d=np.zeros(1),
        sig=SignatureMatrix(1, 1),
    )


class TestWellPosedness:
    def test_t1_well_posed(self, t1):
        report = check_well_posedness(t1)
        assert report.rank_ok
        assert report.projected_pd_ok
        assert report.min_projected_eig == np.inf
        assert report.well_posed

    def test_duplicated_rows_fail_rank(self):
        problem = IlseProblem(
            A=np.eye(2), b=np.zeros(2),
            B=np.array([[1.0, 0.0], [1.0, 0.0]]), d=np.zeros(2),
            sig=SignatureMatrix(2, 0),
        )
        assert not check_well_posedness(problem).rank_ok

    def test_indefinite_projection_fails(self):
        report = check_well_posedness(indefinite_on_nullspace())
        assert report.rank_ok
        assert not report.projected_pd_ok
        assert report.min_projected_eig == pytest.approx(-1.0)

    def test_report_booleans_match_tolerances(self):
        report = check_well_posedness(indefinite_on_nullspace())
        assert report.projected_pd_ok == (report.min_projected_eig > report.pd_tolerance)


class TestAssembleAugmented:
    def test_t1_exact(self, t1):
        K, rhs = assemble_augmented(t1)
        expected = np.array([
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
        ])
        assert np.array_equal(K, expected)
        assert np.array_equal(rhs, [0.0, 1.0, 1.0, 0.0])

    def test_symmetric_bitwise(self):
        assert_row_passes(properties.symmetric)

    def test_no_constraints_rejected(self):
        problem = IlseProblem(
            A=np.eye(2), b=np.zeros(2), B=np.zeros((0, 2)), d=np.zeros(0),
            sig=SignatureMatrix(1, 1),
        )
        with pytest.raises(ValueError):
            assemble_augmented(problem)
        with pytest.raises((ValueError, IllPosedProblemError)):
            solve_ilse(problem)


class TestSolveIlse:
    def test_t1_exact_solution(self, t1):
        sol = solve_ilse(t1)
        assert sol.x == pytest.approx([0.0], abs=1e-15)
        assert sol.xi == pytest.approx([1.0], rel=1e-14)
        assert np.array_equal(sol.lam, -sol.xi)
        assert sol.r == pytest.approx([1.0, 1.0], rel=1e-14)
        assert np.array_equal(sol.s_vec, np.array([sol.r[0], -sol.r[1]]))

    def test_solution_fields_consistent(self, t1):
        sol = solve_ilse(t1)
        assert np.array_equal(sol.r, t1.b - t1.A @ sol.x)

    def test_consistent_system_recovers_x0(self):
        problem, _ = gen_ilse_instance(small_params(11))
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(problem.n)
        consistent = IlseProblem(
            A=problem.A, b=problem.A @ x0, B=problem.B, d=problem.B @ x0, sig=problem.sig
        )
        sol = solve_ilse(consistent)
        assert sol.x == pytest.approx(x0, rel=1e-9)
        assert np.linalg.norm(sol.r) <= 1e-12 * np.linalg.norm(consistent.b)
        assert np.linalg.norm(sol.xi) <= 1e-10

    def test_paper_scale_residual(self):
        assert_row_passes(properties.small_residual)

    def test_normal_equation_residual_scale(self):
        assert_row_passes(properties.normal_equations)

    def test_deterministic(self):
        assert_row_passes(properties.solves_repeat)

    def test_ill_posed_raises(self):
        with pytest.raises(IllPosedProblemError):
            solve_ilse(indefinite_on_nullspace())


class TestNormalEquationResiduals:
    def test_exact_point(self, t1):
        r1, r2 = normal_equation_residuals(t1, np.array([0.0]), np.array([1.0]))
        assert np.array_equal(r1, [0.0])
        assert np.array_equal(r2, [0.0])

    def test_hand_value(self, t1):
        r1, r2 = normal_equation_residuals(t1, np.array([0.1]), np.array([0.9]))
        assert r1 == pytest.approx([0.0], abs=1e-16)
        assert r2 == pytest.approx([-0.1], rel=1e-15)

    def test_vanishing_terms(self):
        # xi = 0 and r_y = 0 leave no contribution to r1.
        problem = IlseProblem(
            A=np.array([[1.0], [0.0]]), b=np.array([0.5, 0.0]),
            B=np.array([[1.0]]), d=np.array([0.5]), sig=SignatureMatrix(1, 1),
        )
        r1, _ = normal_equation_residuals(problem, np.array([0.5]), np.array([0.0]))
        assert np.array_equal(r1, [0.0])

    def test_dimension_checks(self, t1):
        with pytest.raises(ValueError):
            normal_equation_residuals(t1, np.zeros(2), np.zeros(1))
        with pytest.raises(ValueError):
            normal_equation_residuals(t1, np.zeros(1), np.zeros(2))
