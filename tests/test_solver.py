import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from ilse import (
    GenParams,
    IllPosedProblemError,
    IlseProblem,
    SignatureMatrix,
    assemble_augmented,
    check_well_posedness,
    gen_ilse_instance,
    gen_perturbation,
    normal_equation_residuals,
    perturbed_problem,
    solve_ilse,
)
from ilse import oracle, solver, testgen
from ilse.harness import residual_gamma, run_experiment
from scipy.linalg import blas, lapack

from conftest import small_params
from test_acceptance import PAPER_GRID


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
        assert report.rank_tolerance == 2 * np.finfo(float).eps
        assert report.projected_pd_ok == (
            report.min_projected_eig > report.pd_tolerance and report.ra_rcond > report.ra_tolerance)

    def test_tolerances_are_m_eps_whatever_the_scale_of_a(self):
        # W = Qa^T S Qa and the condition of Ra do not change when A is
        # scaled, so neither do the verdict's numbers or its tolerances.
        problem, _ = gen_ilse_instance(small_params(10, p=16, q=8))
        report = check_well_posedness(problem)
        assert report.pd_tolerance == report.ra_tolerance == problem.m * np.finfo(float).eps
        for scale in (1e-150, 1e150):
            scaled = check_well_posedness(dataclasses.replace(problem, A=scale * problem.A))
            assert scaled.well_posed
            assert (scaled.pd_tolerance, scaled.ra_tolerance) == (report.pd_tolerance, report.ra_tolerance)
            assert scaled.min_projected_eig == pytest.approx(report.min_projected_eig, rel=1e-12)
            assert scaled.ra_rcond == pytest.approx(report.ra_rcond, rel=1e-12)


class TestAgainstReference:
    @pytest.mark.parametrize("params", [
        pytest.param(small_params(6), id="s<n"),
        pytest.param(small_params(7, s=0), id="s=0"),
        pytest.param(small_params(8, s=12), id="s=n"),
    ])
    def test_no_full_q_and_no_spectrum_of_the_gram_matrix(self, monkeypatch, params):
        problem, _ = gen_ilse_instance(params)
        n, s = problem.n, problem.s
        calls = []

        class Spy:
            def __getattr__(self, name):
                def call(a, *args, **kwargs):
                    calls.append((name, a.shape))
                    return getattr(sla, name)(a, *args, **kwargs)
                return call

        monkeypatch.setattr(solver, "sla", Spy())
        report = check_well_posedness(dataclasses.replace(problem))
        expected = {0: [("eigvalsh", (n, n))], n: [("svdvals", (s, s))]}
        assert calls == expected.get(s, [("svdvals", (s, s)), ("eigvalsh", (n - s, n - s))])
        assert report.well_posed

    def test_acceptance_grid_verdicts_match_the_reference(self, monkeypatch):
        # Every generation attempt of the acceptance grid, accepted or retried
        # (at base seed 20240901 the first attempt of each trial is accepted).
        verdicts = []
        check = testgen.check_well_posedness

        def both(problem):
            report = check(problem)
            verdicts.append((report.well_posed, oracle.well_posedness_reference(problem).well_posed))
            return report

        monkeypatch.setattr(testgen, "check_well_posedness", both)
        run_experiment(PAPER_GRID)
        assert len(verdicts) >= 120
        assert [fast for fast, _ in verdicts] == [ref for _, ref in verdicts]


class TestReportMemo:
    def test_default_calls_return_the_same_report(self):
        problem, _ = gen_ilse_instance(small_params(3))
        report = check_well_posedness(problem)
        assert check_well_posedness(problem) is report

    def test_derived_problems_start_without_a_report(self):
        problem, _ = gen_ilse_instance(small_params(4))
        report = check_well_posedness(problem)
        replaced = dataclasses.replace(problem)
        assert check_well_posedness(replaced) is not report
        assert check_well_posedness(replaced) == report
        pert = gen_perturbation(problem, 1e-6, 9)
        perturbed = check_well_posedness(perturbed_problem(problem, pert))
        assert perturbed is not report
        assert perturbed.min_projected_eig != report.min_projected_eig
        B = problem.B.copy()
        B[-1] = B[0]
        assert not check_well_posedness(dataclasses.replace(problem, B=B)).rank_ok

    def test_generated_problem_is_not_checked_again(self, monkeypatch):
        problem, _ = gen_ilse_instance(small_params(5))
        # Every LAPACK and BLAS routine of the solver, and scipy.linalg, is
        # spied on: the check and the checked solve of a generated problem
        # read the memo and call none of them.
        calls = []
        fortran = (type(lapack.dgeqrf), type(blas.dsyrk))

        def spy(name, fn):
            def call(*args, **kwargs):
                arrays = [*args, *kwargs.values()]
                calls.append((name, [np.shape(a) for a in arrays if isinstance(a, np.ndarray)]))
                return fn(*args, **kwargs)
            return call

        routines = {name: value for name, value in vars(solver).items() if isinstance(value, fortran)}
        assert {"dgeqrf", "dormqr", "dorgqr", "dsyrk", "dgemm", "dtrcon", "dsysv", "dtrtrs"} <= routines.keys()
        for name, value in routines.items():
            monkeypatch.setattr(solver, name, spy(name, value))

        class Sla:
            def __getattr__(self, name):
                return spy(name, getattr(sla, name))

        monkeypatch.setattr(solver, "sla", Sla())
        assert check_well_posedness(problem).well_posed
        sol = solve_ilse(problem)
        assert calls == []
        assert residual_gamma(problem, sol) <= 1e-15

    def test_memo_holds_no_array_larger_than_n(self):
        problem, _ = gen_ilse_instance(small_params(6))
        report, *arrays = problem.__dict__[solver._MEMO_KEY]
        assert report is check_well_posedness(problem)
        assert [a.shape for a in arrays] == [(problem.n,), (problem.s,)]
        assert not any(a.flags.writeable for a in arrays)
        assert not any(isinstance(v, np.ndarray) for v in dataclasses.astuple(report))

    def test_memo_keeps_an_ill_posed_verdict(self):
        problem = indefinite_on_nullspace()
        assert not check_well_posedness(problem).well_posed
        with pytest.raises(IllPosedProblemError):
            solve_ilse(problem)
        with pytest.raises(IllPosedProblemError):
            solve_ilse(problem)

    def test_problem_fields_and_repr_unchanged(self):
        problem = indefinite_on_nullspace()
        before = repr(problem)
        check_well_posedness(problem)
        assert repr(problem) == before
        assert [f.name for f in dataclasses.fields(IlseProblem)] == ["A", "b", "B", "d", "sig"]


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

    def test_no_constraints_solved_as_plain_ils(self):
        # s = 0: well posed exactly when A^T S A is positive definite, and
        # then x solves the normal equations A^T S A x = A^T S b.
        A = np.array([[2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        problem = IlseProblem(A=A, b=b, B=np.zeros((0, 2)), d=np.zeros(0),
                              sig=SignatureMatrix(3, 1))
        sol = solve_ilse(problem)
        ATS = A.T @ np.diag([1.0, 1.0, 1.0, -1.0])
        assert sol.x == pytest.approx(np.linalg.solve(ATS @ A, ATS @ b), rel=1e-14)
        assert sol.xi.shape == (0,)

        indefinite = IlseProblem(
            A=np.eye(2), b=np.zeros(2), B=np.zeros((0, 2)), d=np.zeros(0),
            sig=SignatureMatrix(1, 1),
        )
        with pytest.raises(IllPosedProblemError):
            solve_ilse(indefinite)


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

    def test_ill_posed_raises(self):
        with pytest.raises(IllPosedProblemError):
            solve_ilse(indefinite_on_nullspace())

    @pytest.mark.parametrize("params", [
        *(pytest.param(small_params(seed, kappa_a=ka, kappa_b=kb), id=f"kA={ka:g},kB={kb:g}")
          for seed, (ka, kb) in enumerate([(50.0, 100.0), (1e4, 1e2), (1e8, 1e8), (1e2, 1e6)])),
        pytest.param(small_params(21, s=12), id="s=n"),
        pytest.param(GenParams(m=3, n=1, s=1, p=2, q=1, kappa_a=1.0, kappa_b=1.0, seed=22), id="n=1"),
        pytest.param(GenParams(m=6, n=3, s=3, p=0, q=6, kappa_a=10.0, kappa_b=10.0, seed=23), id="p=0"),
        pytest.param(small_params(24, p=24, q=0), id="q=0"),
    ])
    def test_bitwise_equal_to_scipy_lu(self, params):
        # The unchecked route keeps the bits of lu_factor/lu_solve on the
        # assembled K; the checked route solves on the null space of B.
        problem, _ = gen_ilse_instance(params)
        K, rhs = assemble_augmented(problem)
        u = sla.lu_solve(sla.lu_factor(K), rhs)
        s, m = problem.s, problem.m
        sol = solve_ilse(problem, check_well_posed=False)
        assert sol.x.tobytes() == u[s + m:].tobytes()
        assert sol.lam.tobytes() == u[:s].tobytes()
        assert sol.xi.tobytes() == (-u[:s]).tobytes()

    def test_singular_augmented_matrix_raises_without_warning(self):
        problem = IlseProblem(
            A=np.eye(2), b=np.ones(2),
            B=np.array([[1.0, 0.0], [1.0, 0.0]]), d=np.ones(2),
            sig=SignatureMatrix(2, 0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllPosedProblemError, match="^augmented matrix is numerically singular$"):
                solve_ilse(problem, check_well_posed=False)


class TestNullSpaceSolve:
    def test_exactly_singular_w_raises(self):
        # Qa = -[1, 1, 1, 1]/2 exactly, so W = 1/4 + 1/4 - 1/4 - 1/4 = 0.
        problem = IlseProblem(A=np.ones((4, 1)), b=np.ones(4), B=np.zeros((0, 1)), d=np.zeros(0),
                              sig=SignatureMatrix(2, 2))
        report = check_well_posedness(problem)
        assert report.min_projected_eig == 0.0 and not report.projected_pd_ok
        with pytest.raises(IllPosedProblemError, match="^problem is not well posed"):
            solve_ilse(problem)

    def test_exactly_singular_r_factor_raises(self):
        # A zero column: Ra has an exact zero on its diagonal, while W = I.
        problem = IlseProblem(A=np.eye(3, 2) * [1.0, 0.0], b=np.ones(3), B=np.zeros((0, 2)), d=np.zeros(0),
                              sig=SignatureMatrix(3, 0))
        report = check_well_posedness(problem)
        assert report.min_projected_eig == pytest.approx(1.0) and report.ra_rcond == 0.0
        assert not report.projected_pd_ok
        with pytest.raises(IllPosedProblemError, match="^problem is not well posed"):
            solve_ilse(problem)

    @pytest.mark.parametrize("params, skipped", [
        pytest.param(small_params(31, s=0), "_apply_q", id="s=0"),
        pytest.param(small_params(32, s=12), "dsysv", id="s=n"),
    ])
    def test_edge_shapes_skip_what_they_do_not_need(self, monkeypatch, params, skipped):
        # s = 0 takes A Z = A and applies no reflector of B^T; s = n has no
        # reduced system.
        problem, _ = gen_ilse_instance(params)
        monkeypatch.setattr(solver, skipped, None)
        sol = solve_ilse(dataclasses.replace(problem))
        assert residual_gamma(problem, sol) <= 1e-15


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
