import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ilse import (
    GenParams,
    IllPosedProblemError,
    IlseError,
    IlseProblem,
    SignatureMatrix,
    check_well_posedness,
    gen_ilse_instance,
    gen_perturbation,
    normal_equation_residuals,
    perturbed_problem,
    solve_ilse,
)
from ilse import oracle, properties, solver, testgen
from ilse.harness import residual_gamma, run_experiment
from ilse.solver import assemble_augmented
from ilse.testgen import gen_conditioned_matrix
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [0, 2])
    def test_a_z_out_of_range_gives_a_nan_verdict(self, s):
        # A near the overflow threshold puts A Z, and so W, out of range:
        # the check returns a report that fails, it does not raise.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 4))
        A *= 1.7e308 / np.abs(A).max()
        problem = IlseProblem(A=A, b=np.zeros(8), B=rng.standard_normal((s, 4)), d=np.zeros(s),
                              sig=SignatureMatrix(6, 2))
        report = check_well_posedness(problem)
        assert np.isnan(report.min_projected_eig)
        assert not report.projected_pd_ok
        with pytest.raises(IllPosedProblemError):
            solve_ilse(problem)

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


@st.composite
def constraint_matrices(draw):
    """B with s in [1, n], singular values from 1 down to 10^-20 of the
    largest, a duplicated row or not, scaled by 10^k."""
    n = draw(st.integers(1, 8))
    s = draw(st.integers(1, n))
    kappa = 10.0 ** draw(st.floats(0.0, 20.0))
    B = gen_conditioned_matrix(s, n, kappa, draw(st.integers(0, 2**32 - 1)))
    if s > 1 and draw(st.booleans()):
        B[-1] = B[0]
    return B * 10.0 ** draw(st.sampled_from([0, 150, -150, 300, -300]))


def singular_value_verdict(B):
    """rank_ok from the singular values of the R that the check factors."""
    s, n = B.shape
    R = np.triu(solver._householder_qr(B.T, 0)[0][:s])
    sv = sla.svdvals(R)
    return bool(sv[0] > 0.0 and sv[s - 1] > max(s, n) * np.finfo(float).eps * sv[0])


def spy_on_sla(monkeypatch):
    """Route the solver's scipy.linalg through a recorder; returns the list
    of the names the solver looks up."""
    names = []

    class Sla:
        def __getattr__(self, name):
            names.append(name)
            return getattr(sla, name)

    monkeypatch.setattr(solver, "sla", Sla())
    return names


def rank_problem(B):
    s, n = B.shape
    return IlseProblem(A=np.eye(n), b=np.zeros(n), B=B, d=np.zeros(s), sig=SignatureMatrix(n, 0))


class TestRankPretest:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(constraint_matrices())
    def test_verdict_is_the_singular_value_test(self, B):
        assert check_well_posedness(rank_problem(B)).rank_ok == singular_value_verdict(B)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("B, rank_ok", [
        # |R^-1|_F underflows to 0 though R's condition is 1e100: no certificate.
        pytest.param(np.diag([1e300, 1e200]), False, id="inverse-underflows"),
        # |R|_F underflows to 0: no certificate either.
        pytest.param(np.diag([1e-170, 1e-171]), True, id="r-underflows"),
        # The inverse of R overflows.
        pytest.param(np.diag([1e-300, 1e-320]), False, id="inverse-overflows"),
        # An exactly singular R: dtrtri stops at the zero pivot.
        pytest.param(np.array([[1.0, 0.0], [1.0, 0.0]]), False, id="singular"),
    ])
    def test_inconclusive_pretest_falls_back(self, monkeypatch, B, rank_ok):
        svd_calls = spy_on_sla(monkeypatch)
        assert check_well_posedness(rank_problem(B)).rank_ok is rank_ok == singular_value_verdict(B)
        assert svd_calls == ["svdvals"]


def assert_geqrf_factors(a, qr, tau):
    """(qr, tau) are geqrf's factors of the rows x k a to rounding: R
    within rows eps |a|_F of geqrf's, tau within rows eps of geqrf's, and
    the orgqr Q orthonormal to rows eps."""
    rows, k = a.shape
    tol = rows * np.finfo(float).eps
    lwork = int(lapack.dgeqrf_lwork(rows, k)[0])
    ref_qr, ref_tau = lapack.dgeqrf(a, lwork)[:2]
    assert qr.shape == a.shape and tau.shape == (k,)
    assert np.abs(np.triu(qr[:k]) - np.triu(ref_qr[:k])).max() <= tol * np.sqrt(np.sum(a * a))
    assert np.abs(tau - ref_tau).max() <= tol
    Q = lapack.dorgqr(qr, tau, lwork)[0]
    assert np.abs(Q.T @ Q - np.eye(k)).max() <= tol


class TestHouseholderQr:
    # _analyse factors B^T and A Z by dgeqrt and reads geqrf's tau from the
    # diagonals of its block factors T; k straddles the block size 32.
    @pytest.mark.parametrize("k", [1, 20, 31, 32, 33, 65, 300])
    @pytest.mark.parametrize("graded", [False, True], ids=["gaussian", "graded"])
    def test_factors_are_geqrf_factors(self, monkeypatch, k, graded):
        rng = np.random.default_rng(k)
        a = np.asfortranarray(rng.standard_normal((2 * k + 3, k)))
        if graded:
            a *= np.logspace(0, -8, k)
        block_sizes = []
        dgeqrt = solver.dgeqrt

        def spy(nb, *args):
            block_sizes.append(nb)
            return dgeqrt(nb, *args)

        monkeypatch.setattr(solver, "dgeqrt", spy)
        qr, tau = solver._householder_qr(a.copy(order="F"), 1)
        assert block_sizes == [min(32, k)]
        assert_geqrf_factors(a, qr, tau)

    def test_input_is_kept_without_overwrite(self):
        a = np.asfortranarray(np.random.default_rng(1).standard_normal((9, 4)))
        before = a.copy()
        solver._householder_qr(a, 0)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("params, shapes", [
        pytest.param(small_params(7, s=0), [(24, 12)], id="s=0"),
        pytest.param(small_params(8, s=12), [(12, 12)], id="s=n"),
        pytest.param(small_params(9, n=1, s=0), [(24, 1)], id="n=1,s=0"),
        pytest.param(small_params(9, n=1, s=1), [(1, 1)], id="n=1,s=1"),
        pytest.param(small_params(6), [(12, 5), (24, 7)], id="s<n"),
    ])
    def test_factors_of_the_analysis_at_edge_shapes(self, monkeypatch, params, shapes):
        problem, _ = gen_ilse_instance(params)
        factored = []
        qr_of = solver._householder_qr

        def spy(a, overwrite_a):
            a_in = a.copy()
            qr, tau = qr_of(a, overwrite_a)
            factored.append((a_in, qr.copy(), tau))
            return qr, tau

        monkeypatch.setattr(solver, "_householder_qr", spy)
        assert check_well_posedness(dataclasses.replace(problem)).well_posed
        assert [a.shape for a, _, _ in factored] == shapes
        for a, qr, tau in factored:
            assert_geqrf_factors(a, qr, tau)


class TestSignedGram:
    # W = Qa^T S Qa from one dsyrk over the smaller sign block matches the
    # two-block Qp^T Qp - Qq^T Qq within m eps, and is I exactly at q = 0.
    @pytest.mark.parametrize("p", [0, 14, 20, 26, 40], ids=["p=0", "p<q", "p=q", "p>q", "q=0"])
    def test_one_block_matches_two_blocks(self, p):
        m, k = 40, 15
        Q = sla.qr(np.random.default_rng(p).standard_normal((m, k)), mode="economic")[0]
        W = solver._signed_gram(np.asfortranarray(Q), p)
        two_blocks = Q[:p].T @ Q[:p] - Q[p:].T @ Q[p:]
        assert W.flags.f_contiguous
        assert np.array_equal(np.tril(W, -1), np.zeros((k, k)))
        assert np.abs(W - np.triu(two_blocks)).max() <= m * np.finfo(float).eps
        if p == m:
            assert np.array_equal(W, np.eye(k))
        if p == 0:
            assert np.array_equal(W, -np.eye(k))


class TestAgainstReference:
    @pytest.mark.parametrize("params", [
        pytest.param(small_params(6), id="s<n"),
        pytest.param(small_params(7, s=0), id="s=0"),
        pytest.param(small_params(8, s=12), id="s=n"),
    ])
    def test_no_full_q_and_no_spectrum_of_the_gram_matrix(self, monkeypatch, params):
        # B^T and A Z are factored by dgeqrt with blocks of min(32, k)
        # columns; the rank of B is read from the inverse of the s x s R,
        # certified without an SVD; W comes from one dsyrk over the smaller
        # sign block of Qa (here the q = 10 rows, as I - 2 Qq^T Qq); the one
        # spectrum computed is lambda_min of the (n-s) x (n-s) W, and Ra's
        # condition number takes its inverse from dtrtri. No scipy.linalg
        # function runs.
        problem, _ = gen_ilse_instance(params)
        m, n, s, q = problem.m, problem.n, problem.s, problem.sig.q
        calls = []

        def described(arg):
            return arg.shape if isinstance(arg, np.ndarray) else arg

        def spy(name, fn):
            def call(*args, **kwargs):
                calls.append((name, *map(described, args[:2])))
                return fn(*args, **kwargs)
            return call

        class Sla:
            def __getattr__(self, name):
                return spy(name, getattr(sla, name))

        monkeypatch.setattr(solver, "sla", Sla())
        for name in ("dgeqrt", "dtrtri", "dsyrk", "dsyevr"):
            monkeypatch.setattr(solver, name, spy(name, getattr(solver, name)))
        report = check_well_posedness(dataclasses.replace(problem))
        k = n - s
        of_b = [("dgeqrt", min(32, s), (n, s)), ("dtrtri", (s, s))]
        of_az = [("dgeqrt", min(32, k), (m, k)), ("dsyrk", -2.0, (k, q)), ("dsyevr", (k, k), 0),
                 ("dtrtri", (k, k))]
        assert calls == {0: of_az, n: of_b}.get(s, of_b + of_az)
        assert report.well_posed

    def test_acceptance_grid_verdicts_match_the_reference(self, monkeypatch):
        # Every generation attempt of the acceptance grid, accepted or retried
        # (at base seed 20240901 the first attempt of each trial is accepted).
        # The certified pre-test decides every rank verdict: the solver calls
        # no scipy.linalg function, so svdvals never runs.
        verdicts = []
        sla_calls = spy_on_sla(monkeypatch)
        check = testgen.check_well_posedness

        def both(problem):
            report = check(problem)
            verdicts.append((report.well_posed, oracle.well_posedness_reference(problem).well_posed))
            return report

        monkeypatch.setattr(testgen, "check_well_posedness", both)
        run_experiment(PAPER_GRID)
        assert len(verdicts) >= 120
        assert [fast for fast, _ in verdicts] == [ref for _, ref in verdicts]
        assert sla_calls == []


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
        fortran = (type(lapack.dgeqrt), type(blas.dsyrk))

        def spy(name, fn):
            def call(*args, **kwargs):
                arrays = [*args, *kwargs.values()]
                calls.append((name, [np.shape(a) for a in arrays if isinstance(a, np.ndarray)]))
                return fn(*args, **kwargs)
            return call

        routines = {name: value for name, value in vars(solver).items() if isinstance(value, fortran)}
        assert {"dgeqrt", "dormqr", "dorgqr", "dsyrk", "dgemm", "dtrtri", "dsysv", "dtrtrs"} <= routines.keys()
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

    def test_memo_holds_no_matrix(self):
        problem, _ = gen_ilse_instance(small_params(6))
        report, *arrays = problem.__dict__[solver._MEMO_KEY]
        assert report is check_well_posedness(problem)
        assert [a.shape for a in arrays] == [(problem.n,), (problem.s,), (problem.m,)]
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

    @pytest.mark.parametrize("k", [154, 200])
    def test_checked_solve_names_a_multiplier_out_of_range(self, k):
        # Scaling A and b by 10^k scales xi by 10^(2k): beyond k = 153 it is
        # out of floating-point range on this well-posed problem. The check
        # still returns its verdict, and the solve raises a typed error that
        # is not an ill-posedness verdict (the suite turns a RuntimeWarning
        # into an error).
        problem = properties.solved_case(properties.TINY, 1e-6, 3)[0]
        scaled = IlseProblem(problem.A * 10.0**k, problem.b * 10.0**k, problem.B, problem.d,
                             problem.sig)
        assert check_well_posedness(scaled).well_posed
        with pytest.raises(IlseError, match="multiplier xi .* out of floating-point range") as excinfo:
            solve_ilse(scaled)
        assert not isinstance(excinfo.value, IllPosedProblemError)

    def test_checked_solve_at_the_edge_of_the_range(self):
        problem = properties.solved_case(properties.TINY, 1e-6, 3)[0]
        scaled = IlseProblem(problem.A * 1e153, problem.b * 1e153, problem.B, problem.d,
                             problem.sig)
        sol = solve_ilse(scaled)
        assert np.isfinite(sol.xi).all() and residual_gamma(scaled, sol) <= 1e-12

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("diagonal", [
        pytest.param([1.0, 1e-320], id="inverse-overflows"),
        pytest.param([1e200, 1e-200], id="norms-overflow"),
    ])
    def test_ra_rcond_out_of_range_is_zero(self, diagonal):
        problem = IlseProblem(A=np.diag(diagonal), b=np.ones(2), B=np.zeros((0, 2)), d=np.zeros(0),
                              sig=SignatureMatrix(2, 0))
        report = check_well_posedness(problem)
        assert report.ra_rcond == 0.0 and not report.projected_pd_ok

    def test_ra_rcond_is_bitwise_reproducible(self):
        # At k = 300, LAPACK's dtrcon estimate of the same Ra moved in its
        # last bits from call to call, with allocations in between: two or
        # three values in 60 such analyses.
        rng = np.random.default_rng(0)
        problem = IlseProblem(A=rng.standard_normal((400, 300)), b=rng.standard_normal(400),
                              B=np.zeros((0, 300)), d=np.zeros(0), sig=SignatureMatrix(400, 0))
        values = set()
        for i in range(60):
            values.add(check_well_posedness(dataclasses.replace(problem)).ra_rcond.hex())
            allocations = [np.empty(1000 + 37 * i) for _ in range(5)]
        assert len(values) == 1
        R = np.linalg.qr(problem.A, mode="r")
        assert float.fromhex(values.pop()) == pytest.approx(1.0 / np.linalg.cond(R, 1), rel=1e-12)

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
