import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from ilse import (
    IlseProblem,
    RankDeficiencyError,
    SignatureMatrix,
    WeightScheme,
    backward_error_bounds,
    backward_error_estimate,
    least_squares_multiplier,
    pinv_norm_bound,
    rhs_vector,
    solution_distance_lower_bound,
    solve_ilse,
    stability_constant,
    stability_constant_lower_bound,
)
from ilse import backward_error as be, oracle, properties
from ilse.backward_error import linearization_matrix
from ilse.oracle import estimate_via_normal_equations, linearization_pinv_norm

from conftest import solved_case, t1_problem

Y01 = np.array([0.1])
XI09 = np.array([0.9])


def residual_free_problem():
    """b = A y exactly for y = 0.5, so r_y = 0 at that candidate."""
    return IlseProblem(
        A=np.array([[1.0], [0.0]]), b=np.array([0.5, 0.0]),
        B=np.array([[1.0]]), d=np.array([0.2]), sig=SignatureMatrix(1, 1),
    )


class TestLinearizationMatrix:
    def test_shape_at_paper_dims(self):
        rng = np.random.default_rng(1)
        m, n, s = 100, 50, 20
        problem = IlseProblem(
            A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
            B=rng.standard_normal((s, n)), d=rng.standard_normal(s),
            sig=SignatureMatrix(60, 40),
        )
        J = linearization_matrix(problem, rng.standard_normal(n), rng.standard_normal(s),
                                 WeightScheme())
        assert J.shape == (70, 6120)

    def test_t1_hand_values(self, t1, unit_weights):
        J = linearization_matrix(t1, Y01, XI09, unit_weights)
        expected = np.array([
            [0.8, -1.0, 1.0, 0.0, -0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.1, -1.0],
        ])
        np.testing.assert_allclose(J, expected, rtol=0, atol=1e-15)

    def test_zero_candidate_and_multiplier_blocks_vanish(self, unit_weights):
        rng = np.random.default_rng(2)
        m, n, s = 6, 3, 2
        problem = IlseProblem(
            A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
            B=rng.standard_normal((s, n)), d=rng.standard_normal(s),
            sig=SignatureMatrix(4, 2),
        )
        J = linearization_matrix(problem, np.zeros(n), np.zeros(s), unit_weights)
        nm = n * m
        # first block reduces to I_n (x) (b^T S); all multiplier blocks vanish
        S = np.diag(SignatureMatrix(4, 2).diagonal())
        np.testing.assert_allclose(J[:n, :nm], np.kron(np.eye(n), (problem.b @ S)[None, :]))
        AtS = (S @ problem.A).T
        np.testing.assert_allclose(J[:n, nm:nm + m], AtS)
        assert np.all(J[:n, nm + m:] == 0.0)
        assert np.all(J[n:, :nm + m] == 0.0)
        assert np.all(J[n:, nm + m:nm + m + n * s] == 0.0)
        np.testing.assert_allclose(J[n:, nm + m + n * s:], -np.eye(s))

    def test_dimension_mismatch(self, t1, unit_weights):
        with pytest.raises(ValueError):
            linearization_matrix(t1, np.zeros(2), XI09, unit_weights)
        with pytest.raises(ValueError):
            linearization_matrix(t1, Y01, np.zeros(2), unit_weights)


class TestRhsVector:
    def test_exact_point_is_zero(self, t1):
        assert rhs_vector(t1, np.array([0.0]), np.array([1.0])) == pytest.approx([0.0, 0.0])

    def test_hand_values(self, t1):
        np.testing.assert_allclose(rhs_vector(t1, Y01, XI09), [0.0, -0.1], atol=1e-16)
        np.testing.assert_allclose(rhs_vector(t1, Y01, np.array([0.0])), [-0.9, -0.1])


class TestEstimate:
    def test_zero_at_exact_solution(self, t1, unit_weights):
        sol = solve_ilse(t1)
        assert backward_error_estimate(t1, sol.x, sol.xi, unit_weights) <= 1e-15

    def test_t1_value_against_independent_oracle(self, t1, unit_weights):
        rho = backward_error_estimate(t1, Y01, XI09, unit_weights)
        assert rho == pytest.approx(0.09962, abs=1e-4)
        oracle_rho = estimate_via_normal_equations(t1, Y01, XI09, unit_weights)
        assert rho == pytest.approx(oracle_rho, rel=1e-12)

    def test_positive_whenever_rhs_nonzero(self, t1, unit_weights):
        shifted = IlseProblem(A=t1.A, b=t1.b, B=t1.B, d=t1.d - 0.05, sig=t1.sig)
        sol = solve_ilse(t1)
        assert backward_error_estimate(shifted, sol.x, sol.xi, unit_weights) > 0.0

    def test_rank_deficiency_error_carries_sigma(self, unit_weights):
        # A = 0 and y = 0 with b = 0 zero out the whole first block row.
        problem = IlseProblem(
            A=np.zeros((2, 1)), b=np.zeros(2), B=np.array([[1.0]]), d=np.array([1.0]),
            sig=SignatureMatrix(1, 1),
        )
        with pytest.raises(RankDeficiencyError) as excinfo:
            backward_error_estimate(problem, np.zeros(1), np.zeros(1), unit_weights)
        assert excinfo.value.sigma_min == pytest.approx(0.0, abs=1e-12)

    def test_pretest_rejection_falls_back_to_the_svd_sigma(self, unit_weights):
        # r_y = 0, y = 0 and xi = 0 leave C = [[0, 0, 1e-17, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1]]
        # and R_full = diag(1, +-1e-17): alpha = 1e-17 puts the pre-test's
        # bound min(alpha, 1/theta3) below its threshold, so the SVD decides,
        # and the error carries the singular-value test's sigma_min = 1e-17
        problem = IlseProblem(
            A=np.array([[1e-17], [0.0]]), b=np.zeros(2), B=np.array([[1.0]]), d=np.array([1.0]),
            sig=SignatureMatrix(1, 1),
        )
        ctx, xi = be._context(problem, np.zeros(1), unit_weights), np.zeros(1)
        R_full = be._full_factor(ctx, xi, be._stage_two_factor(ctx, 0.0)[1])
        assert sla.svdvals(R_full)[-1] == pytest.approx(1e-17, rel=1e-12)
        with pytest.raises(RankDeficiencyError) as excinfo:
            backward_error_estimate(problem, np.zeros(1), np.zeros(1), unit_weights)
        assert excinfo.value.sigma_min == pytest.approx(1e-17, rel=1e-12)

    @pytest.mark.parametrize("xi", [[1e160, 0.0, 0.0], [1e200, -1e200, 0.0], [1e308, 1e308, 1e308]])
    @pytest.mark.parametrize("function", [backward_error_estimate, be.min_norm_perturbation])
    def test_multiplier_out_of_range_is_certainly_rank_deficient(self, function, xi):
        # |xi|/theta2 >= 1e160 is far past rb/RANK_RTOL: sigma_max >= t and
        # sigma_min <= rb, so the kernel raises before the QR, and no sum of
        # squares overflows on the way (the suite turns a RuntimeWarning
        # into an error). |xi| = sqrt(3) 1e308 is in range only when scaled.
        problem, _, _, psol = properties.solved_case(properties.TINY, 1e-6, 0)
        w = WeightScheme()
        rb = be._context(problem, psol.x, w).rb
        with pytest.raises(RankDeficiencyError, match=r"sigma_max >= \|xi\|/theta2") as excinfo:
            function(problem, psol.x, np.array(xi), w)
        assert excinfo.value.sigma_min == rb

    def test_large_multiplier_below_the_margin_reaches_the_svd(self):
        problem, _, _, psol = properties.solved_case(properties.TINY, 1e-6, 0)
        w = WeightScheme()
        rb = be._context(problem, psol.x, w).rb
        assert math.isfinite(backward_error_estimate(problem, psol.x, np.array([1e12, 0.0, 0.0]), w))
        xi = np.array([0.5 * be.PRETEST_MARGIN * rb / be.RANK_RTOL, 0.0, 0.0])
        with pytest.raises(RankDeficiencyError, match=r"\(sigma_min=.*, sigma_max="):
            backward_error_estimate(problem, psol.x, xi, w)


class TestStageTwoFactor:
    """The (2n+1) x n stage-two stack and the factor R_full built on it."""

    CASES = ["perturbed", "zero-candidate", "s-equals-n", "s-zero", "zero-multiplier"]

    @staticmethod
    def case(name):
        dims = {"s-equals-n": replace(properties.TINY, s=properties.TINY.n),
                "s-zero": replace(properties.TINY, s=0)}.get(name, properties.TINY)
        problem, sol, _, psol = properties.solved_case(dims, 1e-6, 3)
        y = np.zeros(problem.n) if name == "zero-candidate" else psol.x
        xi = np.zeros(problem.s) if name == "zero-multiplier" else sol.xi
        # Powers of two keep the test's products bitwise equal to the kernel's.
        return problem, y, xi, WeightScheme(3.0, 0.5, 4.0)

    @pytest.mark.parametrize("name", CASES)
    def test_sorted_rows_of_the_docstring_stack(self, name):
        problem, y, xi, w = self.case(name)
        n = problem.n
        ctx = be._context(problem, y, w)
        y_norm = np.linalg.norm(y)
        u = y / y_norm if y_norm > 0.0 else np.eye(n)[0]
        t = np.linalg.norm(xi) / w.theta2
        c = math.hypot(np.linalg.norm(problem.residual(y)), t)
        a = 1.0 / w.theta3 / math.hypot(y_norm / w.theta2, 1.0 / w.theta3) * t
        # [R0; c (I - u u^T); a u^T], as the module docstring writes it.
        natural = np.vstack([np.triu(ctx.qr0[:n]), c * (np.eye(n) - np.outer(u, u)), a * u])

        order, stack, c_stack = be._stage_two_stack(ctx, t)
        assert c_stack == c
        assert stack.flags.f_contiguous and stack.shape == (2 * n + 1, n)
        assert np.array_equal(stack, natural[order])
        key = np.abs(stack).max(axis=1)
        assert np.all(key[1:] <= key[:-1])
        ties = np.flatnonzero(key[1:] == key[:-1])
        assert np.all(order[ties] < order[ties + 1])
        assert ties.size > 0 or name != "zero-candidate"

    @pytest.mark.parametrize("name", ["tiny", "kappa-1e8", "zero-residual"])
    def test_context_keys_give_the_order_of_sorted_rows(self, name):
        # The stack's rows are ordered by ctx.row_max times the row scales;
        # the reference keys the scaled stack itself, as _sorted_rows does.
        # With r_y = 0, t = 0 zeroes all but the n R0 rows: n + 1 tied rows.
        dims = replace(properties.TINY, kappa_a=1e8, kappa_b=1e8) if name == "kappa-1e8" else properties.TINY
        problem, _, _, psol = properties.solved_case(dims, 1e-12, 0)
        if name == "zero-residual":
            problem = IlseProblem(A=problem.A, b=problem.A @ psol.x, B=problem.B, d=problem.d, sig=problem.sig)
        n, w = problem.n, WeightScheme(3.0, 0.5, 4.0)
        ctx = be._context(problem, psol.x, w)
        ts = [0.0, 1e-300, *np.logspace(-8, 12, 81), 1e160 / w.theta2]
        for t in ts:
            scale = np.ones(2 * n + 1)
            scale[n:2 * n] = math.hypot(ctx.r_norm, t)
            scale[2 * n] = ctx.h * t
            ref_order, ref_stack = be._sorted_rows(ctx.top * scale)
            order, stack, _ = be._stage_two_stack(ctx, t)
            assert np.array_equal(order, ref_order), t
            assert stack.flags.f_contiguous and bits(stack) == bits(ref_stack), t

    @pytest.mark.parametrize("name", CASES)
    def test_factor_has_the_gram_matrix_of_J(self, name):
        problem, y, xi, w = self.case(name)
        n, s = problem.n, problem.s
        ctx = be._context(problem, y, w)
        R_full = be._full_factor(ctx, xi, be._min_norm_factor(ctx, xi, be._norm(xi))[1])
        J = linearization_matrix(problem, y, xi, w)
        multipliers_first = np.r_[n:n + s, :n]
        JJt = (J @ J.T)[np.ix_(multipliers_first, multipliers_first)]
        assert np.array_equal(R_full, np.triu(R_full))
        assert np.max(np.abs(R_full.T @ R_full - JJt)) <= 1e-13 * sla.svdvals(J)[0] ** 2

    @pytest.mark.parametrize("name", CASES)
    def test_closed_form_frobenius_norms(self, name):
        # |C(xi)|_F^2 = |C(0)|_F^2 + n t^2 against the dense R_full and J,
        # whose Frobenius norms are |C|_F since J J^T = C C^T.
        problem, y, xi0, w = self.case(name)
        ctx = be._context(problem, y, w)
        for xi in (xi0, 1e6 * xi0):
            t = np.linalg.norm(xi) / w.theta2
            fro = math.sqrt(ctx.fro0_sq + problem.n * t * t)
            R_full = be._full_factor(ctx, xi, be._stage_two_factor(ctx, t)[1])
            assert fro == pytest.approx(np.linalg.norm(R_full), rel=1e-12)
            assert fro == pytest.approx(np.linalg.norm(linearization_matrix(problem, y, xi, w)), rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("function, name", [
    ("backward_error_estimate", "y"), ("backward_error_estimate", "xi"),
    ("min_norm_perturbation", "y"), ("min_norm_perturbation", "xi"),
    ("stability_constant", "y"),
    ("backward_error_bounds", "y"), ("backward_error_bounds", "xi"),
])
def test_non_finite_input_names_the_argument(t1, unit_weights, function, name, bad):
    y, xi = Y01.copy(), XI09.copy()
    (y if name == "y" else xi)[0] = bad
    call = {
        "backward_error_estimate": lambda: backward_error_estimate(t1, y, xi, unit_weights),
        "min_norm_perturbation": lambda: be.min_norm_perturbation(t1, y, xi, unit_weights),
        "stability_constant": lambda: stability_constant(t1, y, unit_weights),
        "backward_error_bounds": lambda: backward_error_bounds(t1, y, unit_weights, xi0=xi),
    }[function]
    with pytest.raises(ValueError, match=rf"\b{name}\b.*non-finite"):
        call()


class TestPinvNorm:
    def test_t1_matches_explicit_svd(self, t1, unit_weights):
        J = linearization_matrix(t1, Y01, XI09, unit_weights)
        tau = linearization_pinv_norm(t1, Y01, XI09, unit_weights)
        assert tau == pytest.approx(1.0 / sla.svdvals(J)[-1], rel=1e-12)

    def test_bounded_below_by_inverse_spectral_norm(self, t1, unit_weights):
        J = linearization_matrix(t1, Y01, XI09, unit_weights)
        tau = linearization_pinv_norm(t1, Y01, XI09, unit_weights)
        assert tau >= 1.0 / sla.svdvals(J)[0]

    def test_uniformly_bounded_by_tau0(self, unit_weights):
        rng = np.random.default_rng(11)
        problem, sol, pert, psol = solved_case(200)
        y = psol.x
        tau0 = pinv_norm_bound(problem, y, unit_weights)
        for _ in range(100):
            xi = rng.standard_normal(problem.s) * float(rng.uniform(0, 10))
            assert linearization_pinv_norm(problem, y, xi, unit_weights) <= tau0 * (1 + 1e-10)


class TestLeastSquaresMultiplier:
    def test_exact_candidate_gives_exact_multiplier(self, t1):
        assert least_squares_multiplier(t1, np.array([0.0])) == pytest.approx([1.0])

    def test_hand_value(self, t1):
        assert least_squares_multiplier(t1, Y01) == pytest.approx([0.9], rel=1e-12)

    def test_zero_when_target_vanishes(self, t1):
        # A^T S r_y = 1 - y vanishes at y = 1
        assert least_squares_multiplier(t1, np.array([1.0])) == pytest.approx([0.0], abs=1e-15)

    def test_rank_deficient_constraints_rejected(self):
        problem = IlseProblem(
            A=np.eye(3), b=np.zeros(3),
            B=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), d=np.zeros(2),
            sig=SignatureMatrix(3, 0),
        )
        with pytest.raises(RankDeficiencyError):
            least_squares_multiplier(problem, np.ones(3))


class TestStabilityConstant:
    def test_t1_zero_candidate(self, t1, unit_weights):
        assert stability_constant(t1, np.array([0.0]), unit_weights) == pytest.approx(
            math.sqrt(3.0), rel=1e-12
        )

    def test_t1_hand_value(self, t1, unit_weights):
        assert stability_constant(t1, Y01, unit_weights) == pytest.approx(
            math.sqrt(2.64), rel=1e-12
        )

    def test_zero_residual_reduces_to_sigma_min(self, unit_weights):
        problem = residual_free_problem()
        # with y = 0 and b = 0 the first block vanishes entirely
        zero_b = IlseProblem(A=problem.A, b=np.zeros(2), B=problem.B, d=problem.d, sig=problem.sig)
        alpha = stability_constant(zero_b, np.array([0.0]), unit_weights)
        assert alpha == pytest.approx(sla.svdvals(zero_b.A)[-1], rel=1e-12)


class TestStabilityLowerBound:
    def test_t1_values(self, t1, unit_weights):
        assert stability_constant_lower_bound(t1, np.array([0.0]), unit_weights) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )
        got = stability_constant_lower_bound(t1, Y01, unit_weights)
        assert got == pytest.approx(math.sqrt(1.81) / math.sqrt(1.01), rel=1e-12)
        assert got <= stability_constant(t1, Y01, unit_weights)

    def test_zero_residual(self, unit_weights):
        assert stability_constant_lower_bound(
            residual_free_problem(), np.array([0.5]), unit_weights
        ) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_weighted_candidate_whose_square_overflows(self):
        # theta1**2 = 1e300 is finite; theta1**2 |y|^2 = 6e320 is not.
        problem, _, _, _ = properties.solved_case(properties.TINY, 1e-6, 0)
        y = np.full(problem.n, 1e10)
        expected = np.linalg.norm(problem.residual(y)) / (1e150 * np.linalg.norm(y))
        got = stability_constant_lower_bound(problem, y, WeightScheme(theta1=1e150))
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_candidate_whose_norms_overflow_when_squared(self, t1, unit_weights):
        # y = 1e160: |y|^2 and |r_y|^2 are out of range, |r_y|/sqrt(1 + |y|^2)
        # is 1 to rounding; the suite's filter makes an overflow warning fail.
        y = np.array([1e160])
        assert stability_constant_lower_bound(t1, y, unit_weights) == pytest.approx(1.0, rel=1e-15)


class TestPinvNormBound:
    def test_t1_value(self, t1, unit_weights):
        assert pinv_norm_bound(t1, Y01, unit_weights) == 1.0

    def test_theta3_dominates(self, t1):
        w = WeightScheme(1.0, 1.0, 10.0)
        assert pinv_norm_bound(t1, Y01, w) == 10.0

    def test_infinite_bound_rejected(self, unit_weights):
        problem = IlseProblem(
            A=np.zeros((2, 1)), b=np.zeros(2), B=np.array([[1.0]]), d=np.zeros(1),
            sig=SignatureMatrix(1, 1),
        )
        with pytest.raises(RankDeficiencyError):
            pinv_norm_bound(problem, np.zeros(1), unit_weights)


class TestDistanceLowerBound:
    def test_zero_at_exact_solution(self, t1):
        sol = solve_ilse(t1)
        assert solution_distance_lower_bound(t1, sol.x) <= 1e-15

    def test_t1_hand_value(self, t1):
        got = solution_distance_lower_bound(t1, Y01)
        assert got == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-12)
        assert got <= 0.1


class TestBackwardErrorBounds:
    def test_exact_solution(self, t1, unit_weights):
        sol = solve_ilse(t1)
        report = backward_error_bounds(t1, sol.x, unit_weights)
        assert report.rho_xi1 <= 1e-14
        assert report.small_rho_condition
        assert report.mu_upper <= 2e-14
        assert report.mu_lower <= 1e-14
        assert report.bounds_applicable

    def test_t1_composition(self, t1, unit_weights):
        sol = solve_ilse(t1)
        report = backward_error_bounds(t1, Y01, unit_weights, xi0=sol.xi)
        assert report.rho_xi1 == pytest.approx(0.0996, abs=1e-3)
        assert report.tau0 == 1.0
        assert report.small_rho_condition  # 4 * 1 * 0.0996 * sqrt(1.01) < 1
        assert report.mu_upper == pytest.approx(2 * report.rho_xi1)
        assert report.mu_lower <= report.mu_upper
        assert report.rho_xi0 == pytest.approx(
            backward_error_estimate(t1, Y01, sol.xi, unit_weights), rel=1e-12
        )
        assert report.alpha == pytest.approx(math.sqrt(2.64), rel=1e-12)
        assert report.distance_lower == pytest.approx(0.0707, abs=1e-4)

    def test_condition_fails_where_the_bounds_apply(self, t1, unit_weights):
        # At y = 1, r_y = (0, 1) and tau0 = 1, so 4 tau0 rho sqrt(1 + |y|^2) = 4.
        report = backward_error_bounds(t1, np.array([1.0]), unit_weights)
        assert report.rho_xi1 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert report.alpha == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert report.distance_lower == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert not report.small_rho_condition
        assert report.mu_upper is None
        assert report.mu_lower == pytest.approx(math.sqrt(2.0) / (1.0 + math.sqrt(5.0)), rel=1e-12)
        assert report.bounds_applicable

    def test_zero_residual_marks_bounds_inapplicable(self, unit_weights):
        # theta1**2 underflows to 0 at theta1 = 1e-200, which the report's scale divides by.
        for w in (unit_weights, WeightScheme(theta1=1e-200)):
            report = backward_error_bounds(residual_free_problem(), np.array([0.5]), w)
            assert not report.bounds_applicable
            assert report.mu_upper is None
            assert report.mu_lower is None
            assert not report.small_rho_condition
            assert report.alpha_lower == 0.0

    def test_never_builds_the_dense_linearization(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the dense linearization J was built")

        monkeypatch.setattr(be, "linearization_matrix", forbidden)
        monkeypatch.setattr(np, "kron", forbidden)
        problem, sol, _, psol = properties.solved_case(properties.PAPER, 1e-6, 7)
        report = backward_error_bounds(problem, psol.x, WeightScheme(), xi0=sol.xi)
        assert report.bounds_applicable
        assert math.isfinite(report.rho_xi1) and math.isfinite(report.rho_xi0)

    def test_per_xi_factor_does_not_grow_with_m(self, monkeypatch):
        # At m = 10 n the 2m multiplier-free rows of C^T are factored once
        # per context; alpha and each rho factor only the (2n+1) x n stack,
        # and alpha's SVD is of the n x n stack factor at xi = 0.
        problem, sol, _, psol = properties.solved_case(
            replace(properties.TINY, m=60, p=35, q=25), 1e-6, 0)
        m, n = problem.m, problem.n
        qr_shapes, svd_shapes = [], []
        dgeqrf, svdvals = be.dgeqrf, be.sla.svdvals

        def recording_dgeqrf(a, *args, **kwargs):
            qr_shapes.append(a.shape)
            return dgeqrf(a, *args, **kwargs)

        def recording_svdvals(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svdvals(a, *args, **kwargs)

        monkeypatch.setattr(be, "dgeqrf", recording_dgeqrf)
        monkeypatch.setattr(be.sla, "svdvals", recording_svdvals)
        be._last_context = None
        backward_error_bounds(problem, psol.x, WeightScheme(), xi0=sol.xi)
        assert qr_shapes.count((2 * m, n)) == 1
        assert [shape for shape in qr_shapes if shape != (2 * m, n)] == [(2 * n + 1, n)] * 3
        assert (n, n) in svd_shapes
        assert all(2 * m not in shape for shape in svd_shapes)

    def test_solves_the_least_squares_multiplier_once(self, monkeypatch):
        problem, sol, _, psol = solved_case(10)
        y, w = psol.x, WeightScheme()
        expected = (backward_error_estimate(problem, y, least_squares_multiplier(problem, y), w),
                    solution_distance_lower_bound(problem, y))
        calls = []

        def counting(*args):
            calls.append(args)
            return least_squares_multiplier(*args)

        monkeypatch.setattr(be, "least_squares_multiplier", counting)
        report = backward_error_bounds(problem, y, w, xi0=sol.xi)
        assert len(calls) == 1
        assert bits((report.rho_xi1, report.distance_lower)) == bits(expected)


def cold(fn, *args):
    """fn(*args) with the context cache emptied first."""
    be._last_context = None
    return fn(*args)


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestContextCache:
    """The one-entry context cache changes no bit and keeps one problem."""

    def test_warm_calls_equal_cold_calls(self):
        problem, sol, _, psol = solved_case(3, eps=1e-8, kappa_a=1e8, kappa_b=1e8)
        y, w = psol.x, WeightScheme(2.0, 0.5, 3.0)
        xis = [sol.xi, least_squares_multiplier(problem, y), np.zeros(problem.s)]
        for xi in xis:
            rho = cold(backward_error_estimate, problem, y, xi, w)
            z = cold(be.min_norm_perturbation, problem, y, xi, w)
            alpha = cold(stability_constant, problem, y, w)
            backward_error_estimate(problem, y, xis[0] + 1.0, w)
            ctx = be._last_context
            assert bits(backward_error_estimate(problem, y, xi, w)) == bits(rho)
            assert bits(be.min_norm_perturbation(problem, y, xi, w)) == bits(z)
            assert bits(stability_constant(problem, y, w)) == bits(alpha)
            assert be._last_context is ctx

    def test_context_is_read_only_once_built(self):
        problem, sol, _, psol = solved_case(3, eps=1e-8, kappa_a=1e8, kappa_b=1e8)
        y, w = psol.x, WeightScheme(2.0, 0.5, 3.0)
        alpha = cold(stability_constant, problem, y, w)
        cold(backward_error_estimate, problem, y, sol.xi, w)
        ctx = be._last_context
        assert type(ctx.alpha) is float and bits(ctx.alpha) == bits(alpha)
        snapshot = {name: getattr(ctx, name) for name in be._Context.__slots__}
        backward_error_bounds(problem, y, w, xi0=sol.xi)
        be.min_norm_perturbation(problem, y, sol.xi, w)
        assert be._last_context is ctx
        for name, before in snapshot.items():
            after = getattr(ctx, name)
            if isinstance(before, np.ndarray):
                assert after is before and not after.flags.writeable, name
            else:
                assert after is before or after == before, name

    def test_candidate_mutated_in_place_misses(self):
        problem, sol, _, psol = solved_case(4)
        y = psol.x.copy()
        backward_error_estimate(problem, y, sol.xi, WeightScheme())
        ctx = be._last_context
        y[0] += 1e-3
        rho = backward_error_estimate(problem, y, sol.xi, WeightScheme())
        assert be._last_context is not ctx
        assert bits(rho) == bits(cold(backward_error_estimate, problem, y, sol.xi, WeightScheme()))
        # A hit skips the scan of y's entries; a non-finite y never hits.
        y[1] = math.nan
        with pytest.raises(ValueError, match="candidate y contains non-finite entries"):
            backward_error_estimate(problem, y, sol.xi, WeightScheme())

    @pytest.mark.parametrize("shape", ["column", "row"])
    def test_cached_bytes_in_another_shape_are_rejected(self, shape):
        problem, sol, _, psol = solved_case(4)
        n, y = problem.n, psol.x
        bad = y.reshape((n, 1) if shape == "column" else (1, n))
        with pytest.raises(ValueError) as on_miss:
            cold(backward_error_estimate, problem, bad, sol.xi, WeightScheme())
        backward_error_estimate(problem, y, sol.xi, WeightScheme())
        assert be._last_context.y_bytes == bad.tobytes()
        with pytest.raises(ValueError) as on_hit:
            backward_error_estimate(problem, bad, sol.xi, WeightScheme())
        assert str(on_hit.value) == str(on_miss.value) == f"candidate y must have length {n}, got shape {bad.shape}"

    def test_list_candidate_hits(self):
        problem, sol, _, psol = solved_case(4)
        rho = cold(backward_error_estimate, problem, psol.x, sol.xi, WeightScheme())
        ctx = be._last_context
        assert bits(backward_error_estimate(problem, psol.x.tolist(), sol.xi, WeightScheme())) == bits(rho)
        assert be._last_context is ctx

    def test_every_point_of_a_search_equals_a_cold_call(self, monkeypatch):
        problem, sol, _, psol = solved_case(3, eps=1e-8, kappa_a=1e8, kappa_b=1e8)
        y, w = psol.x, WeightScheme()
        seen = []

        def recorded(*args):
            value = backward_error_estimate(*args)
            seen.append((args[2].copy(), value))
            return value

        monkeypatch.setattr(oracle, "backward_error_estimate", recorded)
        result = oracle.minimize_estimate(problem, y, w, xi0=sol.xi, seed=11)
        # Every point was evaluated (none rank deficient) and recorded.
        assert len(seen) == result.iterations > 100
        for xi, value in seen:
            assert bits(value) == bits(cold(backward_error_estimate, problem, y, xi, w))

    def test_equal_but_distinct_problem_misses(self):
        problem, sol, _, psol = solved_case(5)
        twin = IlseProblem(A=problem.A, b=problem.b, B=problem.B, d=problem.d, sig=problem.sig)
        assert all(np.array_equal(getattr(twin, f), getattr(problem, f)) for f in "AbBd")
        stability_constant(problem, psol.x, WeightScheme())
        stability_constant(twin, psol.x, WeightScheme())
        assert be._last_context.problem is twin

    def test_changed_weights_miss(self):
        problem, sol, _, psol = solved_case(6)
        w = WeightScheme(1.0, 10.0, 0.1)
        backward_error_estimate(problem, psol.x, sol.xi, WeightScheme())
        rho = backward_error_estimate(problem, psol.x, sol.xi, w)
        assert be._last_context.w == w
        assert bits(rho) == bits(cold(backward_error_estimate, problem, psol.x, sol.xi, w))

    def test_zero_candidate_and_zero_residual_use_the_context(self, t1, unit_weights):
        y = np.zeros(1)
        rho = cold(backward_error_estimate, t1, y, XI09, unit_weights)
        assert be._last_context.y_norm == 0.0
        assert be._last_context.u.tolist() == [1.0]
        assert bits(backward_error_estimate(t1, y, XI09, unit_weights)) == bits(rho)
        problem, y = residual_free_problem(), np.array([0.5])
        report = cold(backward_error_bounds, problem, y, unit_weights)
        assert be._last_context.r_norm == 0.0
        assert repr(backward_error_bounds(problem, y, unit_weights)) == repr(report)

    def test_keeps_at_most_one_problem(self, unit_weights):
        first, second = t1_problem(), t1_problem()
        ref = weakref.ref(first)
        backward_error_estimate(first, Y01, XI09, unit_weights)
        backward_error_estimate(second, Y01, XI09, unit_weights)
        del first
        gc.collect()
        assert ref() is None
        assert be._last_context.problem is second

    def test_threads_alternating_problems_get_their_own_values(self, unit_weights):
        # More threads than cores, switching every microsecond, each call on
        # a different (problem, y) than the one before: a call that used a
        # context built for another key would return another value.
        cases = [(problem, psol.x, sol.xi) for problem, sol, _, psol in map(solved_case, (7, 8, 9))]
        expected = [
            (bits(cold(backward_error_estimate, p, y, xi, unit_weights)),
             bits(cold(stability_constant, p, y, unit_weights)))
            for p, y, xi in cases
        ]

        def call(i):
            p, y, xi = cases[i % 3]
            return (bits(backward_error_estimate(p, y, xi, unit_weights)),
                    bits(stability_constant(p, y, unit_weights)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(call, i) for i in range(120)]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[i % 3] for i in range(120)]
