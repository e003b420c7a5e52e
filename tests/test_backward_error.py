import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ilse import (
    IlseError,
    IlseProblem,
    RankDeficiencyError,
    SignatureMatrix,
    WeightScheme,
    backward_error_bounds,
    backward_error_estimate,
    least_squares_multiplier,
    solution_distance_lower_bound,
    solve_ilse,
)
from ilse import backward_error as be, oracle, properties
from ilse.backward_error import (
    linearization_matrix,
    pinv_norm_bound,
    rhs_vector,
    stability_constant,
    stability_constant_lower_bound,
)
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

    @pytest.mark.parametrize("kappa", [1e2, 1e8])
    def test_kernel_w_starts_from_the_bits_of_rhs_vector(self, kappa):
        # tests/test_referee.py takes rhs_vector's bits as exact, so the
        # kernel's w = B^T xi - A^T S r_y + y (xi.e)/(theta2^2 beta) must hold
        # rhs_vector's top block bit for bit, with the rank-one term added last.
        problem, sol, _, psol = solved_case(7, eps=1e-10, kappa_a=kappa, kappa_b=kappa)
        y, w = psol.x, WeightScheme(2.0, 0.5, 3.0)
        ctx = be._context(problem, y, w)
        xi1 = least_squares_multiplier(problem, y)
        for xi in (xi1, 1e-3 * xi1, sol.xi, np.zeros(problem.s)):
            kernel, _ = be._rhs_top(ctx, xi, be._norm(xi))
            expected = rhs_vector(problem, y, xi)[:problem.n]
            expected += (ctx.k * (xi @ ctx.v1) / w.theta2) * ctx.u
            assert kernel.tobytes() == expected.tobytes()


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
        # and M(0) = [[1, 0], [0, +-1e-17], [0, 0], [0, 0]]: alpha = 1e-17 puts the
        # pre-test's bound min(alpha, 1/theta3) below its threshold, so the SVD
        # decides, and the error carries the singular-value test's sigma_min = 1e-17
        problem = IlseProblem(
            A=np.array([[1e-17], [0.0]]), b=np.zeros(2), B=np.array([[1.0]]), d=np.array([1.0]),
            sig=SignatureMatrix(1, 1),
        )
        ctx, xi = be._context(problem, np.zeros(1), unit_weights), np.zeros(1)
        assert not be._certainly_full_rank(ctx, 0.0)
        assert sla.svdvals(be._fallback_matrix(ctx, xi, 0.0))[-1] == pytest.approx(1e-17, rel=1e-12)
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


    @pytest.mark.parametrize("value", [1e-160, 1e-200])
    @pytest.mark.parametrize("weight", ["theta1", "theta2", "theta3"])
    def test_weight_out_of_scale_names_itself(self, weight, value):
        # The weight's block of J dwarfs the unweighted block K, so the rank
        # test fails on the weight alone; the error keeps its type, which the
        # report's try_rho and the oracle catch, and the SVD's sigma_min.
        problem, _, _, psol = properties.solved_case(properties.TINY, 1e-6, 3)
        with pytest.raises(RankDeficiencyError, match=rf"1/{weight} is the largest.*"
                           rf"rescaling {weight} may help") as excinfo:
            backward_error_bounds(problem, psol.x, WeightScheme(**{weight: value}))
        assert 0.0 < excinfo.value.sigma_min < math.inf


class TestFallbackMatrix:
    """The stage-two stack [R0; c (I - u u^T); a u^T] that min_norm_perturbation
    factors, and the matrix M(xi) = [rb I_s, X; 0, stack] whose SVD decides
    the rank where the pre-test cannot."""

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

        order, stack = be._sorted_rows(be._stack_transpose(ctx, t))
        assert stack.flags.f_contiguous and stack.shape == (2 * n + 1, n)
        assert np.array_equal(stack, natural[order])
        key = np.abs(stack).max(axis=1)
        assert np.all(key[1:] <= key[:-1])
        ties = np.flatnonzero(key[1:] == key[:-1])
        assert np.all(order[ties] < order[ties + 1])
        assert ties.size > 0 or name != "zero-candidate"

    @pytest.mark.parametrize("name", CASES)
    def test_has_the_gram_matrix_of_J(self, name):
        problem, y, xi, w = self.case(name)
        n, s = problem.n, problem.s
        ctx = be._context(problem, y, w)
        M = be._fallback_matrix(ctx, xi, np.linalg.norm(xi) / w.theta2)
        J = linearization_matrix(problem, y, xi, w)
        multipliers_first = np.r_[n:n + s, :n]
        JJt = (J @ J.T)[np.ix_(multipliers_first, multipliers_first)]
        assert M.shape == (s + 2 * n + 1, s + n)
        assert np.max(np.abs(M.T @ M - JJt)) <= 1e-13 * sla.svdvals(J)[0] ** 2

    @pytest.mark.parametrize("name", CASES)
    def test_closed_form_frobenius_norms(self, name):
        # |C(xi)|_F^2 = |C(0)|_F^2 + n t^2 against the dense M and J, whose
        # Frobenius norms are |C|_F since M^T M and J J^T equal C C^T.
        problem, y, xi0, w = self.case(name)
        ctx = be._context(problem, y, w)
        for xi in (xi0, 1e6 * xi0):
            t = np.linalg.norm(xi) / w.theta2
            fro = math.sqrt(ctx.fro0_sq + problem.n * t * t)
            assert fro == pytest.approx(np.linalg.norm(be._fallback_matrix(ctx, xi, t)), rel=1e-12)
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


def natural_alpha(problem, y, w):
    """sigma_min of the natural [R0; |r_y| (I - u u^T)], whose Gram matrix is
    the top-left block of J J^T at xi = 0."""
    ctx = be._context(problem, y, w)
    n, u = problem.n, ctx.u
    return float(sla.svdvals(np.vstack([np.triu(ctx.qr0[:n]), ctx.r_norm * (np.eye(n) - np.outer(u, u))]))[-1])


def downdate_alpha(sigma, z, r):
    """sqrt(lambda_min(diag(sigma^2 + r^2) - r^2 z z^T)) at 40 digits, with
    z normalized at that precision: where r >> sigma the root is sensitive
    to a rounding of |z| = 1 by (r/sigma)^2."""
    with mpmath.workdps(40):
        mp = [[mpmath.mpf(float(v)) for v in vec] for vec in (sigma, z)]
        r2 = mpmath.mpf(r) ** 2 / sum(v * v for v in mp[1])
        n = len(sigma)
        M = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                M[i, j] = (mp[0][i] ** 2 + mpmath.mpf(r) ** 2 if i == j else 0) - r2 * mp[1][i] * mp[1][j]
        return float(mpmath.sqrt(min(mpmath.eigsy(M, eigvals_only=True))))


class TestSecularAlpha:
    """alpha from the secular equation of the rank-one downdate in the SVD
    basis of R0, at its deflations and edges: against the natural stack's
    SVD through the public function, and against a 40-digit eigenvalue
    where sigma, z and |r_y| are given."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_residual_gives_sigma_min_of_r0(self):
        problem, _, _, psol = properties.solved_case(properties.TINY, 1e-6, 0)
        y = psol.x
        problem = IlseProblem(A=problem.A, b=problem.A @ y, B=problem.B, d=problem.d, sig=problem.sig)
        w = WeightScheme()
        ctx = be._context(problem, y, w)
        assert ctx.r_norm == 0.0
        alpha = stability_constant(problem, y, w)
        assert alpha == pytest.approx(sla.svdvals(np.triu(ctx.qr0[:problem.n]))[-1], rel=1e-13)
        assert alpha == pytest.approx(natural_alpha(problem, y, w), rel=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_one_unknown(self, seed):
        # n = 1: u = +-1, I - u u^T = 0, and alpha = |R0|.
        rng = np.random.default_rng(seed)
        problem = IlseProblem(A=rng.standard_normal((4, 1)), b=rng.standard_normal(4),
                              B=rng.standard_normal((1, 1)), d=rng.standard_normal(1),
                              sig=SignatureMatrix(3, 1))
        y, w = rng.standard_normal(1), WeightScheme(*np.exp(rng.uniform(-1, 1, size=3)))
        assert stability_constant(problem, y, w) == pytest.approx(natural_alpha(problem, y, w), rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("noise", [0.0, 1e-17])
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_u_along_a_right_singular_vector(self, r, noise):
        # z = e_j deflates every other component: the eigenvalues are
        # sigma_j^2 and sigma_i^2 + r^2 for i != j. Rounding noise of 1e-17
        # in the other components leaves them live, with tiny weights.
        sigma = np.array([4.0, 3.0, 2.0, 1.0, 0.5])
        rng = np.random.default_rng(7)
        for j in range(sigma.size):
            z = np.eye(sigma.size)[j] + noise * rng.standard_normal(sigma.size)
            z /= np.linalg.norm(z)
            exact = math.sqrt(min(sigma[j] ** 2, min(np.delete(sigma, j) ** 2) + r * r))
            assert be._secular_alpha(sigma, z, r) == pytest.approx(exact, rel=1e-14), j
            assert be._secular_alpha(sigma, z, r) == pytest.approx(downdate_alpha(sigma, z, r), rel=1e-14), j

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [[2.0, 2.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0], [5.0, 1e-3, 1e-3],
                                       [1.0, 1.0, 1.0, 1.0]])
    def test_repeated_singular_values(self, sigma):
        sigma = np.array(sigma)
        rng = np.random.default_rng(3)
        for r in (1e-6, 0.3, 1.0, 30.0):
            z = rng.standard_normal(sigma.size)
            z /= np.linalg.norm(z)
            natural = sla.svdvals(np.vstack([np.diag(sigma), r * (np.eye(sigma.size) - np.outer(z, z))]))[-1]
            got = be._secular_alpha(sigma, z, r)
            assert got == pytest.approx(downdate_alpha(sigma, z, r), rel=1e-14), r
            assert got == pytest.approx(natural, rel=1e-12), r

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_random_downdates_to_working_accuracy(self):
        # sigma spread over up to 20 decades, |r_y| from 1e-12 to 1e4 times
        # sigma_max, ties, zero and near-zero components of z.
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(2, 9))
            sigma = np.sort(np.exp(rng.uniform(-20, 0, n)))[::-1] * 10.0 ** rng.uniform(-5, 5)
            if trial % 4 == 0:
                sigma[-2:] = sigma[-1]
            z = rng.standard_normal(n)
            if trial % 3 == 0:
                z[rng.integers(0, n)] = 0.0
            z /= np.linalg.norm(z)
            r = float(sigma[0] * 10.0 ** rng.uniform(-12, 4))
            assert be._secular_alpha(sigma, z, r) == pytest.approx(downdate_alpha(sigma, z, r), rel=1e-14), trial

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_candidate_whose_square_overflows(self):
        # |y| = 1e160: |y|^2, |r_y|^2 and sigma(R0)^2 are out of range; the
        # secular equation is solved with them scaled by sigma_max.
        problem, _, _, psol = properties.solved_case(properties.TINY, 1e-6, 0)
        y, w = 1e160 * psol.x / np.linalg.norm(psol.x), WeightScheme()
        alpha = stability_constant(problem, y, w)
        assert 1e150 < alpha < 1e170
        assert alpha == pytest.approx(natural_alpha(problem, y, w), rel=1e-13)


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


class TestOverflowingCandidate:
    """y = 1e160 on t1: |y|^2 and |r_y|^2 are out of range, yet every norm
    the report needs is not. Each call ends in a finite value, with no
    overflow warning (an error under this filter)."""

    Y = np.array([1e160])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_estimate_is_finite(self, t1, unit_weights):
        assert math.isfinite(backward_error_estimate(t1, self.Y, np.array([1.0]), unit_weights))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stability_constant(self, t1, unit_weights):
        # n = 1: alpha is the norm of the row [u (S r_y)^T - |y| A^T S, A^T S],
        # (-2e160 + 1, -1, 1, 0), which is 2e160 to rounding.
        assert stability_constant(t1, self.Y, unit_weights) == pytest.approx(2e160, rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_is_finite(self, t1, unit_weights):
        report = backward_error_bounds(t1, self.Y, unit_weights, xi0=np.array([1.0]))
        assert report.bounds_applicable
        for value in (report.rho_xi1, report.rho_xi0, report.tau0, report.alpha, report.alpha_lower,
                      report.mu_lower, report.distance_lower):
            assert math.isfinite(value)


class TestCandidateAtTheEdgeOfRange:
    """On t1 the row of C that does not depend on xi has the entry
    1 - 2|y|: in range at y = 5e307, out of it at y = 1e308, though |y|
    itself is not."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_last_candidate_in_range(self, t1, unit_weights):
        y = np.array([5e307])
        assert stability_constant(t1, y, unit_weights) == 1e308
        assert backward_error_estimate(t1, y, np.array([1.0]), unit_weights) == math.sqrt(1.25)
        assert backward_error_bounds(t1, y, unit_weights).rho_xi1 == math.sqrt(1.25)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", [
        lambda t1, y, w: stability_constant(t1, y, w),
        lambda t1, y, w: backward_error_estimate(t1, y, np.array([1.0]), w),
        lambda t1, y, w: backward_error_bounds(t1, y, w),
    ], ids=["stability_constant", "backward_error_estimate", "backward_error_bounds"])
    def test_out_of_range_names_the_candidate_norm(self, t1, unit_weights, call):
        with pytest.raises(IlseError, match=r"\|y\| = 1\.000000e\+308"):
            call(t1, np.array([1e308]), unit_weights)


class TestContextProductOutOfRange:
    """y = [1e200]: C's blocks are in range, but a product the context forms
    is not: A^T S r_y = -1e400 with A = [[1e100], [0]], and B y = 1e400
    with B = [[1e200]]. Each call raises the IlseError naming |y|, with no
    overflow warning (an error under this filter)."""

    PROBLEMS = {
        "A^T S r_y": IlseProblem(A=np.array([[1e100], [0.0]]), b=np.ones(2), B=np.array([[1.0]]),
                                 d=np.ones(1), sig=SignatureMatrix(1, 1)),
        "B y": IlseProblem(A=np.array([[1.0], [0.0]]), b=np.ones(2), B=np.array([[1e200]]),
                           d=np.ones(1), sig=SignatureMatrix(1, 1)),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("product", PROBLEMS)
    @pytest.mark.parametrize("call", [
        lambda p, y, w: stability_constant(p, y, w),
        lambda p, y, w: backward_error_estimate(p, y, np.array([1.0]), w),
        lambda p, y, w: backward_error_bounds(p, y, w),
    ], ids=["stability_constant", "backward_error_estimate", "backward_error_bounds"])
    def test_names_the_candidate_norm(self, unit_weights, call, product):
        be._last_context = None
        with pytest.raises(IlseError, match=r"\|y\| = 1\.000000e\+200"):
            call(self.PROBLEMS[product], np.array([1e200]), unit_weights)


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
        # theta1**2 underflows to 0 at theta1 = 1e-200; the report's scale
        # hypot(1/theta1, |y|) never forms it.
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
        # per context, and R0's n x n SVD gives alpha and every rho: a
        # report takes no QR per multiplier and no SVD of anything with 2m
        # rows.
        problem, sol, _, psol = properties.solved_case(
            replace(properties.TINY, m=60, p=35, q=25), 1e-6, 0)
        m, n = problem.m, problem.n
        qr_shapes, svd_shapes = [], []
        dgeqrf, dgesdd, svdvals = be.dgeqrf, be.dgesdd, be.sla.svdvals

        def recording_dgeqrf(a, *args, **kwargs):
            qr_shapes.append(a.shape)
            return dgeqrf(a, *args, **kwargs)

        def recording_dgesdd(a, *args, **kwargs):
            svd_shapes.append(a.shape)
            return dgesdd(a, *args, **kwargs)

        def recording_svdvals(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svdvals(a, *args, **kwargs)

        monkeypatch.setattr(be, "dgeqrf", recording_dgeqrf)
        monkeypatch.setattr(be, "dgesdd", recording_dgesdd)
        monkeypatch.setattr(be.sla, "svdvals", recording_svdvals)
        be._last_context = None
        backward_error_bounds(problem, psol.x, WeightScheme(), xi0=sol.xi)
        assert qr_shapes == [(2 * m, n)]
        assert svd_shapes == [(n, n)]

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
