import math

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
from ilse import backward_error as be, properties
from ilse.backward_error import linearization_matrix
from ilse.oracle import estimate_via_normal_equations, linearization_pinv_norm

from conftest import solved_case

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
        # r_y = 0, y = 0 and xi = 0 leave C = [[0, 0, 1e-17, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, -1]]:
        # R^-1 exists, so only the pre-test's bound rejects it, and the error
        # carries the singular-value test's sigma_min = 1e-17
        problem = IlseProblem(
            A=np.array([[1e-17], [0.0]]), b=np.zeros(2), B=np.array([[1.0]]), d=np.array([1.0]),
            sig=SignatureMatrix(1, 1),
        )
        C = be._sorted_compressed_transpose(problem, np.zeros(1), np.zeros(1), unit_weights)[1].T
        assert sla.svdvals(C)[-1] == pytest.approx(1e-17, rel=1e-12)
        with pytest.raises(RankDeficiencyError) as excinfo:
            backward_error_estimate(problem, np.zeros(1), np.zeros(1), unit_weights)
        assert excinfo.value.sigma_min == pytest.approx(1e-17, rel=1e-12)


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
        report = backward_error_bounds(residual_free_problem(), np.array([0.5]), unit_weights)
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
