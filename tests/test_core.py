import math

import numpy as np
import pytest

from ilse import (
    IlseProblem,
    PerturbationQuadruple,
    SignatureMatrix,
    WeightScheme,
    apply_signature,
    perturbed_problem,
    weighted_perturbation_norm,
)

class TestApplySignature:
    def test_mixed_signs(self):
        sig = SignatureMatrix(1, 1)
        assert np.array_equal(apply_signature(sig, [1.0, 1.0]), [1.0, -1.0])

    def test_identity_when_q_zero(self):
        sig = SignatureMatrix(2, 0)
        assert np.array_equal(apply_signature(sig, [3.0, 4.0]), [3.0, 4.0])

    def test_matrix_rows(self):
        sig = SignatureMatrix(1, 2)
        M = np.arange(6.0).reshape(3, 2)
        out = apply_signature(sig, M)
        assert np.array_equal(out[0], M[0])
        assert np.array_equal(out[1:], -M[1:])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_signature(SignatureMatrix(1, 1), [1.0, 2.0, 3.0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SignatureMatrix(-1, 2)


class TestWeightedPerturbationNorm:
    def test_zero(self, unit_weights):
        pert = PerturbationQuadruple(
            E=np.zeros((2, 2)), f=np.zeros(2), F=np.zeros((1, 2)), g=np.zeros(1)
        )
        assert weighted_perturbation_norm(pert, unit_weights) == 0.0

    def test_single_entry(self, unit_weights):
        E = np.zeros((2, 2))
        E[0, 1] = 1.0
        pert = PerturbationQuadruple(E=E, f=np.zeros(2), F=np.zeros((1, 2)), g=np.zeros(1))
        assert weighted_perturbation_norm(pert, unit_weights) == 1.0

    def test_two_blocks(self, unit_weights):
        E = np.zeros((2, 2))
        E[0, 0] = 2.0
        f = np.array([1.0, 0.0])
        pert = PerturbationQuadruple(E=E, f=f, F=np.zeros((1, 2)), g=np.zeros(1))
        assert weighted_perturbation_norm(pert, unit_weights) == pytest.approx(math.sqrt(5.0))

    def test_weight_whose_square_overflows(self):
        f = np.array([3e-100, 4e-100])
        pert = PerturbationQuadruple(E=np.ones((2, 2)), f=f, F=np.zeros((1, 2)), g=np.zeros(1))
        assert weighted_perturbation_norm(pert, WeightScheme(theta1=1e200)) == pytest.approx(5e100)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            WeightScheme(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            WeightScheme(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            WeightScheme(1.0, 1.0, math.inf)


class TestIlseProblem:
    def test_valid(self, t1):
        assert (t1.m, t1.n, t1.s) == (2, 1, 1)

    def test_arrays_read_only(self, t1):
        with pytest.raises(ValueError):
            t1.A[0, 0] = 5.0

    def test_m_less_than_n_rejected(self):
        with pytest.raises(ValueError):
            IlseProblem(
                A=np.ones((1, 2)), b=np.ones(1), B=np.ones((1, 2)), d=np.ones(1),
                sig=SignatureMatrix(1, 0),
            )

    @pytest.mark.parametrize("m", [3, 0])
    def test_no_columns_rejected(self, m):
        with pytest.raises(ValueError, match="A must have at least one column"):
            IlseProblem(
                A=np.zeros((m, 0)), b=np.ones(m), B=np.zeros((0, 0)), d=np.zeros(0),
                sig=SignatureMatrix(m, 0),
            )

    def test_s_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            IlseProblem(
                A=np.ones((3, 1)), b=np.ones(3), B=np.ones((2, 1)), d=np.ones(2),
                sig=SignatureMatrix(2, 1),
            )

    def test_signature_order_mismatch(self):
        with pytest.raises(ValueError):
            IlseProblem(
                A=np.ones((2, 1)), b=np.ones(2), B=np.ones((1, 1)), d=np.ones(1),
                sig=SignatureMatrix(2, 1),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            IlseProblem(
                A=np.array([[np.nan], [0.0]]), b=np.ones(2), B=np.ones((1, 1)), d=np.ones(1),
                sig=SignatureMatrix(1, 1),
            )

    def test_perturbed_problem(self, t1):
        pert = PerturbationQuadruple(
            E=np.full((2, 1), 0.5), f=np.array([1.0, -1.0]),
            F=np.array([[2.0]]), g=np.array([3.0]),
        )
        out = perturbed_problem(t1, pert)
        assert np.array_equal(out.A, t1.A + 0.5)
        assert np.array_equal(out.b, [2.0, 0.0])
        assert np.array_equal(out.B, [[3.0]])
        assert np.array_equal(out.d, [3.0])

    def test_perturbed_problem_shape_mismatch(self, t1):
        pert = PerturbationQuadruple(
            E=np.zeros((3, 1)), f=np.zeros(3), F=np.zeros((1, 1)), g=np.zeros(1)
        )
        with pytest.raises(ValueError):
            perturbed_problem(t1, pert)
