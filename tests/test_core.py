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
from ilse.core import _norm

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


class TestNorm:
    @pytest.mark.parametrize("shape", [(0,), (7,), (5, 3), (1, 1)])
    def test_bits_of_numpy_where_the_sum_of_squares_is_finite(self, shape):
        a = np.random.default_rng(3).standard_normal(shape) * 1e100
        assert _norm(a) == float(np.linalg.norm(a))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e160, 1e300, 1e308])
    def test_squares_out_of_range(self, big):
        # The sum of squares overflows; the norm 2 big is in range up to 1e308.
        assert _norm(np.full((2, 2), big)) == pytest.approx(2.0 * big, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_norm_is_inf(self):
        assert _norm(np.full(4, 1e308)) == math.inf

    def test_non_finite_entries(self):
        assert _norm(np.array([1.0, -math.inf])) == math.inf
        assert math.isnan(_norm(np.array([1.0, math.nan])))


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weight, block", [("theta1", "f"), ("theta2", "F"), ("theta3", "g")])
    def test_weighted_block_whose_square_overflows(self, weight, block):
        # theta**2 = 1e300 is finite; its product with the block's 1e20 is not.
        blocks = dict(E=np.ones((2, 2)), f=np.zeros(2), F=np.zeros((2, 2)), g=np.zeros(2))
        blocks[block].flat[:2] = [6e9, 8e9]
        pert = PerturbationQuadruple(**blocks)
        got = weighted_perturbation_norm(pert, WeightScheme(**{weight: 1e150}))
        assert got == pytest.approx(1e160, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", ["E", "f", "F", "g"])
    def test_block_whose_squares_overflow(self, block):
        # 1e160**2 is out of range; the norm 2e160 of four such entries is not.
        blocks = dict(E=np.zeros((2, 2)), f=np.zeros(2), F=np.zeros((2, 2)), g=np.zeros(2))
        blocks[block][...] = 1e160 / (2.0 if blocks[block].ndim == 2 else math.sqrt(2.0))
        blocks["E"][0, 0] += 1.0
        got = weighted_perturbation_norm(PerturbationQuadruple(**blocks), WeightScheme())
        assert got == pytest.approx(1e160, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_matrix_at_unit_weights(self, unit_weights):
        pert = PerturbationQuadruple(E=1e160 * np.ones((2, 2)), f=np.zeros(2),
                                     F=np.zeros((1, 2)), g=np.zeros(1))
        assert weighted_perturbation_norm(pert, unit_weights) == pytest.approx(2e160, rel=1e-15)

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
