import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from ilse import (
    GenParams,
    GenerationError,
    IlseProblem,
    SignatureMatrix,
    check_well_posedness,
    gen_conditioned_matrix,
    gen_geometric_diagonal,
    gen_ilse_instance,
    gen_perturbation,
    gen_random_orthogonal,
    gen_sigma_orthogonal,
    residual_gamma,
    solve_ilse,
    testgen,
)
from ilse.testgen import subseed

def signature_residual(Q, p, q):
    S = np.diag(SignatureMatrix(p, q).diagonal())
    return np.max(np.abs(Q.T @ S @ Q - S))


class TestSigmaOrthogonal:
    def test_hyperbolic_identity_2x2(self):
        t = 0.73
        H = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
        S = np.diag([1.0, -1.0])
        assert np.max(np.abs(H.T @ S @ H - S)) <= 1e-15

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0])
    def test_invalid_hyper_bound_is_named(self, bound):
        with pytest.raises(ValueError, match="hyper_bound must be finite and >= 0"):
            gen_sigma_orthogonal(3, 2, seed=0, hyper_bound=bound)

    def test_orthogonal_when_no_rotations(self):
        Q = gen_sigma_orthogonal(3, 2, seed=1, hyper_bound=0.0)
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) <= 1e-13 * 5
        assert signature_residual(Q, 3, 2) <= 1e-13 * 5

    def test_paper_scale_residual(self):
        Q = gen_sigma_orthogonal(60, 40, seed=7, hyper_bound=1.0)
        assert signature_residual(Q, 60, 40) <= 1e-12 * 100

    def test_definite_cases(self):
        Q = gen_sigma_orthogonal(4, 0, seed=3)
        assert np.max(np.abs(Q.T @ Q - np.eye(4))) <= 1e-13 * 4
        Q = gen_sigma_orthogonal(0, 3, seed=3)
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-13 * 3

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 5), (5, 2), (7, 5), (24, 16), (60, 40), (130, 90), (4, 0), (0, 3)])
    @pytest.mark.parametrize("hyper_bound", [1.0, 0.0])
    def test_bitwise_equal_to_the_rotation_loop(self, p, q, hyper_bound):
        # The literal loop: one rotation at a time, each on copies of its two
        # columns. The waves (orders up to 200; (130, 90) takes the loop)
        # must give its bits, on which the seeded instances of every table
        # depend.
        def reference(p, q, seed, hyper_bound):
            m = p + q

            def block(seed_p, seed_q):
                M = np.eye(m)
                if p > 0:
                    M[:p, :p] = gen_random_orthogonal(p, seed_p)
                if q > 0:
                    M[p:, p:] = gen_random_orthogonal(q, seed_q)
                return M

            Q = block(subseed(seed, testgen._STREAM_Q_PLUS), subseed(seed, testgen._STREAM_Q_MINUS))
            rng = np.random.Generator(np.random.Philox(key=subseed(seed, testgen._STREAM_ROTATIONS)))
            for _ in range(min(p, q)):
                i = int(rng.integers(0, p))
                j = p + int(rng.integers(0, q))
                t = float(rng.uniform(-hyper_bound, hyper_bound))
                c, s = np.cosh(t), np.sinh(t)
                col_i = Q[:, i].copy()
                col_j = Q[:, j].copy()
                Q[:, i] = c * col_i + s * col_j
                Q[:, j] = s * col_i + c * col_j
            right = block(subseed(seed, testgen._STREAM_Q_PLUS ^ testgen._STREAM_U),
                          subseed(seed, testgen._STREAM_Q_MINUS ^ testgen._STREAM_U))
            return Q @ right

        for seed in (0, 1, 7, 2**63 + 5, 20240901):
            got = gen_sigma_orthogonal(p, q, seed, hyper_bound)
            assert got.tobytes() == reference(p, q, seed, hyper_bound).tobytes()


    @pytest.mark.parametrize("p, q", [(7, 5), (4, 8), (5, 0), (0, 4)])
    def test_cols_are_the_leading_columns_bitwise(self, p, q):
        full = gen_sigma_orthogonal(p, q, 11)
        for cols in range(p + q + 1):
            assert gen_sigma_orthogonal(p, q, 11, cols=cols).tobytes() == full[:, :cols].tobytes()

    @pytest.mark.parametrize("cols", [-1, 6])
    def test_cols_out_of_range_is_named(self, cols):
        with pytest.raises(ValueError, match=r"cols must be in \[0, p \+ q\], got"):
            gen_sigma_orthogonal(3, 2, seed=0, cols=cols)


class TestRandomOrthogonal:
    def test_one_dimensional(self):
        Q = gen_random_orthogonal(1, seed=0)
        assert Q.shape == (1, 1)
        assert abs(abs(Q[0, 0]) - 1.0) == 0.0

    def test_orthonormal_columns(self):
        for n in (2, 5, 17, 50):
            Q = gen_random_orthogonal(n, seed=n)
            assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-13 * n

    def test_deterministic(self):
        assert np.array_equal(gen_random_orthogonal(8, 5), gen_random_orthogonal(8, 5))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_random_orthogonal(0, seed=1)

    # 257 is odd; 400, 500 and 600 are solve_stream's factor sizes, one seed
    # each to keep the suite's time down.
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 40, 50, 60, 100, 200, 257, 400, 500, 600])
    def test_bitwise_equal_to_the_reflector_loop(self, n):
        # The literal loop the generator replaced: one draw per reflector,
        # np.linalg.norm and an np.outer update. The seeded instances of
        # every table depend on these bits.
        def reference(n, seed):
            rng = np.random.Generator(np.random.Philox(key=seed))
            Q = np.eye(n)
            for k in range(n - 1):
                x = rng.standard_normal(n - k)
                v = x.copy()
                v[0] += math.copysign(np.linalg.norm(x), x[0])
                vv = float(v @ v)
                if vv == 0.0:
                    continue
                Q[k:, :] -= np.outer(v, (2.0 / vv) * (v @ Q[k:, :]))
            return Q

        for seed in (0, 1, 7, 2**63 + 5, 20240901) if n <= 200 else (20240901,):
            assert gen_random_orthogonal(n, seed).tobytes() == reference(n, seed).tobytes()


class TestGeometricDiagonal:
    def test_hand_ladder(self):
        D = gen_geometric_diagonal(3, 3, 100.0)
        np.testing.assert_allclose(np.diag(D), [1.0, 0.1, 0.01], rtol=1e-14)

    def test_single_column(self):
        D = gen_geometric_diagonal(4, 1, 123.0)
        assert D.shape == (4, 1)
        assert D[0, 0] == 1.0

    def test_endpoint_ratio(self):
        for kappa in (10.0, 1e4, 1e8):
            ladder = np.diag(gen_geometric_diagonal(9, 9, kappa))
            assert ladder[0] / ladder[-1] == pytest.approx(kappa, rel=1e-12)

    def test_invalid_arguments(self):
        for kappa in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa"):
                gen_geometric_diagonal(3, 3, kappa)
        with pytest.raises(ValueError):
            gen_geometric_diagonal(2, 3, 10.0)


class TestConditionedMatrix:
    def test_isometric_rows_at_kappa_one(self):
        B = gen_conditioned_matrix(4, 9, 1.0, seed=2)
        assert np.max(np.abs(B @ B.T - np.eye(4))) <= 1e-12

    def test_condition_number(self):
        B = gen_conditioned_matrix(5, 12, 1e4, seed=3)
        sv = sla.svdvals(B)
        assert sv[0] / sv[-1] == pytest.approx(1e4, rel=1e-8)

    def test_unit_spectral_norm(self):
        B = gen_conditioned_matrix(5, 12, 100.0, seed=4)
        assert sla.svdvals(B)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_invalid_kappa_raises_at_every_s(self, s):
        for kappa in (-5.0, 0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa must be finite and >= 1"):
                gen_conditioned_matrix(s, 3, kappa, 0)


class TestGenInstance:
    def test_orthogonal_factor_preserves_nominal_kappa(self):
        params = GenParams(m=20, n=10, s=4, p=12, q=8, kappa_a=50.0, kappa_b=10.0,
                           seed=5, hyper_bound=0.0)
        problem, achieved = gen_ilse_instance(params)
        assert achieved == pytest.approx(50.0, rel=1e-6)

    def test_paper_dimensions_well_posed_and_normalized(self):
        params = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e2, kappa_b=1e2, seed=6)
        problem, achieved = gen_ilse_instance(params)
        assert check_well_posedness(problem).well_posed
        assert sla.svdvals(problem.A)[0] == pytest.approx(1.0, abs=1e-12)
        assert sla.svdvals(problem.B)[0] == pytest.approx(1.0, abs=1e-12)
        assert achieved >= 1.0

    def test_deterministic(self):
        params = GenParams(m=12, n=6, s=2, p=7, q=5, kappa_a=30.0, kappa_b=20.0, seed=9)
        p1, k1 = gen_ilse_instance(params)
        p2, k2 = gen_ilse_instance(params)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.B, p2.B)
        assert np.array_equal(p1.d, p2.d)
        assert k1 == k2

    def test_no_constraints(self):
        problem, _ = gen_ilse_instance(GenParams(12, 6, 0, 7, 5, kappa_a=30.0, kappa_b=20.0, seed=4))
        assert problem.B.shape == (0, 6)
        assert check_well_posedness(problem).well_posed
        assert residual_gamma(problem, solve_ilse(problem)) <= 1e-12

    @pytest.mark.parametrize("params, attempts", [
        pytest.param(GenParams(10, 6, 2, 4, 6, kappa_a=10.0, kappa_b=10.0, seed=0), 1, id="first"),
        pytest.param(GenParams(10, 6, 2, 4, 6, kappa_a=10.0, kappa_b=10.0, seed=6), 4, id="retried"),
        pytest.param(GenParams(4, 2, 1, 0, 4, kappa_a=2.0, kappa_b=2.0, seed=1), 10, id="hopeless"),
    ])
    def test_one_sigma_orthogonal_call_per_attempt(self, monkeypatch, params, attempts):
        # Each attempt draws its Q through the module's gen_sigma_orthogonal
        # and is judged by one check, so wrapping that attribute counts the
        # attempts, retries included.
        counts = {"gen_sigma_orthogonal": 0, "check_well_posedness": 0}

        def counted(name):
            fn = getattr(testgen, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in counts:
            monkeypatch.setattr(testgen, name, counted(name))
        try:
            gen_ilse_instance(params)
        except GenerationError:
            assert attempts == 10
        assert counts == {"gen_sigma_orthogonal": attempts, "check_well_posedness": attempts}

    def test_hopeless_family_errors_after_retries(self):
        # q = m makes A^T S A negative definite, so the uniqueness condition
        # fails on every draw whenever the constraint null space is nontrivial.
        params = GenParams(m=4, n=2, s=1, p=0, q=4, kappa_a=2.0, kappa_b=2.0, seed=1)
        with pytest.raises(GenerationError):
            gen_ilse_instance(params)

    def test_no_constraints_failure_names_its_cause(self):
        # At s = 0 nothing projects A^T S A = U^T D^T S D U, which has a
        # negative eigenvalue in every draw when p < n.
        params = GenParams(12, 6, 0, 5, 7, kappa_a=1e2, kappa_b=1.0, seed=0)
        with pytest.raises(GenerationError, match=r"\(s = 0\) A\^T S A must be positive definite, "
                                                  r"which needs p >= n$"):
            gen_ilse_instance(params)
        # With p >= n, a numerically rank-deficient A (kappa_a > 1/eps) fails without that cause.
        with pytest.raises(GenerationError, match=r"kappa_b=1\)$"):
            gen_ilse_instance(dataclasses.replace(params, p=7, q=5, kappa_a=1e20))

    def test_no_constraints_at_kappa_a_1e8_is_well_posed(self):
        # p >= n makes A^T S A positive definite by construction, though its
        # smallest eigenvalue, about 1e-16, lies below the rounding of forming it.
        problem, _ = gen_ilse_instance(GenParams(12, 6, 0, 7, 5, kappa_a=1e8, kappa_b=1.0, seed=0))
        assert check_well_posedness(problem).well_posed

    def test_constrained_failure_keeps_its_message(self):
        params = GenParams(m=4, n=2, s=1, p=0, q=4, kappa_a=2.0, kappa_b=2.0, seed=1)
        with pytest.raises(GenerationError) as excinfo:
            gen_ilse_instance(params)
        assert str(excinfo.value) == (
            "no well-posed instance after 10 attempts (seed=1, kappa_a=2, kappa_b=2)"
        )

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GenParams(m=4, n=2, s=1, p=1, q=1, kappa_a=2.0, kappa_b=2.0, seed=0)
        with pytest.raises(ValueError):
            GenParams(m=2, n=4, s=1, p=1, q=1, kappa_a=2.0, kappa_b=2.0, seed=0)
        with pytest.raises(ValueError):
            GenParams(m=4, n=2, s=3, p=2, q=2, kappa_a=2.0, kappa_b=2.0, seed=0)
        with pytest.raises(ValueError):
            GenParams(m=4, n=2, s=1, p=2, q=2, kappa_a=0.5, kappa_b=2.0, seed=0)

    @pytest.mark.parametrize("dims, message", [
        (dict(m=4, n=0, s=0, p=4, q=0), "n must be >= 1, got 0"),
        (dict(m=4, n=-2, s=0, p=4, q=0), "n must be >= 1, got -2"),
        (dict(m=4, n=2, s=-1, p=4, q=0), "s must be >= 0, got -1"),
        (dict(m=4, n=2, s=1, p=-1, q=5), "p must be >= 0, got -1"),
        (dict(m=4, n=2, s=1, p=5, q=-1), "q must be >= 0, got -1"),
    ])
    def test_negative_or_empty_dimension_is_named(self, dims, message):
        with pytest.raises(ValueError) as excinfo:
            GenParams(**dims, kappa_a=2.0, kappa_b=2.0, seed=0)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("dims, message", [
        (dict(m=12.5, n=6, s=3, p=7.5, q=5), "m must be an integer, got 12.5"),
        (dict(m=12, n=6.0, s=3, p=7, q=5), "n must be an integer, got 6.0"),
        (dict(m=12, n=6, s=True, p=7, q=5), "s must be an integer, got True"),
        (dict(m=12, n=6, s=3, p=np.float64(7.0), q=5), "p must be an integer, got np.float64(7.0)"),
        (dict(m=12, n=6, s=3, p=7, q="5"), "q must be an integer, got '5'"),
    ])
    def test_non_integer_dimension_is_named(self, dims, message):
        with pytest.raises(ValueError) as excinfo:
            GenParams(**dims, kappa_a=2.0, kappa_b=2.0, seed=0)
        assert str(excinfo.value) == message

    def test_numpy_integer_dimensions(self):
        dims = dict(m=12, n=6, s=3, p=7, q=5)
        plain, _ = gen_ilse_instance(GenParams(**dims, kappa_a=30.0, kappa_b=20.0, seed=9))
        numpy_dims = {k: np.int64(v) for k, v in dims.items()}
        problem, _ = gen_ilse_instance(GenParams(**numpy_dims, kappa_a=30.0, kappa_b=20.0, seed=9))
        for name in ("A", "b", "B", "d"):
            assert getattr(problem, name).tobytes() == getattr(plain, name).tobytes()


def literal_instance(params):
    """gen_ilse_instance written out with A = Q D U from the public
    generators, the same seeds and the same retries."""
    m, n, s, p, q = params.m, params.n, params.s, params.p, params.q
    for attempt in range(10):
        seed = params.seed if attempt == 0 else subseed(params.seed, testgen._STREAM_RETRY * attempt)
        Q = gen_sigma_orthogonal(p, q, subseed(seed, testgen._STREAM_SIGMA), params.hyper_bound)
        D = gen_geometric_diagonal(m, n, params.kappa_a)
        A = Q @ D @ gen_random_orthogonal(n, subseed(seed, testgen._STREAM_U))
        sv = sla.svdvals(A)
        A = A / sv[0]
        B = gen_conditioned_matrix(s, n, params.kappa_b, subseed(seed, testgen._STREAM_B_MAT))
        b = testgen._rng(subseed(seed, testgen._STREAM_RHS_B)).standard_normal(m)
        d = testgen._rng(subseed(seed, testgen._STREAM_RHS_D)).standard_normal(s)
        problem = IlseProblem(A, b, B, d, SignatureMatrix(p, q))
        if check_well_posedness(problem).well_posed:
            return problem, float(sv[0] / sv[-1])
    raise AssertionError("no well-posed attempt")


class TestGenInstanceBits:
    @pytest.mark.parametrize("m, n, s, p, q, hyper_bound", [
        pytest.param(24, 12, 5, 14, 10, 1.0, id="n<p"),
        pytest.param(12, 6, 3, 4, 8, 1.0, id="n>p"),
        pytest.param(8, 5, 2, 8, 0, 1.0, id="q=0"),
        pytest.param(10, 6, 2, 6, 4, 1.0, id="p=n"),
        pytest.param(12, 6, 0, 7, 5, 0.0, id="s=0"),
        pytest.param(3, 1, 1, 2, 1, 1.0, id="n=1"),
        pytest.param(100, 50, 20, 60, 40, 1.0, id="paper"),
    ])
    @pytest.mark.parametrize("kappa_a", [1e2, 1e8])
    def test_bitwise_equal_to_q_d_u(self, m, n, s, p, q, hyper_bound, kappa_a):
        # gen_ilse_instance scales Q's first n columns by the ladder in place
        # of the product with D, and leaves out the factor block that only
        # D's zero rows see; A, B, b and d keep the bits of the literal Q D U.
        for seed in range(5):
            params = GenParams(m, n, s, p, q, kappa_a=kappa_a, kappa_b=1e4, seed=seed,
                               hyper_bound=hyper_bound)
            expected, expected_kappa = literal_instance(params)
            problem, achieved = gen_ilse_instance(params)
            for name in ("A", "B", "b", "d"):
                assert getattr(problem, name).tobytes() == getattr(expected, name).tobytes(), name
            assert achieved == expected_kappa


class TestGenPerturbation:
    def test_zero_eps(self, t1):
        pert = gen_perturbation(t1, 0.0, seed=1)
        assert np.all(pert.E == 0.0) and np.all(pert.f == 0.0)
        assert np.all(pert.F == 0.0) and np.all(pert.g == 0.0)

    def test_expected_magnitude(self):
        params = GenParams(m=100, n=50, s=20, p=60, q=40, kappa_a=1e2, kappa_b=1e2, seed=8)
        problem, _ = gen_ilse_instance(params)
        eps = 1e-6
        pert = gen_perturbation(problem, eps, seed=10)
        # ||E||_F^2 concentrates around eps^2 * m * n
        assert np.sum(pert.E**2) == pytest.approx(eps**2 * 100 * 50, rel=0.25)
        assert np.sum(pert.f**2) == pytest.approx(
            eps**2 * np.sum(problem.b**2) * 100, rel=0.4
        )

    def test_deterministic(self, t1):
        a = gen_perturbation(t1, 1e-3, seed=2)
        b = gen_perturbation(t1, 1e-3, seed=2)
        assert np.array_equal(a.E, b.E) and np.array_equal(a.g, b.g)

    def test_negative_eps_rejected(self, t1):
        with pytest.raises(ValueError):
            gen_perturbation(t1, -1.0, seed=0)
