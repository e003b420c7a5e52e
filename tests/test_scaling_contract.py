"""Scaling contract: with A and b scaled by 10^k, k in [-150, 150], on the
edge shapes of test_edge_shapes, nothing emits a RuntimeWarning (the suite
turns one into an error). The checked solve either solves, with a finite
augmented residual gamma <= 1e-12, or raises a typed IlseError; the
weighted perturbation norm of a quadruple scaled by 10^k is 10^k times the
unscaled one; the backward-error report is finite or a typed IlseError;
and ``ilse solve`` prints every number of a scaled bundle.

One case reads its residual differently. With s = 0 and m = n the system
A x = b is consistent: the exact residual is 0 and the stored
r = b - A x is rounding noise of size eps 10^k |A||x|. The augmented
matrix's S block does not scale with A, so gamma grows like eps 10^k there
and passes 1e-12 from k = 4 on either solve route.
That case is held to the scale-free |r| <= 1e-12 (|A|_F |x| + |b|)
instead; gamma must still be finite."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilse import (
    IlseError,
    IlseProblem,
    PerturbationQuadruple,
    WeightScheme,
    backward_error_bounds,
    cli,
    properties,
    residual_gamma,
    solve_ilse,
    weighted_perturbation_norm,
)
from ilse.core import _norm
from ilse.harness import write_problem

from test_edge_shapes import edge_cases

EXPONENTS = st.integers(-150, 150)


def scaled(problem: IlseProblem, k: int) -> IlseProblem:
    """The problem with A and b scaled by 10^k."""
    return IlseProblem(problem.A * 10.0**k, problem.b * 10.0**k, problem.B, problem.d, problem.sig)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_cases(), EXPONENTS)
def test_scaled_solve_and_report_are_finite_or_typed_errors(case, k):
    problem, y = case
    problem = scaled(problem, k)
    try:
        sol = solve_ilse(problem)
    except IlseError:
        pass
    else:
        gamma = residual_gamma(problem, sol)
        assert math.isfinite(gamma)
        if problem.s == 0 and problem.m == problem.n:
            bound = _norm(problem.A) * _norm(sol.x) + _norm(problem.b)
            assert _norm(sol.r) <= 1e-12 * bound
        else:
            assert gamma <= 1e-12
    try:
        report = backward_error_bounds(problem, y, WeightScheme())
    except IlseError:
        pass
    else:
        for name in ("rho_xi1", "tau0", "alpha", "alpha_lower", "distance_lower"):
            assert math.isfinite(getattr(report, name)), name


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_cases(), EXPONENTS, st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, 2**32 - 1))
def test_weighted_perturbation_norm_scales_with_the_data(case, k, theta, seed):
    problem, _ = case
    rng = np.random.default_rng(seed)
    blocks = [rng.standard_normal(a.shape) for a in (problem.A, problem.b, problem.B, problem.d)]
    w = WeightScheme(theta, 1.0 / theta, theta)
    base = weighted_perturbation_norm(PerturbationQuadruple(*blocks), w)
    got = weighted_perturbation_norm(PerturbationQuadruple(*(a * 10.0**k for a in blocks)), w)
    assert got == pytest.approx(10.0**k * base, rel=1e-15)


@pytest.mark.parametrize("k", [100, 150])
def test_cli_solve_prints_every_number_of_a_scaled_bundle(capsys, tmp_path, k):
    problem = scaled(properties.solved_case(properties.TINY, 1e-6, 3)[0], k)
    write_problem(tmp_path / "scaled", problem)
    code = cli.main(["solve", "--problem", str(tmp_path / "scaled")])
    out = capsys.readouterr().out
    assert code == 0 and "null" not in out
    payload = json.loads(out)
    assert payload["gamma"] <= 1e-12
    assert all(math.isfinite(v) for v in [payload["residual_norm"],
                                          *payload["normal_equation_residual_norms"]])
