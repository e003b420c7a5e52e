"""Edge-shape contract: on s = 0, p = 0, q = 0, s = n, n = 1 and y = 0 the
solver either solves to a small augmented residual or raises
IllPosedProblemError, and the backward-error report is either finite or a
typed IlseError. No untyped ValueError and no RuntimeWarning."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ilse import (
    IllPosedProblemError,
    IlseError,
    IlseProblem,
    SignatureMatrix,
    WeightScheme,
    backward_error_bounds,
    residual_gamma,
    solve_ilse,
)

SHAPES = ("s=0", "p=0", "q=0", "s=n", "n=1", "y=0")


@st.composite
def edge_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    n = 1 if shape == "n=1" else draw(st.integers(1, 4))
    m = draw(st.integers(n, 6))
    s = 0 if shape == "s=0" else n if shape == "s=n" else draw(st.integers(0, n))
    p = 0 if shape == "p=0" else m if shape == "q=0" else draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    problem = IlseProblem(
        A=rng.standard_normal((m, n)), b=rng.standard_normal(m),
        B=rng.standard_normal((s, n)), d=rng.standard_normal(s),
        sig=SignatureMatrix(p, m - p),
    )
    y = np.zeros(n) if shape == "y=0" else rng.standard_normal(n)
    return problem, y


@settings(derandomize=True, max_examples=120, deadline=None)
@given(edge_cases())
def test_edge_shapes_solve_or_raise_typed_errors(case):
    problem, y = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = solve_ilse(problem)
        except IllPosedProblemError:
            pass
        else:
            assert residual_gamma(problem, sol) <= 1e-12
        try:
            report = backward_error_bounds(problem, y, WeightScheme())
        except IlseError:
            pass
        else:
            assert math.isfinite(report.rho_xi1)
