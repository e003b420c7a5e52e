import functools

import numpy as np
import pytest

from ilse import properties
from ilse import (
    GenParams,
    IlseProblem,
    SignatureMatrix,
    WeightScheme,
    gen_ilse_instance,
    gen_perturbation,
    perturbed_problem,
    solve_ilse,
)
from ilse.oracle import estimate_on_grid
from ilse.testgen import subseed


def t1_problem():
    """Hand-checkable micro instance: p=q=1, A=[1;0], b=(1,1), B=[1], d=(0).

    Exact solution x=0 with multiplier xi=1; the candidate y=0.1 exercises
    every closed-form quantity with values verified by hand.
    """
    return IlseProblem(
        A=np.array([[1.0], [0.0]]),
        b=np.array([1.0, 1.0]),
        B=np.array([[1.0]]),
        d=np.array([0.0]),
        sig=SignatureMatrix(1, 1),
    )


@pytest.fixture
def t1():
    return t1_problem()


@pytest.fixture
def unit_weights():
    return WeightScheme(1.0, 1.0, 1.0)


SMALL_DIMS = dict(m=24, n=12, s=5, p=14, q=10)


def small_params(seed, kappa_a=50.0, kappa_b=100.0, **overrides):
    kwargs = dict(SMALL_DIMS, kappa_a=kappa_a, kappa_b=kappa_b, seed=seed)
    kwargs.update(overrides)
    return GenParams(**kwargs)


def solved_case(seed, eps=1e-4, **overrides):
    """Generate, solve, perturb, re-solve; returns (problem, sol, pert, psol)."""
    problem, _ = gen_ilse_instance(small_params(subseed(seed, 0x51ED), **overrides))
    sol = solve_ilse(problem)
    pert = gen_perturbation(problem, eps, subseed(seed, 0x9E37))
    psol = solve_ilse(perturbed_problem(problem, pert), check_well_posed=False)
    return problem, sol, pert, psol


@functools.cache
def row_result(prop):
    """A property row's result at the default suite, run once per session
    and shared by every test that reads it."""
    return properties.run_row(prop, properties.Suite())


@functools.cache
def t1_grid_minimum():
    """(xi, rho) of the 20001-point scan of rho on t1 at y = 0.1, unit
    weights, xi in [0, 2] with step 1e-4; scanned once per session."""
    return estimate_on_grid(t1_problem(), np.array([0.1]), WeightScheme(1.0, 1.0, 1.0), 0.0, 2.0, 1e-4)


def assert_row_passes(prop):
    result = row_result(prop)
    assert result.ok and result.passed > 0, result.line()
