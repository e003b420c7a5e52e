"""`import ilse` exposes what a user calls, and nothing else. Helpers that
only tests, demos and the benchmark use stay in the modules that define
them, where perfbench's tracer and BENCHMARK.json's metrics find them."""

import importlib
import inspect

import pytest

import ilse

PUBLIC = [
    "BackwardErrorReport",
    "ExperimentConfig",
    "ExperimentRow",
    "GenParams",
    "GenerationError",
    "IllPosedProblemError",
    "IlseError",
    "IlseProblem",
    "IlseSolution",
    "MinimizeResult",
    "OptimizationError",
    "PerturbationQuadruple",
    "RankDeficiencyError",
    "SignatureMatrix",
    "WeightScheme",
    "WellPosednessReport",
    "apply_signature",
    "backward_error_bounds",
    "backward_error_estimate",
    "check_well_posedness",
    "format_rows",
    "gen_ilse_instance",
    "gen_perturbation",
    "gen_sigma_orthogonal",
    "least_squares_multiplier",
    "minimize_estimate",
    "mu_one",
    "normal_equation_residuals",
    "parse_experiment_csv",
    "perturbed_problem",
    "read_problem",
    "residual_gamma",
    "run_experiment",
    "run_trial",
    "solution_distance_lower_bound",
    "solve_ilse",
    "weighted_perturbation_norm",
    "write_problem",
]

MODULE_HELPERS = {
    "solver": ["assemble_augmented"],
    "backward_error": [
        "min_norm_perturbation",
        "pinv_norm_bound",
        "rhs_vector",
        "stability_constant",
        "stability_constant_lower_bound",
    ],
    "testgen": ["gen_conditioned_matrix", "gen_geometric_diagonal", "gen_random_orthogonal"],
}


def test_all_is_the_pinned_list_and_resolves():
    assert ilse.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(ilse, name)] == []


def test_no_other_function_or_class_is_exported():
    exported = {
        name for name, value in vars(ilse).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__.startswith("ilse.")
    }
    assert exported == set(PUBLIC)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in MODULE_HELPERS.items() for name in names
])
def test_helper_stays_in_its_module(module, name):
    mod = importlib.import_module(f"ilse.{module}")
    assert getattr(mod, name).__module__ == mod.__name__
    assert not hasattr(ilse, name)
