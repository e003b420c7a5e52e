"""Equality-constrained indefinite least squares: direct solution through
the augmented system and certified linearized backward-error estimation.
"""

from .core import (
    BackwardErrorReport,
    GenerationError,
    IllPosedProblemError,
    IlseError,
    IlseProblem,
    IlseSolution,
    OptimizationError,
    PerturbationQuadruple,
    RankDeficiencyError,
    SignatureMatrix,
    WeightScheme,
    apply_signature,
    perturbed_problem,
    weighted_perturbation_norm,
)
from .solver import (
    WellPosednessReport,
    check_well_posedness,
    normal_equation_residuals,
    solve_ilse,
)
from .backward_error import (
    backward_error_bounds,
    backward_error_estimate,
    least_squares_multiplier,
    solution_distance_lower_bound,
)
from .oracle import (
    MinimizeResult,
    minimize_estimate,
)
from .testgen import (
    GenParams,
    gen_ilse_instance,
    gen_perturbation,
    gen_sigma_orthogonal,
)
from .harness import (
    ExperimentConfig,
    ExperimentRow,
    format_rows,
    mu_one,
    parse_experiment_csv,
    read_problem,
    residual_gamma,
    run_experiment,
    run_trial,
    write_problem,
)

__version__ = "0.1.0"

__all__ = [
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
