"""Adaptive-rank iterative regularization for first-kind integral equations.

The package solves ill-posed Fredholm equations of the first kind with
noisy data by a geometrically blended shifted-inverse iteration whose
finite-dimensional operator approximations (Haar-Galerkin matrices of a
Simpson degenerate kernel) grow in rank as the regularization parameter
decays, stopped by a discrepancy-type rule.
"""

from .assembly import (
    OperatorCache,
    error_budget,
    sample_grid,
    simpson_rule,
)
from .experiment import (
    PAPER_NOISE_LEVELS,
    NoiseSpec,
    add_noise,
    avg_error,
    exact_problem,
    rows_from_csv,
    run_table,
    trapezoid_norm,
)
from .haar import exp_haar_matrix, project
from .iteration import SolverConfig, rank_schedule, run_adaptive, run_fixed

__version__ = "0.1.0"

# The public API: the names the demos, the CLI, the README and the
# benchmark import. The rest, haar.evaluate too, is reached by module.
__all__ = [
    "NoiseSpec",
    "OperatorCache",
    "PAPER_NOISE_LEVELS",
    "SolverConfig",
    "add_noise",
    "avg_error",
    "error_budget",
    "exact_problem",
    "exp_haar_matrix",
    "project",
    "rank_schedule",
    "rows_from_csv",
    "run_adaptive",
    "run_fixed",
    "run_table",
    "sample_grid",
    "simpson_rule",
    "trapezoid_norm",
]
