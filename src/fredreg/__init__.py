"""Adaptive-rank iterative regularization for first-kind integral equations.

The package solves ill-posed Fredholm equations of the first kind with
noisy data by a geometrically blended shifted-inverse iteration whose
finite-dimensional operator approximations (Haar-Galerkin matrices of a
Simpson degenerate kernel) grow in rank as the regularization parameter
decays, stopped by a discrepancy-type rule.
"""

from .assembly import OperatorCache, error_budget, exponential_kernel
from .experiment import (
    PAPER_NOISE_LEVELS,
    NoiseSpec,
    add_noise,
    avg_error,
    exact_problem,
    rows_from_csv,
    run_table,
    sample_grid,
    trapezoid_norm,
)
from .haar import exp_haar_matrix, haar_eval, project, split_index, synthesis_matrix
from .iteration import (
    FactorizationError,
    SolverConfig,
    rank_schedule,
    run_adaptive,
    run_fixed,
)
from .quadrature import simpson_rule

__version__ = "0.1.0"

# The public API: the names the demos, the CLI, the README and the
# benchmark import. Everything else is reached through its module.
__all__ = [
    "FactorizationError",
    "NoiseSpec",
    "OperatorCache",
    "PAPER_NOISE_LEVELS",
    "SolverConfig",
    "add_noise",
    "avg_error",
    "error_budget",
    "exact_problem",
    "exp_haar_matrix",
    "exponential_kernel",
    "haar_eval",
    "project",
    "rank_schedule",
    "rows_from_csv",
    "run_adaptive",
    "run_fixed",
    "run_table",
    "sample_grid",
    "simpson_rule",
    "split_index",
    "synthesis_matrix",
    "trapezoid_norm",
]
