"""Adaptive-rank iterative regularization for first-kind integral equations.

The package solves ill-posed Fredholm equations of the first kind with
noisy data by a geometrically blended shifted-inverse iteration whose
finite-dimensional operator approximations (Haar-Galerkin matrices of a
Simpson degenerate kernel) grow in rank as the regularization parameter
decays, stopped by a discrepancy-type rule.
"""

from .assembly import (
    ErrorBudget,
    GramMatrix,
    Kernel,
    OperatorCache,
    assemble_gram,
    data_coefficients,
    error_budget,
    exponential_kernel,
    galerkin_matrix,
)
from .experiment import (
    CSV_COLUMNS,
    PAPER_NOISE_LEVELS,
    ExperimentRow,
    NoiseSpec,
    Problem,
    add_noise,
    avg_error,
    exact_problem,
    rows_from_csv,
    rows_to_csv,
    run_table,
    sample_grid,
    trapezoid_norm,
)
from .haar import (
    HaarCoefficients,
    exp_haar_inner,
    exp_haar_matrix,
    exp_t_haar_inner,
    exp_t_haar_matrix,
    haar_eval,
    join_index,
    project,
    split_index,
    synthesis_matrix,
)
from .iteration import (
    IterationState,
    SolveOutcome,
    SolverConfig,
    StepRecord,
    closed_form_iterate,
    discrepancy_update,
    dsm_step,
    geometric_weights,
    rank_schedule,
    run_adaptive,
    run_fixed,
)
from .quadrature import QuadratureRule, TaylorPartition, simpson_rule, taylor_partition
from .shifted import FactorizationError, ShiftedSystem, solve_shifted

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "ErrorBudget",
    "ExperimentRow",
    "FactorizationError",
    "GramMatrix",
    "HaarCoefficients",
    "IterationState",
    "Kernel",
    "NoiseSpec",
    "OperatorCache",
    "PAPER_NOISE_LEVELS",
    "Problem",
    "QuadratureRule",
    "ShiftedSystem",
    "SolveOutcome",
    "SolverConfig",
    "StepRecord",
    "TaylorPartition",
    "add_noise",
    "assemble_gram",
    "avg_error",
    "closed_form_iterate",
    "data_coefficients",
    "discrepancy_update",
    "dsm_step",
    "error_budget",
    "exact_problem",
    "exp_haar_inner",
    "exp_haar_matrix",
    "exp_t_haar_inner",
    "exp_t_haar_matrix",
    "exponential_kernel",
    "galerkin_matrix",
    "geometric_weights",
    "haar_eval",
    "join_index",
    "project",
    "rank_schedule",
    "rows_from_csv",
    "rows_to_csv",
    "run_adaptive",
    "run_fixed",
    "run_table",
    "sample_grid",
    "simpson_rule",
    "solve_shifted",
    "split_index",
    "synthesis_matrix",
    "taylor_partition",
    "trapezoid_norm",
]
