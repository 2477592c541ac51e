import fredreg

PUBLIC = {
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
}


def test_public_names():
    assert len(fredreg.__all__) == len(PUBLIC) == 23
    assert set(fredreg.__all__) == PUBLIC
    for name in fredreg.__all__:
        assert getattr(fredreg, name) is not None, name
