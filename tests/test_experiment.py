import math

import numpy as np
import pytest
from scipy.integrate import quad

from fredreg.experiment import (
    CSV_COLUMNS,
    NoiseSpec,
    add_noise,
    avg_error,
    exact_problem,
    rows_from_csv,
    rows_to_csv,
    run_table,
    sample_grid,
    trapezoid_norm,
)
from fredreg.assembly import OperatorCache
from fredreg.haar import project
from fredreg.iteration import SolverConfig, run_adaptive

from _oracles import coefficients, forward_residual


class TestExactProblem:
    def test_rhs_endpoint_values(self):
        prob = exact_problem()
        assert prob.exact_rhs(0.0) == pytest.approx(0.5, abs=1e-15)
        assert prob.exact_rhs(1.0) == pytest.approx(1 - 2 * math.exp(-1), abs=1e-15)

    def test_rhs_midpoint_against_quadrature_oracle(self):
        # f(1/2) = int_0^1 t e^{-t/2} dt, pinned by adaptive quadrature
        oracle = quad(lambda t: t * math.exp(-0.5 * t), 0, 1)[0]
        assert oracle == pytest.approx(0.36081604172419957, abs=1e-14)
        assert exact_problem().exact_rhs(0.5) == pytest.approx(oracle, abs=1e-14)

    def test_rhs_series_branch_matches_closed_form(self):
        prob = exact_problem()
        for s in (0.999e-3, 1.001e-3):
            direct = (1 - (s + 1) * math.exp(-s)) / s ** 2
            assert prob.exact_rhs(s) == pytest.approx(direct, abs=1e-9)
        # continuity across the branch point
        left = prob.exact_rhs(1e-3 - 1e-12)
        right = prob.exact_rhs(1e-3 + 1e-12)
        assert abs(left - right) < 1e-12

    def test_rhs_vectorized(self):
        prob = exact_problem()
        s = np.array([0.0, 1e-5, 0.5, 1.0])
        vals = prob.exact_rhs(s)
        assert vals.shape == (4,)
        assert vals[0] == pytest.approx(0.5)

    def test_forward_residual_small(self):
        assert forward_residual(exact_problem()) <= 1e-6


class TestSampleGrid:
    def test_grid_resolves_all_partitions(self):
        grid = sample_grid(6)
        assert len(grid) == 180 * 64 + 1
        assert grid[0] == 0.0 and grid[-1] == 1.0
        for m in range(1, 7):
            assert (len(grid) - 1) % (180 * 2 ** m) == 0


class TestAddNoise:
    def test_exact_noise_norm(self):
        grid = sample_grid(6)
        f = exact_problem().exact_rhs(grid)
        for level in (0.05, 0.0005):
            noisy, dabs = add_noise(f, NoiseSpec(rel_level=level, seed=4))
            assert dabs == pytest.approx(level * trapezoid_norm(f), abs=1e-18)
            assert trapezoid_norm(noisy - f) == pytest.approx(dabs, abs=1e-12)

    def test_deterministic_and_seed_sensitive(self):
        grid = sample_grid(5)
        f = exact_problem().exact_rhs(grid)
        n1, d1 = add_noise(f, NoiseSpec(rel_level=0.01, seed=7))
        n2, d2 = add_noise(f, NoiseSpec(rel_level=0.01, seed=7))
        n3, d3 = add_noise(f, NoiseSpec(rel_level=0.01, seed=8))
        np.testing.assert_array_equal(n1, n2)
        assert d1 == d2 == d3
        assert np.max(np.abs(n1 - n3)) > 0

    def test_vanishing_level_limit(self):
        grid = sample_grid(5)
        f = exact_problem().exact_rhs(grid)
        noisy, dabs = add_noise(f, NoiseSpec(rel_level=1e-9, seed=0))
        assert np.max(np.abs(noisy - f)) < 1e-8

    def test_rejects_fewer_than_two_samples(self):
        for short in ([], [1.0]):
            with pytest.raises(ValueError, match="at least 2 values"):
                trapezoid_norm(short)
            with pytest.raises(ValueError, match="at least 2 values"):
                add_noise(np.array(short), NoiseSpec(rel_level=0.01, seed=0))

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40])
    def test_bit_identical_to_uniform_draw(self, seed):
        # the draw ``-1 + 2 r`` as ``rng.uniform(-1, 1)`` computes it
        spec = NoiseSpec(rel_level=0.01, seed=seed)
        for f in (exact_problem().exact_rhs(sample_grid(4)), np.arange(7.0)):
            e = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(f))
            delta_abs = spec.rel_level * trapezoid_norm(f)
            e *= delta_abs / trapezoid_norm(e)
            noisy, dabs = add_noise(f, spec)
            assert dabs == delta_abs
            assert np.array_equal(noisy, f + e)

    def test_rejects_out_of_range_levels(self):
        with pytest.raises(ValueError):
            NoiseSpec(rel_level=0.0, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(rel_level=1.0, seed=0)


class TestAvgError:
    def test_exact_match_is_zero(self):
        coeffs = project(lambda t: t, 6)
        assert avg_error(coeffs, coeffs.evaluate) == 0.0

    def test_constant_offset(self):
        # approximation exceeding the target by 0.1 everywhere scores 0.1
        coeffs = project(lambda t: t, 6)
        off_by_tenth = lambda t: coeffs.evaluate(t) - 0.1
        assert avg_error(coeffs, off_by_tenth) == pytest.approx(0.1, abs=1e-15)

    def test_zero_approximation_of_identity(self):
        # arithmetic series oracle: mean of 0.01*(j-1), j=1..100
        oracle = sum(0.01 * j for j in range(100)) / 100
        assert oracle == pytest.approx(0.495, abs=1e-15)
        zero = coefficients(np.zeros(4))
        assert avg_error(zero, lambda t: np.asarray(t)) == pytest.approx(0.495, abs=1e-15)


@pytest.fixture(scope="module")
def small_rows():
    return run_table(
        config=SolverConfig(),
        levels=(0.05, 0.005),
        seeds=range(3),
        schemes="both",
        fixed_m=4,
    )


class TestRunTable:
    def test_row_invariants(self, small_rows):
        assert len(small_rows) == 2 * 3 * 2
        for row in small_rows:
            assert row.avg >= 0
            assert row.m_final >= 1
            assert row.n_iters >= 1
            assert row.stop_reason == "discrepancy_met"

    def test_csv_roundtrip_is_bit_exact(self, small_rows, tmp_path):
        text = rows_to_csv(small_rows)
        assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
        parsed = rows_from_csv(text)
        assert parsed == small_rows

    def test_csv_rejects_empty_input(self):
        with pytest.raises(ValueError, match="empty CSV input"):
            rows_from_csv("")

    def test_csv_rejects_short_record(self, small_rows):
        lines = rows_to_csv(small_rows).splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="line 3 has 8 fields, expected 9"):
            rows_from_csv("\n".join(lines) + "\n")

    def test_csv_rejects_extra_field(self, small_rows):
        lines = rows_to_csv(small_rows).splitlines()
        lines[1] += ",extra"
        with pytest.raises(ValueError, match="line 2 has 10 fields, expected 9"):
            rows_from_csv("\n".join(lines) + "\n")

    def test_seed_determinism(self, small_rows):
        again = run_table(
            config=SolverConfig(),
            levels=(0.05, 0.005),
            seeds=range(3),
            schemes="both",
            fixed_m=4,
            )
        for a, b in zip(small_rows, again):
            assert (a.delta_rel, a.scheme, a.seed) == (b.delta_rel, b.scheme, b.seed)
            assert a.avg == b.avg
            assert a.m_final == b.m_final
            assert a.n_iters == b.n_iters
            assert a.G_final == b.G_final
            assert a.stop_reason == b.stop_reason

    def test_median_avg_decreases_with_noise(self, small_rows):
        med = {}
        for level in (0.05, 0.005):
            med[level] = np.median(
                [r.avg for r in small_rows if r.scheme == "adaptive" and r.delta_rel == level]
            )
        assert med[0.005] < med[0.05]

    def test_adaptive_smaller_space_than_fixed_at_high_noise(self, small_rows):
        ada = [r.m_final for r in small_rows if r.scheme == "adaptive" and r.delta_rel == 0.05]
        assert max(ada) <= 3  # dimension 2**3 <= 2**4 / 2

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_table(schemes="noisy")

    def test_flagged_rows_do_not_raise(self):
        rows = run_table(
            config=SolverConfig(max_iter=1),
            levels=(0.0005,),
            seeds=range(1),
            schemes="adaptive",
            )
        assert rows[0].stop_reason == "max_iter"


class TestConvergence:
    """The paper's claim, ``u_{n_delta} -> u`` as ``delta -> 0``, at ``m_cap = 8``."""

    LEVELS = (5e-2, 1e-2, 5e-3, 5e-4, 1e-4, 1e-5, 1e-6, 1e-7)

    def test_median_avg_falls_as_the_noise_vanishes(self):
        # one m_cap = 8 cache for the 24 adaptive runs (about 1.2 s)
        problem = exact_problem()
        config = SolverConfig(m_cap=8)
        ops = OperatorCache(problem.kernel)
        f_exact = problem.exact_rhs(sample_grid(config.m_cap))
        medians, capped = [], set()
        for level in self.LEVELS:
            avgs = []
            for seed in range(3):
                noisy, delta = add_noise(f_exact, NoiseSpec(rel_level=level, seed=seed))
                outcome = run_adaptive(ops, noisy, delta, config)
                avgs.append(avg_error(outcome.solution, problem.exact_solution))
                if outcome.capped:
                    capped.add((level, seed))
            medians.append(float(np.median(avgs)))
        assert all(b <= a for a, b in zip(medians, medians[1:])), medians
        # measured 0.248 at 5e-2 down to 0.00102 at 1e-7
        assert medians[0] > 0.2 and medians[-1] < 0.0015, medians
        # the runs at 5e-2 and 1e-2 ask for raw levels 3 and 7 and are not
        # capped; every run from 5e-3 on asks for 9 to 29 and is capped at 8
        assert capped == {(level, seed) for level in self.LEVELS[2:] for seed in range(3)}
