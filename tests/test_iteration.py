import math
import sys
from decimal import ROUND_CEILING, Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

from fredreg import assembly, iteration
from fredreg.assembly import OperatorCache, exponential_kernel, galerkin_matrix
from fredreg.experiment import NoiseSpec, add_noise, exact_problem, sample_grid
from fredreg.iteration import (
    FactorizationError,
    SolverConfig,
    closed_form_iterate,
    discrepancy_update,
    dsm_step,
    geometric_weights,
    rank_schedule,
    run_adaptive,
    run_fixed,
)

C1 = 16.0 / 180.0


@pytest.fixture(scope="module")
def bench():
    problem = exact_problem()
    ops = OperatorCache(problem.kernel)
    grid = sample_grid(6)
    samples = problem.exact_rhs(grid)
    return problem, ops, samples


class TestGeometricWeights:
    def test_example_q025_n2(self):
        w = geometric_weights(2, 0.25)
        np.testing.assert_allclose(w, [0.1875, 0.75], atol=1e-16)
        assert w.sum() == pytest.approx(1 - 0.25 ** 2, abs=1e-16)

    def test_single_step(self):
        np.testing.assert_allclose(geometric_weights(1, 0.5), [0.5], atol=0)

    def test_sum_identity(self):
        for q in (0.1, 0.25, 0.5, 0.9):
            for n in (1, 5, 10, 37, 60):
                w = geometric_weights(n, q)
                assert np.all(w > 0)
                assert abs(w.sum() - (1 - q ** n)) < 1e-14

    def test_rejects(self):
        with pytest.raises(ValueError):
            geometric_weights(0, 0.5)
        with pytest.raises(ValueError):
            geometric_weights(3, 1.0)


def oracle_rank(a, c1, eta):
    """Independent direct evaluation of the three ceiling terms."""
    t1 = math.ceil(math.log2(2.0 * c1 / a) / 4.0)
    t2 = math.ceil(math.log2(17.0 / (180.0 * eta * a * a)) / 2.0)
    t3 = math.ceil(math.log2(2.0 * c1 / math.sqrt(a)) / 2.0)
    return max(t1, t2, t3, 1)


def seed_rank(a, c1, eta):
    """The level rule by direct quotients: the reference wherever they neither
    over- nor underflow, roughly for ``a`` in ``[1e-154, 1e154]``."""
    log2 = math.log(2.0)
    t_normal = math.ceil(math.log(2.0 * c1 / a) / (4.0 * log2))
    t_mixed = math.ceil(math.log(17.0 / (180.0 * eta * a * a)) / (2.0 * log2))
    t_adjoint = math.ceil(math.log(2.0 * c1 / math.sqrt(a)) / (2.0 * log2))
    return max(t_normal, t_mixed, t_adjoint, 1)


def decimal_rank(a, c1, eta):
    """The three ceilings in 50-digit decimal arithmetic, exact for every float ``a``."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, c1, eta = Decimal(a), Decimal(c1), Decimal(eta)
        ln2 = Decimal(2).ln()

        def ceil_log2(x, k):
            return int((x.ln() / (k * ln2)).to_integral_value(rounding=ROUND_CEILING))

        t1 = ceil_log2(2 * c1 / a, 4)
        t2 = ceil_log2(17 / (180 * eta * a * a), 2)
        t3 = ceil_log2(2 * c1 / a.sqrt(), 2)
        return max(t1, t2, t3, 1)


class TestRankSchedule:
    def test_derived_example_a025(self):
        # raw ceiling terms at a = 0.25: (0, -1, 0) -> max 0 -> clamped to 1
        a, eta = 0.25, 10.0
        t1 = math.ceil(math.log(2 * C1 / a) / (4 * math.log(2)))
        t2 = math.ceil(math.log(17 / (180 * eta * a * a)) / (2 * math.log(2)))
        t3 = math.ceil(math.log(2 * C1 / math.sqrt(a)) / (2 * math.log(2)))
        assert (t1, t2, t3) == (0, -1, 0)
        assert rank_schedule(a, C1, eta) == 1

    def test_derived_example_a025_pow4(self):
        a, eta = 0.25 ** 4, 10.0
        t1 = math.ceil(math.log(2 * C1 / a) / (4 * math.log(2)))
        t2 = math.ceil(math.log(17 / (180 * eta * a * a)) / (2 * math.log(2)))
        t3 = math.ceil(math.log(2 * C1 / math.sqrt(a)) / (2 * math.log(2)))
        assert (t1, t2, t3) == (2, 5, 1)
        assert rank_schedule(a, C1, eta) == 5

    def test_monotone_in_a(self):
        values = [rank_schedule(0.5 ** k, C1, 10.0) for k in range(1, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            a = 10.0 ** rng.uniform(-6, 0)
            eta = 10.0 ** rng.uniform(1, 3)
            c1 = 10.0 ** rng.uniform(-3, 0)
            assert rank_schedule(a, c1, eta) == oracle_rank(a, c1, eta)

    def test_matches_seed_rule_on_preset_shifts(self):
        config = SolverConfig()
        c1 = exponential_kernel().c1
        a = config.alpha0
        for _ in range(200):
            a = a * config.q  # a_n as the solver loop forms it
            assert rank_schedule(a, c1, config.eta) == seed_rank(a, c1, config.eta)

    def test_matches_seed_rule_wherever_it_returns(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = 10.0 ** rng.uniform(-150, 150)
            assert rank_schedule(a, C1, 10.0) == seed_rank(a, C1, 10.0)

    @pytest.mark.parametrize("a", [1e200, 1e-160, 1e-170, 5e-324, sys.float_info.max])
    def test_extreme_scales(self, a):
        # direct quotients give ceil(inf) at 1e-160, 17 / 0 at 1e-170 and log(0) at 1e200
        m = rank_schedule(a, C1, 10.0)
        assert m == decimal_rank(a, C1, 10.0)
        assert rank_schedule(a, C1, 10.0, m_cap=6) == min(m, 6)
        if a > 1.0:
            assert m == 1

    def test_cap(self):
        assert rank_schedule(1e-8, C1, 10.0, m_cap=6) == 6
        assert rank_schedule(1e-8, C1, 10.0) > 6

    def test_rejects(self):
        with pytest.raises(ValueError):
            rank_schedule(0.0, C1, 10.0)
        with pytest.raises(ValueError):
            rank_schedule(0.5, C1, 1.0)
        for bad in ((math.inf, C1, 10.0), (0.5, math.inf, 10.0), (0.5, C1, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                rank_schedule(*bad)


class TestDsmStep:
    def test_first_step_from_zero(self):
        zeta = np.array([1.0, 2.0, 3.0, 4.0])
        new = dsm_step(np.zeros(1), zeta, 0.25)
        np.testing.assert_allclose(new, 0.75 * zeta, atol=0)

    def test_fixed_point(self):
        u = np.array([1.0, -2.0])
        new = dsm_step(u, u, 0.25)
        np.testing.assert_allclose(new, u, atol=1e-16)

    def test_degenerate_blend_q_zero(self):
        u = np.array([1.0, -2.0])
        zeta = np.array([5.0, 6.0])
        new = dsm_step(u, zeta, 0.0)
        np.testing.assert_array_equal(new, zeta)

    def test_padding_on_growth(self):
        u = np.array([1.0, 1.0])
        zeta = np.zeros(8)
        new = dsm_step(u, zeta, 0.5)
        np.testing.assert_allclose(new, [0.5, 0.5, 0, 0, 0, 0, 0, 0], atol=0)

    def test_rejects_shrink(self):
        with pytest.raises(ValueError):
            dsm_step(np.ones(8), np.ones(4), 0.25)


class TestDiscrepancyUpdate:
    def test_example(self):
        assert discrepancy_update(0.0, 0.25, 2.0, 0.25) == pytest.approx(0.375, abs=0)

    def test_zero_gamma(self):
        assert discrepancy_update(0.8, 0.25, 0.0, 0.25) == pytest.approx(0.2, abs=0)

    def test_listing_variant_drops_factor(self):
        formal = discrepancy_update(1.0, 0.5, 3.0, 0.25, variant="formal")
        listing = discrepancy_update(1.0, 0.5, 3.0, 0.25, variant="listing")
        assert formal == pytest.approx(0.25 + 0.75 * 1.5)
        assert listing == pytest.approx(0.25 + 1.5)

    def test_geometric_decay_limit(self):
        # constant gamma with a_n = q^n drives G to zero
        q, g = 0.25, 1.0
        G, a = 0.0, 1.0
        for _ in range(60):
            a *= q
            G = discrepancy_update(G, a, g, q)
        assert G < 1e-30

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            discrepancy_update(-1.0, 0.1, 1.0, 0.25)
        with pytest.raises(ValueError):
            discrepancy_update(0.0, 0.1, 1.0, 0.25, variant="other")


class TestSolverConfig:
    def test_defaults_are_benchmark_preset(self):
        cfg = SolverConfig()
        assert (cfg.alpha0, cfg.q, cfg.C, cfg.eps, cfg.eta) == (1.0, 0.25, 2.01, 0.99, 10.0)
        assert cfg.gnm_variant == "formal"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha0": 0.0},
            {"q": 1.0},
            {"q": 0.0},
            {"C": 2.0},
            {"eps": 1.0},
            {"eta": 9.0},
            {"max_iter": 0},
            {"m_cap": 0},
            {"gnm_variant": "loose"},
            {"m_cap": 6.0},
            {"max_iter": 2.5},
            {"m_cap": True},
            {"max_iter": np.float64(50.0)},
            {"alpha0": math.inf},
            {"alpha0": math.nan},
            {"C": math.inf},
            {"eta": math.inf},
            {"alpha0": 5e-324},  # a_1 = alpha0 * q rounds to 0
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        cfg = SolverConfig(max_iter=np.int32(5), m_cap=np.int64(3))
        assert (cfg.max_iter, cfg.m_cap) == (5, 3)


class TestClosedFormOracle:
    def test_base_case_single_step(self, bench):
        _, ops, samples = bench
        cfg = SolverConfig()
        rec = run_adaptive(ops, samples, None, cfg, fixed_n=1)
        cf = closed_form_iterate(ops, samples, 1, [rec.trace[0].m], cfg)
        np.testing.assert_allclose(rec.solution.values, cf.values, atol=1e-16)

    @pytest.mark.parametrize("q", [0.25, 0.5])
    def test_recursion_equals_closed_form(self, bench, q):
        _, ops, samples = bench
        cfg = SolverConfig(q=q)
        rec = run_adaptive(ops, samples, None, cfg, fixed_n=10)
        schedule = [r.m for r in rec.trace]
        cf = closed_form_iterate(ops, samples, 10, schedule, cfg)
        assert np.max(np.abs(rec.solution.values - cf.values)) <= 1e-10

    def test_non_dyadic_ratio(self, bench):
        _, ops, samples = bench
        cfg = SolverConfig(q=0.3)
        rec = run_adaptive(ops, samples, None, cfg, fixed_n=8)
        cf = closed_form_iterate(ops, samples, 8, [r.m for r in rec.trace], cfg)
        assert np.max(np.abs(rec.solution.values - cf.values)) <= 1e-12

    def test_zero_data(self, bench):
        _, ops, _ = bench
        cfg = SolverConfig()
        zero = np.zeros(180 * 2 ** 6 + 1)
        for n in (1, 4):
            out = closed_form_iterate(ops, zero, n, [1] * n, cfg)
            assert np.max(np.abs(out.values)) == 0.0

    def test_rejects_bad_schedule(self, bench):
        _, ops, samples = bench
        cfg = SolverConfig()
        with pytest.raises(ValueError):
            closed_form_iterate(ops, samples, 2, [3, 2], cfg)
        with pytest.raises(ValueError):
            closed_form_iterate(ops, samples, 2, [1], cfg)


class TestRunAdaptive:
    def test_noisy_run_terminates_by_discrepancy(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=0))
        out = run_adaptive(ops, noisy, dabs, SolverConfig())
        assert out.stop_reason == "discrepancy_met"
        assert out.G_final <= out.threshold
        assert all(rec.G > out.threshold for rec in out.trace[:-1])
        assert out.n_delta == len(out.trace)

    def test_trace_counts_steps_and_levels(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.005, seed=1))
        out = run_adaptive(ops, noisy, dabs, SolverConfig())
        assert [rec.n for rec in out.trace] == list(range(1, out.n_delta + 1))
        # the first step starts from zero at level 0 and lands on the schedule's level
        assert out.trace[0].m == rank_schedule(0.25, C1, 10.0) == 1
        assert out.m_final == out.trace[-1].m == out.solution.level > 1
        assert len(out.solution.values) == 2 ** out.m_final

    def test_levels_non_decreasing_and_G_non_negative(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.005, seed=1))
        out = run_adaptive(ops, noisy, dabs, SolverConfig())
        ms = [rec.m for rec in out.trace]
        assert all(b >= a for a, b in zip(ms, ms[1:]))
        assert all(rec.G >= 0 for rec in out.trace)
        assert all(rec.m <= 6 for rec in out.trace)

    def test_initial_below_threshold(self, bench):
        _, ops, samples = bench
        # an enormous noise bound makes the threshold exceed G_1
        noisy, _ = add_noise(samples, NoiseSpec(rel_level=0.3, seed=2))
        out = run_adaptive(ops, noisy, 0.3, SolverConfig())
        assert out.stop_reason == "initial_below_threshold"
        assert out.n_delta == 1

    def test_max_iter_cap(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=3))
        out = run_adaptive(ops, noisy, dabs * 1e-9, SolverConfig(max_iter=2))
        assert out.stop_reason == "max_iter"
        assert out.n_delta == 2

    def test_m_cap_reason_when_budget_spent_while_clamped(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=3))
        out = run_adaptive(ops, noisy, dabs * 1e-12, SolverConfig(max_iter=8, m_cap=3))
        assert out.capped
        assert out.stop_reason == "m_cap"

    def test_rejects_missing_delta(self, bench):
        _, ops, samples = bench
        with pytest.raises(ValueError):
            run_adaptive(ops, samples, None, SolverConfig())

    def test_gamma_norm_does_not_underflow(self, bench):
        # at alpha0 = 1e200 every entry of gamma is about 1e-200, whose square
        # underflows; the run must match the one at 1e150 step for step
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=0))
        low, high = (
            run_adaptive(ops, noisy, dabs, SolverConfig(alpha0=alpha0, max_iter=10))
            for alpha0 in (1e150, 1e200)
        )
        assert high.stop_reason == low.stop_reason == "max_iter"
        for rec_low, rec_high in zip(low.trace, high.trace):
            assert rec_high.gamma_norm == pytest.approx(rec_low.gamma_norm * 1e-50, rel=1e-12)
            assert rec_high.G == pytest.approx(rec_low.G, rel=1e-12)


class TestRunFixed:
    def test_terminates_and_keeps_level(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.01, seed=0))
        out = run_fixed(ops, noisy, dabs, SolverConfig(), 4)
        assert out.stop_reason == "discrepancy_met"
        assert out.m_final == 4
        assert all(rec.m == 4 for rec in out.trace)

    def test_adaptive_uses_smaller_space_at_high_noise(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=0))
        ada = run_adaptive(ops, noisy, dabs, SolverConfig())
        fix = run_fixed(ops, noisy, dabs, SolverConfig(), 4)
        assert ada.stop_reason == fix.stop_reason == "discrepancy_met"
        assert 2 ** ada.m_final <= 2 ** 4 / 2

    def test_rejects_bad_level(self, bench):
        _, ops, samples = bench
        with pytest.raises(ValueError):
            run_fixed(ops, samples, 0.1, SolverConfig(), 0)


@pytest.mark.parametrize(
    "run",
    [
        lambda ops, f, delta: run_adaptive(ops, f, delta, SolverConfig()),
        lambda ops, f, delta: run_fixed(ops, f, delta, SolverConfig(), 4),
    ],
    ids=["adaptive", "fixed"],
)
class TestNonFiniteInputs:
    def test_rejects_nan_sample(self, bench, run):
        # a NaN sample made G NaN, so the stopping rule could never fire
        _, ops, samples = bench
        bad = samples.copy()
        bad[17] = np.nan
        with pytest.raises(ValueError, match="samples must be finite"):
            run(ops, bad, 1e-3)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_rejects_non_finite_delta(self, bench, run, delta):
        _, ops, samples = bench
        with pytest.raises(ValueError, match="delta must be finite"):
            run(ops, samples, delta)


@pytest.fixture(scope="module")
def deep():
    """A run that reaches level 8, as in ``fredreg solve --noise 1e-5 --m-cap 8``."""
    problem = exact_problem()
    ops = OperatorCache(problem.kernel)
    samples = problem.exact_rhs(sample_grid(8))
    noisy, delta = add_noise(samples, NoiseSpec(rel_level=1e-5, seed=0))
    return ops, noisy, delta


def plain_solve(matrix, a, rhs):
    """``(a I + A) x = b`` by dpotrf/dpotrs on ``A + a * np.eye(n)``, no cache."""
    factor, info = dpotrf(matrix + a * np.eye(len(matrix)), lower=1)
    assert info == 0
    x, info = dpotrs(factor, rhs, lower=1)
    assert info == 0
    return x


def spy(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of [args, result] per call."""
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        call = [args, None]
        calls.append(call)
        call[1] = original(*args)
        return call[1]

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestFactorCache:
    @pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
    def test_solves_match_plain_cholesky(self, deep, monkeypatch, scheme):
        ops, noisy, delta = deep
        solves = spy(monkeypatch, iteration, "solve_spd_shifted")
        if scheme == "adaptive":
            out = run_adaptive(ops, noisy, delta, SolverConfig(m_cap=8))
            assert out.m_final == 8

            def systems(m):
                return ops.gram(m, "domain"), ops.gram(m, "range")
        else:
            out = run_fixed(ops, noisy, delta, SolverConfig(m_cap=8), 4)
            k = galerkin_matrix(4)

            def systems(m):
                return k.T @ k, k @ k.T
        assert len(solves) == 2 * out.n_delta
        for rec, ((_, v), zeta), ((_, g), gamma) in zip(out.trace, solves[::2], solves[1::2]):
            a_mat, b_mat = systems(rec.m)
            assert np.array_equal(zeta, plain_solve(a_mat, rec.a, v))
            assert np.array_equal(gamma, plain_solve(b_mat, rec.a, g))
            assert rec.gamma_norm == float(np.linalg.norm(gamma))

    def test_second_run_factors_nothing(self, deep, monkeypatch):
        ops, noisy, delta = deep
        factors = spy(monkeypatch, assembly, "factor_spd_shifted")
        config = SolverConfig(m_cap=8)
        first = run_adaptive(ops, noisy, delta, config)
        first_fixed = run_fixed(ops, noisy, delta, config, 4)
        filled = len(factors)
        second = run_adaptive(ops, noisy, delta, config)
        second_fixed = run_fixed(ops, noisy, delta, config, 4)
        assert len(factors) == filled
        assert np.array_equal(first.solution.values, second.solution.values)
        assert np.array_equal(first_fixed.solution.values, second_fixed.solution.values)

    def test_symmetric_kernel_shares_range_factor(self, bench, monkeypatch):
        # the update and the discrepancy solve of a step use one factor
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.005, seed=1))
        solves = spy(monkeypatch, iteration, "solve_spd_shifted")
        adaptive = run_adaptive(ops, noisy, dabs, SolverConfig())
        fixed = run_fixed(ops, noisy, dabs, SolverConfig(), 3)
        steps = [(rec, False) for rec in adaptive.trace] + [(rec, True) for rec in fixed.trace]
        assert len(solves) == 2 * len(steps)
        for (rec, galerkin), ((update, _), _), ((discrepancy, _), _) in zip(
            steps, solves[::2], solves[1::2]
        ):
            assert update is discrepancy is ops.factor(rec.m, rec.a, galerkin)

    def test_cold_fixed_run_factors_once_per_step(self, deep, monkeypatch):
        _, noisy, delta = deep
        ops = OperatorCache(exact_problem().kernel)
        factors = spy(monkeypatch, assembly, "factor_spd_shifted")
        out = run_fixed(ops, noisy, delta, SolverConfig(m_cap=8), 4)
        assert len(factors) == out.n_delta > 1
        assert list(ops._galerkin_product) == [4]

    def test_factors_are_read_only(self, bench):
        _, ops, _ = bench
        assert not ops.factor(2, 0.5).flags.writeable
        assert not ops.galerkin_product(2).flags.writeable

    def test_breakdown_raises_every_call_and_stores_nothing(self, monkeypatch):
        # a shift far below the roundoff floor of A_3 (smallest eigenvalue ~ -1e-19)
        ops = OperatorCache(exact_problem().kernel)
        factors = spy(monkeypatch, assembly, "factor_spd_shifted")
        for _ in range(2):
            with pytest.raises(FactorizationError):
                ops.factor(3, 1e-20)
        assert len(factors) == 2
        assert not ops._factor
        assert ops.factor(3, 1e-3) is ops.factor(3, 1e-3)
