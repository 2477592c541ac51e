import itertools
import math
import sys
from decimal import ROUND_CEILING, Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

from fredreg import assembly, iteration
from fredreg.assembly import (
    OperatorCache,
    error_budget,
    galerkin_matrix,
    sample_grid,
)
from fredreg.experiment import NoiseSpec, add_noise, avg_error, exact_problem
from fredreg.iteration import (
    SolverConfig,
    rank_schedule,
    run_adaptive,
    run_fixed,
)

from _oracles import (
    EXTENDED,
    closed_form_iterate,
    extended_avg_error,
    geometric_weights,
    level_ceilings,
    record_calls,
    run_extended,
    run_steps,
)

C1 = 16.0 / 180.0


@pytest.fixture(scope="module")
def bench():
    problem = exact_problem()
    ops = OperatorCache()
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

    def test_positive(self):
        # acceptance criterion 2 checks the sum 1 - q**n for every n <= 60
        for q in (0.1, 0.25, 0.5, 0.9):
            for n in (1, 5, 10, 37, 60):
                assert np.all(geometric_weights(n, q) > 0)

    def test_rejects(self):
        with pytest.raises(ValueError):
            geometric_weights(0, 0.5)
        with pytest.raises(ValueError):
            geometric_weights(3, 1.0)


def decimal_rank(a, c1, eta):
    """The three ceilings in 50-digit decimal arithmetic, exact for every float ``a``,
    also where the direct quotients of ``level_ceilings`` over- or underflow."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, c1, eta = Decimal(a), Decimal(c1), Decimal(eta)
        ln2 = Decimal(2).ln()

        def ceil_log2(x, k):
            return int((x.ln() / (k * ln2)).to_integral_value(rounding=ROUND_CEILING))

        t1 = ceil_log2(2 * c1 / a, 4)
        t2 = ceil_log2((c1 + Decimal(1) / 180) / (eta * a * a), 2)
        t3 = ceil_log2(2 * c1 / a.sqrt(), 2)
        return max(t1, t2, t3, 1)


class TestRankSchedule:
    def test_derived_example_a025(self):
        # raw ceiling terms at a = 0.25: (0, -1, 0) -> max 0 -> clamped to 1
        assert level_ceilings(0.25, C1, 10.0) == (0, -1, 0)
        assert rank_schedule(0.25, C1, 10.0) == 1

    def test_derived_example_a025_pow4(self):
        assert level_ceilings(0.25 ** 4, C1, 10.0) == (2, 5, 1)
        assert rank_schedule(0.25 ** 4, C1, 10.0) == 5

    # run_adaptive puts no floor under the levels: they are non-decreasing
    # because the shift never grows from step to step and the rule never
    # rises as it falls, over the whole positive float range

    @pytest.mark.parametrize("eta", [10.0, 1000.0])
    def test_never_rises_as_a_falls_on_a_log_uniform_sample(self, eta):
        # with the halvings 0.5**k, k = 1..29
        rng = np.random.default_rng(25)
        log_min, log_max = math.log(5e-324), math.log(sys.float_info.max)
        a = np.exp(rng.uniform(log_min, log_max, 100_000))
        a = np.sort(np.concatenate([a, 0.5 ** np.arange(1, 30)]))[::-1]
        a = np.clip(a, 5e-324, sys.float_info.max)
        levels = [rank_schedule(float(x), C1, eta) for x in a]
        assert all(lo <= hi for lo, hi in zip(levels, levels[1:]))

    @pytest.mark.parametrize("eta", [10.0, 1000.0])
    def test_never_rises_along_chains_a_times_q(self, eta):
        # q = 0.5 runs from float max to the smallest subnormal; the finer
        # chains cross every level change it brackets, found to the float
        # by bisection, from just above it
        def level(x):
            return rank_schedule(x, C1, eta)

        def chain_levels(a, q, steps):
            chain = [a]
            while len(chain) < steps and chain[-1] * q > 0.0:
                chain.append(chain[-1] * q)
            levels = [level(x) for x in chain]
            assert all(lo <= hi for lo, hi in zip(levels, levels[1:])), (a, q)
            return chain, levels

        def as_float(bits):
            return float(np.int64(bits).view(np.float64))

        halving, levels = chain_levels(sys.float_info.max, 0.5, 2200)
        assert halving[-1] == 5e-324
        for a, below, m, m_below in zip(halving, halving[1:], levels, levels[1:]):
            if m_below == m:
                continue
            # positive floats order as their bit patterns
            hi, lo = (int(np.float64(x).view(np.int64)) for x in (a, below))
            while hi - lo > 1:  # hi: the smallest float still at level m
                mid = (hi + lo) // 2
                if level(as_float(mid)) > m:
                    lo = mid
                else:
                    hi = mid
            chain_levels(as_float(hi) / 0.999999 ** 100, 0.999999, 200)
            chain_levels(as_float(hi + 100), 1.0 - 2.0 ** -52, 200)

    # level_ceilings is the rule by direct quotients, the reference wherever
    # they neither over- nor underflow

    def test_matches_seed_rule_on_preset_shifts(self):
        config = SolverConfig()
        a = config.alpha0
        for _ in range(200):
            a = a * config.q  # a_n as the solver loop forms it
            expected = max(*level_ceilings(a, C1, config.eta), 1)
            assert rank_schedule(a, C1, config.eta) == expected, a

    def test_matches_seed_rule_wherever_it_returns(self):
        # 300 scales in 1e-150..1e150
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = 10.0 ** rng.uniform(-150, 150)
            assert rank_schedule(a, C1, 10.0) == max(*level_ceilings(a, C1, 10.0), 1), a

    @pytest.mark.parametrize("a", [1e200, 1e-160, 1e-170, 5e-324, sys.float_info.max])
    def test_extreme_scales(self, a):
        # direct quotients give ceil(inf) at 1e-160, x / 0 at 1e-170 and log(0) at 1e200
        m = rank_schedule(a, C1, 10.0)
        assert m == decimal_rank(a, C1, 10.0)
        assert rank_schedule(a, C1, 10.0, m_cap=6) == min(m, 6)
        if a > 1.0:
            assert m == 1

    @pytest.mark.parametrize("eta", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.9])
    def test_is_the_smallest_level_within_the_error_budget(self, q, eta):
        # the three conditions on error_budget's bounds; for this kernel
        # 16 * bound_adjoint is c1 / 4**m
        def within(a, m):
            b = error_budget(m)
            return (b.bound_normal <= a / 2 and b.bound_mixed <= eta * a * a
                    and 16.0 * b.bound_adjoint <= math.sqrt(a) / 2)

        for n in range(1, 60):
            a = q ** n
            smallest = next(m for m in itertools.count(1) if within(a, m))
            assert rank_schedule(a, C1, eta) == smallest, n

    @pytest.mark.parametrize("c1", [1e-3, 0.05, C1, 1.0, 5.0])
    def test_every_ceiling_reads_c1(self, c1):
        # with the mixed constant fixed at 17/180, rank_schedule(1e-4, 1.0, 10.0)
        # returned 10, where (1 + 1/180) / 4**10 = 9.6e-7 > eta a**2 = 1e-7;
        # the smallest level is 12
        def within(a, eta, m):
            return (c1 / 16 ** m <= a / 2 and (c1 + 1 / 180) / 4 ** m <= eta * a * a
                    and c1 / 4 ** m <= math.sqrt(a) / 2)

        for a, eta in itertools.product([0.3, 1e-2, 1e-4, 3e-7], [10.0, 300.0]):
            smallest = next(m for m in itertools.count(1) if within(a, eta, m))
            assert rank_schedule(a, c1, eta) == smallest, (a, eta)

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


class TestSolverConfig:
    def test_defaults_are_benchmark_preset(self):
        cfg = SolverConfig()
        assert (cfg.alpha0, cfg.q, cfg.C, cfg.eps, cfg.eta) == (1.0, 0.25, 2.01, 0.99, 10.0)

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
        rec = run_steps(ops, samples, 1, cfg)
        cf = closed_form_iterate(ops, samples, 1, [rec.trace[0].m], cfg)
        np.testing.assert_allclose(rec.solution, cf, atol=1e-16)

    def test_non_dyadic_ratio(self, bench):
        _, ops, samples = bench
        cfg = SolverConfig(q=0.3)
        rec = run_steps(ops, samples, 8, cfg)
        cf = closed_form_iterate(ops, samples, 8, [r.m for r in rec.trace], cfg)
        assert np.max(np.abs(rec.solution - cf)) <= 1e-12

    def test_zero_data(self, bench):
        _, ops, _ = bench
        cfg = SolverConfig()
        zero = np.zeros(180 * 2 ** 6 + 1)
        for n in (1, 4):
            out = closed_form_iterate(ops, zero, n, [1] * n, cfg)
            assert np.max(np.abs(out)) == 0.0

    def test_rejects_bad_schedule(self, bench):
        _, ops, samples = bench
        cfg = SolverConfig()
        with pytest.raises(ValueError):
            closed_form_iterate(ops, samples, 2, [3, 2], cfg)
        with pytest.raises(ValueError):
            closed_form_iterate(ops, samples, 2, [1], cfg)


def _noisy_benchmark(m_cap, seed):
    """``(samples, delta)``: benchmark data on ``sample_grid(m_cap)``, 1 % noise of ``seed``."""
    f = exact_problem().exact_rhs(sample_grid(m_cap))
    return add_noise(f, NoiseSpec(rel_level=0.01, seed=seed))


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
        assert out.m_final == out.trace[-1].m > 1
        assert len(out.solution) == 2 ** out.m_final

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

    @pytest.mark.parametrize("n_sub", [180 * 2 ** 4, 2 ** 7], ids=["sample_grid_4", "dyadic"])
    def test_rejects_a_grid_that_does_not_refine_the_cap_before_any_assembly(self, n_sub):
        # sample_grid(4) at m_cap=6 returned when the run stopped below level
        # 5 and failed mid-run when it did not; 2**7 subintervals refine the
        # level-6 projection of the data but not the partition of the adjoint
        problem = exact_problem()
        ops = OperatorCache()
        samples = problem.exact_rhs(np.arange(n_sub + 1) / n_sub)
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=0))
        with pytest.raises(ValueError, match=f"{n_sub} subintervals .* 11520 cells"):
            run_adaptive(ops, noisy, dabs, SolverConfig(m_cap=6))
        assert not ops._store

    def test_rejects_missing_delta(self, bench):
        _, ops, samples = bench
        with pytest.raises(ValueError):
            run_adaptive(ops, samples, None, SolverConfig())

    def test_trace_follows_the_discrepancy_recursion(self, bench):
        # G_n = q G_{n-1} + (1 - q) a_n |gamma_n| in this operation order,
        # so every step matches exactly
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.005, seed=1))
        cfg = SolverConfig()
        out = run_adaptive(ops, noisy, dabs, cfg)
        assert out.n_delta > 3
        G = 0.0
        for rec in out.trace:
            G = cfg.q * G + (1.0 - cfg.q) * rec.a * rec.gamma_norm
            assert rec.G == G
        assert out.G_final == G

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

    def test_gamma_norm_does_not_overflow(self):
        # benchmark data with 1 % noise scaled by 1e200: the entries of gamma
        # pass 1e154, whose squares overflow. |gamma| read inf from step 1 and
        # the run reported a cap it never hit (stop=m_cap after 50 steps,
        # G_final = inf). gamma is linear in the data and the levels depend
        # on a_n alone, so every |gamma| is the unscaled run's times 1e200
        ops = OperatorCache()
        noisy, dabs = _noisy_benchmark(2, seed=0)
        config = SolverConfig(m_cap=2)
        high = run_adaptive(ops, noisy * 1e200, dabs * 1e200, config)
        assert (high.stop_reason, high.n_delta) == ("discrepancy_met", 10)
        assert high.G_final <= high.threshold < math.inf
        low = run_steps(ops, noisy, high.n_delta, config)
        for rec_low, rec_high in zip(low.trace, high.trace):
            assert rec_high.gamma_norm == pytest.approx(rec_low.gamma_norm * 1e200, rel=1e-12)


@pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
def test_overflowing_discrepancy_is_a_breakdown(scheme):
    # benchmark data with 1 % noise scaled by 1e306: G overflows at step 11,
    # a breakdown rather than an exhausted budget (m_cap or max_iter with
    # G = nan); scaled by 1e300 both schemes stop by the rule
    ops = OperatorCache()
    noisy, dabs = _noisy_benchmark(2, seed=0)
    config = SolverConfig(m_cap=2)

    def run(scale):
        if scheme == "adaptive":
            return run_adaptive(ops, noisy * scale, dabs * scale, config)
        return run_fixed(ops, noisy * scale, dabs * scale, config, 2)

    assert run(1e300).stop_reason == "discrepancy_met"
    with pytest.raises(np.linalg.LinAlgError, match=r"G is not finite after step 11 \(level 2, shift"):
        run(1e306)


def test_overflowing_iterate_is_a_breakdown():
    # g = 0 keeps G at 0, so the rule holds at step 1, while v / a overflows
    # u. The solve of A = 0 is b / a, with no LAPACK; its overflow warning is
    # silenced, as LAPACK's dpotrs overflows without one
    def systems(a):
        return 1, 1, lambda b: b / a

    with np.errstate(over="ignore"), pytest.raises(
        np.linalg.LinAlgError, match=r"u is not finite after step 1 \(level 1"
    ):
        iteration._run_loop(1.0, SolverConfig(), np.zeros(2), systems, lambda m: np.full(2, 1e308))


def test_loop_runs_a_spectral_solve():
    # the loop sees only solve(b): the dense spectral form V((V^T b) / (a + lam))
    # of A_m = V diag(lam) V^T, on run_adaptive's g and rhs, makes the same
    # stop, as G_{n-1} is 1.87x the threshold. Measured against the Cholesky
    # run: every G within 2.3e-15 relative and the solution within 1.9e-15
    # (5.1e-15 with OpenBLAS's Haswell kernels, 3.4e-15 with its Sandybridge
    # ones). Both bounds are 1e-13, 20x and more the worst and below
    # eps / a_n = 2.3e-13 at the last shift
    ops = OperatorCache()
    noisy, dabs = _noisy_benchmark(6, seed=0)
    config = SolverConfig(m_cap=6)
    reference = run_adaptive(ops, noisy, dabs, config)

    def systems(a):
        m_raw = rank_schedule(a, C1, config.eta)
        m = min(m_raw, config.m_cap)
        lam, V = np.linalg.eigh(ops.gram(m))
        return m_raw, m, lambda b: V @ ((V.T @ b) / (a + lam))

    g = ops.data(noisy, config.m_cap)
    out = iteration._run_loop(dabs, config, g, systems, lambda m: ops.rhs(noisy, m))
    assert (out.n_delta, out.m_final, out.stop_reason) == (
        reference.n_delta, reference.m_final, reference.stop_reason
    ) == (5, 6, "discrepancy_met")
    assert [(r.m, r.m_raw) for r in out.trace] == [(r.m, r.m_raw) for r in reference.trace]
    for rec, ref in zip(out.trace, reference.trace):
        assert rec.G == pytest.approx(ref.G, rel=1e-13)
    assert np.max(np.abs(out.solution - reference.solution)) <= 1e-13


def test_scaled_data_returns_or_breaks_down_honestly():
    # any finite data with a finite delta > 0 gives an honest outcome or a
    # breakdown, never a non-finite G or solution; the examples are the 1e200
    # case that overflowed |gamma| and the 1e306 case that overflowed G
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ops = OperatorCache()
    bench_delta = _noisy_benchmark(2, seed=0)[1]

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        m_cap=st.integers(1, 3),
        kind=st.sampled_from(["benchmark", "uniform"]),
        seed=st.integers(0, 2 ** 32),
        exponent=st.floats(-150.0, 200.0),
        # delta relative to the data's scale: the paper's range, or any float
        delta_rel=st.floats(1e-6, 1.0) | st.floats(0.0, sys.float_info.max, exclude_min=True),
    )
    @hypothesis.example(m_cap=2, kind="benchmark", seed=0, exponent=200.0, delta_rel=bench_delta)
    @hypothesis.example(m_cap=2, kind="benchmark", seed=0, exponent=306.0, delta_rel=bench_delta)
    def check(m_cap, kind, seed, exponent, delta_rel):
        scale = 10.0 ** exponent
        delta = delta_rel * scale
        hypothesis.assume(0.0 < delta < math.inf)
        if kind == "benchmark":
            samples = _noisy_benchmark(m_cap, seed)[0]
        else:
            samples = np.random.default_rng(seed).uniform(-1.0, 1.0, len(sample_grid(m_cap)))
        config = SolverConfig(m_cap=m_cap)
        try:
            out = run_adaptive(ops, samples * scale, delta, config)
        except np.linalg.LinAlgError:  # a Cholesky breakdown among them
            return
        stops = ("discrepancy_met", "initial_below_threshold", "max_iter", "m_cap")
        assert out.stop_reason in stops
        assert math.isfinite(out.G_final)
        assert np.all(np.isfinite(out.solution))
        levels = [rec.m for rec in out.trace]
        assert levels == sorted(levels) and levels[-1] <= m_cap
        assert all(rec.G >= 0.0 for rec in out.trace)

    check()


@pytest.mark.skipif(
    not EXTENDED,
    reason=f"the 80-bit run needs a long double of 64 mantissa bits or more; "
    f"numpy's has {np.finfo(np.longdouble).nmant + 1} here",
)
@pytest.mark.parametrize("level", [5e-2, 5e-3, 5e-4, 1e-5])
def test_avg_within_1e_7_of_the_80_bit_run(bench, level):
    # the float64 answer against the same scheme on the same data in long
    # double: the float64 error grows about as 1/a_n, measured worst 3.3e-9
    # at 1e-5 (12 steps), 3.8e-9 with OpenBLAS's Haswell kernels and 8.3e-9
    # with its Sandybridge ones
    problem, ops, samples = bench
    config = SolverConfig()
    for seed in range(3):
        noisy, delta = add_noise(samples, NoiseSpec(rel_level=level, seed=seed))
        out = run_adaptive(ops, noisy, delta, config)
        u, n, m, reason = run_extended(noisy, delta, config)
        assert (out.n_delta, out.m_final, out.stop_reason) == (n, m, reason), seed
        avg = avg_error(out.solution, problem.exact_solution)
        avg80 = extended_avg_error(u, problem.exact_solution)
        assert abs(avg - avg80) <= 1e-7 * avg80, (seed, abs(avg - avg80) / avg80)


class TestRunFixed:
    def test_terminates_and_keeps_level(self, bench):
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.01, seed=0))
        out = run_fixed(ops, noisy, dabs, SolverConfig(), 4)
        assert out.stop_reason == "discrepancy_met"
        assert out.m_final == 4
        assert all(rec.m == 4 for rec in out.trace)

    def test_level_above_the_cap_is_not_capped(self, bench):
        # the fixed scheme never clamps its level, so m_cap does not name
        # the stop reason even when the fixed level exceeds it
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.05, seed=0))
        out = run_fixed(ops, noisy, dabs, SolverConfig(m_cap=6, max_iter=2), 8)
        assert out.stop_reason == "max_iter"
        assert out.capped is False
        assert all(rec.m == rec.m_raw == 8 for rec in out.trace)


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

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0, None])
    def test_rejects_non_finite_delta(self, bench, run, delta):
        _, ops, samples = bench
        with pytest.raises(ValueError, match="delta must be finite"):
            run(ops, samples, delta)


@pytest.fixture(scope="module")
def deep():
    """A run that reaches level 8, as in ``fredreg solve --noise 1e-5 --m-cap 8``."""
    problem = exact_problem()
    ops = OperatorCache()
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


class TestFactorCache:
    @pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
    def test_solves_match_plain_cholesky(self, deep, monkeypatch, scheme):
        ops, noisy, delta = deep
        solves = record_calls(monkeypatch, iteration, "solve_spd_shifted")
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
        # the discrepancy solves of every step come first, then the updates
        n = out.n_delta
        assert len(solves) == 2 * n
        for rec, ((_, g), _, gamma), ((_, v), _, zeta) in zip(out.trace, solves[:n], solves[n:]):
            a_mat, b_mat = systems(rec.m)
            assert np.array_equal(zeta, plain_solve(a_mat, rec.a, v))
            assert np.array_equal(gamma, plain_solve(b_mat, rec.a, g))
            assert rec.gamma_norm == float(np.linalg.norm(gamma))

    def test_second_run_factors_nothing(self, deep, monkeypatch):
        ops, noisy, delta = deep
        factors = record_calls(monkeypatch, assembly, "factor_spd_shifted")
        config = SolverConfig(m_cap=8)
        first = run_adaptive(ops, noisy, delta, config)
        first_fixed = run_fixed(ops, noisy, delta, config, 4)
        filled = len(factors)
        second = run_adaptive(ops, noisy, delta, config)
        second_fixed = run_fixed(ops, noisy, delta, config, 4)
        assert len(factors) == filled
        assert np.array_equal(first.solution, second.solution)
        assert np.array_equal(first_fixed.solution, second_fixed.solution)

    def test_symmetric_kernel_shares_range_factor(self, bench, monkeypatch):
        # the update and the discrepancy solve of a step use one factor
        _, ops, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.005, seed=1))
        solves = record_calls(monkeypatch, iteration, "solve_spd_shifted")
        adaptive = run_adaptive(ops, noisy, dabs, SolverConfig())
        n_adaptive = len(solves)
        fixed = run_fixed(ops, noisy, dabs, SolverConfig(), 3)
        for out, galerkin, calls in (
            (adaptive, False, solves[:n_adaptive]), (fixed, True, solves[n_adaptive:])
        ):
            # the discrepancy solves of every step come first, then the updates
            n = out.n_delta
            assert len(calls) == 2 * n
            for rec, ((discrepancy, _), _, _), ((update, _), _, _) in zip(
                out.trace, calls[:n], calls[n:]
            ):
                assert update is discrepancy is ops.factor(rec.m, rec.a, galerkin)

    def test_cold_fixed_run_factors_once_per_step(self, deep, monkeypatch):
        _, noisy, delta = deep
        ops = OperatorCache()
        factors = record_calls(monkeypatch, assembly, "factor_spd_shifted")
        builds = record_calls(monkeypatch, assembly, "galerkin_matrix")
        out = run_fixed(ops, noisy, delta, SolverConfig(m_cap=8), 4)
        assert len(factors) == out.n_delta > 1
        assert [args for args, _, _ in builds] == [(4,)]

    def test_cold_adaptive_run_fills_the_adjoint_once(self, bench, monkeypatch):
        # the stop reads only g, so the levels are known before any v: the
        # finest visited level fills the pair and the coarser ones read its blocks
        _, _, samples = bench
        noisy, dabs = add_noise(samples, NoiseSpec(rel_level=0.01, seed=0))
        config = SolverConfig(m_cap=6)
        filled = OperatorCache()
        for m in range(1, 7):
            filled.rhs(noisy, m)
        # and a cache whose every level reads a fill of its own
        own_fill = OperatorCache()
        monkeypatch.setattr(own_fill, "rhs", lambda f, m: OperatorCache().rhs(f, m))
        references = [run_adaptive(ops, noisy, dabs, config) for ops in (filled, own_fill)]
        fills = record_calls(monkeypatch, assembly, "exp_haar_matrix")
        cold = run_adaptive(OperatorCache(), noisy, dabs, config)
        assert {rec.m for rec in cold.trace} == {1, 3, 5, 6}
        # an adjoint fill takes the 180 * 2**m partition ends, a Gram fill
        # the 2**m + 1 Simpson points
        assert [m for (c, m), _, _ in fills if len(c) == 180 * 2 ** m] == [6]
        for reference in references:
            assert np.array_equal(cold.solution, reference.solution)
            assert cold.trace == reference.trace

    def test_breakdown_raises_every_call_and_stores_nothing(self, monkeypatch):
        # a shift far below the roundoff floor of A_3 (smallest eigenvalue ~ -1e-19)
        ops = OperatorCache()
        factors = record_calls(monkeypatch, assembly, "factor_spd_shifted")
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError, match="pivot"):
                ops.factor(3, 1e-20)
        assert len(factors) == 2
        assert list(ops._store) == [("gram", 3)]  # the Gram matrix, but no factor
        assert ops.factor(3, 1e-3) is ops.factor(3, 1e-3)

    @pytest.mark.parametrize("shift", [math.nan, 0.0, -1.0, -math.inf, math.inf])
    def test_bad_shift_is_refused_before_assembly(self, shift):
        # the factor of an infinite shift has an infinite diagonal, and the
        # solves against it returned zeros; the cache used to keep it. Every
        # bad shift is refused before any matrix is built, so nothing is kept
        ops = OperatorCache()
        for galerkin in (False, True):
            with pytest.raises(ValueError, match="finite and positive"):
                ops.factor(3, shift, galerkin=galerkin)
        assert ops._store == {}
