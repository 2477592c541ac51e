"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion, including its runtime budget.
Criteria 5, 7 and 8 share one benchmark sweep (4 noise levels x 20
seeds x both schemes) built once per session.
"""

import math
import time

import numpy as np
import pytest

from fredreg.assembly import OperatorCache, assemble_gram, error_budget, exponential_kernel
from fredreg.experiment import exact_problem, run_table, sample_grid
from fredreg.haar import synthesis_matrix
from fredreg.iteration import (
    SolverConfig,
    closed_form_iterate,
    geometric_weights,
    rank_schedule,
    run_adaptive,
)
from fredreg.quadrature import simpson_rule

LEVELS = (0.05, 0.01, 0.005, 0.0005)
SEEDS = range(20)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def sweep():
    """Benchmark-preset sweep shared by criteria 5, 7 and 8."""
    start = time.perf_counter()
    rows, outcomes = run_table(
        config=SolverConfig(),
        levels=LEVELS,
        seeds=SEEDS,
        schemes="both",
        fixed_m=4,
        echo=False,
        collect_outcomes=True,
    )
    elapsed = time.perf_counter() - start
    return rows, outcomes, elapsed


def _median(values):
    return float(np.median(list(values)))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    problem = exact_problem()
    ops = OperatorCache(problem.kernel)
    samples = problem.exact_rhs(sample_grid(6))
    worst = 0.0
    for q in (0.25, 0.5):
        config = SolverConfig(q=q)
        for n in range(1, 16):
            rec = run_adaptive(ops, samples, None, config, fixed_n=n)
            schedule = [r.m for r in rec.trace]
            direct = closed_form_iterate(ops, samples, n, schedule, config)
            worst = max(worst, float(np.max(np.abs(rec.solution.values - direct.values))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"recursion vs closed form, q in (0.25, 0.5), n <= 15: "
        f"max coeff diff {worst:.2e} <= 1e-10 [{elapsed:.2f}s < 5s]",
    )


def test_criterion_2_weight_identity():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.1, 0.25, 0.5, 0.9):
        for n in range(1, 61):
            w = geometric_weights(n, q)
            worst = max(worst, abs(float(w.sum()) - (1.0 - q ** n)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-14 and elapsed < 1.0,
        f"sum w_j = 1 - q**n for n <= 60: max deviation {worst:.2e} < 1e-14 "
        f"[{elapsed:.2f}s < 1s]",
    )


def test_criterion_3_simpson_bound_and_order():
    start = time.perf_counter()
    n = 512
    xs = (np.arange(n) + 0.5) / n
    xz = xs[:, None] + xs[None, :]
    g_exact = -np.expm1(-xz) / xz
    kernel = exponential_kernel()
    norms = []
    ok_bound = True
    for m in range(1, 5):
        rule = simpson_rule(m)
        e = np.exp(-np.outer(rule.points, xs))
        g_m = e.T @ (rule.weights[:, None] * e)
        opnorm = float(np.linalg.norm(g_exact - g_m, 2)) / n
        norms.append(opnorm)
        ok_bound = ok_bound and opnorm <= error_budget(kernel, m).bound_normal
    orders = [math.log2(a / b) for a, b in zip(norms, norms[1:])]
    elapsed = time.perf_counter() - start
    report(
        3,
        ok_bound and min(orders) >= 3.8 and elapsed < 30.0,
        f"||T - T^(m)|| within c1/2**(4m) for m=1..4, observed orders "
        f"{[f'{o:.2f}' for o in orders]} >= 3.8 [{elapsed:.2f}s < 30s]",
    )


def test_criterion_4_shifted_inverse_bound():
    start = time.perf_counter()
    ok = True
    worst_margin = np.inf
    for m in range(1, 7):
        a_m = assemble_gram(m)
        for shift in (1.0, 1e-2, 1e-4):
            eig_min = float(np.linalg.eigvalsh(a_m + shift * np.eye(len(a_m))).min())
            ok = ok and eig_min >= shift / 2.0
            worst_margin = min(worst_margin, eig_min / shift)
    elapsed = time.perf_counter() - start
    report(
        4,
        ok and elapsed < 10.0,
        f"lambda_min(aI + A_m) >= a/2 for m <= 6, a in (1, 1e-2, 1e-4): "
        f"worst lambda_min/a = {worst_margin:.3f} [{elapsed:.2f}s < 10s]",
    )


def test_criterion_5_discrepancy_bound(sweep):
    _, outcomes, _ = sweep
    q = SolverConfig().q
    y_norm = 1.0 / math.sqrt(3.0)
    const = 2.0 * (1.0 - q) * y_norm / (1.0 - math.sqrt(q))
    worst_ratio = 0.0
    for outcome in outcomes:
        for rec in outcome.trace:
            bound = 2.0 * outcome.delta_abs + const * math.sqrt(rec.a)
            worst_ratio = max(worst_ratio, rec.G / bound)
    report(
        5,
        worst_ratio <= 1.05,
        f"G_n <= 2 delta + 2(1-q) sqrt(a_n) ||y|| / (1-sqrt(q)) on every sweep "
        f"run: worst G/bound = {worst_ratio:.3f} <= 1.05",
    )


def test_criterion_6_haar_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 9):
        s = synthesis_matrix(m)
        gram = (s @ s.T) / 2 ** m
        worst = max(worst, float(np.max(np.abs(gram - np.eye(2 ** m)))))
    elapsed = time.perf_counter() - start
    report(
        6,
        worst <= 1e-12 and elapsed < 5.0,
        f"analytic Gram of the basis is I for m <= 8: max deviation {worst:.2e} "
        f"<= 1e-12 [{elapsed:.2f}s < 5s]",
    )


def test_criterion_7_benchmark_table(sweep):
    rows, _, elapsed = sweep

    def med(level, scheme, key):
        return _median(
            getattr(r, key) for r in rows if r.delta_rel == level and r.scheme == scheme
        )

    avg_adaptive = {lev: med(lev, "adaptive", "avg") for lev in LEVELS}
    m_adaptive = {lev: med(lev, "adaptive", "m_final") for lev in LEVELS}

    ok_a = 0.05 <= avg_adaptive[0.05] <= 0.25 and 2 <= m_adaptive[0.05] <= 3
    ok_b = avg_adaptive[0.0005] <= 0.05 and 4 <= m_adaptive[0.0005] <= 6
    ordered = [avg_adaptive[lev] for lev in LEVELS]
    ok_c = all(b < a for a, b in zip(ordered, ordered[1:]))
    ok_d = med(0.01, "fixed", "avg") <= 0.10
    dims_5pct = [2 ** r.m_final for r in rows if r.delta_rel == 0.05 and r.scheme == "adaptive"]
    ok_e = max(dims_5pct) <= 2 ** 4 / 2
    ok_time = elapsed < 120.0
    report(
        7,
        ok_a and ok_b and ok_c and ok_d and ok_e and ok_time,
        "table sweep (20 seeds/level): "
        f"(a) avg@5%={avg_adaptive[0.05]:.4f} in [0.05,0.25], m={m_adaptive[0.05]:.0f} in (2,3): {ok_a}; "
        f"(b) avg@0.05%={avg_adaptive[0.0005]:.4f} <= 0.05, m={m_adaptive[0.0005]:.0f} in (4..6): {ok_b}; "
        f"(c) medians strictly decrease {['%.4f' % v for v in ordered]}: {ok_c}; "
        f"(d) fixed avg@1%={med(0.01, 'fixed', 'avg'):.4f} <= 0.10: {ok_d}; "
        f"(e) adaptive dim@5% max {max(dims_5pct)} <= 8: {ok_e} "
        f"[{elapsed:.1f}s < 120s]",
    )


def test_criterion_8_stopping_rule_asymptotics(sweep):
    rows, outcomes, _ = sweep
    adaptive = [
        (r, o) for r, o in zip(rows, outcomes) if r.scheme == "adaptive"
    ]
    n_medians = []
    ratio_medians = []
    for lev in LEVELS:  # decreasing noise order
        sub = [(r, o) for r, o in adaptive if r.delta_rel == lev]
        n_medians.append(_median(r.n_iters for r, _ in sub))
        ratio_medians.append(
            _median(o.delta_abs / math.sqrt(o.trace[-1].a) for _, o in sub)
        )
    ok_n = all(b >= a for a, b in zip(n_medians, n_medians[1:]))
    ok_ratio = all(b <= a for a, b in zip(ratio_medians, ratio_medians[1:]))
    report(
        8,
        ok_n and ok_ratio,
        f"median n_delta non-decreasing {n_medians} and median "
        f"delta/sqrt(a_final) non-increasing "
        f"{['%.4f' % v for v in ratio_medians]} as noise decreases",
    )


def test_sweep_termination_invariant(sweep):
    # every benchmark run must stop by the discrepancy rule well before the cap
    rows, _, _ = sweep
    ok = all(r.stop_reason == "discrepancy_met" and r.n_iters < 50 for r in rows)
    report(
        "T",
        ok,
        "every sweep run (4 levels x 20 seeds x 2 schemes) stopped via the "
        "discrepancy rule before the iteration cap",
    )


def test_criterion_9_rank_schedule_oracle():
    start = time.perf_counter()

    def oracle(a, c1, eta):
        # independently coded direct evaluation of the three ceilings
        t1 = math.ceil(math.log2(2.0 * c1 / a) / 4.0)
        t2 = math.ceil(math.log2(17.0 / (180.0 * eta * a * a)) / 2.0)
        t3 = math.ceil(math.log2(2.0 * c1 / math.sqrt(a)) / 2.0)
        return max(t1, t2, t3, 1)

    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(1000):
        a = 10.0 ** rng.uniform(-6, 0)
        eta = 10.0 ** rng.uniform(1, 3)
        c1 = 10.0 ** rng.uniform(-3, 0)
        if rank_schedule(a, c1, eta) != oracle(a, c1, eta):
            mismatches += 1
    # monotone non-increasing in a
    a_grid = np.sort(10.0 ** rng.uniform(-8, 0, size=200))
    ms = [rank_schedule(float(a), 16.0 / 180.0, 10.0) for a in a_grid]
    monotone = all(b <= a for a, b in zip(ms, ms[1:]))
    elapsed = time.perf_counter() - start
    report(
        9,
        mismatches == 0 and monotone and elapsed < 1.0,
        f"1000 random (a, eta, c1) triples match the independent ceiling "
        f"oracle ({mismatches} mismatches), monotone non-increasing in a: "
        f"{monotone} [{elapsed:.2f}s < 1s]",
    )
