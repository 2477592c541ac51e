"""One adaptive reconstruction, step by step.

Solves the benchmark equation int_0^1 exp(-s t) u(t) dt = f(s) with 1%
noise and walks through what the solver does per iteration: shrink the
regularization parameter geometrically, pick the smallest level whose
operator errors are subordinate to it, solve the two shifted systems,
blend, and test the discrepancy functional against the threshold.
"""

import numpy as np

from fredreg import (
    NoiseSpec,
    OperatorCache,
    SolverConfig,
    add_noise,
    avg_error,
    exact_problem,
    run_adaptive,
    run_fixed,
    sample_grid,
)
from fredreg.haar import evaluate

problem = exact_problem()
ops = OperatorCache()
config = SolverConfig()
grid = sample_grid(config.m_cap)
f_exact = problem.exact_rhs(grid)
noisy, delta_abs = add_noise(f_exact, NoiseSpec(rel_level=0.01, seed=42))

print(f"noise: 1% relative -> delta_abs = {delta_abs:.6e}")
print(f"stopping threshold C * delta**eps = {config.C * delta_abs ** config.eps:.6e}\n")

outcome = run_adaptive(ops, noisy, delta_abs, config)
print(f"{'n':>3} {'a_n':>12} {'level':>6} {'dim':>5} {'|gamma|':>12} {'G_n':>12}")
for rec in outcome.trace:
    print(f"{rec.n:>3} {rec.a:>12.4e} {rec.m:>6} {2 ** rec.m:>5} "
          f"{rec.gamma_norm:>12.5e} {rec.G:>12.5e}")
print(f"\nstopped: {outcome.stop_reason} at n = {outcome.n_delta}, "
      f"level {outcome.m_final} ({2 ** outcome.m_final} basis functions)")
print(f"mean absolute error vs u(t) = t: {avg_error(outcome.solution, problem.exact_solution):.5f}")

print("\n=== reconstruction samples ===")
t = np.linspace(0.05, 0.95, 10)
u = evaluate(outcome.solution, t)
for ti, ui in zip(t, u):
    bar = "#" * int(round(40 * max(ui, 0)))
    print(f"  t = {ti:.2f}  u = {ui:+.4f}  exact {ti:+.4f}  {bar}")

print("\n=== the fixed-level baseline on the same data ===")
baseline = run_fixed(ops, noisy, delta_abs, config, 4)
print(f"fixed level 4 ({2 ** 4} basis functions): stopped at n = {baseline.n_delta}, "
      f"avg error {avg_error(baseline.solution, problem.exact_solution):.5f}")
print(f"adaptive reached comparable accuracy with system sizes "
      f"{[2 ** rec.m for rec in outcome.trace]} instead of "
      f"{[2 ** 4] * baseline.n_delta}.")
