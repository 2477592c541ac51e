"""Convergence as the noise vanishes, and what the level cap does to it.

The paper's claim is that the discrepancy-stopped iterate converges to
the exact solution as the noise level goes to 0, with the level rule
choosing finer spans as the regularization parameter shrinks. The code
caps the level (``m_cap``), so once the rule asks for more than the cap
the operator error stops falling. This prints, per relative noise
level and for ``m_cap`` 6 and 8, the median ``avg`` error of the
adaptive scheme over seeds 0-2, the median raw level the rule asked
for at the last step (``m_raw``), and how many of the runs were capped.
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
    sample_grid,
)

LEVELS = (5e-2, 1e-2, 5e-3, 5e-4, 1e-4, 1e-5, 1e-6, 1e-7)
SEEDS = range(3)
CAPS = (6, 8)

problem = exact_problem()
table = {}
for m_cap in CAPS:
    config = SolverConfig(m_cap=m_cap)
    ops = OperatorCache(problem.kernel)
    f_exact = problem.exact_rhs(sample_grid(m_cap))
    for level in LEVELS:
        runs = []
        for seed in SEEDS:
            noisy, delta = add_noise(f_exact, NoiseSpec(rel_level=level, seed=seed))
            outcome = run_adaptive(ops, noisy, delta, config)
            avg = avg_error(outcome.solution, problem.exact_solution)
            runs.append((avg, outcome.trace[-1].m_raw, outcome.capped))
        table[m_cap, level] = runs

print(f"{'':>8}" + "".join(f" {f'---- m_cap = {m} ----':>30}" for m in CAPS))
print(f"{'noise':>8}" + f" {'median avg':>12} {'m_raw':>7} {'capped':>9}" * len(CAPS))
for level in LEVELS:
    line = f"{level:>8.0e}"
    for m_cap in CAPS:
        runs = table[m_cap, level]
        median = float(np.median([r[0] for r in runs]))
        m_raw = int(np.median([r[1] for r in runs]))
        line += f" {median:>12.5f} {m_raw:>7} {sum(r[2] for r in runs):>7}/{len(runs)}"
    print(line)

print(
    "\nAt m_cap=6 the median error rises again below 1e-5 relative noise; at"
    "\nm_cap=8 it keeps falling over the whole range. Where no run is capped,"
    "\nthe two columns differ only through the data grid, which is finer at the"
    "\nlarger cap."
)
