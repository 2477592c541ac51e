"""The built-in benchmark problem and the reproducible experiment harness.

The benchmark inverts the finite Laplace-type equation

    int_0^1 exp(-s t) u(t) dt = f(s),   s in [0, 1],

whose exact solution is ``u(t) = t`` with right-hand side
``f(s) = (1 - (s+1) exp(-s)) / s**2`` (removable singularity at 0).
Noise is injected on a fixed fine uniform grid and rescaled so that the
discrete L2 norm of the perturbation hits the requested bound exactly;
runs are deterministic given the seed. The harness sweeps noise levels
and seeds over the adaptive and fixed-level schemes, computes the mean
absolute reconstruction error on a 100-point grid, and renders the rows
as CSV and as a median-aggregated summary table.
"""

import csv
import io
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
# numpy loads this submodule lazily; load it with fredreg, not in the first request
from numpy.random import default_rng

from .assembly import _EXPONENTIAL_KERNEL, Kernel, OperatorCache, sample_grid
from .haar import _check_grid, _check_level, _column0_exp_t, _rates, evaluate
from .iteration import SolverConfig, _norm, run_adaptive, run_fixed

PAPER_NOISE_LEVELS = (0.05, 0.01, 0.005, 0.0005)
# The two schemes, and the choice that runs both
_SCHEMES = ("adaptive", "fixed", "both")
# The evaluation grid t_j = 0.01 (j - 1), j = 1..100, of the error and the reconstruction
_EVAL_GRID = 0.01 * np.arange(100)
_EVAL_GRID.setflags(write=False)


@dataclass(frozen=True)
class Problem:
    """A first-kind integral equation with its ground truth."""

    kernel: Kernel
    exact_rhs: Callable
    exact_solution: Callable


def _benchmark_rhs(s):
    """``f(s) = int_0^1 t exp(-s t) dt = (1 - (s+1) e^{-s}) / s**2``.

    That is the ``Phi_1`` column of :func:`~fredreg.haar.exp_t_haar_matrix`
    (series branch near 0), computed alone; scalar input gives a scalar.
    The points obey that matrix's rate rule, and a refusal names them.
    """
    out = _column0_exp_t(*_rates(np.ravel(s), "exact_rhs points")).reshape(np.shape(s))
    return float(out) if out.ndim == 0 else out


def exact_problem():
    """The benchmark: exponential kernel, ``u(t) = t``, ``||y|| = 1/sqrt(3)``."""
    return Problem(
        kernel=_EXPONENTIAL_KERNEL,
        exact_rhs=_benchmark_rhs,
        exact_solution=lambda t: np.asarray(t, dtype=float),
    )


def trapezoid_norm(values):
    """Discrete L2 norm (trapezoid rule) of samples on the uniform grid.

    Scaled where the squares underflow or overflow, as the solver's norms are.
    """
    values = _check_grid(values, 1)
    n = len(values) - 1
    w = np.full(n + 1, 1.0 / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    return _norm(values, lambda v: np.sqrt(w @ v ** 2))


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and RNG seed of a uniform perturbation."""

    rel_level: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.rel_level < 1.0:
            raise ValueError(f"rel_level must lie in (0, 1), got {self.rel_level}")
        _check_level("seed", self.seed, 0)


def add_noise(f_samples, spec):
    """Perturb samples so the discrete L2 noise norm is exact.

    Draws i.i.d. noise uniform on ``[-1, 1]``, rescales it so that
    ``||e|| = rel_level * ||f||`` holds to machine precision, and
    returns ``(f + e, delta_abs)``. Deterministic given the seed.
    """
    f_samples = np.asarray(f_samples, dtype=float)
    rng = default_rng(spec.seed)
    # 2r is exact, so this is uniform(-1, 1)'s -1 + 2r bit for bit, faster
    e = rng.random(len(f_samples))
    e *= 2.0
    e -= 1.0
    delta_abs = spec.rel_level * trapezoid_norm(f_samples)
    e *= delta_abs / trapezoid_norm(e)
    return f_samples + e, delta_abs


def avg_error(u_coeffs, u_exact):
    """Mean absolute error on the grid ``t_j = 0.01 (j - 1), j = 1..100``."""
    approx = evaluate(u_coeffs, _EVAL_GRID)
    return float(np.mean(np.abs(np.asarray(u_exact(_EVAL_GRID)) - approx)))


@dataclass(frozen=True)
class ExperimentRow:
    """One (noise level, seed, scheme) experiment record."""

    delta_rel: float
    scheme: str
    seed: int
    avg: float
    m_final: int
    n_iters: int
    G_final: float
    wall_seconds: float
    stop_reason: str


# The CSV schema: one column per row field, parsed by the field's type.
_CSV_FIELDS = fields(ExperimentRow)
CSV_COLUMNS = tuple(f.name for f in _CSV_FIELDS)


def _runs(config, levels, seeds, schemes, fixed_m):
    """An iterator of ``(row, outcome)`` per (level, seed, scheme), in that order.

    The sweep behind :func:`run_table` and ``fredreg solve``. The call
    itself checks every input as :func:`run_table` states and builds the
    problem, the cache and the data grid, once; the runs start at the
    first ``next()``. Each (level, seed)'s noise is drawn once for every
    scheme.
    """
    if schemes not in _SCHEMES:
        raise ValueError(f"schemes must be one of {_SCHEMES}, got {schemes!r}")
    scheme_list = _SCHEMES[:2] if schemes == "both" else (schemes,)
    seeds = list(seeds)
    specs = [NoiseSpec(rel_level=level, seed=seed) for level in levels for seed in seeds]
    if not specs:
        raise ValueError("need at least one noise level and one seed")
    problem = exact_problem()
    ops = OperatorCache()
    f_exact_samples = problem.exact_rhs(sample_grid(config.m_cap))
    if "fixed" in scheme_list:
        _check_level("fixed level", fixed_m, 1)
        _check_grid(f_exact_samples, 2 ** fixed_m)

    def sweep():
        for spec in specs:
            noisy, delta_abs = add_noise(f_exact_samples, spec)
            for scheme in scheme_list:
                start = time.perf_counter()
                if scheme == "adaptive":
                    outcome = run_adaptive(ops, noisy, delta_abs, config)
                else:
                    outcome = run_fixed(ops, noisy, delta_abs, config, fixed_m)
                wall = time.perf_counter() - start
                row = ExperimentRow(
                    delta_rel=spec.rel_level,
                    scheme=scheme,
                    seed=spec.seed,
                    avg=avg_error(outcome.solution, problem.exact_solution),
                    m_final=outcome.m_final,
                    n_iters=outcome.n_delta,
                    G_final=outcome.G_final,
                    wall_seconds=wall,
                    stop_reason=outcome.stop_reason,
                )
                yield row, outcome

    return sweep()


def run_table(
    config=None,
    levels=PAPER_NOISE_LEVELS,
    seeds=range(20),
    schemes="both",
    fixed_m=4,
):
    """Sweep noise levels, seeds and schemes on the benchmark problem.

    Returns one :class:`ExperimentRow` per combination, in (level, seed,
    scheme) order, and writes or prints nothing: :func:`rows_to_csv` and
    :func:`format_summary` render them. ``levels`` and ``seeds`` may be
    any iterables, each read once. Before the first run, ``ValueError``
    is raised for an unknown scheme, no level or no seed, a level outside
    (0, 1), a seed that is not an integer ``>= 0`` and, with the fixed
    scheme, a ``fixed_m`` that is not an integer ``>= 1`` or that the data
    grid does not refine. A failed stopping rule is recorded in the row's
    ``stop_reason``, never raised.
    """
    return [row for row, _ in _runs(config or SolverConfig(), levels, seeds, schemes, fixed_m)]


def format_summary(rows):
    """Median-per-level summary table, one line per noise level."""
    levels = sorted({r.delta_rel for r in rows}, reverse=True)
    schemes = [s for s in _SCHEMES[:2] if any(r.scheme == s for r in rows)]
    header = f"{'noise':>8} "
    for s in schemes:
        header += f"| {s:>8}: {'avg':>8} {'m':>2} {'n':>2} {'sec':>7} "
    lines = [header]
    for level in levels:
        line = f"{level * 100:7.3g}% "
        for scheme in schemes:
            sub = [r for r in rows if r.delta_rel == level and r.scheme == scheme]
            med = lambda key: float(np.median([getattr(r, key) for r in sub]))
            line += (
                f"| {'':>8}  {med('avg'):8.4f} {med('m_final'):2.0f} "
                f"{med('n_iters'):2.0f} {med('wall_seconds'):7.4f} "
            )
        lines.append(line)
    return "\n".join(lines)


def rows_to_csv(rows):
    """Serialize rows; float fields use shortest round-trip formatting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_csv_cell(getattr(r, f.name), f.type) for f in _CSV_FIELDS])
    return buf.getvalue()


def _csv_cell(value, kind):
    """A field as written: floats in shortest round-trip form."""
    return repr(float(value)) if kind is float else kind(value)


def rows_from_csv(text):
    """Parse the output of :func:`rows_to_csv` back into row objects.

    Raises ``ValueError`` on empty input, on a foreign header or on a
    record whose field count differs from the header's.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("empty CSV input: no header")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = []
    for rec in reader:
        if len(rec) != len(CSV_COLUMNS):
            raise ValueError(
                f"CSV line {reader.line_num} has {len(rec)} fields, "
                f"expected {len(CSV_COLUMNS)}"
            )
        rows.append(ExperimentRow(*(f.type(cell) for f, cell in zip(_CSV_FIELDS, rec))))
    return rows
