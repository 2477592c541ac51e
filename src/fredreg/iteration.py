"""The adaptive-rank iterative regularization scheme.

Starting from zero, the iterate is the geometric blend

    u_n = q u_{n-1} + (1 - q) (a_n I + A_{m_n})^{-1} v_n,   a_n = alpha0 q^n,

where ``A_{m_n}`` is the level-``m_n`` Gram matrix of the degenerate
normal operator and ``v_n`` the approximate-adjoint right-hand side.
The level ``m_n`` is chosen per iteration from ``a_n`` so that the
operator approximation errors stay subordinate to the regularization
(:func:`rank_schedule`), which makes the level sequence non-decreasing:
early iterations solve very small systems.

Iteration stops with a discrepancy-type rule: the functional

    G_n = q G_{n-1} + (1 - q) a_n || (a_n I + B_{m_n})^{-1} g ||

is driven below ``C * delta**eps``. ``B_{m_n}`` represents ``K K*``; the
kernel ``exp(-s t)`` is symmetric, so ``B_{m_n} = A_{m_n}`` and both
solves of a step share one factor. A fixed-level variant of the loop
(:func:`run_fixed`) uses the exact Galerkin matrix of the operator at a
constant level as the baseline for comparison, and
:func:`closed_form_iterate` evaluates the blend directly as a weighted
sum of shifted solves, serving as an independent oracle for the
recursion.
"""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .haar import HaarCoefficients, _level_of

_GNM_VARIANTS = ("formal", "listing")


def _scipy_linalg_dir():
    """Directory of the installed ``scipy.linalg``, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("fredreg needs scipy for its LAPACK routines; scipy is not installed")
    return os.path.join(spec.submodule_search_locations[0], "linalg")


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without the ``scipy.linalg`` package.

    ``scipy.linalg.lapack`` re-exports this extension module, so the
    routines are the same machine code on the same BLAS; importing the
    package instead would run ``scipy/__init__`` and ``scipy.linalg``'s
    pure-Python modules, about half the start-up of the CLI.
    """
    directory = _scipy_linalg_dir()
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {directory}")
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError as error:
        raise ImportError(
            f"scipy's LAPACK extension {spec.origin} could not be loaded without "
            f"running scipy's package initialisation (supported: scipy's Linux and "
            f"macOS wheels): {error}"
        ) from error
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


class FactorizationError(np.linalg.LinAlgError):
    """Cholesky breakdown; ``pivot`` is the 1-based offending leading minor.

    Possible only when the matrix violates the positive semidefinite
    contract upstream (the shift makes honest Gram inputs definite).
    """

    def __init__(self, pivot):
        self.pivot = int(pivot)
        super().__init__(
            f"Cholesky factorization failed at pivot {self.pivot}; "
            "matrix is not positive definite"
        )


def factor_spd_shifted(matrix, shift):
    """Read-only lower Cholesky factor of ``shift I + M`` for symmetric PSD ``M``.

    With ``shift > 0`` the system matrix has smallest eigenvalue at
    least ``shift``, so plain Cholesky is backward stable. The shift is
    added to the diagonal of a copy of ``M``, which is bit-identical to
    ``M + shift * np.eye(n)``. The factor is the ``dpotrf`` output: its
    lower triangle holds ``L``, its strict upper triangle is left as it
    was, and :func:`solve_spd_shifted` reads the lower triangle only.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not shift > 0:
        raise ValueError(f"shift must be positive, got {shift}")
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    shifted = np.array(matrix, order="F")
    diag = np.arange(n)
    shifted[diag, diag] += shift
    factor, info = dpotrf(shifted, lower=1, overwrite_a=1)
    if info > 0:
        raise FactorizationError(info)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the factorization")
    factor.setflags(write=False)
    return factor


def solve_spd_shifted(factor, rhs):
    """Solve ``(shift I + M) x = b`` given the factor of :func:`factor_spd_shifted`.

    Every linear solve of the scheme has this form; identical inputs
    give bit-identical solutions.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = factor.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"dimension mismatch: matrix {n}, rhs {rhs.shape[0]}")
    x, info = dpotrs(factor, rhs, lower=1)
    if info != 0:
        raise ValueError(f"triangular solve failed with status {info}")
    return x


@dataclass(frozen=True)
class SolverConfig:
    """Tunable scalars of the scheme; defaults are the benchmark preset.

    Attributes
    ----------
    alpha0 : float
        Initial regularization scale, ``a_n = alpha0 * q**n``.
    q : float
        Geometric ratio in (0, 1), shared by the blend and ``a_n``.
    C : float
        Discrepancy constant, > 2.
    eps : float
        Discrepancy exponent in (0, 1); threshold ``C * delta**eps``.
    eta : float
        Relaxation (>= 10) of the mixed-error condition in the level
        rule; larger values slow the level growth.
    max_iter : int
        Safety cap on the number of iterations.
    m_cap : int
        Maximum dyadic level; the schedule is clamped here and the
        clamping is recorded in the trace.
    gnm_variant : str
        "formal" keeps the ``(1 - q)`` factor on the discrepancy
        increment; "listing" drops it.
    """

    alpha0: float = 1.0
    q: float = 0.25
    C: float = 2.01
    eps: float = 0.99
    eta: float = 10.0
    max_iter: int = 50
    m_cap: int = 6
    gnm_variant: str = "formal"

    def __post_init__(self):
        if not 0.0 < self.alpha0 < math.inf:
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not self.alpha0 * self.q > 0.0:
            raise ValueError(
                f"alpha0 * q must be positive, got alpha0={self.alpha0} and q={self.q}, "
                "whose product rounds to 0"
            )
        if not 2.0 < self.C < math.inf:
            raise ValueError(f"C must be > 2 and finite, got {self.C}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if not 10.0 <= self.eta < math.inf:
            raise ValueError(f"eta must be >= 10 and finite, got {self.eta}")
        for name in ("max_iter", "m_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.m_cap < 1:
            raise ValueError(f"m_cap must be >= 1, got {self.m_cap}")
        if self.gnm_variant not in _GNM_VARIANTS:
            raise ValueError(f"gnm_variant must be one of {_GNM_VARIANTS}")


@dataclass(frozen=True)
class StepRecord:
    """Per-iteration trace entry."""

    n: int
    a: float
    m: int
    m_raw: int
    gamma_norm: float
    G: float


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a complete run, including the full trace.

    ``stop_reason`` is one of ``discrepancy_met`` (the rule fired at
    some ``n > 1``), ``initial_below_threshold`` (the rule already held
    at ``n = 1``, outside the standing assumption of the analysis),
    ``max_iter``, or ``m_cap`` (iteration budget exhausted while the
    level schedule was clamped at the cap).
    """

    solution: HaarCoefficients
    n_delta: int
    m_final: int
    G_final: float
    stop_reason: str
    trace: tuple
    delta_abs: Optional[float]
    threshold: Optional[float]
    capped: bool


def geometric_weights(n, q):
    """Blend weights ``w_j = q**(n-j-1) - q**(n-j)`` for ``j = 0..n-1``.

    All weights are positive and telescope to ``sum w_j = 1 - q**n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    powers = q ** np.arange(n + 1, dtype=float)  # q**0 .. q**n
    return np.diff(powers[::-1])


def rank_schedule(a, c1, eta, m_cap=None):
    """Smallest level meeting the three accuracy conditions at scale ``a``.

    The level is the maximum of three ceilings, making the degenerate
    normal-operator error at most ``a/2``, the mixed error at most
    ``eta * a**2``, and the adjoint error at most ``sqrt(a)/2``; the
    result is floored at 1 (the raw ceilings go non-positive for large
    ``a``) and optionally clamped to ``m_cap``. Every finite ``a > 0``
    has a level: where a direct quotient over- or underflows, the three
    ceilings are taken from sums of logarithms instead.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"regularization parameter must be positive and finite, got {a}")
    if not 0.0 < c1 < math.inf:
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    if not 10.0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 10 and finite, got {eta}")
    log2 = math.log(2.0)
    try:
        t_normal = math.ceil(math.log(2.0 * c1 / a) / (4.0 * log2))
        t_mixed = math.ceil(math.log(17.0 / (180.0 * eta * a * a)) / (2.0 * log2))
        t_adjoint = math.ceil(math.log(2.0 * c1 / math.sqrt(a)) / (2.0 * log2))
    except (ArithmeticError, ValueError):
        # a quotient reached 0 or inf (at the preset, for ``a`` outside about
        # [1e-154, 1e154]): the same logarithms as sums of logarithms
        log_a, log_2c1 = math.log(a), math.log(2.0) + math.log(c1)
        t_normal = math.ceil((log_2c1 - log_a) / (4.0 * log2))
        t_mixed = math.ceil((math.log(17.0 / 180.0) - math.log(eta) - 2.0 * log_a) / (2.0 * log2))
        t_adjoint = math.ceil((log_2c1 - 0.5 * log_a) / (2.0 * log2))
    m = max(t_normal, t_mixed, t_adjoint, 1)
    if m_cap is not None:
        m = min(m, m_cap)
    return m


def dsm_step(u, zeta, q):
    """One blend step: returns ``q * pad(u) + (1 - q) * zeta``.

    ``zeta`` has length ``2**m_n``; the previous iterate ``u`` is
    zero-padded into the (nested) finer span before blending. Level
    shrinkage is rejected. ``q`` is not range-checked here so the
    degenerate endpoints remain usable in algebraic tests.
    """
    zeta = np.asarray(zeta, dtype=float)
    m_prev, m_new = _level_of(len(u)), _level_of(len(zeta))
    if m_new < m_prev:
        raise ValueError(f"level must not shrink: {m_prev} -> {m_new}")
    padded = np.zeros(len(zeta))
    padded[: len(u)] = u
    return q * padded + (1.0 - q) * zeta


def discrepancy_update(g_prev, a, gamma_norm, q, variant="formal"):
    """Advance the discrepancy functional one step.

    ``formal`` computes ``q*G + (1-q)*a*|gamma|``; ``listing`` drops
    the ``(1-q)`` factor on the increment.
    """
    if g_prev < 0 or a < 0 or gamma_norm < 0:
        raise ValueError("discrepancy inputs must be non-negative")
    if variant not in _GNM_VARIANTS:
        raise ValueError(f"variant must be one of {_GNM_VARIANTS}")
    factor = 1.0 if variant == "listing" else (1.0 - q)
    return q * g_prev + factor * a * gamma_norm


def _check_data(f_samples, delta):
    """Reject non-finite samples and a non-finite noise bound at entry."""
    if not np.all(np.isfinite(np.asarray(f_samples, dtype=float))):
        raise ValueError("data samples must be finite")
    if delta is not None and not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")


def _norm(x):
    """Euclidean norm of ``x``, scaled where the squares would underflow.

    Above 1e-150 the squares stay normal and this is ``np.linalg.norm``;
    below, the entries are first divided by their largest magnitude.
    """
    norm = float(np.linalg.norm(x))
    if norm < 1e-150:
        scale = float(np.max(np.abs(x)))
        if scale > 0.0:
            norm = scale * float(np.linalg.norm(x / scale))
    return norm


def _run_loop(delta, config, systems, fixed_n=None):
    """Shared driver: systems(a, m_prev) -> (m_raw, m, L, v, g).

    ``L`` is the factor of ``a I + A``; the update solves it against
    ``v`` and the discrepancy solve against ``g``.
    """
    if fixed_n is None:
        if delta is None or not delta > 0:
            raise ValueError("delta must be positive when the stopping rule is active")
        threshold = config.C * delta ** config.eps
        n_max = config.max_iter
    else:
        if fixed_n < 1:
            raise ValueError(f"fixed_n must be >= 1, got {fixed_n}")
        threshold = None
        n_max = fixed_n

    a, m, u, G = config.alpha0, 0, np.zeros(1), 0.0
    trace = []
    capped = False
    for n in range(1, n_max + 1):
        a = a * config.q
        m_raw, m, factor, v, g = systems(a, m)
        capped = capped or (m_raw > config.m_cap)
        zeta = solve_spd_shifted(factor, v)
        gamma = solve_spd_shifted(factor, g)
        u = dsm_step(u, zeta, config.q)
        gamma_norm = _norm(gamma)
        G = discrepancy_update(G, a, gamma_norm, config.q, config.gnm_variant)
        trace.append(StepRecord(n=n, a=a, m=m, m_raw=m_raw, gamma_norm=gamma_norm, G=G))
        if threshold is not None and G <= threshold:
            reason = "discrepancy_met" if n > 1 else "initial_below_threshold"
            break
    else:
        if threshold is None:
            reason = "fixed_n"
        else:
            reason = "m_cap" if capped else "max_iter"
    return SolveOutcome(
        solution=HaarCoefficients(level=m, values=u),
        n_delta=len(trace),
        m_final=m,
        G_final=G,
        stop_reason=reason,
        trace=tuple(trace),
        delta_abs=delta,
        threshold=threshold,
        capped=capped,
    )


def run_adaptive(ops, f_samples, delta, config, fixed_n=None):
    """Run the adaptive-level scheme on sampled data.

    Parameters
    ----------
    ops : OperatorCache
        Assembly cache bound to the kernel.
    f_samples : ndarray
        Data samples on the uniform grid (see :mod:`.experiment`); the
        grid must refine every partition up to ``config.m_cap``.
    delta : float or None
        Absolute noise bound feeding the stopping rule. May be None
        only when ``fixed_n`` disables the rule.
    config : SolverConfig
    fixed_n : int, optional
        Run exactly this many steps with the stopping rule disabled
        (diagnostic/oracle mode; ``stop_reason`` becomes ``fixed_n``).

    Returns
    -------
    SolveOutcome

    Raises ``ValueError`` on non-finite samples or a non-finite ``delta``.
    """
    _check_data(f_samples, delta)
    c1 = ops.kernel.c1
    rhs_cache = {}
    data_cache = {}

    def systems(a, m_prev):
        m_raw = rank_schedule(a, c1, config.eta)
        m = max(min(m_raw, config.m_cap), m_prev)
        if m not in rhs_cache:
            rhs_cache[m] = ops.rhs(f_samples, m)
            data_cache[m] = ops.data(f_samples, m)
        return m_raw, m, ops.factor(m, a), rhs_cache[m], data_cache[m]

    return _run_loop(delta, config, systems, fixed_n)


def run_fixed(ops, f_samples, delta, config, m):
    """Run the constant-level baseline scheme.

    At every iteration the same exact Galerkin matrix ``K_m`` of the
    operator is used: the update solves ``(a_n I + K_m^T K_m) z =
    K_m^T g`` and the discrepancy solve uses ``K_m K_m^T``, which is the
    same matrix because ``K_m`` is symmetric. Stopping is identical to
    :func:`run_adaptive`, and so is the check of the inputs.
    """
    _check_data(f_samples, delta)
    if m < 1:
        raise ValueError(f"fixed level must be >= 1, got {m}")
    g = ops.data(f_samples, m)
    v = ops.galerkin(m).T @ g

    def systems(a, m_prev):
        return m, m, ops.factor(m, a, galerkin=True), v, g

    return _run_loop(delta, config, systems)


def closed_form_iterate(ops, f_samples, n, m_schedule, config):
    """Direct evaluation of the blend as a weighted sum of shifted solves.

    Computes ``sum_j w_j (a_{j+1} I + A_{m_{j+1}})^{-1} v_{j+1}`` with
    the weights of :func:`geometric_weights`, zero-padding every term
    to the final level. Algebraically identical to ``n`` recursion
    steps on exact data; the recursion tests use it as the independent
    oracle.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(m_schedule) != n:
        raise ValueError(f"schedule must list {n} levels, got {len(m_schedule)}")
    if any(m2 < m1 for m1, m2 in zip(m_schedule, m_schedule[1:])):
        raise ValueError("level schedule must be non-decreasing")
    weights = geometric_weights(n, config.q)
    m_final = m_schedule[-1]
    acc = np.zeros(2 ** m_final)
    a = config.alpha0
    for j in range(n):
        a = a * config.q  # a_{j+1}, by repeated multiplication as in the recursion
        m_j = m_schedule[j]
        v = ops.rhs(f_samples, m_j)
        term = solve_spd_shifted(ops.factor(m_j, a), v)
        acc[: 2 ** m_j] += weights[j] * term
    return HaarCoefficients(level=m_final, values=acc)
