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
systems of a step share one solve. A fixed-level variant of the loop
(:func:`run_fixed`) uses the exact Galerkin matrix of the operator at a
constant level as the baseline for comparison. The matrices, their
factors and the shifted solves come from :mod:`.assembly`.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import _EXPONENTIAL_KERNEL, solve_spd_shifted
from .haar import _check_grid, _check_level


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
    """

    alpha0: float = 1.0
    q: float = 0.25
    C: float = 2.01
    eps: float = 0.99
    eta: float = 10.0
    max_iter: int = 50
    m_cap: int = 6

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
        _check_level("max_iter", self.max_iter, 1)
        _check_level("m_cap", self.m_cap, 1)


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
    ``max_iter``, or ``m_cap`` (iteration budget exhausted after some
    step was capped: its raw level ``m_raw`` exceeded its level ``m``,
    which ``capped`` records; the fixed scheme never caps). ``solution``
    holds the ``2**m_final`` Haar coefficients of the final iterate, a
    read-only array (see :func:`.haar.evaluate`).
    """

    solution: np.ndarray
    n_delta: int
    m_final: int
    G_final: float
    stop_reason: str
    trace: tuple
    delta_abs: float
    threshold: float
    capped: bool


def rank_schedule(a, c1, eta, m_cap=None):
    """Smallest level ``m >= 1`` meeting three accuracy conditions at scale ``a``.

    The conditions are ``c1 / 16**m <= a/2`` (the normal-operator bound of
    :func:`.error_budget`), ``(c1 + sup/180) / 4**m <= eta * a**2`` (its
    mixed bound, ``sup = 1``) and ``c1 / 4**m <= sqrt(a)/2`` (for this
    kernel ``16 * bound_adjoint``). The level is the largest of their
    three ceilings, floored at 1 (the raw ceilings go non-positive for
    large ``a``) and optionally clamped to ``m_cap``, an integer ``>= 1``.
    The ceilings are taken from sums of logarithms, so every finite
    ``a > 0`` has a level, and each ceiling never falls as ``a`` falls.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"regularization parameter must be positive and finite, got {a}")
    if not 0.0 < c1 < math.inf:
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    if not 10.0 <= eta < math.inf:
        raise ValueError(f"eta must be >= 10 and finite, got {eta}")
    if m_cap is not None:
        _check_level("m_cap", m_cap, 1)
    log2 = math.log(2.0)
    log_a, log_2c1 = math.log(a), math.log(2.0) + math.log(c1)
    t_normal = math.ceil((log_2c1 - log_a) / (4.0 * log2))
    mixed = c1 + _EXPONENTIAL_KERNEL.sup_bound / 180.0
    t_mixed = math.ceil((math.log(mixed) - math.log(eta) - 2.0 * log_a) / (2.0 * log2))
    t_adjoint = math.ceil((log_2c1 - 0.5 * log_a) / (2.0 * log2))
    m = max(t_normal, t_mixed, t_adjoint, 1)
    if m_cap is not None:
        m = min(m, m_cap)
    return m


def _check_data(f_samples, delta):
    """Reject non-finite samples and a noise bound that is not finite and positive."""
    if not np.all(np.isfinite(np.asarray(f_samples, dtype=float))):
        raise ValueError("data samples must be finite")
    if delta is None or not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be finite and positive, got {delta}")


def _norm(x, norm=lambda v: math.sqrt(v.dot(v))):
    """``norm(x)`` of a 2-norm ``norm``, scaled where the squares underflow or overflow.

    The default is the Euclidean norm in ``np.linalg.norm``'s arithmetic.
    Between 1e-150 and ``inf`` this is ``norm(x)`` itself; outside, the
    entries are first divided by their largest magnitude, if that is
    finite and non-zero.
    """
    with np.errstate(over="ignore"):
        value = float(norm(x))
    if value < 1e-150 or value == math.inf:
        scale = float(np.max(np.abs(x)))
        if 0.0 < scale < math.inf:
            value = scale * float(norm(x / scale))
    return value


def _run_loop(delta, config, g, systems, rhs):
    """The loop both schemes share: systems(a) -> (m_raw, m, solve) for the shift ``a = a_n``.

    ``solve(b)`` solves ``(a I + A_m) x = b``, the data at level ``m`` are
    ``g[: 2**m]`` and ``rhs(m)`` gives the adjoint right-hand side ``v``.
    ``G_n`` reads only the data, the shift and the level, never the
    iterate, so the discrepancy recursion runs first: per step the level,
    ``gamma = solve(g[: 2**m])``, ``G_n`` (its increment carries the
    factor ``1 - q``) and the stop. Then ``rhs`` is asked once per visited
    level, finest first, so a cold :class:`.OperatorCache` fills one
    adjoint pair per run and every coarser level reads its block. Last,
    every ``zeta_n = solve(v)`` and ``u_n`` is formed in step order with
    the same solves; the blend zero-pads ``u_{n-1}`` into the (nested)
    finer span. A step is capped when its raw level exceeds its level.
    The levels never fall: the shift never grows and the level rule never
    rises as it falls. A non-finite ``G_n`` or final iterate raises
    ``np.linalg.LinAlgError``; the first is raised before any ``rhs`` call.
    """
    threshold = config.C * delta ** config.eps
    q = config.q
    a, G = config.alpha0, 0.0
    trace, solves = [], []
    reason = "max_iter"
    for n in range(1, config.max_iter + 1):
        a = a * q
        m_raw, m, solve = systems(a)
        gamma_norm = _norm(solve(g[: 2 ** m]))
        G = q * G + (1.0 - q) * a * gamma_norm
        trace.append(StepRecord(n=n, a=a, m=m, m_raw=m_raw, gamma_norm=gamma_norm, G=G))
        solves.append(solve)
        if not math.isfinite(G):
            raise np.linalg.LinAlgError(f"G is not finite after step {n} (level {m}, shift {a!r})")
        if G <= threshold:
            reason = "discrepancy_met" if n > 1 else "initial_below_threshold"
            break
    v = {level: rhs(level) for level in sorted({rec.m for rec in trace}, reverse=True)}
    u = np.zeros(1)
    for rec, solve in zip(trace, solves):
        zeta = solve(v[rec.m])
        padded = np.zeros(len(zeta))  # np.pad costs 15x more per call
        padded[: len(u)] = u
        u = q * padded + (1.0 - q) * zeta
    if not np.isfinite(u).all():
        raise np.linalg.LinAlgError(f"u is not finite after step {n} (level {m}, shift {a!r})")
    capped = any(rec.m_raw > rec.m for rec in trace)
    if capped and reason == "max_iter":
        reason = "m_cap"
    u.setflags(write=False)
    return SolveOutcome(
        solution=u,
        n_delta=len(trace),
        m_final=m,
        G_final=G,
        stop_reason=reason,
        trace=tuple(trace),
        delta_abs=delta,
        threshold=threshold,
        capped=capped,
    )


def run_adaptive(ops, f_samples, delta, config):
    """Run the adaptive-level scheme on sampled data.

    Parameters
    ----------
    ops : OperatorCache
        Assembly cache bound to the kernel.
    f_samples : ndarray
        Data samples on a uniform grid that refines
        ``sample_grid(config.m_cap)`` (see :mod:`.experiment`).
    delta : float
        Absolute noise bound feeding the stopping rule; finite and > 0.
    config : SolverConfig

    Returns
    -------
    SolveOutcome

    Raises ``ValueError`` before any assembly on non-finite samples, on
    a grid that does not refine as above and on a ``delta`` that is not
    finite and positive, and ``np.linalg.LinAlgError`` on a breakdown
    (see :func:`_run_loop`). The data are projected once, at ``m_cap``.
    The stop reads only them, so every level is known before ``ops.rhs``
    is asked, once per visited level and finest first: a cold cache makes
    one adjoint fill per run.
    """
    _check_data(f_samples, delta)
    _check_grid(f_samples, 180 * 2 ** config.m_cap)
    c1 = _EXPONENTIAL_KERNEL.c1
    g = ops.data(f_samples, config.m_cap)  # the spans nest: level m reads g[: 2**m]

    def systems(a):
        m_raw = rank_schedule(a, c1, config.eta)
        m = min(m_raw, config.m_cap)
        return m_raw, m, partial(solve_spd_shifted, ops.factor(m, a))

    return _run_loop(delta, config, g, systems, lambda m: ops.rhs(f_samples, m))


def run_fixed(ops, f_samples, delta, config, m):
    """Run the constant-level baseline scheme.

    At every iteration the same exact Galerkin matrix ``K_m`` of the
    operator is used: the update solves ``(a_n I + K_m^T K_m) z =
    K_m^T g`` and the discrepancy solve uses ``K_m K_m^T``, which is the
    same matrix because ``K_m`` is symmetric. Stopping and the check of
    the samples and ``delta`` are as in :func:`run_adaptive`, but the
    grid needs to refine level ``m`` only.
    """
    _check_data(f_samples, delta)
    _check_level("fixed level", m, 1)
    g = ops.data(f_samples, m)
    v = ops.galerkin(m).T @ g

    def systems(a):
        return m, m, partial(solve_spd_shifted, ops.factor(m, a, galerkin=True))

    return _run_loop(delta, config, g, systems, lambda _: v)

