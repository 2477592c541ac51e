"""Independent oracles the tests check fredreg against; none is part of the method.

* :func:`geometric_weights` and :func:`closed_form_iterate` evaluate the
  blend ``u_n = q u_{n-1} + (1 - q) zeta_n`` in closed form, as a
  weighted sum of shifted solves.
* :func:`run_steps` runs the recursion itself for exactly ``n`` steps,
  with a noise bound the stopping rule cannot meet.
* :func:`level_ceilings` gives the level rule's three raw ceilings by
  direct quotients.
* :func:`split_index` and :func:`join_index` are the index split
  ``j = 2**(l-1) + p`` of :mod:`fredreg.haar`'s definition and its
  inverse, and :func:`supports` gives each ``Phi_j``'s support from it.
* :func:`trapezoid_gather` gathers uniform-grid samples onto equal cells
  by index, in float64 or long double, and :func:`trapezoid_moments`
  gives each cell's two trapezoid moments from it.
* :func:`forward_residual` checks a problem's exact solution against
  its right-hand side on a dense midpoint grid.
* :func:`chebyshev_interpolation` is the barycentric interpolation
  matrix at second-kind Chebyshev points on ``[0, 1]``, the low-rank
  form of the moment matrices' rows as functions of the rate.
* :func:`gauss_cell_nodes` is the per-cell 8-point Gauss-Legendre rule
  of callable projection, built from numpy's ``leggauss`` rather than
  the constants fredreg holds.
* :func:`synthesis_matrix`, :func:`galerkin_gather` and
  :func:`haar_eval_piecewise` are the dense and piecewise forms that the
  Haar pyramid transform replaced: the basis on the finest cells as a
  ``4**m`` matrix, the Galerkin matrix from its gathered columns, and
  ``Phi_j`` from its support breakpoints.
* :func:`run_extended` runs the adaptive scheme in x86-64's 80-bit long
  double on the same data, with :func:`extended_moments` for the moment
  matrices, and :func:`extended_avg_error` scores its result: the answer
  check that does not read the float64 program's bits.
* :func:`decimal_moments` gives the moments of ``t**weight exp(-c t)``
  against ``Phi_j`` from their exact antiderivatives in decimal: the one
  accuracy reference of the closed forms in both precisions.
* :func:`adjoint_pair` reads level ``m``'s moment pair out of the one
  pair an :class:`~fredreg.assembly.OperatorCache` holds,
  :func:`record_calls` records the calls of a module attribute, and
  :func:`run_python` runs Python in a process of its own on the
  repository's ``src``.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from fredreg.assembly import solve_spd_shifted
from fredreg.haar import _tables, exp_haar_matrix
from fredreg.iteration import rank_schedule, run_adaptive

LONG = np.longdouble
# The extended-precision oracles need x86-64's 80-bit long double (or wider)
EXTENDED = np.finfo(LONG).nmant >= 63

# C * delta**eps is about 2e-297 at the preset: no run of a few steps gets G below it
UNREACHABLE_DELTA = 1e-300


def adjoint_pair(ops, m):
    """Level ``m``'s moment pair: the block of the pair ``ops.rhs`` holds, as it reads it.

    The held pair is one ``(2, n, 2**top)`` array at the finest level
    ``top`` asked so far; level ``m <= top`` is the block
    ``[::2**(top-m), :2**m]`` of each of its two matrices, a view.
    """
    top, pair = ops._store["adjoint"]
    e0, e1 = pair[:, :: 2 ** (top - m), : 2 ** m]
    return e0, e1


def record_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its calls as ``[args, kwargs, result]``.

    A call is recorded before it runs, so one that raises is listed too,
    with result ``None``.
    """
    calls = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        call = [args, kwargs, None]
        calls.append(call)
        call[2] = original(*args, **kwargs)
        return call[2]

    monkeypatch.setattr(module, name, recorded)
    return calls


def run_python(args, cwd=None, env=None):
    """Run ``python *args`` in a process of its own, with ``PYTHONPATH`` set to ``src``.

    ``env`` adds to the inherited environment. Returns the
    ``CompletedProcess``, with stdout and stderr as text.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **(env or {}))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


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


def closed_form_iterate(ops, f_samples, n, m_schedule, config):
    """Direct evaluation of the blend as a weighted sum of shifted solves.

    Computes ``sum_j w_j (a_{j+1} I + A_{m_{j+1}})^{-1} v_{j+1}`` with
    the weights of :func:`geometric_weights`, zero-padding every term
    to the final level. Algebraically identical to ``n`` recursion
    steps on exact data.
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
    return acc


def run_steps(ops, f_samples, n, config):
    """``run_adaptive`` for exactly ``n`` steps: ``max_iter = n``, unreachable threshold."""
    outcome = run_adaptive(
        ops, f_samples, UNREACHABLE_DELTA, dataclasses.replace(config, max_iter=n)
    )
    assert outcome.n_delta == n, (outcome.n_delta, outcome.stop_reason)
    return outcome


def level_ceilings(a, c1, eta):
    """The three raw ceilings of :func:`fredreg.rank_schedule`'s level rule at shift ``a``.

    ``(ceil(log2(2 c1 / a) / 4), ceil(log2((c1 + 1/180) / (eta a**2)) / 2),
    ceil(log2(2 c1 / sqrt(a)) / 2))`` by direct quotients; the level is
    ``max`` of them and 1. A reference wherever the quotients neither
    over- nor underflow, roughly for ``a`` in ``[1e-154, 1e154]``.
    """
    return (
        math.ceil(math.log2(2.0 * c1 / a) / 4.0),
        math.ceil(math.log2((c1 + 1.0 / 180.0) / (eta * a * a)) / 2.0),
        math.ceil(math.log2(2.0 * c1 / math.sqrt(a)) / 2.0),
    )


def split_index(j):
    """The (level, offset) pair of ``j = 2**(l-1) + p``, ``1 <= p <= 2**(l-1)``, for ``j >= 2``."""
    if j < 2:
        raise ValueError(f"wavelet index must be >= 2, got {j}")
    l = 1
    while 2 ** l < j:  # the offsets of level l reach j = 2**l
        l += 1
    return l, j - 2 ** (l - 1)


def join_index(l, p):
    """Inverse of :func:`split_index`."""
    if l < 1 or not 1 <= p <= 2 ** (l - 1):
        raise ValueError(f"invalid (level, offset) = ({l}, {p})")
    return 2 ** (l - 1) + p


def supports(m):
    """Left and right ends of the supports of ``Phi_j``, ``j = 1..2**m``.

    From the index definition of :mod:`fredreg.haar`: ``Phi_1`` on [0, 1],
    and ``Phi_j``, ``j = 2**(l-1) + p``, on ``[(p-1)/2**(l-1), p/2**(l-1))``.
    """
    left, right = np.zeros(2 ** m), np.ones(2 ** m)
    for j in range(2, 2 ** m + 1):
        l, p = split_index(j)
        w = 1.0 / 2 ** (l - 1)
        left[j - 1], right[j - 1] = (p - 1) * w, p * w
    return left, right


def trapezoid_gather(samples, n_cells, dtype=np.float64):
    """``(blocks, h, w0, w1)``: uniform-grid samples gathered by index onto ``n_cells`` equal cells.

    Row ``i`` of ``blocks`` is ``samples[i*k : i*k + k + 1]`` in ``dtype``,
    ``h`` is the grid step and ``w0``, ``w1`` are the trapezoid weights of
    ``int f`` and of ``int (s - d) f(s) ds`` on each cell ``[d, d + k h)``.
    In float64 the first three are :func:`fredreg.haar._trapezoid_blocks`'
    ``(blocks, h, w)``.
    """
    samples = np.asarray(samples, dtype=dtype)
    k = (len(samples) - 1) // n_cells
    blocks = samples[np.arange(n_cells)[:, None] * k + np.arange(k + 1)]
    h = dtype(1) / (len(samples) - 1)
    w0 = np.ones(k + 1, dtype=dtype)
    w0[[0, -1]] = dtype(1) / 2
    w1 = np.arange(k + 1, dtype=dtype)
    w1[-1] = dtype(k) / 2
    return blocks, h, w0, w1


def trapezoid_moments(samples, n_cells, dtype=np.float64):
    """Trapezoid ``int f`` and ``int (s - d) f(s) ds`` on each of ``n_cells`` equal cells ``[d, .)``.

    In float64 the pair is :func:`fredreg.assembly._moments` at
    ``n_cells = 180 * 2**m``, and its first entry the cell integrals that
    :func:`fredreg.haar.project` transforms at ``n_cells = 2**m``.
    """
    blocks, h, w0, w1 = trapezoid_gather(samples, n_cells, dtype)
    return h * (blocks @ w0), h * h * (blocks @ w1)


def forward_residual(problem, n_points=1024):
    """Discrete L2 residual ``||K u_exact - f||`` on a dense midpoint grid.

    The kernel is ``exp(-s t)``, the only one the package assembles.
    """
    s = (np.arange(n_points) + 0.5) / n_points
    t = s
    kmat = np.exp(-s[:, None] * t[None, :])
    ku = kmat @ (np.asarray(problem.exact_solution(t)) / n_points)
    resid = ku - np.asarray(problem.exact_rhs(s))
    return float(np.sqrt(np.mean(resid ** 2)))


def chebyshev_interpolation(c, r):
    """``(x, L)``: the ``r`` second-kind Chebyshev points ``x`` on [0, 1] and ``L(c)``.

    Row ``i`` of the ``(len(c), r)`` matrix ``L`` holds the barycentric
    weights of the point ``c_i`` in [0, 1], so ``L @ y`` evaluates the
    degree ``r - 1`` interpolant of the values ``y`` at ``x`` (Berrut &
    Trefethen, SIAM Rev. 2004): node weights ``(-1)**j``, halved at both
    ends, and a unit row where ``c_i`` is a node.
    """
    x = 0.5 - 0.5 * np.cos(np.pi * np.arange(r) / (r - 1))
    w = (-1.0) ** np.arange(r)
    w[[0, -1]] *= 0.5
    diff = np.asarray(c, dtype=float)[:, None] - x
    at_node = diff == 0.0
    diff[at_node] = 1.0
    terms = w / diff
    L = terms / terms.sum(axis=1, keepdims=True)
    hit = at_node.any(axis=1)
    L[hit] = at_node[hit]
    return x, L


def synthesis_matrix(m):
    """Values of the ``2**m`` basis functions on the ``2**m`` finest cells.

    Row ``i`` holds the constant value of ``Phi_{i+1}`` on each dyadic
    cell ``[k/2**m, (k+1)/2**m)``. The matrix is orthogonal up to the
    cell-measure factor: ``S S.T = 2**m I``. Dense: ``8 * 4**m`` bytes.
    """
    n = 2 ** m
    amp, mid = _tables(m)
    left, right = supports(m)
    centers = (np.arange(n) + 0.5) / n
    s = np.zeros((n, n))
    s[0, :] = 1.0
    for i in range(1, n):
        s[i, (centers >= left[i]) & (centers < mid[i])] = amp[i]
        s[i, (centers >= mid[i]) & (centers < right[i])] = -amp[i]
    return s


def gauss_cell_nodes(m, rule=None):
    """Nodes and weights of ``rule`` on each of the ``2**m`` dyadic cells, flat, in cell order.

    ``rule`` is a ``(nodes, weights)`` pair on [-1, 1], by default ``leggauss(8)``.
    """
    gx, gw = leggauss(8) if rule is None else rule
    n = 2 ** m
    w = 1.0 / n
    t = (np.arange(n)[:, None] * w + (gx[None, :] + 1.0) * w / 2.0).ravel()
    return t, np.tile(gw * w / 2.0, n)


def galerkin_gather(m):
    """``galerkin_matrix(m)`` from the columns of :func:`synthesis_matrix` at the Gauss nodes."""
    s, sw = gauss_cell_nodes(m)
    inner = exp_haar_matrix(s, m)[0]
    n = 2 ** m
    idx = np.minimum((s * n).astype(int), n - 1)
    k = (synthesis_matrix(m)[:, idx] * sw[None, :]) @ inner
    return 0.5 * (k + k.T)


def haar_eval_piecewise(j, x):
    """``Phi_j`` at ``x`` in [0, 1] from its breakpoints; a float for scalar ``x``."""
    xa = np.asarray(x, dtype=float)
    if j == 1:
        out = np.ones_like(xa)
        return float(out) if np.ndim(x) == 0 else out
    l, p = split_index(j)
    a = 2.0 ** ((l - 1) / 2.0)
    w = 1.0 / 2 ** (l - 1)
    t0, t1, t2 = (p - 1) * w, (p - 1) * w + w / 2.0, p * w
    # left limit at 1: fold x = 1 into the last cell of the support scale
    xs = np.where(xa == 1.0, np.nextafter(1.0, 0.0), xa)
    out = np.where((xs >= t0) & (xs < t1), a, np.where((xs >= t1) & (xs < t2), -a, 0.0))
    return float(out) if np.ndim(x) == 0 else out


def _extended_amplitudes(m):
    """The ``2**m`` basis amplitudes ``2**((l-1)/2)`` in long double."""
    powers = [1.0] + [2.0 ** (i.bit_length() - 1) for i in range(1, 2 ** m)]
    return np.sqrt(np.array(powers, dtype=LONG))


def extended_moments(c, m, weight):
    """``int_0^1 t**weight exp(-c t) Phi_j(t) dt``, ``j = 1..2**m``, in long double.

    The closed forms of the pair :func:`fredreg.haar.exp_haar_matrix`
    returns: ``E`` (``weight = 0``) and ``E_t`` (``weight = 1``),
    with column 0 of the t-moment as its 40-term series below ``c = 1``
    and the ``c = 0`` row from its limits. ``c`` is read as long double.
    """
    c = np.atleast_1d(np.asarray(c, dtype=LONG))
    zero = c == 0
    cs = np.where(zero, 1, c)
    out = np.empty((len(c), 2 ** m), dtype=LONG)
    if weight == 0:
        out[:, 0] = np.where(zero, 1, -np.expm1(-cs) / cs)
    else:
        # sum_k (-c)**k (k + 1) / (k + 2)!, k = 0..39, in Horner form
        coef = [LONG(k + 1) / np.prod(np.arange(1, k + 3, dtype=LONG)) for k in range(40)]
        series = np.zeros(len(c), dtype=LONG)
        for a in reversed(coef):
            series = series * -c + a
        out[:, 0] = np.where(c < 1, series, np.exp(-cs) * (np.expm1(cs) - cs) / cs ** 2)
    mid, left = _tables(m)[1], supports(m)[0]
    A = _extended_amplitudes(m)[None, 1:]
    T1, H = mid[None, 1:].astype(LONG), (mid - left)[None, 1:].astype(LONG)
    C = cs[:, None]
    sinh2 = 4 * np.sinh(C * H / 2) ** 2
    if weight == 0:
        wavelets = np.where(zero[:, None], 0, A / C * np.exp(-C * T1) * sinh2)
    else:
        bracket = (C * T1 + 1) * sinh2 - 2 * C * H * np.sinh(C * H)
        wavelets = np.where(zero[:, None], -A * H * H, A / C ** 2 * np.exp(-C * T1) * bracket)
    out[:, 1:] = wavelets
    return out


def decimal_moments(c, m, weight, columns=None):
    """``int_0^1 t**weight exp(-c t) Phi_j(t) dt`` as decimals, for ``j`` in ``columns``.

    By default ``columns`` is ``1..2**m``, the level-``m`` row. From the
    exact antiderivatives ``P(x) = int_0^x t**weight exp(-c t) dt`` at the
    dyadic points ``k / 2**m`` an entry needs, each evaluated once, with
    ``c`` the float's exact value; call it inside a decimal context of
    the precision wanted.
    """
    c, n, root2 = Decimal(c), 2 ** m, Decimal(2).sqrt()

    @functools.cache
    def P(k):
        x = Decimal(k) / n
        if c == 0:
            return x ** (weight + 1) / (weight + 1)
        if weight == 0:
            return (1 - (-c * x).exp()) / c
        return (1 - (1 + c * x) * (-c * x).exp()) / c ** 2

    def entry(j):
        if j == 1:
            return P(n) - P(0)
        l, p = split_index(j)
        w = n >> (l - 1)  # support width in cells
        k = (p - 1) * w
        return root2 ** (l - 1) * (2 * P(k + w // 2) - P(k) - P(k + w))

    return [entry(j) for j in columns or range(1, n + 1)]


def _extended_pyramid(cells, m):
    """The Haar pyramid of :func:`fredreg.haar._analysis` in long double."""
    out = np.empty(len(cells), dtype=LONG)
    for l in range(m, 0, -1):
        out[2 ** (l - 1): 2 ** l] = cells[0::2] - cells[1::2]
        cells = cells[0::2] + cells[1::2]
    out[0] = cells[0]
    return out * _extended_amplitudes(m)


@functools.lru_cache(maxsize=None)
def _extended_operators(m):
    """The level-``m`` Simpson Gram matrix and the two moment matrices of the adjoint."""
    n = 2 ** m
    points = np.arange(n + 1, dtype=LONG) / n
    weights = np.where(np.arange(n + 1) % 2 == 1, LONG(4) / 3, LONG(2) / 3) / n
    weights[[0, -1]] = (LONG(1) / 3) / n
    p = extended_moments(points, m, 0)
    rates = np.arange(180 * n, dtype=LONG) / (180 * n)  # left ends of sample_grid(m)'s cells
    return p.T @ (weights[:, None] * p), extended_moments(rates, m, 0), extended_moments(rates, m, 1)


def _cholesky_solve(matrix, shift, rhs):
    """``(shift I + matrix)^{-1} rhs`` by a written-out Cholesky factor and two sweeps."""
    n = len(rhs)
    a = matrix + shift * np.eye(n, dtype=LONG)
    L = np.zeros((n, n), dtype=LONG)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0:
            raise np.linalg.LinAlgError(f"long double Cholesky failed at pivot {j + 1}")
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    y = np.empty(n, dtype=LONG)
    for i in range(n):
        y[i] = (rhs[i] - L[i, :i] @ y[:i]) / L[i, i]
    x = np.empty(n, dtype=LONG)
    for i in reversed(range(n)):
        x[i] = (y[i] - L[i + 1:, i] @ x[i + 1:]) / L[i, i]
    return x


def run_extended(f_samples, delta, config):
    """:func:`fredreg.run_adaptive` in long double: ``(u, n, m_final, stop_reason)``.

    The same scheme on the same float64 data: the level rule of
    :func:`fredreg.rank_schedule` (a choice of integers, taken on the
    same shifts), the Simpson Gram matrix, the adjoint from the
    trapezoid moments and :func:`extended_moments` at the exact rates
    ``k / (180 * 2**m)``, the data projected once at ``m_cap`` by the
    pyramid, and every solve by :func:`_cholesky_solve`. ``u`` holds the
    final level's coefficients in long double.
    """
    g = _extended_pyramid(trapezoid_moments(f_samples, 2 ** config.m_cap, LONG)[0], config.m_cap)
    threshold = LONG(config.C) * LONG(delta) ** LONG(config.eps)
    q = LONG(config.q)
    a, u, G, capped = config.alpha0, np.zeros(1, dtype=LONG), LONG(0), False
    reason, rhs = "max_iter", {}
    for n in range(1, config.max_iter + 1):
        a = a * config.q
        m_raw = rank_schedule(a, 16.0 / 180.0, config.eta)
        m = min(m_raw, config.m_cap)
        capped = capped or m_raw > m
        gram, e0, e1 = _extended_operators(m)
        if m not in rhs:
            m0, m1 = trapezoid_moments(f_samples, 180 * 2 ** m, LONG)
            rhs[m] = m0 @ e0 - m1 @ e1
        zeta = _cholesky_solve(gram, LONG(a), rhs[m])
        gamma = _cholesky_solve(gram, LONG(a), g[: 2 ** m])
        padded = np.zeros(2 ** m, dtype=LONG)
        padded[: len(u)] = u
        u = q * padded + (1 - q) * zeta
        G = q * G + (1 - q) * LONG(a) * np.sqrt(gamma @ gamma)
        if G <= threshold:
            reason = "discrepancy_met" if n > 1 else "initial_below_threshold"
            break
    if capped and reason == "max_iter":
        reason = "m_cap"
    return u, n, m, reason


def extended_avg_error(u, u_exact):
    """:func:`fredreg.avg_error` of long double coefficients, on the same 100 points."""
    m = len(u).bit_length() - 1
    scaled = u * _extended_amplitudes(m)
    values = scaled[:1]
    for l in range(1, m + 1):  # the inverse pyramid: v + d and v - d on the halves
        detail = scaled[2 ** (l - 1): 2 ** l]
        values = np.stack([values + detail, values - detail], axis=1).ravel()
    t = 0.01 * np.arange(100)
    approx = values[np.minimum((t * 2 ** m).astype(int), 2 ** m - 1)]
    return float(np.mean(np.abs(np.asarray(u_exact(t), dtype=LONG) - approx)))
