"""Independent oracles the tests check fredreg against; none is part of the method.

* :func:`geometric_weights` and :func:`closed_form_iterate` evaluate the
  blend ``u_n = q u_{n-1} + (1 - q) zeta_n`` in closed form, as a
  weighted sum of shifted solves.
* :func:`run_steps` runs the recursion itself for exactly ``n`` steps,
  with a noise bound the stopping rule cannot meet.
* :func:`join_index` inverts :func:`fredreg.haar.split_index`.
* :func:`coefficients` builds Haar coefficients at the level their
  length implies.
* :func:`forward_residual` checks a problem's exact solution against
  its right-hand side on a dense midpoint grid.
* :func:`chebyshev_interpolation` is the barycentric interpolation
  matrix at second-kind Chebyshev points on ``[0, 1]``, the low-rank
  form of the moment matrices' rows as functions of the rate.
* :func:`synthesis_matrix`, :func:`galerkin_gather` and
  :func:`haar_eval_piecewise` are the dense and piecewise forms that the
  Haar pyramid transform replaced: the basis on the finest cells as a
  ``4**m`` matrix, the Galerkin matrix from its gathered columns, and
  ``Phi_j`` from its support breakpoints.
"""

import dataclasses

import numpy as np

from fredreg.assembly import solve_spd_shifted
from fredreg.haar import (
    HaarCoefficients,
    _gauss_cell_nodes,
    _tables,
    exp_haar_matrix,
    split_index,
)
from fredreg.iteration import run_adaptive

# C * delta**eps is about 2e-297 at the preset: no run of a few steps gets G below it
UNREACHABLE_DELTA = 1e-300


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
    return HaarCoefficients(level=m_final, values=acc)


def run_steps(ops, f_samples, n, config):
    """``run_adaptive`` for exactly ``n`` steps: ``max_iter = n``, unreachable threshold."""
    outcome = run_adaptive(
        ops, f_samples, UNREACHABLE_DELTA, dataclasses.replace(config, max_iter=n)
    )
    assert outcome.n_delta == n, (outcome.n_delta, outcome.stop_reason)
    return outcome


def join_index(l, p):
    """Inverse of :func:`fredreg.haar.split_index`."""
    if l < 1 or not 1 <= p <= 2 ** (l - 1):
        raise ValueError(f"invalid (level, offset) = ({l}, {p})")
    return 2 ** (l - 1) + p


def coefficients(values):
    """:class:`HaarCoefficients` of ``values``, whose length must be a power of two.

    ``HaarCoefficients`` rejects any other length: it does not match the level.
    """
    values = np.asarray(values, dtype=float)
    return HaarCoefficients(level=len(values).bit_length() - 1, values=values)


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
    amp, left, mid, right = _tables(m)
    centers = (np.arange(n) + 0.5) / n
    s = np.zeros((n, n))
    s[0, :] = 1.0
    for i in range(1, n):
        s[i, (centers >= left[i]) & (centers < mid[i])] = amp[i]
        s[i, (centers >= mid[i]) & (centers < right[i])] = -amp[i]
    return s


def galerkin_gather(m):
    """``galerkin_matrix(m)`` from the columns of :func:`synthesis_matrix` at the Gauss nodes."""
    s, sw = _gauss_cell_nodes(m, 8)
    inner = exp_haar_matrix(s, m)
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
