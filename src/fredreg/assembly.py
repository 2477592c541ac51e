"""Finite-dimensional operator assembly in Haar coordinates.

For the kernel ``k(s, t) = exp(-s t)`` on the unit square this module
builds

* the Gram matrix ``A_m`` of the degenerate-kernel normal operator,
  ``(A_m)_{ij} = sum_l beta_l <k(s_l,.), Phi_i> <k(s_l,.), Phi_j>``,
  with the compound Simpson points/weights of :mod:`.quadrature`; the
  kernel is symmetric, so ``A_m`` also represents ``K K*`` and serves
  the discrepancy solve,
* the right-hand side ``v_i = <Km* f, Phi_i>`` where the adjoint is
  replaced by its first-order Taylor expansion on the fine partition,
* the data coefficients ``g_i = <f, Phi_i>``, and
* closed-form a-priori bounds on the three operator approximation
  errors as a function of the level.

Assembly is pure; Gram matrices are read-only ``(2**m, 2**m)`` arrays. The
:class:`OperatorCache` memoizes the level-dependent pieces and the
Cholesky factors of the shifted systems, so that repeated solves
(iterations, seeds) only pay for matrix-vector work and triangular
solves.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .haar import (
    exp_haar_matrix,
    exp_t_haar_matrix,
    project,
    synthesis_matrix,
    _gauss_cell_nodes,
    _trapezoid_blocks,
)
from .iteration import factor_spd_shifted
from .quadrature import simpson_rule, taylor_partition


@dataclass(frozen=True)
class Kernel:
    """A bivariate kernel on [0,1]^2 with the constants used by the bounds.

    Attributes
    ----------
    eval : callable
        Vectorized ``(s, t) -> k(s, t)``; must broadcast over ndarrays.
    c1 : float
        Smoothness constant entering the Simpson error bound
        ``c1 / 2**(4m)`` (the scaled sup of the fourth s-derivative of
        ``k(s,x)k(s,z)``; ``16/180`` for ``exp(-s t)``).
    sup_bound : float
        Upper bound on ``|k|`` over the square.
    """

    eval: Callable
    c1: float
    sup_bound: float

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if not self.sup_bound > 0:
            raise ValueError(f"sup_bound must be positive, got {self.sup_bound}")


_EXPONENTIAL_KERNEL = Kernel(
    eval=lambda s, t: np.exp(-np.asarray(s) * np.asarray(t)),
    c1=16.0 / 180.0,
    sup_bound=1.0,
)


def exponential_kernel():
    """The kernel ``k(s, t) = exp(-s t)``.

    Always the same instance: :class:`OperatorCache` assembles this
    kernel's closed-form slice projections and adjoint, and accepts no
    other kernel object.
    """
    return _EXPONENTIAL_KERNEL


@dataclass(frozen=True)
class ErrorBudget:
    """Closed-form operator approximation bounds at a level.

    ``bound_normal`` bounds the degenerate-kernel error on the normal
    operator (``c1 / 2**(4m)``), ``bound_adjoint`` the Taylor-partition
    error on the adjoint (``1 / (2**(2m) * 180)``), and ``bound_mixed``
    their combination ``(c1 + sup/180) / 2**(2m)`` (``17/(2**(2m)*180)``
    for the exponential kernel).
    """

    level: int
    bound_normal: float
    bound_adjoint: float
    bound_mixed: float


def assemble_gram(m):
    """Assemble the degenerate-kernel Gram matrix at level ``m >= 1``.

    The slices ``k(s_l, .)`` at the compound Simpson points are
    projected in closed form, so the result is a sum of positively
    weighted rank-one terms: symmetric and positive semidefinite by
    construction. Returns a read-only ``(2**m, 2**m)`` array.
    """
    if m < 1:
        raise ValueError(f"assembly requires level >= 1, got {m}")
    rule = simpson_rule(m)
    p = exp_haar_matrix(rule.points, m)  # (2**m + 1, 2**m)
    a = p.T @ (rule.weights[:, None] * p)
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


def _moments(samples, partition):
    """Trapezoid moments of the samples over every partition subinterval.

    Returns ``(M0, M1)`` with ``M0_j ~ int_{D_j} f`` and
    ``M1_j ~ int_{D_j} (s - d_{j-1}) f(s) ds``.
    """
    blocks, h, w0 = _trapezoid_blocks(samples, partition.n_subintervals)
    k = len(w0) - 1
    w1 = np.arange(k + 1, dtype=float)
    w1[-1] = k / 2.0
    return h * (blocks @ w0), h * h * (blocks @ w1)


def error_budget(kernel, m):
    """Closed-form approximation bounds for level ``m >= 1``."""
    if m < 1:
        raise ValueError(f"error budget requires level >= 1, got {m}")
    four = 2.0 ** (4 * m)
    two = 2.0 ** (2 * m)
    return ErrorBudget(
        level=int(m),
        bound_normal=kernel.c1 / four,
        bound_adjoint=1.0 / (two * 180.0),
        bound_mixed=(kernel.c1 + kernel.sup_bound / 180.0) / two,
    )


def galerkin_matrix(m):
    """Exact Haar-Galerkin matrix of the integral operator itself.

    ``(K_m)_{ij} = int int Phi_i(s) k(s, t) Phi_j(t) dt ds``, computed
    with per-cell Gauss quadrature in ``s`` and the closed-form slice
    projections in ``t``. This is the fixed-level baseline operator (no
    degenerate kernel); the kernel is symmetric, so the matrix is
    symmetrized, which makes ``K_m^T K_m`` equal ``K_m K_m^T``.
    """
    if m < 1:
        raise ValueError(f"assembly requires level >= 1, got {m}")
    s, sw = _gauss_cell_nodes(m, 8)
    inner = exp_haar_matrix(s, m)
    n = 2 ** m
    phi_s = synthesis_matrix(m)
    idx = np.minimum((s * n).astype(int), n - 1)
    k = (phi_s[:, idx] * sw[None, :]) @ inner
    return 0.5 * (k + k.T)


class OperatorCache:
    """Level-keyed cache of the noise-independent assembly products.

    Bound to :func:`exponential_kernel`; safe to share across solver
    runs. The cached pieces (Gram matrices, adjoint moment matrices,
    partitions, Galerkin matrices and their products, Cholesky factors
    of the shifted systems) depend only on the level and the shift,
    never on the data.
    """

    def __init__(self, kernel):
        if kernel is not _EXPONENTIAL_KERNEL:
            raise ValueError(
                "OperatorCache assembles exponential_kernel() only: its slice "
                "projections and Taylor-expansion adjoint are hard-coded"
            )
        self.kernel = kernel
        self._gram = {}
        self._partition = {}
        self._adjoint = {}
        self._galerkin = {}
        self._galerkin_product = {}
        self._factor = {}

    def partition(self, m):
        if m not in self._partition:
            self._partition[m] = taylor_partition(m)
        return self._partition[m]

    def gram(self, m, side="domain"):
        """``A_m``, read-only; the kernel is symmetric, so both sides are this object."""
        if side not in ("domain", "range"):
            raise ValueError(f"side must be 'domain' or 'range', got {side!r}")
        if m not in self._gram:
            self._gram[m] = assemble_gram(m)
        return self._gram[m]

    def _adjoint_matrices(self, m):
        if m not in self._adjoint:
            c = self.partition(m).left_endpoints
            self._adjoint[m] = (exp_haar_matrix(c, m), exp_t_haar_matrix(c, m))
        return self._adjoint[m]

    def rhs(self, f_samples, m):
        """Coefficients ``v_i = <Km* f, Phi_i>`` of the approximate adjoint.

        The adjoint of the exponential kernel is replaced on each
        subinterval ``D_j`` of the level-``m`` Taylor partition by the
        first-order expansion ``exp(-d_{j-1} t) [1 - t (s - d_{j-1})]``;
        the s-integrals over ``D_j`` use the trapezoid rule on the
        samples (the sample grid must refine the partition) and the
        t-integrals against the basis are the cached closed-form moment
        matrices of :mod:`.haar`, ``2 * 180 * 4**m`` doubles per level.
        """
        e0, e1 = self._adjoint_matrices(m)
        m0, m1 = _moments(f_samples, self.partition(m))
        return e0.T @ m0 - e1.T @ m1

    def data(self, f_samples, m):
        """Haar coefficients ``g_i = <f, Phi_i>`` of sampled data (length ``2**m``)."""
        return project(f_samples, m).values

    def galerkin(self, m):
        if m not in self._galerkin:
            self._galerkin[m] = galerkin_matrix(m)
        return self._galerkin[m]

    def galerkin_product(self, m):
        """``K_m^T K_m``, read-only; equal to ``K_m K_m^T`` as ``K_m`` is symmetric."""
        if m not in self._galerkin_product:
            k = self.galerkin(m)
            product = k.T @ k
            product.setflags(write=False)
            self._galerkin_product[m] = product
        return self._galerkin_product[m]

    def factor(self, m, a, galerkin=False):
        """Factor of ``a I + M`` from :func:`.iteration.factor_spd_shifted`.

        ``M`` is ``gram(m)``, or ``galerkin_product(m)`` with
        ``galerkin``. The factor is memoized by the source, the level
        and the exact shift ``a``: the shifts ``a_n = alpha0 q**n`` and
        their levels do not depend on the data, so every run of a
        configuration reuses the same factors, ``8 * 4**m`` bytes each.
        A failed factorization stores nothing.
        """
        key = (galerkin, m, a)
        factor = self._factor.get(key)
        if factor is None:
            matrix = self.galerkin_product(m) if galerkin else self.gram(m)
            factor = self._factor[key] = factor_spd_shifted(matrix, a)
        return factor
