"""Finite-dimensional ``T = K*K``, ``K*`` and ``a I + T``, and their factors.

For the kernel ``k(s, t) = exp(-s t)`` on the unit square this module
builds

* the grids: the compound Simpson rule with step ``1/2**m``, and the
  uniform :func:`sample_grid` with ``180 * 2**m`` cells, which at level
  ``m`` partitions the adjoint and at ``m_cap`` carries the data,
* the Gram matrix ``A_m`` of the degenerate-kernel normal operator,
  ``(A_m)_{ij} = sum_l beta_l <k(s_l,.), Phi_i> <k(s_l,.), Phi_j>``,
  over the Simpson points/weights; the kernel is symmetric, so ``A_m``
  also represents ``K K*`` and serves the discrepancy solve,
* the right-hand side ``v_i = <Km* f, Phi_i>`` where the adjoint is
  replaced by its first-order Taylor expansion on each cell,
* the data coefficients ``g_i = <f, Phi_i>``, closed-form a-priori
  bounds on the three operator approximation errors per level, and
* the Cholesky factor of ``a I + A`` (scipy's LAPACK) and its solves.

Gram matrices are read-only ``(2**m, 2**m)`` arrays. The
:class:`OperatorCache` memoizes the level-dependent pieces and the
factors, so that repeated solves (iterations, seeds) only pay for
matrix-vector work and triangular solves.
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

# exp_t_haar_matrix is unused here, but perfbench/tracing.py wraps this name
from .haar import (
    exp_haar_matrix,
    exp_t_haar_matrix,
    project,
    _analysis,
    _check_level,
    _gauss_cell_nodes,
    _trapezoid_blocks,
)


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

    With a finite ``shift > 0`` the system matrix has smallest eigenvalue at
    least ``shift``, so plain Cholesky is backward stable. The shift is
    added to the diagonal of a copy of ``M``, which is bit-identical to
    ``M + shift * np.eye(n)``. The factor is the ``dpotrf`` output: its
    lower triangle holds ``L``, its strict upper triangle is left as it
    was, and :func:`solve_spd_shifted` reads the lower triangle only.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not 0.0 < shift < np.inf:
        raise ValueError(f"shift must be finite and positive, got {shift}")
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
class QuadratureRule:
    """Compound Simpson rule with ``2**level + 1`` points on [0,1].

    Attributes
    ----------
    level : int
        Dyadic refinement level ``m``; the step size is ``1/2**m``.
    points : ndarray
        Collocation points ``s_j = (j-1)/2**m``, ``j = 1..2**m+1``.
    weights : ndarray
        Weights ``beta_j``; endpoints ``(1/3)/2**m``, interior points
        alternate ``(4/3)/2**m`` (even ``j``) and ``(2/3)/2**m``.
    """

    level: int
    points: np.ndarray
    weights: np.ndarray


def simpson_rule(m):
    """Build the compound Simpson rule at dyadic level ``m >= 1``.

    Parameters
    ----------
    m : int
        Refinement level. The rule has ``2**m`` subintervals grouped
        into ``2**(m-1)`` Simpson panels, so ``m >= 1`` is required for
        the endpoint/interior weight pattern to be well defined.

    Returns
    -------
    QuadratureRule
        The weights sum to 1 exactly up to roundoff, and the rule
        integrates polynomials of degree <= 3 exactly.
    """
    _check_level("simpson_rule level", m, 1)
    n = 2 ** m
    points = np.arange(n + 1) / n
    weights = np.empty(n + 1)
    weights[0] = weights[-1] = (1.0 / 3.0) / n
    j = np.arange(2, n + 1)  # 1-based interior indices j = 2..2**m
    weights[1:-1] = np.where(j % 2 == 0, (4.0 / 3.0) / n, (2.0 / 3.0) / n)
    points.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(level=int(m), points=points, weights=weights)


def sample_grid(m_cap):
    """Uniform grid with ``180 * 2**m_cap`` subintervals on [0,1].

    The nodes include both endpoints. At level ``m`` the cells of this
    grid are the partition of the adjoint's Taylor expansion; at
    ``m_cap`` it is the data grid, which refines every partition and
    every dyadic grid up to ``m_cap``. The level must be an integer
    ``>= 0`` (a bool is not a level); anything else raises ``ValueError``.
    """
    _check_level("sample grid level", m_cap, 0)
    n = 180 * 2 ** m_cap
    return np.arange(n + 1) / n


@dataclass(frozen=True)
class Kernel:
    """The constants of a bivariate kernel on [0,1]^2 that enter the bounds.

    Attributes
    ----------
    c1 : float
        Smoothness constant entering the Simpson error bound
        ``c1 / 2**(4m)`` (the scaled sup of the fourth s-derivative of
        ``k(s,x)k(s,z)``; ``16/180`` for ``exp(-s t)``).
    sup_bound : float
        Upper bound on ``|k|`` over the square.
    """

    c1: float
    sup_bound: float

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError(f"c1 must be positive, got {self.c1}")
        if not self.sup_bound > 0:
            raise ValueError(f"sup_bound must be positive, got {self.sup_bound}")


_EXPONENTIAL_KERNEL = Kernel(
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
    construction. Returns a read-only ``(2**m, 2**m)`` array. The level
    is checked by :func:`simpson_rule`.
    """
    rule = simpson_rule(m)
    p = exp_haar_matrix(rule.points, m)  # (2**m + 1, 2**m)
    a = p.T @ (rule.weights[:, None] * p)
    a = 0.5 * (a + a.T)
    a.setflags(write=False)
    return a


def _moments(samples, m):
    """Trapezoid moments of the samples over every cell of ``sample_grid(m)``.

    Returns ``(M0, M1)`` with ``M0_j ~ int_{D_j} f`` and
    ``M1_j ~ int_{D_j} (s - d_{j-1}) f(s) ds`` on the cells
    ``D_j = [d_{j-1}, d_j)``.
    """
    blocks, h, w0 = _trapezoid_blocks(samples, 180 * 2 ** m)
    k = len(w0) - 1
    w1 = np.arange(k + 1, dtype=float)
    w1[-1] = k / 2.0
    return h * (blocks @ w0), h * h * (blocks @ w1)


def error_budget(kernel, m):
    """Closed-form approximation bounds for level ``m >= 1``."""
    _check_level("error budget level", m, 1)
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
    with per-cell Gauss quadrature in ``s`` (the pyramid transform takes
    the cell sums to the basis) and the closed-form slice projections in
    ``t``. This is the fixed-level baseline operator (no degenerate
    kernel); the kernel is symmetric, so the matrix is symmetrized,
    which makes ``K_m^T K_m`` equal ``K_m K_m^T``.
    """
    _check_level("galerkin level", m, 1)
    s, sw = _gauss_cell_nodes(m, 8)
    cells = (sw[:, None] * exp_haar_matrix(s, m)).reshape(2 ** m, 8, -1).sum(axis=1)
    k = _analysis(cells, m)
    return 0.5 * (k + k.T)


class OperatorCache:
    """Level-keyed cache of the noise-independent assembly products.

    Bound to :func:`exponential_kernel`; safe to share across solver
    runs. The cached pieces (Gram matrices, adjoint moment matrices,
    Galerkin matrices, Cholesky factors of the shifted systems) depend
    only on the level and the shift, never on the data. Every lookup
    checks its level first, so ``True`` never finds level 1's entry.
    """

    def __init__(self, kernel):
        if kernel is not _EXPONENTIAL_KERNEL:
            raise ValueError(
                "OperatorCache assembles exponential_kernel() only: its slice "
                "projections and Taylor-expansion adjoint are hard-coded"
            )
        self.kernel = kernel
        self._store = {}

    def _lookup(self, key, name, build):
        """The entry under ``key = (product, level, ...)``, made by ``build()`` on a miss.

        The level is checked before the store is read, so ``True`` never
        finds level 1's entry. A build that raises stores nothing.
        """
        _check_level(name, key[1], 1)
        value = self._store.get(key)
        if value is None:
            value = self._store[key] = build()
        return value

    def gram(self, m, side="domain"):
        """``A_m``, read-only; the kernel is symmetric, so both sides are this object."""
        if side not in ("domain", "range"):
            raise ValueError(f"side must be 'domain' or 'range', got {side!r}")
        return self._lookup(("gram", m), "gram level", lambda: assemble_gram(m))

    def _fill_adjoint(self, m):
        """The two moment matrices on the left endpoints of ``sample_grid(m)``.

        Level ``m0 < m`` has every ``k = 2**(m - m0)``-th rate of level
        ``m`` and the first ``2**m0`` basis columns, so the finest held
        level ``m0`` is the block ``[::k, :2**m0]`` of level ``m``, bit
        for bit. That block is copied; the fills write the rest, the
        rows of level ``m0`` from wavelet level ``m0 + 1`` on. Each fill
        writes both through ``exp_haar_matrix(..., t_out=)``, looked up as
        a module global on every call, so a tracer that replaces it sees it.
        """
        c = sample_grid(m)[:-1]
        e0, e1 = np.empty((len(c), 2 ** m)), np.empty((len(c), 2 ** m))
        held = [key[1] for key in self._store if key[0] == "adjoint" and key[1] < m]
        m0 = max(held, default=None)
        if m0 is None:
            return exp_haar_matrix(c, m, out=e0, t_out=e1), e1
        k = 2 ** (m - m0)
        for out, coarse in zip((e0, e1), self._store["adjoint", m0]):
            out[::k, : 2 ** m0] = coarse
        exp_haar_matrix(c[::k], m, out=e0[::k], start=m0 + 1, t_out=e1[::k])
        for j in range(1, k):
            exp_haar_matrix(c[j::k], m, out=e0[j::k], t_out=e1[j::k])
        return e0, e1

    def rhs(self, f_samples, m):
        """Coefficients ``v_i = <Km* f, Phi_i>`` of the approximate adjoint, ``m >= 1``.

        The adjoint of the exponential kernel is replaced on each cell
        ``D_j = [d_{j-1}, d_j)`` of ``sample_grid(m)`` by the first-order
        expansion ``exp(-d_{j-1} t) [1 - t (s - d_{j-1})]``; the
        s-integrals over ``D_j`` use the trapezoid rule on the samples
        (the sample grid must refine these cells) and the t-integrals
        against the basis are the cached closed-form moment matrices of
        :mod:`.haar`, ``2 * 180 * 4**m`` doubles per level.
        """
        e0, e1 = self._lookup(
            ("adjoint", m), "adjoint partition level", lambda: self._fill_adjoint(m)
        )
        m0, m1 = _moments(f_samples, m)
        return e0.T @ m0 - e1.T @ m1

    def data(self, f_samples, m):
        """Haar coefficients ``g_i = <f, Phi_i>`` of sampled data (length ``2**m``)."""
        return project(f_samples, m).values

    def galerkin(self, m):
        return self._lookup(("galerkin", m), "galerkin level", lambda: galerkin_matrix(m))

    def factor(self, m, a, galerkin=False):
        """Factor of ``a I + M`` from :func:`factor_spd_shifted`.

        ``M`` is ``gram(m)``, or with ``galerkin`` the product
        ``K_m^T K_m`` of ``galerkin(m)`` (equal to ``K_m K_m^T``, as
        ``K_m`` is symmetric). The factor is memoized by the source, the
        level and the exact shift ``a``: the shifts ``a_n = alpha0 q**n``
        and their levels do not depend on the data, so every run of a
        configuration reuses the same factors, ``8 * 4**m`` bytes each.
        A bad shift raises before any assembly; a failed factor stores nothing.
        """
        if not 0.0 < a < np.inf:
            raise ValueError(f"shift must be finite and positive, got {a}")

        def build():
            if galerkin:
                k = self.galerkin(m)
                return factor_spd_shifted(k.T @ k, a)
            return factor_spd_shifted(self.gram(m), a)

        return self._lookup(("factor", m, galerkin, a), "factor level", build)
