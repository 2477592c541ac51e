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
  bounds on the three operator approximation errors per level,
* the Galerkin matrix ``K_m`` of the fixed-level baseline: callable
  :func:`~fredreg.haar.project` of the slice moments ``E`` of
  ``exp_haar_matrix``, and
* the Cholesky factor of ``a I + A`` (scipy's LAPACK) and its solves;
  a breakdown raises ``numpy.linalg.LinAlgError`` naming the pivot.

Gram and Galerkin matrices are read-only ``(2**m, 2**m)`` arrays. The
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
    exp_haar_matrix, exp_t_haar_matrix, project, _check_grid, _check_level, _trapezoid_blocks,
)


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without the ``scipy.linalg`` package.

    ``scipy.linalg.lapack`` re-exports this extension module, so the
    routines are the same machine code on the same BLAS; importing the
    package instead would run ``scipy/__init__`` and ``scipy.linalg``'s
    pure-Python modules, about half the start-up of the CLI. The
    extension is looked up in the installed ``scipy.linalg`` directory,
    found without importing scipy.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("fredreg needs scipy for its LAPACK routines; scipy is not installed")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
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


def factor_spd_shifted(matrix, shift):
    """Read-only lower Cholesky factor of ``shift I + M`` for symmetric PSD ``M``.

    With a finite ``shift > 0`` the system matrix has smallest eigenvalue at
    least ``shift``, so plain Cholesky is backward stable. The shift is
    added to the diagonal of a copy of ``M``, which is bit-identical to
    ``M + shift * np.eye(n)``. The factor is the ``dpotrf`` output, a
    Fortran-ordered ``L`` with zeros above the diagonal (scipy's wrapper
    cleans the strict upper triangle by default); :func:`solve_spd_shifted`
    reads the lower triangle only.
    A breakdown raises ``numpy.linalg.LinAlgError`` naming the 1-based pivot.
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
        raise np.linalg.LinAlgError(
            f"Cholesky factorization failed at pivot {info}; matrix is not positive definite"
        )
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
    points, weights : ndarray
        Read-only. The points are ``s_j = (j-1)/2**m``, ``j = 1..2**m+1``;
        the weights ``beta_j`` are ``(1/3)/2**m`` at the endpoints and
        alternate ``(4/3)/2**m`` (even ``j``) and ``(2/3)/2**m`` inside.
        They sum to 1 up to roundoff, and the rule integrates
        polynomials of degree <= 3 exactly.
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
    return points, weights


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


# The one kernel fredreg assembles, k(s, t) = exp(-s t)
_EXPONENTIAL_KERNEL = Kernel(c1=16.0 / 180.0, sup_bound=1.0)


@dataclass(frozen=True)
class ErrorBudget:
    """Closed-form operator approximation bounds at a level.

    ``bound_normal`` bounds the degenerate-kernel error on the normal
    operator (``c1 / 2**(4m)``), ``bound_adjoint`` the Taylor-partition
    error on the adjoint (``1 / (2**(2m) * 180)``), and ``bound_mixed``
    their combination ``(c1 + sup/180) / 2**(2m)`` (``17/(2**(2m)*180)``
    for the exponential kernel).
    """

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
    _check_level("gram level", m, 1)
    points, weights = simpson_rule(m)
    p = exp_haar_matrix(points, m)[0]  # E: (2**m + 1, 2**m)
    a = p.T @ (weights[:, None] * p)
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


def error_budget(m):
    """Closed-form approximation bounds of the exponential kernel at level ``m >= 1``."""
    _check_level("error budget level", m, 1)
    four = 2.0 ** (4 * m)
    two = 2.0 ** (2 * m)
    c1, sup_bound = _EXPONENTIAL_KERNEL.c1, _EXPONENTIAL_KERNEL.sup_bound
    return ErrorBudget(
        bound_normal=c1 / four,
        bound_adjoint=1.0 / (two * 180.0),
        bound_mixed=(c1 + sup_bound / 180.0) / two,
    )


def galerkin_matrix(m):
    """Exact Haar-Galerkin matrix of the integral operator itself.

    ``(K_m)_{ij} = int int Phi_i(s) k(s, t) Phi_j(t) dt ds``: column
    ``j`` is the projection onto the level-``m`` span of the slice moment
    ``s -> int exp(-s t) Phi_j(t) dt``, so the matrix is :func:`project`
    of the vector-valued ``s -> exp_haar_matrix(s, m)[0]`` (per-cell Gauss
    quadrature in ``s``, closed forms in ``t``). Both names are read as
    module globals, so a tracer sees one projection and one fill. This is
    the fixed-level baseline operator (no degenerate kernel); the kernel
    is symmetric, so the matrix is symmetrized, which makes
    ``K_m^T K_m`` equal ``K_m K_m^T``. Returns a read-only
    ``(2**m, 2**m)`` array, as the cache hands it out.
    """
    _check_level("galerkin level", m, 1)
    k = project(lambda s: exp_haar_matrix(s, m)[0], m)
    k = 0.5 * (k + k.T)
    k.setflags(write=False)
    return k


class OperatorCache:
    """Level-keyed cache of the noise-independent assembly products.

    Bound to the kernel ``exp(-s t)``: ``kernel`` defaults to the one
    instance accepted, ``exact_problem().kernel``, and any other raises
    ``ValueError``. Safe to share across solver runs. The cached pieces
    (Gram matrices, adjoint moment matrices, Galerkin matrices, Cholesky
    factors of the shifted systems) depend only on the level and the
    shift, never on the data. Every lookup checks its level first, so
    ``True`` never finds level 1's entry. Of the adjoint moment
    matrices one pair is held, at the finest level asked so far; every
    coarser level reads its block (see :meth:`rhs`).
    """

    def __init__(self, kernel=_EXPONENTIAL_KERNEL):
        if kernel is not _EXPONENTIAL_KERNEL:
            raise ValueError(
                "OperatorCache assembles the exponential kernel only: its slice "
                "projections and Taylor-expansion adjoint are hard-coded"
            )
        self._store = {}

    def _lookup(self, key, build):
        """The entry under ``key = (product, level, ...)``, made by ``build()`` on a miss.

        The level, named ``"<product> level"`` in a refusal, is checked
        before the store is read, so ``True`` never finds level 1's entry.
        A build that raises stores nothing.
        """
        _check_level(f"{key[0]} level", key[1], 1)
        value = self._store.get(key)
        if value is None:
            value = self._store[key] = build()
        return value

    def gram(self, m, side="domain"):
        """``A_m``, read-only; the kernel is symmetric, so both sides are this object."""
        if side not in ("domain", "range"):
            raise ValueError(f"side must be 'domain' or 'range', got {side!r}")
        return self._lookup(("gram", m), lambda: assemble_gram(m))

    def rhs(self, f_samples, m):
        """Coefficients ``v_i = <Km* f, Phi_i>`` of the approximate adjoint, ``m >= 1``.

        The adjoint of the exponential kernel is replaced on each cell
        ``D_j = [d_{j-1}, d_j)`` of ``sample_grid(m)`` by the first-order
        expansion ``exp(-d_{j-1} t) [1 - t (s - d_{j-1})]``; the
        s-integrals over ``D_j`` use the trapezoid rule on the samples
        (the sample grid must refine these cells) and the t-integrals
        against the basis are the closed-form moment matrices of
        :mod:`.haar`.

        The cache holds one moment pair at the finest level ``top`` asked
        so far: one ``(2, 180 * 2**top, 2**top)`` array, ``E`` in ``[0]``
        and the t-weighted ``E_t`` in ``[1]``. The partitions nest, so
        level ``m <= top`` reads the block ``[::2**(top-m), :2**m]`` of
        each, bit for bit its own fill; :func:`.run_adaptive` asks its
        levels finest first, so a solve on a cold cache fills once. The
        sample grid is checked first, so a grid that does not refine the
        cells raises with the held pair untouched. A level above ``top``
        then releases the held pair before it fills its own, so no two
        pairs are alive at once; a fill that raises leaves no pair held.
        From level 7 on the pair is over 32 MiB, glibc's largest mmap
        threshold, so it is always mapped on its own and its pages go
        back to the system when it is released. The fill is one
        :func:`.exp_haar_matrix` call, whose result is the held pair; the
        name is looked up as a module global, so a tracer that replaces it
        sees every fill. The sample moments are formed after any fill, so
        they are not alive during it.
        """
        _check_level("adjoint partition level", m, 1)
        _check_grid(f_samples, 180 * 2 ** m)
        if m > self._store.get("adjoint", (0,))[0]:
            self._store.pop("adjoint", None)
            self._store["adjoint"] = (m, exp_haar_matrix(sample_grid(m)[:-1], m))
        m0, m1 = _moments(f_samples, m)
        top, pair = self._store["adjoint"]
        e0, e1 = pair[:, :: 2 ** (top - m), : 2 ** m]
        if m == 1:
            # OpenBLAS's AVX2 and AVX-512 dgemv sum a leading dimension of
            # 2 by their own rule; a contiguous copy keeps that rule, and
            # with it the bits of level 1's own fill
            e0, e1 = np.ascontiguousarray(e0), np.ascontiguousarray(e1)
        return e0.T @ m0 - e1.T @ m1

    def data(self, f_samples, m):
        """Haar coefficients ``g_i = <f, Phi_i>`` of sampled data (length ``2**m``)."""
        return project(f_samples, m)

    def galerkin(self, m):
        return self._lookup(("galerkin", m), lambda: galerkin_matrix(m))

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

        return self._lookup(("factor", m, galerkin, a), build)
