"""Quadrature rules on [0,1] used to discretize the integral operators.

Two fixed constructions are provided:

* the compound Simpson rule on the dyadic grid with step ``1/2**m``,
  whose weights enter the degenerate-kernel approximation of the
  normal operator, and
* a fine uniform partition into ``180 * 2**m`` subintervals, on which
  the adjoint operator is replaced by a first-order Taylor expansion
  of the kernel slice.

Both objects are immutable after construction and safe to share
between threads.
"""

from dataclasses import dataclass

import numpy as np


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


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

    def apply(self, values):
        """Weighted sum approximating ``int_0^1 h(s) ds`` from samples at the points."""
        return float(np.dot(self.weights, values))


@dataclass(frozen=True)
class TaylorPartition:
    """Uniform partition of [0,1] into ``180 * 2**level`` subintervals.

    The subintervals are ``D_j = [d_{j-1}, d_j)`` with exact width
    ``1/(180 * 2**level)``; ``nodes`` holds ``d_0 = 0, ..., d_N = 1``.
    """

    level: int
    nodes: np.ndarray

    @property
    def n_subintervals(self):
        return len(self.nodes) - 1

    @property
    def width(self):
        return 1.0 / self.n_subintervals

    @property
    def left_endpoints(self):
        return self.nodes[:-1]


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
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"level must be an integer, got {type(m).__name__}")
    if m < 1:
        raise ValueError(f"simpson_rule requires m >= 1, got {m}")
    n = 2 ** m
    points = np.arange(n + 1) / n
    weights = np.empty(n + 1)
    weights[0] = weights[-1] = (1.0 / 3.0) / n
    j = np.arange(2, n + 1)  # 1-based interior indices j = 2..2**m
    weights[1:-1] = np.where(j % 2 == 0, (4.0 / 3.0) / n, (2.0 / 3.0) / n)
    return QuadratureRule(level=int(m), points=_frozen(points), weights=_frozen(weights))


def taylor_partition(m):
    """Build the fine adjoint partition at level ``m >= 1``.

    Returns a :class:`TaylorPartition` with ``N = 180 * 2**m`` uniform
    subintervals covering [0,1], ``d_0 = 0`` and ``d_N = 1``.
    """
    if not isinstance(m, (int, np.integer)):
        raise TypeError(f"level must be an integer, got {type(m).__name__}")
    if m < 1:
        raise ValueError(f"taylor_partition requires m >= 1, got {m}")
    n = 180 * 2 ** m
    nodes = np.arange(n + 1) / n
    return TaylorPartition(level=int(m), nodes=_frozen(nodes))
