"""Compound Simpson quadrature and the degenerate-kernel error bound.

The normal operator of a first-kind integral equation has kernel
g(x, z) = int_0^1 k(s, x) k(s, z) ds. Replacing the s-integral by the
compound Simpson rule with step 1/2**m turns the operator into a finite
sum of rank-one terms (a degenerate kernel). This script shows the rule
itself, its polynomial exactness, and how the measured operator error
tracks the a-priori bound c1 / 2**(4m).
"""

import numpy as np

from fredreg import error_budget, simpson_rule

print("=== the rule at level m = 2 ===")
points, weights = simpson_rule(2)
print("points :", points)
print("weights:", weights, " (sum = %.17f)" % weights.sum())

print("\n=== polynomial exactness (degree <= 3) ===")
for k in range(5):
    approx = weights @ points ** k
    exact = 1.0 / (k + 1)
    print(f"  int t^{k} dt: rule = {approx:.12f}, exact = {exact:.12f}, "
          f"error = {abs(approx - exact):.2e}")

print("\n=== operator error vs the bound, kernel exp(-s t) ===")
n = 512
xs = (np.arange(n) + 0.5) / n
xz = xs[:, None] + xs[None, :]
g_exact = -np.expm1(-xz) / xz       # int_0^1 e^{-s(x+z)} ds in closed form
print(f"{'m':>3} {'measured ||T - T^(m)||':>24} {'bound c1/2^4m':>16} {'ratio':>8}")
prev = None
for m in range(1, 6):
    s, beta = simpson_rule(m)
    e = np.exp(-np.outer(s, xs))
    g_m = e.T @ (beta[:, None] * e)
    measured = np.linalg.norm(g_exact - g_m, 2) / n
    bound = error_budget(m).bound_normal
    order = "" if prev is None else f"   (order {np.log2(prev / measured):.2f})"
    print(f"{m:>3} {measured:>24.3e} {bound:>16.3e} {measured / bound:>8.3f}{order}")
    prev = measured
print("\nThe measured error sits safely under the bound and decays at the")
print("fourth-order rate the composite Simpson rule promises.")
