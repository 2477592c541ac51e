"""The Haar basis: evaluation, projection, and nested-span embedding.

The solver represents everything in the orthonormal Haar basis on
[0,1]. This script walks through the index convention, checks
orthonormality, projects a couple of functions, and demonstrates that
zero-padding coefficients into a finer span leaves the represented
function untouched.
"""

import numpy as np

from fredreg import haar, project

print("=== index convention: j = 2**(l-1) + p ===")
for j in range(2, 9):
    l = (j - 1).bit_length()  # the level: 2**(l-1) < j <= 2**l
    p = j - 2 ** (l - 1)
    print(f"  j = {j}: level {l}, offset {p}, amplitude {2 ** ((l - 1) / 2):.4f}")

print("\n=== a few pointwise values ===")
# Phi_j is the coefficient vector e_j, here in the span of level 6
unit = np.eye(64)
print("  Phi_1(0.3)  =", haar.evaluate(unit[0], 0.3))
print("  Phi_2(0.25) =", haar.evaluate(unit[1], 0.25),
      "  Phi_2(0.75) =", haar.evaluate(unit[1], 0.75))
print("  Phi_3(0.6)  =", haar.evaluate(unit[2], 0.6), " (outside its support [0, 1/2))")

print("\n=== orthonormality at level m = 6 ===")
# each Phi_j, j <= 64, is constant on the 64 cells, so its values at the
# cell centres give the exact inner products (cell width 1/64)
centres = (np.arange(64) + 0.5) / 64
s = np.array([haar.evaluate(unit[j - 1], centres) for j in range(1, 65)])
gram = s @ s.T / 64
print("  max |<Phi_i, Phi_j> - delta_ij| =", np.max(np.abs(gram - np.eye(64))))

print("\n=== projecting f(t) = t ===")
for m in (1, 2, 3):
    coeffs = project(lambda t: t, m)
    print(f"  level {m}: {np.array2string(coeffs, precision=5)}")
err_prev = None
print("\n  projection error ||P_m f - f|| (exact, via Parseval):")
for m in range(1, 9):
    coeffs = project(lambda t: t, m)
    err = np.sqrt(max(1.0 / 3.0 - np.sum(coeffs ** 2), 0.0))
    note = "" if err_prev is None else f"   (ratio {err / err_prev:.3f})"
    print(f"  m = {m}: {err:.6e}{note}")
    err_prev = err

print("\n=== zero-padding embeds exactly into finer spans ===")
coarse = project(lambda t: np.cos(3 * t), 3)
fine = np.pad(coarse, (0, 2 ** 6 - 2 ** 3))  # coefficients are arrays of length 2**m
x = np.linspace(0, 1, 7)
print("  coarse evaluation:", np.round(haar.evaluate(coarse, x), 8))
print("  padded evaluation:", np.round(haar.evaluate(fine, x), 8))
print("  max difference   :", np.max(np.abs(haar.evaluate(coarse, x) - haar.evaluate(fine, x))))
