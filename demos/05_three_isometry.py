#!/usr/bin/env python3
"""A Cesaro-bounded 3-isometry whose means converge weakly but not strongly.

The space is built over the alpha = 0 weighted Dirichlet norm with seed
polynomial 1 - z; the closed-form norm makes multiplication by z a
3-isometry.  Its order-1 means have uniformly bounded norm and pairings
<F_n p, q> -> 0, yet ||z^n||_1 / n stays bounded below: weak null
convergence with strong divergence.
"""

import numpy as np

from ergolab import (
    d_alpha_norm, h1_mean_norm, h1_mean_pairing, h1_norm,
    h1_shift_lower_bound, m_isometry_defect, shift_by_z,
)

print("=== the 3-isometry identity ===")
rng = np.random.default_rng(7)
for trial in range(3):
    p = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    defect = m_isometry_defect(h1_norm, shift_by_z, 3, p)
    print(f"  random degree-8 polynomial: binomial defect {defect:.2e}")
print("  (the underlying shift on the Dirichlet norm is a 2-isometry:",
      f"{m_isometry_defect(lambda c: d_alpha_norm(c, 0.0), shift_by_z, 2, p):.2e})")

print()
print("=== monomial norms and the growth inequality ===")
for k in (0, 1, 2, 10):
    print(f"  ||z^{k}||_1^2 = {h1_norm(shift_by_z([1.0], k))**2:.1f}"
          f"  (= 1 + (k+2)^2)")
for n in (4, 16, 64):
    lhs, rhs = h1_shift_lower_bound([1.0], n)
    print(f"  n={n:>3}: ||z^n||_1 = {lhs:7.2f} >= {rhs:7.2f} "
          f"= ||(1-z)1||_2 sqrt(n(n-1)/2)")

print()
print("=== Cesaro bounded, weakly null, strongly divergent ===")
sup = h1_mean_norm(np.arange(1, 17), 128).max()
print(f"  sup of the truncated mean multiplier norms (n <= 16): {sup:.3f}")
for n in (9, 49, 199):
    print(f"  <F_{n} 1, 1> = {h1_mean_pairing(n, [1.0], [1.0]).real:.4f} "
          f"(= 2/(n+1))")
print("  while ||z^n||_1 / n >= 1 for every n: the means cannot converge "
      "strongly")
