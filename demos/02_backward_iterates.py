#!/usr/bin/env python3
"""Backward iterates: the scheme with coefficients
s_nk = (sum_{j>=k+1} t_nj) / (sum_{j>=1} j t_nj).

The backward iterate of the order-p Cesaro scheme is the order-(p+1) scheme
shifted by one row, the Abel scheme reproduces itself, and every backward
iterate satisfies the exact intertwining identity
T_n^(-1) (T - I) = (sum_j j t_nj)^(-1) (T_n - I).
"""

import numpy as np

from ergolab import (
    abel, backit_identity_residual, backward_iterate,
    backward_row_from_definition, cesaro, random_operator, zweier,
)

print("=== closed forms vs the defining formula ===")
for scheme in (cesaro(1), cesaro(2), zweier(), abel()):
    back = backward_iterate(scheme)
    n = max(back.min_n, 5)
    closed = back.row(n)
    formula = backward_row_from_definition(scheme, n)
    m = min(closed.weights.size, formula.weights.size)
    gap = np.max(np.abs(closed.weights[:m] - formula.weights[:m]))
    print(f"  {scheme.name:>14} -> {back.name:<18} row {n}: "
          f"closed-form vs formula gap {gap:.1e}")

print()
print("=== the shift structure of the Cesaro family ===")
print("  backward of cesaro(1), row 5: ",
      np.round(backward_iterate(cesaro(1)).row(5).weights, 4))
print("  cesaro(2), row 4:            ",
      np.round(cesaro(2).row(4).weights, 4))

print()
print("=== the intertwining identity on a random contraction ===")
t = random_operator(5, 0.9, seed=42)
for scheme in (cesaro(1), cesaro(3), zweier(), abel()):
    n = max(backward_iterate(scheme).min_n, 6)
    res = backit_identity_residual(scheme, t, n)
    print(f"  {scheme.name:>14}: residual {res:.2e}")
