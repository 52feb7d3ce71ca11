#!/usr/bin/env python3
"""Tour of the summability schemes and their action on operator powers.

A mean scheme is a nonnegative row-stochastic table {t_nj}; row n applied to
the powers of T gives T_n = sum_j t_nj T^j.  This script prints a few rows of
each family, applies them to small operators, and checks the order-recursion
identities that make the Cesaro family special.
"""

import numpy as np

from ergolab import (
    abel, apply_mean, binomial, cesaro, diag_operator, identity_powers,
    jordan_block, zweier,
)

print("=== rows of the classical schemes ===")
for scheme in (cesaro(1), cesaro(2), zweier(), binomial()):
    row = scheme.row(4)
    print(f"{scheme.name:>14}  row 4: ", dict(zip(row.indices.tolist(),
                                                  np.round(row.weights, 4))))

row = abel().row(4)
print(f"{'abel':>14}  row 4 keeps {row.indices.size} terms, "
      f"tail mass below {row.tail_mass_bound:.1e}")

print()
print("=== means of a rotation ===")
# T = diag(1, i): the fixed part survives, the rotating part averages out
t = diag_operator([1.0, 1j])
for n in (2, 8, 64):
    m = apply_mean(cesaro(1), t, n)
    print(f"  M_{n} diag = {np.round(np.diag(m), 4)}")

print()
print("=== a non-power-bounded example ===")
# the 2x2 Jordan block at 1 has ||T^n|| ~ n; its order-1 means still grow
j = jordan_block(2, 1.0)
for n in (4, 16, 64):
    m = apply_mean(cesaro(1), j, n)
    print(f"  M_{n}[0,1] = {m[0, 1].real:.2f}   (superdiagonal averages to n/2)")

print()
print("=== the order recursion ===")
# (n+p+1)/(n+1) M_{n+1}^(p) - M_n^(p) = p/(n+1) M_{n+1}^(p-1)
a = j.matrix
for p, n in ((2, 5), (3, 12)):
    lhs = ((n + p + 1) / (n + 1)) * apply_mean(cesaro(p), a, n + 1) \
        - apply_mean(cesaro(p), a, n)
    rhs = (p / (n + 1)) * apply_mean(cesaro(p - 1), a, n + 1)
    print(f"  p={p}, n={n}: residual {np.max(np.abs(lhs - rhs)):.2e}")
