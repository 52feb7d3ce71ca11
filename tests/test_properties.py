"""Property tests of the algebraic identities over seeded random operators.

Operators come from ``random_operator(d, rho, seed)`` with d <= 6 and
spectral radius rho in [0.2, 1]; schemes are drawn from every family;
row indices stay at or below 24.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import (abel, abel_summation_residual, backit_identity_residual,
                     backward_iterate, binomial, block_mean_residual, cesaro,
                     identity_powers, power_series, random_operator, zweier)

NMAX = 24

PROPERTY = settings(derandomize=True, deadline=None)

operators = st.builds(random_operator, st.integers(1, 6), st.floats(0.2, 1.0),
                      st.integers(0, 2 ** 16))

schemes = st.one_of(
    st.integers(1, 3).map(cesaro),
    st.sampled_from([abel(), zweier(), binomial(), identity_powers(),
                     power_series(lambda j: 1.0 / (j + 1))]),
    # polynomial generating functions with a positive coefficient past z^0,
    # so no row is the identity alone (a degenerate backward iterate)
    st.lists(st.integers(0, 4), min_size=2, max_size=5)
    .filter(lambda c: any(c[1:])).map(power_series),
)

unimodular = st.floats(0.0, 2.0 * np.pi).map(lambda theta: np.exp(1j * theta))


@PROPERTY
@given(s=schemes, tail_eps=st.sampled_from([1e-12, 1e-9, 1e-6]), data=st.data())
def test_row_mass_plus_tail_bound_is_one(s, tail_eps, data):
    # a coarse tail_eps makes a wrong tail_mass_bound visible at 1e-12
    row = s.row(data.draw(st.integers(s.min_n, NMAX)), tail_eps)
    assert abs(row.total() + row.tail_mass_bound - 1.0) <= 1e-12


@PROPERTY
@given(s=schemes, t=operators, data=st.data())
def test_backward_iterate_identity(s, t, data):
    lo = max(s.min_n, backward_iterate(s).min_n, 2)
    residual = backit_identity_residual(s, t, data.draw(st.integers(lo, NMAX)))
    assert residual <= (1e-10 if s.finite_rows else 1e-9)


@PROPERTY
@given(s=schemes, t=operators, mu=unimodular, seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_triangular_block_mean(s, t, mu, seed, data):
    b_col = np.random.default_rng(seed).standard_normal(t.dim)
    n = data.draw(st.integers(max(s.min_n, 1), NMAX))
    assert block_mean_residual(t, b_col, mu, s, n) <= 1e-11


@PROPERTY
@given(t=operators, lam=unimodular, rho=st.floats(0.01, 1.0),
       n=st.integers(1, NMAX))
def test_abel_summation_rearrangement(t, lam, rho, n):
    assert abel_summation_residual(t, lam, rho, n) <= 1e-12
