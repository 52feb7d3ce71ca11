import math

import numpy as np
import pytest

from ergolab.ergodic import log_fit
from ergolab.linop import GramGeometry, op_norm
from ergolab.spaces import (
    BadTruncation,
    TooFewNodes,
    cesaro_multiplier,
    circle_abs_mean,
    d_alpha_norm,
    h1_gram,
    h1_geometry,
    h1_mean_norm,
    h1_mean_pairing,
    h1_norm,
    h1_shift_lower_bound,
    h1_star_norm,
    m_isometry_defect,
    poly_derivative,
    poly_mul,
    shields_report,
    shift_by_z,
    xr_norm,
)


def h1_norm_double_sum(p):
    """Oracle: the literal double sum over backward shifts of q = (1-z)p
    in the alpha = 0 Dirichlet norm."""
    p = np.asarray(p, dtype=complex)
    q = np.convolve(p, [1.0, -1.0])
    total = np.sum(np.abs(p) ** 2)
    for n in range(q.size):
        tail = q[n:]
        total += np.sum((np.arange(tail.size) + 1.0) * np.abs(tail) ** 2)
    return math.sqrt(float(total.real))


def quadrature_star_norm(p, nodes=512):
    """Oracle: 512-node circle quadrature of |p'(z)(1-z)|^2 plus ||p||_2^2."""
    p = np.asarray(p, dtype=complex)
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    dp = np.polyval(poly_derivative(p)[::-1], z)
    integral = np.mean(np.abs(dp * (1.0 - z)) ** 2)
    return math.sqrt(float(np.sum(np.abs(p) ** 2) + integral))


def test_d_alpha_norm_values():
    assert d_alpha_norm([1.0, 1.0], 0.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert d_alpha_norm(shift_by_z([1.0], 5), 1.0) == pytest.approx(1.0, rel=1e-14)
    assert d_alpha_norm([1.0], 0.7) == pytest.approx(1.0, rel=1e-14)


def test_d_alpha_two_isometry_exact():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    base = d_alpha_norm(p, 0.0) ** 2
    for n in (1, 2, 5, 9):
        lhs = d_alpha_norm(shift_by_z(p, n), 0.0) ** 2 - base
        assert lhs == pytest.approx(n * float(np.sum(np.abs(p) ** 2)), rel=1e-13)


def test_h1_norm_against_double_sum_oracle():
    assert h1_norm([1.0]) == pytest.approx(math.sqrt(5.0), rel=1e-14)
    assert h1_norm([0.0, 1.0]) == pytest.approx(math.sqrt(10.0), rel=1e-14)
    rng = np.random.default_rng(1)
    for deg in (0, 1, 3, 8, 20):
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        assert h1_norm(p) == pytest.approx(h1_norm_double_sum(p), rel=1e-12)


def test_h1_monomial_norms():
    for k in range(21):
        assert h1_norm(shift_by_z([1.0], k)) ** 2 == pytest.approx(
            1.0 + (k + 2.0) ** 2, rel=1e-13)


def test_h1_star_norm_against_quadrature():
    assert h1_star_norm([1.0]) == pytest.approx(1.0, rel=1e-14)
    assert h1_star_norm([0.0, 1.0]) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert h1_star_norm([1.0, 1.0]) == pytest.approx(2.0, rel=1e-14)
    rng = np.random.default_rng(2)
    for deg in (1, 4, 9):
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        assert h1_star_norm(p) == pytest.approx(quadrature_star_norm(p), rel=1e-10)


def test_h1_norm_equivalence_band():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(200):
        deg = int(rng.integers(0, 257))
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        ratios.append(h1_norm(p) / h1_star_norm(p))
    assert 0.25 <= min(ratios) and max(ratios) <= 4.0


def test_h1_contains_in_hardy_space():
    rng = np.random.default_rng(4)
    p = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert np.sum(np.abs(p) ** 2) <= h1_norm(p) ** 2


def test_h1_gram_entries_and_consistency():
    g = h1_gram(3)
    assert g[0, 0] == 5.0 and g[1, 1] == 10.0 and g[0, 1] == -3.0
    # oracle: polarization of the norm, 4<a,b> = sum_k i^k ||a + i^k b||^2
    def polarized(a, b):
        total = 0.0 + 0.0j
        for k in range(4):
            total += 1j**k * h1_norm(a + 1j**k * np.asarray(b, dtype=complex)) ** 2
        return total / 4.0
    e = np.eye(4, dtype=complex)
    for i in range(4):
        for j in range(4):
            assert g[j, i] == pytest.approx(polarized(e[:, i], e[:, j]), abs=1e-10)
    rng = np.random.default_rng(5)
    p = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert p.conj() @ g @ p == pytest.approx(h1_norm(p) ** 2, rel=1e-10)


def test_h1_gram_closed_form_matches_mpmath_polarization():
    # the norm's closed form at 30 digits, sum |p_k|^2 + sum_k (k+1)(k+2)/2
    # |q_k|^2 with q = (1 - z) p, polarized on the monomials z^0..z^n
    mpmath = pytest.importorskip("mpmath")
    n = 24

    def mp_norm_sq(p):
        q = [p[0]] + [p[k] - p[k - 1] for k in range(1, len(p))] + [-p[-1]]
        return (mpmath.fsum(abs(c) ** 2 for c in p)
                + mpmath.fsum(mpmath.mpf((k + 1) * (k + 2)) / 2 * abs(c) ** 2
                              for k, c in enumerate(q)))

    g = h1_gram(n)
    assert np.array_equal(h1_geometry(n).matrix(), g)
    with mpmath.workdps(30):
        for i in range(n + 1):
            for j in range(i, n + 1):
                total = 0
                for k in range(4):
                    p = [mpmath.mpc(0)] * (n + 1)
                    p[i] += 1
                    p[j] += mpmath.mpc(0, 1) ** k
                    total += mpmath.mpc(0, 1) ** k * mp_norm_sq(p)
                    if k % 2 == 0:  # z^i +- z^j: the float norm agrees
                        c = np.zeros(n + 1)
                        c[i] += 1.0
                        c[j] += (-1.0) ** (k // 2)
                        assert h1_norm(c) ** 2 == pytest.approx(float(mp_norm_sq(p)),
                                                                rel=1e-15)
                inner = total / 4
                assert abs(inner.imag) < 1e-25
                # diag 1 + (k+2)^2, off -(k+2)(k+3)/2 and zero beyond: integers
                assert g[i, j] == g[j, i] == float(inner.real)


def test_shift_difference_identity():
    # ||z p||_1^2 - ||p||_1^2 equals the alpha = 0 norm of z (1-z) p squared
    rng = np.random.default_rng(6)
    for deg in (0, 2, 7, 15):
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        diff = h1_norm(shift_by_z(p)) ** 2 - h1_norm(p) ** 2
        target = d_alpha_norm(poly_mul(shift_by_z(p), [1.0, -1.0]), 0.0) ** 2
        assert diff == pytest.approx(target, abs=1e-9 * max(1.0, abs(target)))


def test_m_isometry_defects():
    rng = np.random.default_rng(7)
    d0 = lambda c: d_alpha_norm(c, 0.0)
    for deg in (0, 3, 8):
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        assert abs(m_isometry_defect(d0, shift_by_z, 2, p)) <= 1e-10
        assert abs(m_isometry_defect(h1_norm, shift_by_z, 3, p)) <= 1e-9
    # hand values: 26 - 3*17 + 3*10 - 5 = 0
    assert m_isometry_defect(h1_norm, shift_by_z, 3, [1.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        m_isometry_defect(h1_norm, shift_by_z, 4, [1.0])


def test_shift_lower_bound_values_and_property():
    lhs, rhs = h1_shift_lower_bound([1.0], 3)
    assert lhs**2 == pytest.approx(26.0, rel=1e-13)
    assert rhs**2 == pytest.approx(6.0, rel=1e-13)
    lhs, rhs = h1_shift_lower_bound([1.0], 2)
    assert lhs**2 == pytest.approx(17.0, rel=1e-13)
    assert rhs**2 == pytest.approx(2.0, rel=1e-13)
    rng = np.random.default_rng(8)
    for _ in range(100):
        deg = int(rng.integers(0, 33))
        f = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        n = int(rng.integers(2, 65))
        lhs, rhs = h1_shift_lower_bound(f, n)
        assert lhs >= rhs - 1e-12
    with pytest.raises(ValueError):
        h1_shift_lower_bound([1.0], 1)


def test_h1_mean_pairing_values():
    # F_0 = 1, so <F_0 1, 1> = <1, 1> = G_00 = 1 + 2^2, on degree-0 vectors
    assert h1_mean_pairing(0, [1.0], [1.0]) == h1_gram(1)[0, 0] == 5.0
    assert h1_mean_pairing(1, [1.0], [1.0]) == pytest.approx(1.0, abs=1e-13)
    assert h1_mean_pairing(9, [1.0], [1.0]) == pytest.approx(0.2, abs=1e-13)
    assert h1_mean_pairing(1, [1.0], [0.0, 1.0]) == pytest.approx(3.5, abs=1e-13)
    for n in (1, 5, 33, 100):
        assert h1_mean_pairing(n, [1.0], [1.0]) == pytest.approx(
            2.0 / (n + 1), abs=1e-14)


def test_h1_mean_norm_plateau():
    assert h1_mean_norm(0, 16) == 1.0
    v64 = h1_mean_norm(4, 64)
    v128 = h1_mean_norm(4, 128)
    assert abs(v128 - v64) / v64 < 0.05
    sup_small = max(h1_mean_norm(n, 128) for n in range(1, 17))
    assert sup_small <= 10.0
    with pytest.raises(BadTruncation):
        h1_mean_norm(8, 16)


def test_h1_mean_norm_sweep_equals_one_call_per_index_bit_for_bit():
    # route: one sweep (one solve, running sum, one codomain at 40 + 9)
    # against one call per index (codomain at 40 + n)
    ns = np.array([3, 0, 9, 1, 3, 2, 0, 8])
    swept = h1_mean_norm(ns, 40)
    assert swept.shape == ns.shape and swept.dtype == float
    assert swept.tolist() == [h1_mean_norm(int(n), 40) for n in ns]
    assert swept[1] == swept[6] == 1.0
    assert h1_mean_norm(ns.reshape(2, 4), 40).tolist() == swept.reshape(2, 4).tolist()
    assert h1_mean_norm([0, 0], 16).tolist() == [1.0, 1.0]
    assert type(h1_mean_norm(np.int64(2), 16)) is float


@pytest.mark.parametrize("n, n_trunc", [(-1, 16), (1.5, 16), (2.0, 16), ([1, -2], 16),
                                        (True, 16), (1, 16.0), (1, "16"), (1, True)])
def test_h1_mean_norm_rejects_a_negative_or_fractional_index(n, n_trunc):
    with pytest.raises(ValueError) as info:
        h1_mean_norm(n, n_trunc)
    assert not isinstance(info.value, BadTruncation)


def test_h1_mean_norm_truncation_error_names_the_largest_index():
    with pytest.raises(BadTruncation, match="n = 17 and n_trunc = 64"):
        h1_mean_norm([1, 17, 3], 64)
    assert h1_mean_norm([1, 16, 3], 64).shape == (3,)


def test_h1_geometry_matches_gram():
    g = h1_geometry(5)
    assert np.allclose(g.dense, h1_gram(5))


@pytest.mark.parametrize("n, k", [(1, 16), (4, 64), (16, 128), (16, 512)])
def test_h1_tridiagonal_mean_norm_matches_dense_route(n, k):
    # route: h1_geometry (banded Cholesky, real SVD) against the dense
    # complex route (dense Cholesky of h1_gram, complex SVD)
    m = np.zeros((k + n + 1, k + 1))
    for j in range(k + 1):
        m[j: j + n + 1, j] = 1.0 / (n + 1)
    fast = op_norm(m, dom=h1_geometry(k), cod=h1_geometry(k + n))

    def dense(d):
        return GramGeometry.hermitian(h1_gram(d).astype(complex))

    slow = op_norm(m.astype(complex), dom=dense(k), cod=dense(k + n))
    assert fast == pytest.approx(slow, rel=1e-12)
    assert h1_mean_norm(n, k) == pytest.approx(slow, rel=1e-12)


def test_h1_geometry_vector_norm_matches_closed_form():
    # route: h1_geometry factor applied to p against the closed form h1_norm
    rng = np.random.default_rng(20)
    for degree in (1, 7, 40):
        p = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        assert h1_geometry(degree).vector_norm(p) == pytest.approx(h1_norm(p), rel=1e-13)


def test_xr_norm_values():
    assert xr_norm(shift_by_z([1.0], 5), 1) == pytest.approx(20.0, rel=1e-13)
    assert xr_norm(shift_by_z([1.0], 3), 0) == pytest.approx(3.0, rel=1e-13)
    assert xr_norm([1.0], 2) == pytest.approx(1.0, rel=1e-14)
    # n! / (n - r - 1)! exactly: constant-modulus integrand
    for n, r in ((7, 2), (12, 0), (9, 3)):
        expected = math.factorial(n) / math.factorial(n - r - 1)
        assert xr_norm(shift_by_z([1.0], n), r) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(TooFewNodes):
        xr_norm(np.ones(100), 0, quad_nodes=128)


def test_circle_abs_mean_constant_and_doubling():
    assert circle_abs_mean([2.0], 64) == pytest.approx(2.0, rel=1e-14)
    fn = cesaro_multiplier(100)
    v1 = xr_norm(fn, 0)
    v2 = xr_norm(fn, 0, quad_nodes=16 * 101)
    assert abs(v2 - v1) / v1 <= 1e-6


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 7, 16, 33])
@pytest.mark.parametrize("size", [3, 5, 16, 40])
def test_circle_abs_mean_is_the_trapezoid_rule_at_the_nodes(size, nodes):
    # nodes below len(c) too: z^k and z^(k + nodes) agree at the nodes, so
    # the rule folds the coefficients; dropping those past nodes read 1.0
    # for [1, 1, 1] at 2 nodes, where the rule gives 2.0
    rng = np.random.default_rng(size * 100 + nodes)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    z = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    direct = np.mean(np.abs(np.polynomial.polynomial.polyval(z, c)))
    assert circle_abs_mean(c, nodes) == pytest.approx(direct, rel=1e-12)


def test_shields_report_structure():
    mean_rep, power_rep, inner_rep = shields_report(1, 512)
    assert np.array_equal(mean_rep.ns, power_rep.ns)
    # (iii): exact product values
    oracle = np.array([1.0 - 1.0 / n for n in power_rep.ns])
    assert np.max(np.abs(power_rep.values - oracle)) == 0.0
    # subharmonicity: inner-circle integral below the boundary one
    assert np.all(inner_rep.values <= mean_rep.values + 1e-12)
    with pytest.raises(ValueError):
        shields_report(4, 64)


def test_shields_log_growth_quick():
    mean_rep, _, inner_rep = shields_report(0, 1024)
    mask = mean_rep.ns >= 64
    c, d, rel = log_fit(mean_rep.ns[mask], mean_rep.values[mask])
    assert c > 0.0
    assert rel <= 0.10
    # octave differences approximate c*log(2) (log-growth signature)
    vals = dict(mean_rep.points)
    for n in (256, 512):
        diff = vals[2 * n] - vals[n]
        assert diff == pytest.approx(c * math.log(2.0), rel=0.25)
    # the inner-circle sequence grows at the same rate
    ci, _, rel_i = log_fit(inner_rep.ns[mask], inner_rep.values[mask])
    assert ci > 0.0 and rel_i <= 0.15
