import math

import numpy as np
import pytest

from ergolab import linop, means
from ergolab.linop import (
    DimensionMismatch,
    GramGeometry,
    OperatorModel,
    as_operator,
    diag_operator,
    identity_operator,
    jordan_block,
    power,
    random_operator,
)
from ergolab.means import (
    DegenerateRow,
    RowOutOfRange,
    SpectralRadiusTooLarge,
    abel,
    apply_mean,
    backit_identity_residual,
    backward_iterate,
    backward_row_from_definition,
    binomial,
    block_mean_residual,
    cesaro,
    identity_powers,
    parse_scheme,
    power_series,
    regularity_defect,
    scalar_mean,
    zweier,
)

ALL_SCHEMES = [cesaro(1), cesaro(2), cesaro(4), abel(), zweier(), binomial(),
               identity_powers(), power_series([1.0, 2.0, 3.0]),
               power_series(lambda j: 1.0 / (j + 1.0))]


def cesaro_row_factorial(p, n):
    """Oracle: the direct factorial form of the order-p row."""
    pref = p / math.prod(range(n + 1, n + p + 1))
    return np.array([pref * math.factorial(n - j + p - 1) / math.factorial(n - j)
                     for j in range(n + 1)])


def test_cesaro_row_examples():
    row = cesaro(2).row(2)
    assert np.allclose(row.weights, [0.5, 1.0 / 3.0, 1.0 / 6.0], atol=1e-15)
    assert np.allclose(row.weights, cesaro_row_factorial(2, 2), atol=1e-15)
    for n in (0, 1, 5, 17):
        row = cesaro(1).row(n)
        assert np.allclose(row.weights, 1.0 / (n + 1), atol=1e-15)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_cesaro_rows_match_factorial_oracle(p):
    for n in (0, 1, 2, 7, 23):
        row = cesaro(p).row(n)
        assert np.allclose(row.weights, cesaro_row_factorial(p, n), atol=1e-13)


def test_abel_row_degenerate_and_truncation():
    row = abel().row(1)
    assert row.indices.tolist() == [0] and row.weights.tolist() == [1.0]
    row = abel().row(10, tail_eps=1e-8)
    q = 0.9
    assert np.allclose(row.weights, 0.1 * q ** row.indices.astype(float))
    assert row.tail_mass_bound < 1e-8
    assert 1.0 - row.total() == pytest.approx(row.tail_mass_bound, rel=1e-10)


def test_zweier_rows():
    row = zweier().row(5)
    assert row.indices.tolist() == [4, 5] and row.weights.tolist() == [0.5, 0.5]


def test_binomial_rows_against_comb():
    for n in (0, 1, 6, 30):
        row = binomial().row(n)
        oracle = np.array([math.comb(n, j) for j in range(n + 1)], dtype=float) / 2.0**n
        assert np.allclose(row.weights, oracle, atol=1e-13)


def _mp_row(name, n):
    """Oracle row at 30 digits: the Cesaro (C, p) weights
    C(n-j+p-1, p-1) / C(n+p, p) for p = 1, 2, 3, or the binomial weights
    C(n, j) 2^-n by the exact ratio recurrence."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        if name == "cesaro1":
            return [mpmath.mpf(1) / (n + 1)] * (n + 1)
        if name == "cesaro2":
            return [mpmath.mpf(2 * (n - j + 1)) / ((n + 1) * (n + 2)) for j in range(n + 1)]
        if name == "cesaro3":
            return [mpmath.mpf(3 * (n - j + 2) * (n - j + 1)) / ((n + 1) * (n + 2) * (n + 3))
                    for j in range(n + 1)]
        row = [mpmath.mpf(2) ** -n]
        for j in range(n):
            row.append(row[-1] * (n - j) / (j + 1))
        return row


@pytest.mark.parametrize("name, scheme, rel", [
    # 1/(n+1): one rounding
    ("cesaro1", cesaro(1), 1e-16),
    # the product form's factors (n+k-j)/(n+k) are exact ratios, a few
    # roundings each
    ("cesaro2", cesaro(2), 1e-15),
    # exp of a difference of gammaln values near 8e4: absolute log error
    # about 1e-11
    ("binomial", binomial(), 1e-10),
    # two exact-ratio factors
    ("cesaro3", cesaro(3), 1e-15),
])
def test_rows_at_n_1e4_match_mpmath(name, scheme, rel):
    n = 10**4
    row = scheme.row(n)
    assert row.indices.tolist() == list(range(n + 1))
    assert row.tail_mass_bound == 0.0
    oracle = np.array([float(w) for w in _mp_row(name, n)])
    # binomial weights below the smallest normal double are compared absolutely
    normal = oracle > np.finfo(float).tiny
    assert np.all(np.abs(row.weights[normal] - oracle[normal]) <= rel * oracle[normal])
    assert np.all(np.abs(row.weights[~normal]) <= 2 * np.finfo(float).tiny)
    assert row.total() == pytest.approx(1.0, abs=1e-12)


def test_power_series_finite_rows_exact():
    s = power_series([1.0, 2.0, 3.0])
    r = 1.0 - 1.0 / 4.0
    u = np.array([1.0, 2.0 * r, 3.0 * r**2])
    row = s.row(4)
    assert np.allclose(row.weights, u / u.sum(), atol=1e-15)
    assert row.tail_mass_bound == 0.0


def test_power_series_rows_are_scale_invariant_bit_for_bit():
    # the coefficients are rescaled by a power of two, so coefficients whose
    # sum F(r_n) overflowed give, bit for bit, the rows of the same vector
    # scaled by 2^-1000 (valid before the rescale), and those rows agree
    # with the rows of the unit coefficients up to the rounding of 1e308's
    # mantissa into the products c_j r^j
    big = [1e308, 1e308]
    for n in range(1, 41):
        got = power_series(big).row(n)
        ref = power_series(np.ldexp(big, -1000)).row(n)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.weights, ref.weights)
        assert np.all(got.weights > 0)
        np.testing.assert_allclose(got.weights, power_series([1.0, 1.0]).row(n).weights,
                                   rtol=4e-16, atol=0)
    coeffs = [3.0, 0.5, 0.0, 7.0]
    for n in range(1, 41):
        got = power_series(np.ldexp(coeffs, 900)).row(n)
        ref = power_series(coeffs).row(n)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.weights, ref.weights)


def test_power_series_rescale_keeps_coefficients_far_below_the_maximum():
    # each row is rescaled on its own terms c_j r^j, so f_0 = 1e-300 is a
    # positive coefficient beside 1e308 (min_n 1, row 1 the identity) and
    # stays an explicit zero weight where its term vanishes against the rest
    s = power_series([1e-300, 1e308])
    assert s.min_n == 1
    row1 = s.row(1)
    assert row1.indices.tolist() == [0] and row1.weights.tolist() == [1.0]
    row2 = s.row(2)
    assert row2.indices.tolist() == [0, 1] and row2.weights.tolist() == [0.0, 1.0]
    # a coefficient that is 0 keeps no index
    row = power_series([0.0, 1e-300, 1e308]).row(2)
    assert row.indices.tolist() == [1, 2] and row.weights.tolist() == [0.0, 1.0]


def test_power_series_callable_matches_abel():
    s = power_series(lambda j: 1.0)  # geometric generating function
    for n in (3, 9, 31):
        got = s.row(n)
        ref = abel().row(n)
        m = min(got.weights.size, ref.weights.size)
        assert np.allclose(got.weights[:m], ref.weights[:m], atol=1e-13)


def test_power_series_validation():
    with pytest.raises(ValueError):
        power_series([0.0, 0.0])
    with pytest.raises(ValueError):
        power_series([1.0, -1.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            power_series([1.0, bad])
        # a callable's coefficients are checked as the row is summed
        with pytest.raises(ValueError, match="finite"):
            power_series(lambda j, bad=bad: 1.0 if j < 3 else bad).row(4)


def test_row_stochasticity_all_schemes():
    tail_eps = 1e-12
    sample_ns = [0, 1, 2, 3, 5, 8, 13, 21, 55, 144, 256]
    schemes = ALL_SCHEMES + [backward_iterate(s) for s in ALL_SCHEMES]
    for s in schemes:
        for n in sample_ns:
            if n < s.min_n:
                continue
            row = s.row(n, tail_eps)
            assert np.all(row.weights >= 0.0), s.name
            assert abs(row.total() - 1.0) <= tail_eps + 1e-12, (s.name, n)


def test_row_out_of_range_and_tail_eps_validation():
    with pytest.raises(RowOutOfRange):
        zweier().row(0)
    with pytest.raises(RowOutOfRange):
        backward_iterate(abel()).row(1)
    with pytest.raises(ValueError):
        cesaro(1).row(2, tail_eps=1e-3)
    with pytest.raises(ValueError):
        cesaro(1).row(2, tail_eps=0.0)
    with pytest.raises(ValueError):
        cesaro(0)


@pytest.mark.parametrize("p", [1.5, 2.0, True, 0, "2"], ids=repr)
def test_cesaro_rejects_an_order_that_is_not_an_integer_from_1(p):
    # cesaro(1.5) was named cesaro(p=1.5) and built the rows of p = 1
    with pytest.raises(ValueError, match="cesaro order p must be an integer >= 1, got "):
        cesaro(p)
    assert cesaro(np.int64(3)).name == "cesaro(p=3)" and cesaro(np.int64(3)).p == 3


def test_apply_mean_identity_fixed_point():
    for s in (cesaro(2), zweier(), binomial(), identity_powers(), abel()):
        n = max(s.min_n, 3)
        m = apply_mean(s, identity_operator(3), n)
        defect = 1e-12 if s.finite_rows else 2e-12
        assert np.max(np.abs(m - np.eye(3))) <= defect


def test_apply_mean_examples():
    m = apply_mean(cesaro(1), np.diag([1.0, 1j]), 2)
    assert np.allclose(m, np.diag([1.0, 1j / 3.0]), atol=1e-15)
    for n in (2, 6, 10):
        m = apply_mean(cesaro(1), np.array([[1.0]]), n, lam=-1.0)
        assert m[0, 0] == pytest.approx(1.0 / (n + 1), abs=1e-15)


def test_apply_mean_sparse_support_jump():
    t = jordan_block(2, 0.9)
    n = 37
    expected = 0.5 * (power(t, n - 1) + power(t, n))
    assert np.allclose(apply_mean(zweier(), t, n), expected, atol=1e-13)
    assert np.allclose(apply_mean(identity_powers(), t, n), power(t, n), atol=1e-13)


def test_apply_mean_spectral_radius_guard():
    with pytest.raises(SpectralRadiusTooLarge):
        apply_mean(abel(), np.array([[2.0]]), 5)
    with pytest.raises(SpectralRadiusTooLarge):
        apply_mean(power_series(lambda j: 1.0), np.array([[1.5]]), 5)
    # finite-row schemes are fine on expanding operators
    apply_mean(cesaro(1), np.array([[2.0]]), 5)


def test_apply_mean_unimodular_guard():
    with pytest.raises(ValueError):
        apply_mean(cesaro(1), np.eye(2), 3, lam=0.9)


def test_apply_mean_vector_matches_matrix():
    t = random_operator(5, 1.0, seed=21)
    x = np.arange(1.0, 6.0)
    for s in (cesaro(3), zweier(), abel()):
        n = max(s.min_n, 6)
        direct = apply_mean(s, t, n, lam=1j) @ x
        via_vec = apply_mean(s, t, n, lam=1j, x=x)
        assert np.allclose(direct, via_vec, atol=1e-12)


def test_apply_mean_rotates_the_powers_applied_to_a_vector():
    t = jordan_block(2, 0.5)
    x = np.array([1.0, 1.0])
    got = apply_mean(cesaro(1), t, 4, lam=1j, x=x)
    assert np.allclose(got, [0.0625 + 0.125j, 0.1625 + 0.075j], rtol=0, atol=1e-15)
    assert np.allclose(got, apply_mean(cesaro(1), t, 4, lam=1j) @ x, rtol=0, atol=1e-15)
    plain = apply_mean(cesaro(1), t, 4, x=x)
    assert np.allclose(plain, [1.0375, 0.3875], rtol=0, atol=1e-15)


def test_apply_mean_rejects_an_operand_of_another_dimension():
    # a length-8 vector must not pass as a (4, 2) block for d = 4
    t = jordan_block(4, 0.5)
    for x in (np.ones(8), np.ones(3), np.ones((2, 4)), np.ones((4, 2, 1)), np.float64(1.0)):
        with pytest.raises(DimensionMismatch):
            apply_mean(cesaro(1), t, 3, x=x)


def test_apply_mean_of_an_operand_takes_the_common_dtype():
    t = jordan_block(3, 0.5)
    x = np.array([1.0, 1j, -2.0])
    got = apply_mean(cesaro(2), t, [3, 4], x=x)
    assert got.dtype == np.complex128 and got.shape == (2, 3)
    np.testing.assert_allclose(got, apply_mean(cesaro(2), t, [3, 4]) @ x, rtol=0, atol=1e-15)
    assert apply_mean(cesaro(2), t, 3, x=x.real).dtype == np.float64
    assert apply_mean(cesaro(2), t, 3, lam=1j, x=x.real).dtype == np.complex128
    block = np.stack([x, 2 * x], axis=1)
    assert apply_mean(cesaro(2), t, [3, 4], x=block).shape == (2, 3, 2)
    assert apply_mean(cesaro(2), t, [], x=block).shape == (0, 3, 2)


# --- stacked apply_mean against the per-row oracle --------------------------

def row_mean(s, t, n, lam=1.0):
    """Oracle: the mean of row n by the per-row incremental loop, one
    product (or one gap power) per row term."""
    row = s.row(n)
    b = lam * as_operator(t).matrix
    acc = np.zeros_like(b)
    p = power(b, int(row.indices[0]))
    acc += row.weights[0] * p
    prev = int(row.indices[0])
    for idx, w in zip(row.indices[1:], row.weights[1:]):
        gap = int(idx) - prev
        p = p @ b if gap == 1 else p @ power(b, gap)
        prev = int(idx)
        acc += w * p
    return acc


def row_mean_vector(s, t, n, x, lam=1.0):
    """Oracle: the mean of row n applied to x by the per-row loop over the
    vectors T^j x of the unrotated T, the rotation entering through the
    weights t_nj lam^j.  Also returns sum_j |t_nj| ||T^j x||, the scale of
    the rounding: a row can cancel far below its terms."""
    row = s.row(n)
    a = as_operator(t).matrix
    weights = row.weights * lam ** row.indices
    v = np.asarray(x)
    acc = np.zeros(v.shape, dtype=np.result_type(weights, a, v))
    scale, pos = 0.0, 0
    for idx, w in zip(row.indices, weights):
        while pos < int(idx):
            v = a @ v
            pos += 1
        acc += w * v
        scale += abs(w) * math.sqrt(np.vdot(v, v).real)
    return acc, scale


def assert_matches_vector_oracle(s, t, ns, x, lam=1.0):
    got = apply_mean(s, t, ns, lam, x=x)
    assert got.shape == (len(ns),) + np.shape(x)
    for mean, n in zip(got, ns):
        ref, scale = row_mean_vector(s, t, n, x, lam)
        assert mean.dtype == ref.dtype
        np.testing.assert_allclose(mean, ref, rtol=0.0, atol=1e-12 * scale)


def assert_matches_oracle(s, t, ns, lam=1.0):
    got = apply_mean(s, t, ns, lam)
    assert got.shape == (len(ns),) + as_operator(t).matrix.shape
    for mean, n in zip(got, ns):
        ref = row_mean(s, t, n, lam)
        assert mean.dtype == ref.dtype
        np.testing.assert_allclose(mean, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


ORACLE_SCHEMES = [cesaro(1), cesaro(3), abel(), zweier(), binomial(), identity_powers(),
                  power_series([1.0, 2.0, 3.0]),
                  power_series(lambda j: 1.0 / (j + 1.0) ** 2),
                  backward_iterate(cesaro(2)), backward_iterate(abel()),
                  backward_iterate(zweier()), backward_iterate(binomial())]


def _oracle_operators():
    rng = np.random.default_rng(31)
    real = rng.standard_normal((4, 4))
    real *= 0.97 / np.max(np.abs(np.linalg.eigvals(real)))
    gram = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense = OperatorModel(real, GramGeometry.hermitian(gram @ gram.conj().T + np.eye(4)))
    return {"real": real, "complex": random_operator(3, 1.0, seed=32), "dense_gram": dense}


@pytest.mark.parametrize("s", ORACLE_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("kind", ["real", "complex", "dense_gram"])
@pytest.mark.parametrize("lam", [1.0, 1j], ids=["lam1", "lam1j"])
def test_stacked_apply_mean_matches_row_oracle(s, kind, lam):
    t = _oracle_operators()[kind]
    lo = s.min_n
    assert_matches_oracle(s, t, list(range(lo, lo + 10)), lam)
    # starts above the first row, has gaps, repeats and runs backwards
    assert_matches_oracle(s, t, [lo + 3, lo + 4, lo + 9, lo + 30, lo + 30, lo + 5], lam)


def _vector_oracle_operators():
    ops = _oracle_operators()
    ops["diag_gram"] = OperatorModel(ops["real"], GramGeometry.diagonal([1.0, 2.0, 0.5, 4.0]))
    return ops


@pytest.mark.parametrize("s", ORACLE_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("lam", [1.0, 1j, np.exp(2.1j)], ids=["lam1", "lam1j", "lam_e21j"])
@pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
def test_apply_mean_of_an_operand_matches_vector_oracle(s, lam, block):
    rng = np.random.default_rng(35)
    lo = s.min_n
    for t in _vector_oracle_operators().values():
        d = as_operator(t).dim
        shape = (d, 3) if block else (d,)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert_matches_vector_oracle(s, t, list(range(lo, lo + 8)), x.real, lam)
        # a binomial row at n = 59, lam = 1j cancels to 1e-8 of its terms
        assert_matches_vector_oracle(s, t, [lo + 3, lo + 59, lo + 9, lo + 9], x, lam)


@pytest.mark.parametrize("s", ORACLE_SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("lam", [1.0, 1j], ids=["lam1", "lam1j"])
def test_trmm_mean_walk_matches_row_oracles(s, lam, monkeypatch, trmm_lookups):
    # a triangular T (d = 5) is walked by trmm with the threshold lowered to
    # 1, and the oracles by @; a complex x on the real T stays complex
    rng = np.random.default_rng(37)
    t = np.triu(rng.standard_normal((5, 5)), 1) + np.diag(rng.uniform(0.5, 0.97, 5))
    x = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    lo = s.min_n
    ns = [lo, lo + 3, lo + 4, lo + 9, lo + 30, lo + 30, lo + 5]
    got = apply_mean(s, t, ns, lam)
    block = apply_mean(s, t, ns, lam, x=x)
    vector = apply_mean(s, t, ns, lam, x=x[:, 0])
    assert trmm_lookups and set(trmm_lookups) == {"trmm"}
    assert block.dtype == vector.dtype == np.complex128
    monkeypatch.setattr(linop, "_TRMM_MIN_DIM", math.inf)
    for n, mean, mean_block, mean_vector in zip(ns, got, block, vector):
        ref = row_mean(s, t, n, lam)
        np.testing.assert_allclose(mean, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
        for operand, result in ((x, mean_block), (x[:, 0], mean_vector)):
            ref, scale = row_mean_vector(s, t, n, operand, lam)
            np.testing.assert_allclose(result, ref, rtol=0.0, atol=1e-12 * scale)


def test_long_abel_row_matches_row_oracle():
    # at d = 4 a stack and the batched base hold 1024 powers; the Abel row
    # at n = 60 has 1645 terms, so its one run crosses a stack boundary and
    # the power at 1023 is carried into the second stack
    t = np.diag([1.0, 0.999, -0.9, 0.5])
    assert abel().row(60).indices.size > 2 ** 10
    assert_matches_oracle(abel(), t, [60])
    assert_matches_oracle(abel(), t, [60], lam=np.exp(0.7j))


def test_stacked_apply_mean_sparse_supports():
    t = jordan_block(3, 0.9)
    assert_matches_oracle(identity_powers(), t, [1, 2, 40, 41, 300, 7])
    assert_matches_oracle(zweier(), t, [1, 2, 3, 50, 51, 900])
    assert_matches_oracle(power_series([1.0, 0.0, 0.0, 0.0, 2.0]), t, [1, 3, 8], lam=-1.0)


@pytest.mark.parametrize("s, n, x", [
    (zweier(), range(1, 101), None),
    (cesaro(1), 65, None),
    (cesaro(1), 65, np.ones(1)),
], ids=["zweier_1_100", "cesaro1_65", "cesaro1_65_vector"])
def test_mean_walk_forms_no_power_above_its_largest_index(s, n, x):
    # 1000^100 = 1e300 is finite; 1000^128, a power no row asks for, is not
    with np.errstate(over="raise"):
        result = apply_mean(s, [[1000.0]], n, x=x)
    assert np.all(np.isfinite(result))


@pytest.mark.parametrize("cells", [1, 9, 40, 200])
@pytest.mark.parametrize("s", [cesaro(2), abel(), zweier(), identity_powers(),
                               backward_iterate(binomial())], ids=lambda s: s.name)
def test_stacked_apply_mean_under_a_tiny_cell_budget(monkeypatch, s, cells):
    # stacks of 0 to 50 powers and row groups of a few rows: every chunk and
    # row-group boundary falls inside the sweep
    groups = []
    group_means = means._group_means
    monkeypatch.setattr(means, "_group_means",
                        lambda rows, *args: (groups.append(len(rows)),
                                             group_means(rows, *args)))
    monkeypatch.setattr(linop, "_STACK_CELLS", cells)
    ns = list(range(s.min_n, s.min_n + 24))
    t = random_operator(2, 1.0, seed=33)
    assert_matches_oracle(s, t, ns, lam=1j)
    assert sum(groups) == len(ns)
    assert len(groups) > 1
    groups.clear()
    assert_matches_vector_oracle(s, t, ns, np.array([[1.0, 0.5, -2.0], [0.0, 1j, 1.0]]), lam=1j)
    assert sum(groups) == len(ns)
    assert len(groups) > 1


def test_a_zero_power_ends_the_abel_walk_of_a_nilpotent_shift(mean_walk_starts):
    # Abel row n carries about 27 n powers, but T^64 = 0: each group's walk
    # yields at most one stack from index 64 on, the one whose first power
    # is zero, and stops there
    apply_mean(abel(), linop.dirichlet_shift(0.5, 64, "backward"), np.arange(1, 129))
    past = [sum(start >= 64 for start in starts) for starts in mean_walk_starts]
    assert max(past) == 1
    # 16 stacks of 4 powers below the index, and the zero one
    assert max(len(starts) for starts in mean_walk_starts) == 17


def test_scalar_apply_mean_is_a_batch_of_one():
    t = random_operator(3, 1.0, seed=34)
    for s in (cesaro(2), abel(), zweier(), power_series(lambda j: 0.5 ** j)):
        n = s.min_n + 6
        single = apply_mean(s, t, n, lam=1j)
        assert single.shape == (3, 3)
        assert np.array_equal(single, apply_mean(s, t, [n], lam=1j)[0])
        assert np.array_equal(single, apply_mean(s, t, np.array(n), lam=1j))
    assert apply_mean(cesaro(1), t, []).shape == (0, 3, 3)


# --- Cesaro recurrence identities -----------------------------------------

def _cesaro_mean(a, p, n):
    if p == 0:
        return power(a, n)
    return apply_mean(cesaro(p), a, n)


@pytest.mark.parametrize("seed", [1, 2])
def test_cesaro_identities_random(seed):
    t = random_operator(5, 1.05, seed=seed)
    a = t.matrix
    eye = np.eye(5, dtype=complex)
    for p in (1, 2, 3):
        for n in (1, 2, 5, 13, 32):
            m_n = _cesaro_mean(a, p, n)
            m_next = _cesaro_mean(a, p, n + 1)
            m_low = _cesaro_mean(a, p - 1, n + 1)
            r1 = m_n @ (a - eye) - (p / (n + 1)) * (m_low - eye)
            r2 = a @ m_n - ((n + p + 1) / (n + 1)) * m_next + (p / (n + 1)) * eye
            r3 = ((n + p + 1) / (n + 1)) * m_next - m_n - (p / (n + 1)) * m_low
            for res in (r1, r2, r3):
                assert np.max(np.abs(res)) <= 1e-10


# --- backward iterates ------------------------------------------------------

def test_backward_cesaro_is_shifted_higher_order():
    for p in (1, 2, 3):
        back = backward_iterate(cesaro(p))
        up = cesaro(p + 1)
        for n in (1, 2, 5, 21, 64):
            got = back.row(n)
            ref = up.row(n - 1)
            assert np.array_equal(got.indices, ref.indices)
            assert np.max(np.abs(got.weights - ref.weights)) <= 1e-12
    # spot value: row 2 equals cesaro(2) row 1 = (2/3, 1/3)
    row = backward_iterate(cesaro(1)).row(2)
    assert np.allclose(row.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_backward_abel_is_abel():
    back = backward_iterate(abel())
    assert back.min_n == 2
    for n in (2, 5, 40):
        got = back.row(n)
        ref = abel().row(n)
        m = min(got.weights.size, ref.weights.size)
        assert np.max(np.abs(got.weights[:m] - ref.weights[:m])) <= 1e-12 + 1e-12


def test_backward_zweier_closed_form():
    back = backward_iterate(zweier())
    row = back.row(3)
    assert np.allclose(row.weights, [0.4, 0.4, 0.2], atol=1e-15)
    for n in (1, 2, 3, 9, 31):
        row = back.row(n)
        expected = np.full(n, 2.0 / (2 * n - 1))
        expected[-1] *= 0.5
        assert np.array_equal(row.weights, expected)


def test_backward_identity_powers_is_uniform():
    back = backward_iterate(identity_powers())
    for n in (1, 4, 12):
        row = back.row(n)
        assert np.allclose(row.weights, 1.0 / n, atol=1e-15)
        assert row.indices.tolist() == list(range(n))


def test_backward_closed_forms_match_defining_formula():
    for s in ALL_SCHEMES:
        back = backward_iterate(s)
        for n in (2, 3, 9, 33):
            if n < back.min_n:
                continue
            got = back.row(n)
            ref = backward_row_from_definition(s, n)
            m = min(got.weights.size, ref.weights.size)
            assert np.max(np.abs(got.weights[:m] - ref.weights[:m])) <= 1e-12, s.name
    for s in (cesaro(2), abel(), zweier(), power_series([1.0, 2.0, 3.0])):
        assert backward_iterate(s).kind == s.kind + "_backward"


def test_backward_of_a_backward_iterate_takes_the_formula():
    # abel's backward iterate is the Abel rows, so its own backward iterate,
    # by the formula, gives them again within the tail mass
    once, twice = backward_iterate(abel()), backward_iterate(backward_iterate(abel()))
    assert (twice.kind, twice.name, twice.min_n) == ("abel_backward_backward",
                                                     "abel^(-1)^(-1)", 2)
    for n in (2, 5, 40):
        got, ref = twice.row(n), once.row(n)
        m = min(got.weights.size, ref.weights.size)
        assert np.max(np.abs(got.weights[:m] - ref.weights[:m])) <= 2e-12
    # row 1 of cesaro(1)'s backward iterate is cesaro(2) row 0, the identity
    assert backward_iterate(backward_iterate(cesaro(1))).min_n == 2



def _ps_callable(j):
    return 1.0 / (j + 1.0)


@pytest.mark.parametrize("make, kind, name, min_n, finite_rows, p", [
    (lambda: cesaro(1), "cesaro", "cesaro(p=1)", 0, True, 1),
    (lambda: cesaro(3), "cesaro", "cesaro(p=3)", 0, True, 3),
    (abel, "abel", "abel", 1, False, None),
    (zweier, "zweier", "zweier", 1, True, None),
    (binomial, "binomial", "binomial", 0, True, None),
    (identity_powers, "identity_powers", "powers", 0, True, None),
    (lambda: power_series([1.0, 0.5]), "power_series", "power_series", 1, True, None),
    (lambda: power_series([0.0, 1.0]), "power_series", "power_series", 2, True, None),
    (lambda: power_series(_ps_callable), "power_series", "power_series", 1, False, None),
    (lambda: backward_iterate(cesaro(3)), "cesaro_backward", "cesaro(p=3)^(-1)", 1, True,
     None),
    (lambda: backward_iterate(abel()), "abel_backward", "abel^(-1)", 2, False, None),
    (lambda: backward_iterate(zweier()), "zweier_backward", "zweier^(-1)", 1, True, None),
    (lambda: backward_iterate(binomial()), "binomial_backward", "binomial^(-1)", 1, True,
     None),
    (lambda: backward_iterate(identity_powers()), "identity_powers_backward",
     "powers^(-1)", 1, True, None),
    (lambda: backward_iterate(power_series([1.0, 0.5])), "power_series_backward",
     "power_series^(-1)", 2, True, None),
    (lambda: backward_iterate(power_series([0.0, 1.0])), "power_series_backward",
     "power_series^(-1)", 2, True, None),
    (lambda: backward_iterate(power_series(_ps_callable)), "power_series_backward",
     "power_series^(-1)", 2, False, None),
    (lambda: backward_iterate(backward_iterate(cesaro(1))), "cesaro_backward_backward",
     "cesaro(p=1)^(-1)^(-1)", 2, True, None),
    (lambda: backward_iterate(backward_iterate(abel())), "abel_backward_backward",
     "abel^(-1)^(-1)", 2, False, None),
], ids=["cesaro1", "cesaro3", "abel", "zweier", "binomial", "powers", "ps_f0",
        "ps_no_f0", "ps_callable", "cesaro3_back", "abel_back", "zweier_back",
        "binomial_back", "powers_back", "ps_f0_back", "ps_no_f0_back",
        "ps_callable_back", "cesaro1_back_back", "abel_back_back"])
def test_scheme_metadata_table(make, kind, name, min_n, finite_rows, p):
    s = make()
    assert type(s) is means.MeanScheme
    assert (s.kind, s.name, s.min_n, s.finite_rows, s.p) == (kind, name, min_n,
                                                             finite_rows, p)


@pytest.mark.parametrize("s", [cesaro(1), cesaro(4), abel()], ids=lambda s: s.name)
def test_backward_iterate_takes_the_closed_form_by_kind(s, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return backward_row_from_definition(*args, **kwargs)

    monkeypatch.setattr(means, "backward_row_from_definition", counted)
    back = means.backward_iterate(s)
    # the one call is the min_n probe; no row comes from the formula
    assert calls == [max(s.min_n, 1)]
    for n in range(back.min_n, back.min_n + 12):
        back.row(n)
    assert calls == [max(s.min_n, 1)]
    # any other kind takes the formula for every row
    other = means.backward_iterate(zweier())
    other.row(4)
    assert calls[-1] == 4

def test_backward_degenerate_row():
    with pytest.raises(DegenerateRow):
        backward_row_from_definition(binomial(), 0)
    # below the backward scheme's first valid row the range error fires first
    with pytest.raises(RowOutOfRange):
        backward_iterate(binomial()).row(0)
    # a constant generating function is degenerate at every row
    with pytest.raises(DegenerateRow):
        backward_iterate(power_series([1.0])).row(3)


def test_backit_identity_residual():
    t = random_operator(4, 0.9, seed=77)
    assert backit_identity_residual(cesaro(1), t, 5) <= 1e-10
    assert backit_identity_residual(zweier(), jordan_block(2, 1), 4) <= 1e-12
    # both sides vanish on the identity up to the rounding of the row sum
    for s in (cesaro(2), binomial(), identity_powers()):
        assert backit_identity_residual(s, identity_operator(3), 4) <= 1e-15
    assert backit_identity_residual(abel(), t, 6) <= 1e-9


@pytest.mark.parametrize("s", [cesaro(2), abel()], ids=["finite", "truncated"])
def test_batched_backit_identity_residual_matches_the_per_row_loop(s):
    t = random_operator(5, 0.9, seed=77)
    ns = np.arange(2, 40)
    batched = backit_identity_residual(s, t, ns)
    loop = np.array([backit_identity_residual(s, t, int(n)) for n in ns])
    assert batched.shape == ns.shape
    # the residual is a difference of means of norm ~1, so the batched and
    # per-row routes agree to rounding relative to those means, not to the
    # (rounding- or tail-level) residual itself
    scale = max(as_operator(t).norm(apply_mean(s, t, ns)))
    np.testing.assert_allclose(batched, loop, rtol=1e-12, atol=1e-12 * scale)
    assert backit_identity_residual(s, t, ns.reshape(2, -1)).shape == (2, 19)
    assert type(backit_identity_residual(s, t, 7)) is float


# --- scalar means, block structure, regularity ------------------------------

def test_scalar_mean_values():
    for s in ALL_SCHEMES:
        n = max(s.min_n, 4)
        assert scalar_mean(s, n, 1.0) == pytest.approx(1.0, abs=2e-12)
    assert scalar_mean(cesaro(1), 2, -1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert scalar_mean(cesaro(1), 3, 1j) == pytest.approx(0.0, abs=1e-15)


def test_scalar_mean_is_one_dim_apply():
    for s in ALL_SCHEMES:
        n = max(s.min_n, 5)
        mu = np.exp(0.37j)
        direct = apply_mean(s, np.array([[mu]]), n)[0, 0]
        assert scalar_mean(s, n, mu) == pytest.approx(direct, abs=1e-12)


def test_block_mean_residual_examples():
    res = block_mean_residual(np.array([[0.0]]), [1.0], 1.0, cesaro(1), 2)
    assert res <= 1e-12
    full = apply_mean(cesaro(1), np.array([[0.0, 1.0], [0.0, 1.0]]), 2)
    assert np.allclose(full, [[1.0 / 3.0, 2.0 / 3.0], [0.0, 1.0]], atol=1e-15)
    # row 0 of any scheme with support {(0, 1)} reproduces the identity
    res = block_mean_residual(np.array([[0.7]]), [2.0], 1j, cesaro(2), 0)
    assert res == 0.0
    res = block_mean_residual(np.array([[0.5]]), [1.0], -1.0, cesaro(1), 3)
    assert res <= 1e-10
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) * 0.4
    res = block_mean_residual(a, rng.standard_normal(3), np.exp(2.1j), zweier(), 7)
    assert res <= 1e-12


def test_regularity_defect():
    # zero up to row-sum rounding for the identity operator
    assert regularity_defect(cesaro(1), identity_operator(1), 1, [1.0], 7) <= 1e-15
    assert regularity_defect(identity_powers(), diag_operator([0.5]), 1, [1.0], 9) == 0.0
    # oracle for T = diag(-1): |T M_n - M_{n+1}| at n = 9 is |0 - 1/11|
    d = regularity_defect(cesaro(1), diag_operator([-1.0]), 1, [1.0], 9)
    assert d == pytest.approx(1.0 / 11.0, abs=1e-15)
    for n in (4, 16, 64):
        d = regularity_defect(cesaro(1), diag_operator([-1.0]), 1, [1.0], n)
        assert d <= 2.0 / (n + 1)


# --- scheme-level invariants -------------------------------------------------

def test_binomial_mean_is_power_of_average():
    t = random_operator(4, 1.0, seed=5)
    s_half = 0.5 * (t.matrix + np.eye(4))
    for n in (1, 5, 20):
        direct = apply_mean(binomial(), t, n)
        assert np.max(np.abs(direct - power(s_half, n))) <= 1e-10


def test_abel_mean_matches_resolvent():
    t = random_operator(4, 0.95, seed=8)
    tail_eps = 1e-12
    for n in (2, 7, 25):
        r = 1.0 - 1.0 / n
        inv = np.linalg.solve(np.eye(4) - r * t.matrix, np.eye(4))
        direct = apply_mean(abel(), t, n)
        bound = tail_eps * np.linalg.norm(inv, 2) + 1e-9
        assert np.max(np.abs(direct - (1.0 - r) * inv)) <= bound


def test_parse_scheme_round_trip():
    assert parse_scheme("cesaro:p=2").name == "cesaro(p=2)"
    assert parse_scheme("abel").kind == "abel"
    assert parse_scheme("zweier").kind == "zweier"
    assert parse_scheme("binomial").kind == "binomial"
    assert parse_scheme("powers").kind == "identity_powers"
    assert parse_scheme("powseries:coeffs=1,2,3").kind == "power_series"
    with pytest.raises(ValueError):
        parse_scheme("mystery")
    with pytest.raises(ValueError):
        parse_scheme("powseries")
    # the positional order and the default order of cesaro
    assert parse_scheme("cesaro:3").p == 3 and parse_scheme("cesaro").p == 1


@pytest.mark.parametrize("spec, expected", [
    ("cesaro", lambda: cesaro(1)),
    ("cesaro:3", lambda: cesaro(3)),
    # int() reads the order, a sign and digit separators included
    ("cesaro:p=+2", lambda: cesaro(2)),
    ("cesaro:p=1_0", lambda: cesaro(10)),
    ("powseries:coeffs=1,0.5", lambda: means.power_series([1.0, 0.5])),
])
def test_parse_scheme_builds_the_named_scheme(spec, expected):
    s, want = parse_scheme(spec), expected()
    assert (s.kind, s.name, s.p, s.min_n) == (want.kind, want.name, want.p, want.min_n)
    for n in range(s.min_n, s.min_n + 6):
        assert np.array_equal(s.row(n).indices, want.row(n).indices)
        assert np.array_equal(s.row(n).weights, want.row(n).weights)


@pytest.mark.parametrize("spec, fragment", [
    ("cesaro:order=3", "scheme cesaro takes no parameter 'order'"),
    ("cesaro:coeffs=1", "scheme cesaro takes no parameter 'coeffs'"),
    ("abel:p=3", "scheme abel takes no parameter 'p'"),
    ("zweier:3", "scheme zweier takes no parameter '3'"),
    ("binomial:coeffs=1", "scheme binomial takes no parameter 'coeffs'"),
    ("powers:p=2", "scheme powers takes no parameter 'p'"),
    ("powseries:p=2:coeffs=1", "scheme powseries takes no parameter 'p'"),
    ("powseries:1,0.5", "scheme powseries takes no parameter '1,0.5'"),
])
def test_parse_scheme_rejects_a_parameter_its_family_does_not_take(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_scheme(spec)


def test_rows_to_csv(tmp_path):
    path = tmp_path / "rows.csv"
    means.rows_to_csv(cesaro(1), [0, 1, 2], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,j,t"
    assert lines[1].startswith("0,0,")
    assert len(lines) == 1 + 1 + 2 + 3
