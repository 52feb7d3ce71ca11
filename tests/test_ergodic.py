import math

import numpy as np
import pytest

from ergolab import linop, means
from ergolab.ergodic import (
    GrowthReport,
    NonPositiveValues,
    NonSimplePole,
    WindowTooSmall,
    almost_convergence_defect,
    alternating_sum_residual,
    ergodic_projection,
    gamma_quotient,
    growth_exponent,
    log_fit,
    mean_convergence_report,
    mean_norms,
    power_norm_samples,
    power_norm_sequence,
)
from ergolab.linop import (
    GramGeometry,
    OperatorModel,
    diag_operator,
    dirichlet_shift,
    identity_operator,
    jordan_block,
    op_norm,
    power,
    random_operator,
)
from ergolab.means import abel, apply_mean, cesaro, identity_powers


def test_power_norm_sequence_values():
    rep = power_norm_sequence(diag_operator([np.exp(0.4j)]), 16)
    assert np.allclose(rep.values, 1.0, atol=1e-12)
    rep = power_norm_sequence(jordan_block(2, 1), 32)
    ns = rep.ns.astype(float)
    # SVD of [[1, n], [0, 1]] in closed form
    oracle = np.sqrt((2.0 + ns**2 + ns * np.sqrt(ns**2 + 4.0)) / 2.0)
    assert np.allclose(rep.values, oracle, rtol=1e-12)
    rep = power_norm_sequence(diag_operator([2.0]), 20)
    assert np.allclose(rep.values, 2.0 ** rep.ns.astype(float), rtol=1e-12)
    # the walk over 1..nmax is the incremental product, bit for bit
    t = random_operator(16, 1.0, seed=5)
    rep = power_norm_sequence(t, 200)
    p = t.matrix.copy()
    oracle = [op_norm(p)]
    for _ in range(199):
        p = p @ t.matrix
        oracle.append(op_norm(p))
    assert np.array_equal(rep.values, oracle)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0])
def test_dirichlet_forward_power_norms_are_weight_products(alpha):
    # T^n maps e_k to (w_k ... w_{k+n-1}) e_{k+n}, one entry per row and
    # column, so ||T^n|| is the largest product of n consecutive weights;
    # w_i = ((i+2)/(i+1))^beta telescopes to ((k+n+1)/(k+1))^beta
    d, beta = 40, (1.0 - alpha) / 2.0
    rep = power_norm_sequence(dirichlet_shift(alpha, d, "forward"), 60)
    assert rep.ns.tolist() == list(range(1, 61))
    for n, value in rep.points:
        if n >= d:
            assert value == 0.0
        else:
            oracle = max(((k + n + 1) / (k + 1)) ** beta for k in range(d - n))
            assert value == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("d, eig", [(2, 1.0), (3, 1.0), (4, 1.0), (3, 0.5), (4, -0.9)])
def test_jordan_power_norms_match_mpmath(d, eig):
    mpmath = pytest.importorskip("mpmath")
    rep = power_norm_sequence(jordan_block(d, eig), 64)
    with mpmath.workdps(30):
        j = mpmath.matrix(d)
        for i in range(d):
            j[i, i] = mpmath.mpf(eig)  # the binary value of eig, exactly
            if i + 1 < d:
                j[i, i + 1] = 1
        p = mpmath.eye(d)
        for n, value in rep.points:
            p = p * j
            oracle = max(mpmath.svd_r(p, compute_uv=False))
            assert value == pytest.approx(float(oracle), rel=1e-13)


def test_power_norm_overflow_flag():
    rep = power_norm_sequence(diag_operator([2.0]), 1100)
    assert rep.overflow_at is not None
    assert rep.ns[-1] < 1100
    assert np.all(np.isfinite(rep.values))
    # the CLI's 33 growth samples up to n = 1200: a gap jumps past 1e300 to inf
    ns = sorted({int(round(2.0 ** e)) for e in np.linspace(1, np.log2(1200), 33)})
    rep = power_norm_samples(jordan_block(3, 3), ns)
    assert rep.overflow_at is not None
    assert 0 < rep.ns.size < len(ns)
    assert rep.ns[-1] < rep.overflow_at
    assert np.all(np.isfinite(rep.values))


def _triangular(kind, dtype, d=12, seed=3):
    """A random triangular (or diagonal) operator with diagonal moduli in
    [0.9, 1], whose power norms stay within 1e-9..1e6 up to n = 1000."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(0.9, 1.0, d)
    a = 0.3 * rng.standard_normal((d, d))
    if dtype is complex:
        diag = diag * np.exp(2j * np.pi * rng.random(d))
        a = a + 0.3j * rng.standard_normal((d, d))
    a = {"lower": np.tril(a, -1), "upper": np.triu(a, 1), "diagonal": 0 * a}[kind]
    return a + np.diag(diag)


@pytest.mark.parametrize("kind", ["lower", "upper", "diagonal"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("mode", ["spectral", "colsum"])
def test_triangular_walk_matches_the_general_walk_on_a_permuted_copy(
        kind, dtype, mode, monkeypatch, trmm_lookups):
    # P T P^T has the powers P T^n P^T: the same singular values and the
    # same column sums.  With the trmm threshold at 1, T (d = 12) is walked
    # by trmm and the permuted copy by @; a permuted diagonal is still
    # diagonal, so the oracle walk raises the threshold out of reach.
    a = _triangular(kind, dtype)
    perm = np.random.default_rng(9).permutation(a.shape[0])
    permuted = a[perm][:, perm]
    t, tp = OperatorModel(a), OperatorModel(permuted)
    assert tp.matrix.dtype == t.matrix.dtype == dtype
    ns = [1, 2, 3, 7, 64, 65, 300, 1000]
    got = [power_norm_sequence(t, 96, mode).values, power_norm_samples(t, ns, mode).values]
    assert trmm_lookups == ["trmm", "trmm"]
    if kind != "diagonal":
        power_norm_samples(tp, ns, mode)
        assert trmm_lookups == ["trmm", "trmm"]
    # the walk's products are the powers
    cube = list(linop._power_walk(a, [1, 3]))[-1][0]
    assert np.allclose(cube, a @ a @ a, rtol=1e-13, atol=0)
    monkeypatch.setattr(linop, "_TRMM_MIN_DIM", math.inf)
    oracle = [power_norm_sequence(tp, 96, mode).values,
              power_norm_samples(tp, ns, mode).values]
    for values, expected in zip(got, oracle):
        assert values == pytest.approx(expected, rel=1e-12)


def test_power_norm_samples_match_sequence():
    t = random_operator(4, 1.0, seed=3)
    full = power_norm_sequence(t, 64)
    sampled = power_norm_samples(t, [1, 2, 3, 8, 17, 64])
    lookup = dict(full.points)
    for n, v in sampled.points:
        assert v == pytest.approx(lookup[n], rel=1e-10)


def test_growth_exponent_cases():
    ns = np.arange(1, 65)
    rep = GrowthReport("sq", ns, ns.astype(float) ** 2)
    expo, res = growth_exponent(rep)
    assert expo == pytest.approx(2.0, abs=1e-9)
    assert res <= 1e-9
    rep = GrowthReport("const", ns, np.full(64, 3.7))
    expo, _ = growth_exponent(rep)
    assert expo == pytest.approx(0.0, abs=1e-9)
    jordan_rep = power_norm_sequence(jordan_block(2, 1), 512)
    assert 0.95 <= jordan_rep.fit_exponent <= 1.05
    with pytest.raises(NonPositiveValues):
        growth_exponent(GrowthReport("bad", ns, np.zeros(64)))
    with pytest.raises(WindowTooSmall):
        growth_exponent(GrowthReport("short", ns[:6], ns[:6].astype(float)))


def test_growth_exponent_jordan_family():
    for d in (2, 3, 4):
        rep = power_norm_sequence(jordan_block(d, 1), 512)
        assert abs(rep.fit_exponent - (d - 1)) <= 0.1


def test_log_fit_recovers_coefficients():
    ns = np.arange(16, 513)
    vals = 0.7 * np.log(ns) + 1.3
    c, d, rel = log_fit(ns, vals)
    assert c == pytest.approx(0.7, abs=1e-10)
    assert d == pytest.approx(1.3, abs=1e-9)
    assert rel <= 1e-10


def test_ergodic_projection_examples():
    p = ergodic_projection(diag_operator([1.0, 0.3]))
    assert np.allclose(p, np.diag([1.0, 0.0]), atol=1e-12)
    p = ergodic_projection(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(p, 0.5 * np.ones((2, 2)), atol=1e-12)
    with pytest.raises(NonSimplePole):
        ergodic_projection(jordan_block(2, 1))
    p = ergodic_projection(diag_operator([0.5, -1.0]))
    assert np.allclose(p, 0.0, atol=1e-15)
    p = ergodic_projection(identity_operator(3))
    assert np.allclose(p, np.eye(3), atol=1e-15)


def test_ergodic_projection_properties():
    rng = np.random.default_rng(4)
    for trial in range(5):
        basis = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis += 4 * np.eye(4)  # keep it well conditioned
        eigs = np.array([1.0, 0.7 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                         -0.4, 0.2 + 0.3j])
        t = basis @ np.diag(eigs) @ np.linalg.inv(basis)
        p = ergodic_projection(t)
        assert np.max(np.abs(p @ p - p)) <= 1e-9
        assert np.max(np.abs(t @ p - p)) <= 1e-9
        assert np.max(np.abs(p @ t - p)) <= 1e-9


def test_mean_convergence_diag_example():
    rep = mean_convergence_report(cesaro(1), diag_operator([1.0, 0.5]), 128)
    vals = dict(rep.points)
    for n in (1, 7, 50, 128):
        oracle = (2.0 - 2.0 ** (-float(n))) / (n + 1)
        assert vals[n] == pytest.approx(oracle, rel=1e-12)
    rep_id = mean_convergence_report(cesaro(1), identity_operator(2), 32)
    assert np.allclose(rep_id.values, 0.0, atol=1e-14)
    rep_alt = mean_convergence_report(cesaro(1), diag_operator([-1.0]), 64)
    for n, v in rep_alt.points:
        oracle = 1.0 / (n + 1) if n % 2 == 0 else 0.0
        assert v == pytest.approx(oracle, abs=1e-14)


def _mean_norm_operators():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((4, 4))
    gram = dense @ dense.T + 4.0 * np.eye(4)
    return {
        "real": jordan_block(3, 1.0),
        "complex": random_operator(4, 1.0, 3),
        "dense_gram": OperatorModel(random_operator(4, 0.95, 5).matrix,
                                    GramGeometry.hermitian(gram)),
        "diagonal_gram": OperatorModel(jordan_block(3, 0.9).matrix,
                                       GramGeometry.diagonal([1.0, 2.0, 0.5])),
        # 2^14 cells hold 4 means of dimension 64: stacks of 4, 4, 4 and 1 or 2
        "d64": dirichlet_shift(0.5, 64, "backward"),
    }


def _row_route_norms(s, op, ns, mode, minus):
    vals = np.empty(ns.size)
    for part in linop._chunks(ns.size, op.dim ** 2):
        vals[part] = op.norm(apply_mean(s, op, ns[part]) - minus, mode=mode)
    return vals


@pytest.mark.parametrize("name", ["real", "complex", "dense_gram", "diagonal_gram", "d64"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_mean_norms_pascal_walk_matches_the_row_route(name, p, monkeypatch):
    op = _mean_norm_operators()[name]
    walks = []
    walk = means.cesaro_mean_sequence
    monkeypatch.setattr(means, "cesaro_mean_sequence",
                        lambda *args: walks.append(args) or walk(*args))
    rng = np.random.default_rng(p)
    shift = rng.standard_normal((op.dim, op.dim)) / op.dim
    last = 13 if op.dim == 64 else 40
    # consecutive indices from 0 and from 1, and ascending ones with gaps and
    # a repeat: the walk takes the means at the indices asked for
    index_lists = [np.arange(0, last + 1), np.arange(1, last + 1),
                   np.array([5, 6, 7, 20]), np.array([1, 5, 9]), np.array([3, 3, 4])]
    for ns in index_lists:
        for mode in ("spectral", "colsum", "rowsum"):
            for minus in (0.0, shift):
                got = mean_norms(cesaro(p), op, ns, mode, minus)
                want = _row_route_norms(cesaro(p), op, ns, mode, minus)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert len(walks) == len(index_lists) * 3 * 2


def test_mean_norms_past_the_old_binomial_bound_take_the_walk(monkeypatch):
    walks = []
    walk = means.cesaro_mean_sequence
    monkeypatch.setattr(means, "cesaro_mean_sequence",
                        lambda *args: walks.append(args) or walk(*args))
    op = random_operator(4, 1.0, 3)
    ns = np.arange(1, 101)
    # C(100 + 20, 20), about 1e22, is past the 2**64 that once sent this
    # sweep to the row route; the walk of the means forms no such number
    assert math.comb(120, 20) > 2 ** 64
    minus = np.eye(4) / 2
    for mode in ("spectral", "colsum"):
        got = mean_norms(cesaro(20), op, ns, mode, minus)
        want = _row_route_norms(cesaro(20), op, ns, mode, minus)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert len(walks) == 2


@pytest.mark.parametrize("s", [cesaro(2), abel()], ids=["pascal", "rows"])
def test_mean_norms_rejects_descending_indices(s):
    with pytest.raises(ValueError, match="ascending"):
        mean_norms(s, jordan_block(2, 1.0), [9, 5, 1])


def test_alternating_sum_residual_cases():
    t = diag_operator([0.5, 2.0])
    assert alternating_sum_residual(identity_powers(), t, 1, 0, 1, [1.0, 1.0], 9) == 0.0
    assert alternating_sum_residual(identity_powers(), t, 3, 1, 1, [1.0, 1.0], 5) == 0.0
    # scalar oracle at T = diag(-1), q = 2: |4 M_10 - (M_12 - 2 M_11 + M_10)|
    def mean_of_minus_one(n):
        return (1.0 / (n + 1)) if n % 2 == 0 else 0.0
    lhs = 4.0 * mean_of_minus_one(10)
    rhs = mean_of_minus_one(12) - 2.0 * mean_of_minus_one(11) + mean_of_minus_one(10)
    oracle = abs(lhs - rhs)
    got = alternating_sum_residual(cesaro(1), diag_operator([-1.0]), 2, 0, 1, [1.0], 10)
    assert got == pytest.approx(oracle, abs=1e-14)
    assert got <= 0.4
    later = alternating_sum_residual(cesaro(1), diag_operator([-1.0]), 2, 0, 1, [1.0], 40)
    assert later < got


def test_alternating_sum_decay_on_contractive_part():
    t = diag_operator([1.0, 0.5])
    x = np.array([0.0, 1.0])
    values = [alternating_sum_residual(cesaro(1), t, 1, 0, 1, x, n)
              for n in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(values, values[1:]))
    # O(1/n): quadrupling n quarters the residual, roughly
    assert values[-1] <= values[0] / 8.0


def test_gamma_quotient_unimodular_plus_decay():
    t = diag_operator([1.0, np.exp(1j * np.pi / 3.0), 0.5])
    model = gamma_quotient(t, identity_powers(), 0, (256, 512))
    assert model.kernel_basis.shape[1] == 1
    assert model.quotient_dim == 2
    assert model.isometry_defect <= 1e-6
    eigs = np.sort_complex(np.linalg.eigvals(model.induced_op))
    expected = np.sort_complex(np.array([1.0, np.exp(1j * np.pi / 3.0)]))
    assert np.max(np.abs(eigs - expected)) <= 1e-8
    # kernel direction is the decaying coordinate
    assert np.abs(model.kernel_basis[2, 0]) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(model.quotient_map @ model.kernel_basis)) <= 1e-12


def test_gamma_quotient_degenerate_cases():
    nil = gamma_quotient(jordan_block(3, 0.0), identity_powers(), 0, (8, 40))
    assert nil.quotient_dim == 0
    all_kernel = gamma_quotient(identity_operator(3), identity_powers(), 1, (8, 40))
    assert all_kernel.quotient_dim == 0
    full = gamma_quotient(identity_operator(3), identity_powers(), 0, (8, 40))
    assert full.quotient_dim == 3
    assert np.max(np.abs(full.induced_op - np.eye(3))) <= 1e-10
    with pytest.raises(WindowTooSmall):
        gamma_quotient(identity_operator(2), identity_powers(), 0, (8, 16))


def test_gamma_quotient_measures_its_window_from_the_scheme_first_row():
    # the Abel rows start at n = 1: (0, 16) covers rows 1..16, as (1, 16) does
    for window in ((0, 16), (1, 16)):
        with pytest.raises(WindowTooSmall):
            gamma_quotient(identity_operator(2), abel(), 0, window)
    assert gamma_quotient(identity_operator(2), abel(), 0, (0, 17)).quotient_dim == 2


@pytest.mark.parametrize("kernel_tol", [0.0, -1.0, float("nan")])
def test_gamma_quotient_rejects_a_kernel_tol_that_is_not_positive(kernel_tol):
    with pytest.raises(ValueError, match="kernel_tol"):
        gamma_quotient(identity_operator(2), identity_powers(), 0, (8, 40), kernel_tol)


def test_gamma_quotient_matches_the_per_map_probe_loop():
    # oracle: the window maps one at a time, each probe's gamma as a max of
    # single vector norms, and the Gram as a sum of per-map products
    a = np.diag([1.0, np.exp(2j * np.pi / 7.0), 0.6]) + 0.2 * np.eye(3, k=1)
    t = OperatorModel(a, GramGeometry.diagonal([1.0, 2.0, 0.5]))
    model = gamma_quotient(t, cesaro(2), 1, (40, 72))
    b = a - np.eye(3)
    factor = np.sqrt([1.0, 2.0, 0.5])[:, None]
    maps = [factor * (apply_mean(cesaro(2), t, n) @ b) for n in range(40, 73)]
    rng = np.random.default_rng(0x5EED)
    probes = list(np.eye(3))
    for _ in range(8):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        probes.append(v / np.linalg.norm(v))

    def gamma_of(x, sel):
        return max(float(np.linalg.norm(c @ x)) for c in sel)

    half = len(maps) // 2
    for key, sel in (("window", maps), ("first_half", maps[:half]),
                     ("second_half", maps[half:])):
        np.testing.assert_allclose(model.gamma_values[key],
                                   [gamma_of(x, sel) for x in probes], rtol=1e-12, atol=0.0)
    gram = sum(c.conj().T @ c for c in maps) / len(maps)
    sigma = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
    assert model.quotient_dim == int(np.sum(sigma >= model.threshold)) == 2
    defect = max(abs(gamma_of(a @ x, maps) - gamma_of(x, maps)) for x in probes)
    assert model.isometry_defect == pytest.approx(defect, rel=1e-9, abs=1e-15)


def test_direct_sum_consequence_for_cesaro():
    # diag(unimodular != 1, 1, modulus < 1): every basis direction either
    # converges to its projection or carries vanishing gamma
    mu = np.exp(2j * np.pi / 5.0)
    t = diag_operator([mu, 1.0, 0.4])
    proj = ergodic_projection(t)
    for i in range(3):
        x = np.eye(3, dtype=complex)[:, i]
        m_big, m_bigger = apply_mean(cesaro(1), t, [400, 800], x=x)
        target = proj @ x
        assert np.linalg.norm(m_bigger - target) <= np.linalg.norm(m_big - target) + 1e-12
        assert np.linalg.norm(m_bigger - target) <= 5e-3
    model = gamma_quotient(t, cesaro(1), 0, (256, 512))
    gammas = model.gamma_values["window"][:3]
    # x - Px spans the two non-fixed directions: their gamma is ~ 2/(n+1)
    assert gammas[0] <= 0.01 and gammas[2] <= 0.01
    assert gammas[1] == pytest.approx(1.0, abs=1e-10)


def test_almost_convergence_alternating_scalar():
    t = diag_operator([-1.0])
    p0 = np.zeros((1, 1))
    for k in (4, 9, 32):
        d = almost_convergence_defect(identity_powers(), t, p0, k, 64, [1.0])
        oracle = 1.0 / (k + 1) if k % 2 == 0 else 0.0
        assert d == pytest.approx(oracle, abs=1e-14)
        assert d <= 1.0 / (k + 1)
    d = almost_convergence_defect(cesaro(1), identity_operator(2), np.eye(2), 5, 32,
                                  [1.0, -2.0])
    assert d <= 1e-14


def test_almost_convergence_window_average_oracle():
    # explicit scalar means: sup_n (1/(k+1)) sum_j M_{n+j}(0.5), here at n=0
    t = diag_operator([1.0, 0.5])
    k, n_sup = 32, 256
    means_05 = [(2.0 - 2.0 ** (-float(n))) / (n + 1) for n in range(n_sup + k + 1)]
    oracle = max(sum(means_05[n:n + k + 1]) / (k + 1) for n in range(n_sup + 1))
    got = almost_convergence_defect(cesaro(1), t, np.diag([1.0, 0.0]), k, n_sup,
                                    [1.0, 1.0])
    assert got == pytest.approx(oracle, rel=1e-12)
    # decreasing in k (the almost-convergence limit)
    got_k64 = almost_convergence_defect(cesaro(1), t, np.diag([1.0, 0.0]), 64, n_sup,
                                        [1.0, 1.0])
    assert got_k64 < got


def test_abel_rows_in_vector_sweeps():
    # infinite-row scheme applied to a vector: the walk carries T^j x
    t = diag_operator([0.9, -0.5])
    x = np.array([1.0, 1.0])
    v = apply_mean(abel(), t, 12, x=x)
    r = 1.0 - 1.0 / 12.0
    oracle = (1.0 - r) / (1.0 - r * np.array([0.9, -0.5]))
    assert np.allclose(v, oracle, atol=1e-11)
