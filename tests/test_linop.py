import json

import numpy as np
import pytest

from ergolab import linop
from ergolab.ergodic import almost_convergence_defect, alternating_sum_residual
from ergolab.linop import (
    BadDimension,
    DimensionMismatch,
    GramGeometry,
    NonPositiveDefiniteGram,
    OperatorModel,
    as_operator,
    dirichlet_shift,
    jordan_block,
    op_norm,
    power,
    random_operator,
    volterra_operator,
)
from ergolab.means import (
    SpectralRadiusTooLarge,
    abel,
    apply_mean,
    cesaro,
    regularity_defect,
)
from ergolab.spectral import resolvent_norm


def test_op_norm_identity():
    assert op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)


def test_op_norm_jordan_factor_golden_ratio():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    # oracle: char poly of A*A is x^2 - 3x + 1, largest root (3+sqrt5)/2
    sigma_sq = np.roots([1.0, -3.0, 1.0]).max()
    assert op_norm(a) == pytest.approx(np.sqrt(sigma_sq), rel=1e-12)
    assert op_norm(a) == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)


def test_op_norm_geometry_conjugation_of_identity():
    g = GramGeometry.diagonal([1.0, 4.0])
    assert op_norm(np.eye(2), dom=g, cod=g) == pytest.approx(1.0, abs=1e-12)


def test_op_norm_geometry_equals_explicit_conjugation():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gram = b.conj().T @ b + np.eye(4)
    g = GramGeometry.hermitian(gram)
    ell = g.factor()
    explicit = op_norm(ell @ a @ np.linalg.inv(ell))
    assert op_norm(a, dom=g, cod=g) == pytest.approx(explicit, abs=1e-9)


def test_op_norm_submultiplicative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_op_norm_modes():
    a = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert op_norm(a, mode="colsum") == pytest.approx(6.0)
    assert op_norm(a, mode="rowsum") == pytest.approx(7.0)
    with pytest.raises(ValueError):
        op_norm(a, mode="nuclear")


def test_op_norm_dimension_mismatch():
    g = GramGeometry.diagonal([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        op_norm(np.eye(2), dom=g)


def test_gram_validation():
    with pytest.raises(NonPositiveDefiniteGram):
        GramGeometry.diagonal([1.0, 0.0])
    with pytest.raises(NonPositiveDefiniteGram):
        GramGeometry.hermitian(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eig -1
    with pytest.raises(NonPositiveDefiniteGram):
        GramGeometry.hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian


def test_gram_factor_property():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    gram = b.conj().T @ b + 2 * np.eye(5)
    g = GramGeometry.hermitian(gram)
    ell = g.factor()
    assert np.allclose(ell.conj().T @ ell, g.dense, atol=1e-12)


def _tridiagonal_bands(n, seed=7):
    """Bands of a random diagonally dominant (so positive definite) real
    symmetric tridiagonal matrix."""
    rng = np.random.default_rng(seed)
    off = rng.standard_normal(n - 1)
    diag = np.abs(np.concatenate([off, [0.0]])) + np.abs(np.concatenate([[0.0], off]))
    return diag + rng.uniform(0.5, 2.0, n), off


def test_tridiagonal_geometry_factor_reproduces_gram():
    # route: bands -> banded Cholesky -> dense upper-bidiagonal real factor
    diag, off = _tridiagonal_bands(9)
    g = GramGeometry.tridiagonal(diag, off)
    ell = g.factor()
    assert not np.iscomplexobj(ell) and not np.iscomplexobj(g.matrix())
    assert np.array_equal(ell, np.triu(np.tril(ell, 1)))
    assert np.allclose(ell.T @ ell, g.matrix(), rtol=0, atol=1e-12)
    assert np.array_equal(g.matrix(),
                          np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    one = GramGeometry.tridiagonal([4.0], [])
    assert one.factor()[0, 0] == 2.0


def test_tridiagonal_geometry_rejects_bad_bands():
    # route: bands -> banded Cholesky failure -> NonPositiveDefiniteGram
    with pytest.raises(NonPositiveDefiniteGram):
        GramGeometry.tridiagonal([1.0, 1.0], [2.0])  # eigenvalues 3 and -1
    with pytest.raises(NonPositiveDefiniteGram):
        GramGeometry.tridiagonal([1.0, -1.0, 1.0], [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        GramGeometry.tridiagonal([1.0, 1.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        GramGeometry(2, diag=[1.0, 1.0], bands=([1.0, 1.0], [0.0]))


def _real_gram_geometry(kind, n, seed):
    if kind == "diagonal":
        return GramGeometry.diagonal(np.arange(1.0, n + 1.0))
    if kind == "dense":
        b = np.random.default_rng(seed).standard_normal((n, n))
        return GramGeometry.hermitian(b.T @ b + np.eye(n))
    return GramGeometry.tridiagonal(*_tridiagonal_bands(n, seed))


@pytest.mark.parametrize("kind", ["diagonal", "dense", "tridiagonal"])
def test_real_operand_matches_its_complex_copy(kind):
    # route: real operand -> real factor products -> real SVD, against the
    # complex operand's complex route, in each geometry kind
    rng = np.random.default_rng(11)
    a = rng.standard_normal((14, 10))
    dom, cod = _real_gram_geometry(kind, 10, 1), _real_gram_geometry(kind, 14, 2)
    real = op_norm(a, dom, cod)
    assert real == pytest.approx(op_norm(a.astype(complex), dom, cod), rel=1e-14)
    assert real == pytest.approx(op_norm(a + 0j, dom, cod), rel=1e-14)


@pytest.mark.parametrize("mode", ["spectral", "colsum", "rowsum"])
@pytest.mark.parametrize("kind", [None, "diagonal", "dense", "tridiagonal"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_op_norm_equals_per_matrix_norms(kind, mode, dtype):
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((2, 3, 14, 10)).astype(dtype)
    if dtype is complex:
        stack += 1j * rng.standard_normal(stack.shape)
    dom = cod = None
    if kind is not None:
        dom, cod = _real_gram_geometry(kind, 10, 1), _real_gram_geometry(kind, 14, 2)
    got = op_norm(stack, dom, cod, mode=mode)
    assert got.shape == (2, 3)
    assert got.tolist() == [[op_norm(a, dom, cod, mode=mode) for a in row] for row in stack]
    assert type(op_norm(stack[0, 0], dom, cod, mode=mode)) is float


def _with_zero_lines(rng, shape, dtype):
    """A random matrix, or stack, with random zero rows and columns, plus
    zero trailing rows and leading columns: those stay zero under the
    triangular factors of the dense and tridiagonal geometries, so every
    geometry kind leaves a core smaller than the matrix."""
    a = rng.standard_normal(shape).astype(dtype)
    if dtype is complex:
        a += 1j * rng.standard_normal(shape)
    m, n = shape[-2:]
    a[..., rng.random(m) < 0.3, :] = 0.0
    a[..., :, rng.random(n) < 0.3] = 0.0
    a[..., m - 2:, :] = 0.0
    a[..., :, :2] = 0.0
    return a


def _full_svd_norms(a, dom, cod):
    """Oracle: the largest singular value of the whole conjugated matrix,
    zero rows and columns included."""
    b = a if cod is None else cod.apply_factor(a)
    b = b if dom is None else dom.apply_factor_inverse_right(b)
    assert not np.all(np.any(b != 0, axis=-1))  # some row is dropped
    return np.linalg.svd(b, compute_uv=False)[..., 0]


@pytest.mark.parametrize("shape", [(12, 12), (14, 10), (9, 13)])
@pytest.mark.parametrize("kind", [None, "diagonal", "dense", "tridiagonal"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_norm_of_the_nonzero_core_matches_the_full_svd(shape, kind, dtype):
    rng = np.random.default_rng(sum(shape))
    dom = cod = None
    if kind is not None:
        dom, cod = (_real_gram_geometry(kind, shape[1], 1),
                    _real_gram_geometry(kind, shape[0], 2))
    for _ in range(5):
        a = _with_zero_lines(rng, shape, dtype)
        assert op_norm(a, dom, cod) == pytest.approx(_full_svd_norms(a, dom, cod),
                                                      rel=1e-14)


@pytest.mark.parametrize("kind", [None, "diagonal", "dense", "tridiagonal"])
def test_stack_is_reduced_by_the_union_of_its_zero_patterns(kind):
    rng = np.random.default_rng(5)
    dom = cod = None
    if kind is not None:
        dom, cod = _real_gram_geometry(kind, 10, 1), _real_gram_geometry(kind, 12, 2)
    # mixed patterns: each matrix is normed on the union core, to rounding
    mixed = np.stack([_with_zero_lines(rng, (12, 10), float) for _ in range(6)])
    got = op_norm(mixed, dom, cod)
    assert got.shape == (6,)
    for a, value in zip(mixed, got):
        assert value == pytest.approx(_full_svd_norms(a, dom, cod), rel=1e-14)
        assert value == pytest.approx(op_norm(a, dom, cod), rel=1e-14)
    # one shared pattern: the stack is one call per matrix, bit for bit
    shared = rng.standard_normal((6, 12, 10)) * (mixed[0] != 0)
    assert op_norm(shared, dom, cod).tolist() == [op_norm(a, dom, cod) for a in shared]


def test_all_zero_matrix_and_stack_have_norm_zero():
    value = op_norm(np.zeros((3, 3)))
    assert type(value) is float and value == 0.0
    stack = op_norm(np.zeros((2, 4, 3, 5)), cod=GramGeometry.diagonal([1.0, 2.0, 3.0]))
    assert stack.shape == (2, 4) and not np.any(stack)
    # an all-zero matrix inside a stack is normed with the rest
    mixed = np.zeros((3, 4, 4))
    mixed[1, 0, 2] = -2.5
    assert op_norm(mixed).tolist() == [0.0, 2.5, 0.0]


def _partial_permutation(rng, shape, dtype, scale=1.0, stack=()):
    """Weighted partial permutations (one shared pattern for a stack): k of
    the rows, k of the columns, a random bijection between them and nonzero
    weights of magnitude in [scale, 4 scale)."""
    m, n = shape
    k = int(rng.integers(1, min(m, n) + 1))
    rows = rng.choice(m, k, replace=False)
    cols = rng.choice(n, k, replace=False)
    w = scale * rng.uniform(1.0, 4.0, stack + (k,)) * rng.choice([-1.0, 1.0], stack + (k,))
    if dtype is complex:
        w = w * np.exp(2j * np.pi * rng.random(stack + (k,)))
    a = np.zeros(stack + shape, dtype=dtype)
    a[..., rows, cols] = w
    return a


@pytest.mark.parametrize("shape", [(9, 9), (11, 7), (6, 10)])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_one_nonzero_per_line_core_matches_the_full_svd_without_taking_one(
        shape, dtype, scale, monkeypatch):
    rng = np.random.default_rng(shape[0] * shape[1])
    singles = [_partial_permutation(rng, shape, dtype, scale) for _ in range(6)]
    shared = _partial_permutation(rng, shape, dtype, scale, stack=(5,))
    # mixed patterns whose union is one partial permutation: each matrix
    # keeps a random part of the shared pattern
    mixed = shared * (rng.random(shared.shape) < 0.5)
    mixed[0] = shared[0]
    oracle = [np.linalg.svd(a, compute_uv=False)[0] for a in singles]
    stack_oracles = [np.linalg.svd(st, compute_uv=False)[..., 0] for st in (shared, mixed)]
    assert np.all(np.isfinite(oracle)) and max(oracle) >= scale

    def no_svd(*args, **kwargs):
        raise AssertionError("a one-nonzero-per-line core took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for a, value in zip(singles, oracle):
        assert op_norm(a) == pytest.approx(value, rel=1e-15)
    for st, values in zip((shared, mixed), stack_oracles):
        got = op_norm(st)
        assert got.shape == (5,)
        assert got == pytest.approx(values, rel=1e-15)
    # a diagonal geometry keeps the pattern, so it needs no SVD either
    dom = GramGeometry.diagonal(np.arange(1.0, shape[1] + 1.0))
    cod = GramGeometry.diagonal(np.arange(2.0, shape[0] + 2.0))
    conj = np.sqrt(cod.diag)[:, None] * singles[0] / np.sqrt(dom.diag)[None, :]
    assert op_norm(singles[0], dom, cod) == pytest.approx(np.max(np.abs(conj)), rel=1e-15)


def test_two_nonzeros_on_a_line_still_take_the_svd():
    # a kept line holding two nonzeros: the popcount rule must not take it
    assert op_norm(np.array([[1.0, 1.0], [0.0, 0.0]])) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert op_norm(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])) == \
        pytest.approx(5.0, rel=1e-15)
    # two different permutations in one stack: the union has two per line
    stack = np.stack([np.eye(3), np.eye(3)[::-1] * 2.0])
    stack[0, 0, 1] = 1.0
    assert op_norm(stack) == pytest.approx(
        np.linalg.svd(stack, compute_uv=False)[:, 0], rel=1e-14)


def test_operator_model_and_wire_format_reject_a_stack():
    with pytest.raises(DimensionMismatch):
        OperatorModel(np.zeros((2, 3, 3)))
    with pytest.raises(DimensionMismatch):
        linop.matrix_to_obj(np.zeros((2, 3, 3)))
    with pytest.raises(DimensionMismatch):
        op_norm(np.ones(3))


def test_jordan_block_values():
    assert np.allclose(jordan_block(1, 0.5).matrix, [[0.5]])
    j2 = jordan_block(2, 1.0)
    # oracle: repeated multiplication
    naive = np.eye(2, dtype=complex)
    for _ in range(7):
        naive = naive @ j2.matrix
    assert np.allclose(naive, [[1, 7], [0, 1]])
    j3 = jordan_block(3, 1j)
    nil = j3.matrix - 1j * np.eye(3)
    assert np.all(power(nil, 3) == 0)
    with pytest.raises(BadDimension):
        jordan_block(0, 1.0)


def test_dirichlet_shift_weights():
    t = dirichlet_shift(1.0, 5, "forward")
    assert np.allclose(np.diag(t.matrix, -1), 1.0)  # exponent (1-alpha)/2 = 0
    t0 = dirichlet_shift(0.0, 5, "forward")
    assert t0.matrix[1, 0] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    back = dirichlet_shift(0.0, 8, "backward")
    assert back.norm() == pytest.approx(np.sqrt(2.0), rel=1e-10)  # largest weight
    assert np.allclose(back.matrix, dirichlet_shift(0.0, 8, "forward").matrix.T)
    with pytest.raises(BadDimension):
        dirichlet_shift(0.0, 1, "forward")


def test_dirichlet_two_isometry_identity():
    # ||T x||^2 - ||x||^2 = sum |monomial coefficients of x|^2 for alpha = 0,
    # where e_k = (k+1)^{-1/2} z^k; valid while the shift does not truncate.
    n = 12
    t = dirichlet_shift(0.0, n, "forward")
    rng = np.random.default_rng(1)
    x = np.zeros(n, dtype=complex)
    x[: n - 1] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    monomial = x[: n - 1] / np.sqrt(np.arange(1, n))
    lhs = np.linalg.norm(t.matrix @ x) ** 2 - np.linalg.norm(x) ** 2
    assert lhs == pytest.approx(np.sum(np.abs(monomial) ** 2), rel=1e-10)


def test_volterra_trapezoid_rows():
    v = volterra_operator(2)
    assert np.allclose(v.matrix[2], [0.25, 0.5, 0.25])
    assert np.allclose(v.matrix[0], 0.0)
    # exact on constants: integral of 1 is t_i
    v4 = volterra_operator(4)
    nodes = np.linspace(0.0, 1.0, 5)
    assert np.allclose(v4.matrix @ np.ones(5), nodes, atol=1e-15)
    # exact on linear integrands: integral of t is t^2/2
    assert np.allclose(v4.matrix @ nodes, nodes**2 / 2.0, atol=1e-15)
    with pytest.raises(BadDimension):
        volterra_operator(1)


def test_power_basics():
    t = random_operator(3, 0.8, seed=9)
    assert np.allclose(power(t, 0), np.eye(3))
    assert np.allclose(power(np.diag([1j]), 4), np.diag([1.0 + 0j]), atol=1e-15)


# starts at 0, repeats, has gaps of 1 (0 -> 1, 5 -> 6, 13 -> 14) and longer
WALK_NS = [0, 0, 1, 2, 5, 5, 6, 13, 14, 40, 40]


def _walk_operators():
    """A real upper and a real lower triangular operator, and a complex
    dense one, all with norm about 1."""
    rng = np.random.default_rng(11)
    upper = np.triu(rng.standard_normal((5, 5))) / 3.0
    dense = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    return [upper, upper.T.copy(), dense / op_norm(dense)]


@pytest.mark.parametrize("via_trmm", [False, True], ids=["matmul", "trmm"])
@pytest.mark.parametrize("form", ["matrix", "vector", "block"])
def test_power_walk_matches_power_at_every_index(via_trmm, form, request):
    rng = np.random.default_rng(12)
    ops = _walk_operators()
    lefts = {"matrix": None, "vector": 1, "block": 3}
    k = lefts[form]
    left = None if k is None else rng.standard_normal((k, 5)) + 1j * rng.standard_normal((k, 5))
    # the references are the powers, walked by @ before any threshold change
    refs = [[power(a, n) if left is None else left @ power(a, n) for n in WALK_NS]
            for a in ops]
    lookups = request.getfixturevalue("trmm_lookups") if via_trmm else []
    for a, expected in zip(ops, refs):
        walked = list(linop._power_walk(a, WALK_NS, left))
        assert len(walked) == len(WALK_NS)
        for p, ref in zip(walked, expected):
            assert p.dtype == ref.dtype and p.shape == ref.shape
            np.testing.assert_allclose(p, ref, rtol=1e-13, atol=1e-15)
        # n = 0 is the identity, or left itself
        assert np.array_equal(walked[0], np.eye(5) if left is None else left)
    assert lookups == (["trmm", "trmm"] if via_trmm else [])


def test_power_is_a_fresh_array():
    t = jordan_block(3, 0.5)
    before = t.matrix.copy()
    for n in (0, 1, 2, 3):
        p = power(t, n)
        p[0, 0] = 99.0
        assert np.array_equal(t.matrix, before)
        assert np.array_equal(power(t, n), np.linalg.matrix_power(before, n))


def test_power_additivity():
    rng = np.random.default_rng(7)
    for dim, m, n in [(2, 3, 5), (5, 17, 12), (8, 64, 33)]:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a /= op_norm(a)  # keep products well-scaled
        left = power(a, m + n)
        right = power(a, m) @ power(a, n)
        assert np.max(np.abs(left - right)) <= 1e-10 * max(1.0, np.max(np.abs(left)))


def test_matrix_json_round_trip(tmp_path):
    a = np.array([[1.0 + 2j, 3.0], [0.0, -1j]])
    path = tmp_path / "m.json"
    linop.save_matrix(a, path)
    with open(path) as fh:
        obj = json.load(fh)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["re"][0] == 1.0 and obj["im"][0] == 2.0  # row-major
    assert np.array_equal(linop.load_matrix(path), a)


def test_gram_json_round_trip(tmp_path):
    diag = GramGeometry.diagonal([1.0, 2.5])
    path = tmp_path / "g.json"
    linop.save_gram(diag, path)
    loaded = linop.load_gram(path)
    assert loaded.is_diagonal and np.array_equal(loaded.diag, diag.diag)
    dense = GramGeometry.hermitian(np.array([[2.0, 1j], [-1j, 2.0]]))
    linop.save_gram(dense, path)
    loaded = linop.load_gram(path)
    assert not loaded.is_diagonal
    assert np.allclose(loaded.dense, dense.dense)


def test_operator_file_round_trip(tmp_path):
    t = OperatorModel(np.array([[1.0, 0.5], [0.0, 1j]]),
                      geometry=GramGeometry.diagonal([1.0, 3.0]), label="demo")
    path = tmp_path / "op.json"
    linop.save_operator(t, path)
    loaded = linop.load_operator(path)
    assert loaded.label == "demo"
    assert np.array_equal(loaded.matrix, t.matrix)
    assert np.array_equal(loaded.geometry.diag, t.geometry.diag)
    # bare matrix object is also accepted
    linop.save_matrix(t.matrix, path)
    assert np.array_equal(linop.load_operator(path).matrix, t.matrix)


def test_operator_model_validation():
    with pytest.raises(DimensionMismatch):
        OperatorModel(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        OperatorModel(np.eye(2), geometry=GramGeometry.diagonal([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        linop.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_as_operator():
    t = jordan_block(2, 0.5)
    assert as_operator(t) is t
    wrapped = as_operator([[1.0, 2.0], [0.0, 1.0]])
    assert wrapped.label == "operator"
    assert wrapped.geometry is None
    assert np.array_equal(wrapped.matrix, [[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        as_operator(np.ones((2, 3)))


_FORM_WEIGHTS = np.array([1.0, 4.0, 9.0, 16.0])


def _operator_forms(m):
    return {
        "matrix": m,
        "model": OperatorModel(m),
        "gram_model": OperatorModel(m, geometry=GramGeometry.diagonal(_FORM_WEIGHTS)),
    }


def _coerced_values(t, x):
    s = cesaro(1)
    return [
        regularity_defect(s, t, 1, x, 8),
        alternating_sum_residual(s, t, 2, 0, 1, x, 8),
        almost_convergence_defect(s, t, np.zeros((4, 4)), 3, 8, x),
        resolvent_norm(t, 1.5 + 0.5j),
    ]


@pytest.mark.parametrize("form", ["matrix", "model", "gram_model"])
def test_every_operator_form_takes_one_route(form):
    m = random_operator(4, 0.9, seed=11).matrix
    x = np.array([1.0, -2.0, 0.5j, 1.0])
    got = _coerced_values(_operator_forms(m)[form], x)
    euclidean = _coerced_values(m, x)
    if form == "gram_model":
        # the diagonal Gram D^2 turns T into D T D^-1 on D x in Euclidean terms
        d = np.sqrt(_FORM_WEIGHTS)
        conjugated = _coerced_values(d[:, None] * m / d[None, :], d * x)
        assert got == pytest.approx(conjugated, rel=1e-10)
        assert all(abs(g - e) > 1e-6 * e for g, e in zip(got, euclidean))
    else:
        assert got == euclidean
    hot = _operator_forms(m * (1.1 / 0.9))[form]
    with pytest.raises(SpectralRadiusTooLarge):
        apply_mean(abel(), hot, 4)
