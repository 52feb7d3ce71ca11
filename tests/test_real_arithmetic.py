"""A real operator stays real, and its real route agrees with a complex one.

``OperatorModel`` is the one place that chooses an operator's dtype: it
keeps what ``as_matrix`` returns and drops an imaginary part that is
identically zero.  The oracle below conjugates a real operator by a diagonal
unitary U = diag(e^{i phi_k}); U A U* is genuinely complex, so it takes the
complex route, and in the Euclidean geometry every norm below is invariant
under the conjugation.
"""

import numpy as np
import pytest

from ergolab import linop
from ergolab.cli import parse_operator
from ergolab.ergodic import (
    ergodic_projection,
    mean_convergence_report,
    power_norm_sequence,
)
from ergolab.means import (
    abel,
    apply_mean,
    backward_iterate,
    binomial,
    cesaro,
    identity_powers,
    power_series,
    zweier,
)
from ergolab.spectral import AnnulusGrid, cesaro_mean_sequence, kreiss_functional

REAL_BUILTINS = [
    "jordan:2:1",
    "jordan:3:0.5",
    "diag:1,0.5",
    "dirichlet:0.5:8:forward",
    "dirichlet:1.0:8:backward",
    "volterra:6",
    "identity_minus_volterra:6",
]


@pytest.mark.parametrize("spec", REAL_BUILTINS)
def test_real_builtin_is_a_float_matrix(spec):
    assert parse_operator(spec).matrix.dtype == np.float64


def test_operator_file_with_zero_imaginary_part_is_real(tmp_path):
    path = tmp_path / "op.json"
    linop.save_operator(linop.jordan_block(3, 0.5), path)
    assert linop.load_operator(path).matrix.dtype == np.float64
    linop.save_matrix(np.array([[0.5, 1.0], [0.0, 0.25]]), tmp_path / "m.json")
    assert linop.load_operator(tmp_path / "m.json").matrix.dtype == np.float64


def test_constructors_and_complex_data():
    assert linop.identity_operator(3).matrix.dtype == np.float64
    assert linop.diag_operator([1.0, 0.5 + 0j]).matrix.dtype == np.float64
    t = linop.OperatorModel(np.eye(2, dtype=complex))
    assert t.matrix.dtype == np.float64 and t.matrix.flags.c_contiguous
    # a nonzero imaginary part, however small, keeps the operator complex
    assert np.iscomplexobj(parse_operator("jordan:2:1j").matrix)
    assert np.iscomplexobj(parse_operator("diag:1,1e-300j").matrix)
    assert np.iscomplexobj(linop.random_operator(4).matrix)


def test_real_operator_stays_real_through_powers_means_and_projection():
    t = parse_operator("jordan:3:0.5")
    assert linop.power(t, 5).dtype == np.float64
    assert linop.power(t, 0).dtype == np.float64
    for s in (cesaro(2), abel(), zweier(), binomial(), identity_powers()):
        assert apply_mean(s, t, 6).dtype == np.float64
    assert all(m.dtype == np.float64 for _, m in cesaro_mean_sequence(t, 2, 6))
    fixed = linop.OperatorModel(np.array([[1.0, 1.0], [0.0, 0.5]]))
    proj = ergodic_projection(fixed)
    assert proj.dtype == np.float64
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)
    np.testing.assert_allclose(fixed.matrix @ proj, proj, atol=1e-14)
    assert ergodic_projection(linop.diag_operator([1.0, 0.5])).dtype == np.float64


def test_non_real_rotation_is_complex():
    t = parse_operator("jordan:3:0.5")
    assert np.iscomplexobj(apply_mean(cesaro(1), t, 6, lam=1j))
    assert all(np.iscomplexobj(m) for n, m in cesaro_mean_sequence(t, 1, 6, 1j)
               if n >= 1)


def _real_operator(eigenvalues, seed):
    """S diag(eigenvalues) S^{-1} for a real S: real, with every entry off the
    diagonal nonzero."""
    d = len(eigenvalues)
    s = np.random.default_rng(seed).standard_normal((d, d)) + 2.0 * np.eye(d)
    a = s @ np.diag(eigenvalues) @ np.linalg.inv(s)
    assert np.all(a[~np.eye(d, dtype=bool)] != 0.0)
    return a


def _gauge(a, seed):
    phi = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, a.shape[0])
    u = np.exp(1j * phi)
    return u[:, None] * a * u.conj()[None, :]


@pytest.fixture
def real_and_gauged():
    a = _real_operator([1.0, 0.9, -0.6, 0.3, 0.5], seed=3)
    real = linop.OperatorModel(a, label="A")
    gauged = linop.OperatorModel(_gauge(a, seed=4), label="UAU*")
    assert real.matrix.dtype == np.float64
    assert np.iscomplexobj(gauged.matrix)
    return real, gauged


@pytest.mark.parametrize("mode", ["spectral", "colsum"])
def test_gauge_oracle_power_norms(real_and_gauged, mode):
    real, gauged = real_and_gauged
    a = power_norm_sequence(real, 64, mode).values
    b = power_norm_sequence(gauged, 64, mode).values
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


SCHEMES = [cesaro(1), cesaro(3), abel(), zweier(), binomial(), identity_powers(),
           power_series([1.0, 2.0, 1.0]),
           power_series(lambda j: 1.0 / (j + 1.0) ** 2),
           backward_iterate(cesaro(1)), backward_iterate(binomial())]


@pytest.mark.parametrize("s", SCHEMES, ids=lambda s: s.name)
def test_gauge_oracle_mean_norms(real_and_gauged, s):
    real, gauged = real_and_gauged
    for n in range(max(s.min_n, 1), 25):
        a = real.norm(apply_mean(s, real, n))
        b = gauged.norm(apply_mean(s, gauged, n))
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [cesaro(1), abel(), binomial()], ids=lambda s: s.name)
def test_gauge_oracle_mean_convergence(real_and_gauged, s):
    real, gauged = real_and_gauged
    a = mean_convergence_report(s, real, 32).values
    b = mean_convergence_report(s, gauged, 32).values
    assert np.all(a > 1e-3)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("r", [0, 1])
def test_gauge_oracle_kreiss_functional(real_and_gauged, r):
    real, gauged = real_and_gauged
    grid = AnnulusGrid.dyadic(kmax=5, angles=16)
    a = kreiss_functional(real, r, grid)
    b = kreiss_functional(gauged, r, grid)
    assert a.skipped == b.skipped == 0
    assert a.value == pytest.approx(b.value, rel=1e-12, abs=0.0)
    np.testing.assert_allclose([v for _, v in a.radius_profile],
                               [v for _, v in b.radius_profile], rtol=1e-12, atol=0.0)
