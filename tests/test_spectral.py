import json

import numpy as np
import pytest

from ergolab import cli, spectral
from ergolab.linop import (
    GramGeometry,
    OperatorModel,
    as_operator,
    diag_operator,
    dirichlet_shift,
    identity_operator,
    jordan_block,
    op_norm,
    power,
    random_operator,
    save_operator,
)
from ergolab.means import SpectralRadiusTooLarge, apply_mean, cesaro
from ergolab.spectral import (
    AnnulusGrid,
    SingularResolvent,
    _first_max,
    _pascal_sums,
    abel_summation_residual,
    cesaro_mean_sequence,
    kreiss_functional,
    mean_growth_functional,
    partial_sum_functional,
    resolvent_norm,
    resolvent_series_residual,
    uniform_kreiss_mean_bound,
)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def scalar_op(z):
    return OperatorModel(np.array([[z]], dtype=complex))


def test_annulus_grid_validation():
    with pytest.raises(ValueError):
        AnnulusGrid((1.5, 1.5), 64)
    with pytest.raises(ValueError):
        AnnulusGrid((0.5,), 64)
    with pytest.raises(ValueError):
        AnnulusGrid((1.5, 1.25), 4)
    g = AnnulusGrid.dyadic(3, 8)
    assert g.radii == (1.5, 1.25, 1.125)


def test_resolvent_norm_examples():
    assert resolvent_norm(scalar_op(0.0), 2.0) == pytest.approx(0.5, abs=1e-14)
    # explicit inverse of jordan(2,1) - 2I is [[-1,-1],[0,-1]]; oracle = SVD
    assert resolvent_norm(jordan_block(2, 1), 2.0) == pytest.approx(GOLDEN, rel=1e-12)
    mu = np.exp(1j * np.pi / 4.0)
    assert resolvent_norm(scalar_op(mu), 1.5 * mu) == pytest.approx(2.0, rel=1e-12)


def test_resolvent_singular():
    with pytest.raises(SingularResolvent):
        resolvent_norm(diag_operator([1.0, 0.5]), 1.0)


def test_resolvent_first_identity():
    t = random_operator(5, 0.9, seed=31)
    lam, mu = 1.7 + 0.3j, -1.4 + 0.9j
    eye = np.eye(5, dtype=complex)
    r_lam = np.linalg.solve(t.matrix - lam * eye, eye)
    r_mu = np.linalg.solve(t.matrix - mu * eye, eye)
    res = r_lam - r_mu - (lam - mu) * (r_lam @ r_mu)
    assert op_norm(res) <= 1e-9


def test_kreiss_scalar_one():
    rep = kreiss_functional(scalar_op(1.0), 0, AnnulusGrid.dyadic(8, 64))
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.argmax["angle"] == 0.0


def test_kreiss_jordan_dichotomy():
    rep0 = kreiss_functional(jordan_block(2, 1), 0, AnnulusGrid.dyadic(10, 64))
    prof = [v for _, v in rep0.radius_profile]
    ratios = [b / a for a, b in zip(prof, prof[1:])]
    # resolvent ~ (lambda-1)^{-2}: per-radius max doubles once the grid is
    # inside the blowup regime
    assert all(1.8 <= r <= 2.2 for r in ratios[1:])
    assert rep0.refinement_ratio == pytest.approx(2.0, abs=0.05)
    rep1a = kreiss_functional(jordan_block(2, 1), 1, AnnulusGrid.dyadic(8, 64))
    rep1b = kreiss_functional(jordan_block(2, 1), 1, AnnulusGrid.dyadic(10, 64))
    assert abs(rep1b.value / rep1a.value - 1.0) < 0.05


def test_kreiss_skips_spectrum_points():
    # radius exactly 1 is not allowed; a singular point inside a custom grid
    # would be skipped -- emulate with an eigenvalue on the sampled circle
    t = diag_operator([1.25])
    grid = AnnulusGrid((1.25, 1.125), 8)
    rep = kreiss_functional(t, 0, grid)
    assert rep.skipped == 1
    assert np.isfinite(rep.value)


def test_partial_sum_scalar_cases():
    grid = AnnulusGrid.dyadic(10, 16)
    rep = partial_sum_functional(scalar_op(1.0), 0, 64, grid)
    assert 0.9 < rep.value <= 1.0 + 1e-12
    # only the k=0 term: sup (rho-1)/rho over the grid, attained at rho=1.5
    rep0 = partial_sum_functional(scalar_op(0.0), 0, 8, AnnulusGrid.dyadic(6, 8))
    assert rep0.value == pytest.approx(0.5 / 1.5, rel=1e-12)
    rep2 = partial_sum_functional(identity_operator(2), 0, 64, grid)
    assert rep2.value == pytest.approx(rep.value, rel=1e-12)


def test_partial_sum_monotonicity():
    t = jordan_block(2, 0.9)
    small = partial_sum_functional(t, 0, 16, AnnulusGrid.dyadic(4, 8))
    bigger_n = partial_sum_functional(t, 0, 48, AnnulusGrid.dyadic(4, 8))
    bigger_grid = partial_sum_functional(t, 0, 16, AnnulusGrid.dyadic(7, 16))
    assert bigger_n.value >= small.value - 1e-12
    assert bigger_grid.value >= small.value - 1e-12


def test_kreiss_monotonicity_under_refinement():
    t = jordan_block(3, 0.8)
    small = kreiss_functional(t, 0, AnnulusGrid.dyadic(4, 8))
    big = kreiss_functional(t, 0, AnnulusGrid.dyadic(8, 16))
    assert big.value >= small.value - 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stacked", [False, True])
def test_pascal_sums_match_explicit_sums_of_powers(dtype, stacked):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 4, 4)) / 2.0
    if dtype is complex:
        m = m + 1j * rng.standard_normal((3, 4, 4)) / 2.0
    b = m if stacked else m[0]
    nmax = 9
    for p in range(4):
        # A_n^(0) = b^n, and each order the running sum of the order below
        explicit = np.array([[power(a, n) for n in range(nmax + 1)]
                             for a in b.reshape(-1, 4, 4)])
        for _ in range(p):
            explicit = np.cumsum(explicit, axis=1)
        got = []
        for n, sums in _pascal_sums(b, p, nmax):
            assert len(sums) == p + 1
            assert all(a.shape == b.shape for a in sums)
            got.append(np.array(sums[p]).reshape(-1, 4, 4))
        assert len(got) == nmax + 1
        np.testing.assert_allclose(np.stack(got, axis=1), explicit, rtol=1e-12, atol=1e-12)


def test_first_max_takes_the_first_of_exact_ties_in_c_order():
    values = np.array([[[0.0, 2.0], [2.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]])
    best, index = _first_max(values)
    assert (best, index) == (2.0, (0, 0, 1))
    assert type(best) is float and all(type(i) is int for i in index)
    # the zero operator ties every angle and n exactly: the first point wins
    grid = AnnulusGrid.dyadic(3, 8)
    rep = partial_sum_functional(scalar_op(0.0), 0, 5, grid)
    assert rep.argmax == {"radius": 1.5, "angle": 0.0, "n": 0}
    rep = mean_growth_functional(scalar_op(0.0), 1, 0, 5, 8)
    assert rep.argmax == {"n": 1, "angle": 0.0}


def test_sweep_argmaxes_are_json_numbers():
    grid = AnnulusGrid.dyadic(3, 8)
    t = jordan_block(2, 0.9)
    for rep in (kreiss_functional(t, 0, grid), partial_sum_functional(t, 0, 6, grid),
                mean_growth_functional(t, 1, 0, 6, 8)):
        assert rep.argmax
        assert all(type(v) in (int, float) for v in rep.argmax.values())
        assert json.loads(json.dumps(rep.argmax)) == rep.argmax


def test_cesaro_sequence_matches_row_route():
    t = random_operator(4, 1.0, seed=13)
    lam = np.exp(0.9j)
    for p in (1, 2, 3):
        for n, mean in cesaro_mean_sequence(t, p, 30, lam):
            ref = apply_mean(cesaro(p), t.matrix, n, lam)
            assert np.max(np.abs(mean - ref)) <= 1e-12


def test_mean_growth_scalar_one():
    rep = mean_growth_functional(scalar_op(1.0), 1, 0, 32, 8)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.argmax["angle"] == 0.0


def test_mean_growth_jordan_dichotomy():
    rep0 = mean_growth_functional(jordan_block(2, 1), 1, 0, 128, 8)
    # M_n = [[1, n/2], [0, 1]]: the sup grows like n/2
    assert rep0.value >= 60.0
    assert rep0.argmax["n"] == 128
    rep1 = mean_growth_functional(jordan_block(2, 1), 1, 1, 512, 8)
    # the left edge n=1 dominates the raw sup; the plateau is the tail value
    assert rep1.tail_value <= 1.2
    assert rep1.tail_value == pytest.approx(0.5, abs=0.01)


def test_mean_growth_contraction_bound():
    t = random_operator(5, 0.9, seed=17)
    scaled = OperatorModel(t.matrix / op_norm(t.matrix))
    rep = mean_growth_functional(scaled, 2, 0, 48, 8)
    assert rep.value <= 1.0 + 1e-9


def test_resolvent_series_residual_examples():
    assert resolvent_series_residual(scalar_op(0.0), 2, 1.0, 0.5, 200) <= 1e-12
    # scalar geometric series: (1 - 0.5)^{-1} = 2
    assert resolvent_series_residual(scalar_op(1.0), 1, 1.0, 0.5, 200) <= 1e-10
    assert resolvent_series_residual(scalar_op(1j), 2, 1.0, 0.5, 400) <= 1e-8
    with pytest.raises(SpectralRadiusTooLarge):
        resolvent_series_residual(scalar_op(1.2), 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        resolvent_series_residual(scalar_op(0.5), 1, 1.0, 0.95)


def test_abel_summation_residual_examples():
    # hand value: 1 + 0.5 + 0.25 = 0.5*(1 + 2*0.5) + 3*0.25
    assert abel_summation_residual(scalar_op(1.0), 1.0, 0.5, 2) <= 1e-15
    t = random_operator(4, 1.1, seed=23)
    assert abel_summation_residual(t, 1.0, 1.0, 15) <= 1e-10  # telescoping at rho=1
    assert abel_summation_residual(t, 1j, 0.7, 20) <= 1e-10


def test_abel_summation_residual_random_instances():
    rng = np.random.default_rng(2)
    for trial in range(20):
        t = random_operator(3, 1.0, seed=trial)
        rho = float(rng.uniform(0.1, 1.0))
        lam = np.exp(2j * np.pi * rng.uniform())
        n = int(rng.integers(1, 30))
        assert abel_summation_residual(t, lam, rho, n) <= 1e-10


def _harmonic_grid(nmax, angles=16):
    radii = sorted({1.0 + 1.0 / n for n in range(1, nmax + 1)
                    if (n & (n - 1)) == 0}, reverse=True)
    return AnnulusGrid(tuple(radii), angles)


def test_uniform_kreiss_mean_bound_cases():
    grid = _harmonic_grid(64)
    res = uniform_kreiss_mean_bound(scalar_op(1.0), 0, 64, 16, grid)
    # C <= 1 and ||M_n|| = 1: the ratio is 1/((2e-1) C) < 1
    assert res["partial_sum_constant"] <= 1.0 + 1e-9
    assert res["max_ratio"] < 1.0
    res0 = uniform_kreiss_mean_bound(scalar_op(0.0), 0, 16, 8, _harmonic_grid(16, 8))
    assert res0["max_ratio"] < 1.0
    shift = dirichlet_shift(1.0, 16, "backward")  # a contraction
    res_s = uniform_kreiss_mean_bound(shift, 0, 32, 8, _harmonic_grid(32, 8))
    assert res_s["max_ratio"] < 1.0


def test_dirichlet_halfweight_functionals_plateau_together():
    # truncated shift with coefficient weights (k+1)^{1/2}: both the
    # resolvent functional and the order-2 mean functional settle under
    # refinement (soundness check at desk scale, not a proof)
    t = dirichlet_shift(0.5, 128, "forward")
    k_coarse = kreiss_functional(t, 0, AnnulusGrid.dyadic(8, 16))
    k_fine = kreiss_functional(t, 0, AnnulusGrid.dyadic(10, 16))
    assert abs(k_fine.value / k_coarse.value - 1.0) < 0.10
    m_coarse = mean_growth_functional(t, 2, 0, 96, 4)
    m_fine = mean_growth_functional(t, 2, 0, 192, 4)
    assert abs(m_fine.value / m_coarse.value - 1.0) < 0.10


# --- stacked sweeps against the per-point loop ------------------------------

def _operator_form(m, form):
    d = m.shape[0]
    if form == "matrix":
        return m
    if form == "model":
        return OperatorModel(m)
    if form == "diag_gram":
        return OperatorModel(m, geometry=GramGeometry.diagonal(np.linspace(0.5, 2.0, d)))
    if form == "tridiagonal_gram":
        return OperatorModel(m, geometry=GramGeometry.tridiagonal(np.full(d, 2.0),
                                                                  np.full(d - 1, 0.5)))
    b = np.random.default_rng(d).standard_normal((d, d))
    if form == "complex_gram":
        b = b + 1j * np.random.default_rng(d + 1).standard_normal((d, d))
    return OperatorModel(m, geometry=GramGeometry.hermitian(b.conj().T @ b + np.eye(d)))


def _ring_sources(t, angles, mirror):
    """The angle index each index k of a ring takes its value from: A - k
    for k > A/2 when ``mirror`` is set and neither the operator nor its
    Gram has an imaginary part, else k."""
    op = as_operator(t)
    gram = np.eye(1) if op.geometry is None else op.geometry.matrix()
    real = mirror and not np.any(np.imag(op.matrix)) and not np.any(np.imag(gram))
    return [min(k, angles - k) if real else k for k in range(angles)]


def _kreiss_oracle(t, r, grid, mirror=True):
    """Scalar resolvent_norm at every grid point in (radius, angle) order,
    keeping the first strict maximum; with ``mirror`` a real operator's
    point k > A/2 takes the value of point A - k, skipped or not."""
    thetas = grid.angle_values()
    best, argmax, profile, skipped = -np.inf, {}, [], 0
    for rho, w in zip(grid.radii, grid.kreiss_weights(r)):
        ring = -np.inf
        for theta, source in zip(thetas, _ring_sources(t, grid.angles, mirror)):
            try:
                val = w * resolvent_norm(t, rho * np.exp(1j * thetas[source]))
            except SingularResolvent:
                skipped += 1
                continue
            ring = max(ring, val)
            if val > best:
                best, argmax = val, {"radius": rho, "angle": float(theta)}
        profile.append((rho, ring))
    return best, argmax, profile, skipped


def _partial_sums_at(op, w, rho, theta, nmax):
    """The weighted partial sums at one point, n = 0..nmax: 2-D products
    and norms."""
    b = op.matrix / (rho * np.exp(1j * theta))
    p = acc = np.eye(op.dim)
    vals = []
    for n in range(nmax + 1):
        if n:
            p = p @ b
            acc = acc + p
        vals.append(w * op.norm(acc) / rho)
    return vals


def _partial_sum_oracle(t, r, nmax, grid, mirror=True):
    """One angle at a time, (radius, angle, n) order; ``mirror`` as for
    ``_kreiss_oracle``."""
    op = as_operator(t)
    thetas = grid.angle_values()
    best, argmax, n_best = -np.inf, {}, [-np.inf] * (nmax + 1)
    for rho, w in zip(grid.radii, grid.kreiss_weights(r)):
        for theta, source in zip(thetas, _ring_sources(t, grid.angles, mirror)):
            for n, val in enumerate(_partial_sums_at(op, w, rho, thetas[source], nmax)):
                n_best[n] = max(n_best[n], val)
                if val > best:
                    best, argmax = val, {"radius": rho, "angle": float(theta), "n": n}
    return best, argmax, list(enumerate(n_best))


def _mean_growth_oracle(t, p, r, nmax, angles):
    """Scalar-lambda cesaro_mean_sequence per angle, (angle, n) order."""
    op = as_operator(t)
    best, argmax, n_best = -np.inf, {}, [-np.inf] * (nmax + 1)
    for m in range(angles):
        theta = 2.0 * np.pi * m / angles
        for n, mean in cesaro_mean_sequence(op, p, nmax, np.exp(1j * theta)):
            if n:
                val = op.norm(mean) / n ** r
                n_best[n] = max(n_best[n], val)
                if val > best:
                    best, argmax = val, {"n": n, "angle": theta}
    return best, argmax, list(enumerate(n_best))[1:]


_FORMS = ["matrix", "model", "diag_gram", "dense_gram"]


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("r", [0, 1])
def test_stacked_kreiss_equals_per_point_loop(form, r):
    t = _operator_form(random_operator(6, 0.9, seed=41).matrix, form)
    grid = AnnulusGrid.dyadic(4, 16)
    rep = kreiss_functional(t, r, grid)
    assert (rep.value, rep.argmax, rep.radius_profile, rep.skipped) == \
        _kreiss_oracle(t, r, grid)
    # the scalar call is the parent's 2-D solve and norm, bit for bit
    op = as_operator(t)
    lam = 1.25 * np.exp(0.3j)
    eye = np.eye(op.dim)
    assert resolvent_norm(t, lam) == op.norm(np.linalg.solve(op.matrix - lam * eye, eye))


@pytest.mark.parametrize("form", _FORMS)
def test_stacked_partial_sums_equal_per_point_loop(form):
    t = _operator_form(random_operator(5, 1.0, seed=43).matrix, form)
    grid = AnnulusGrid.dyadic(3, 16)
    rep = partial_sum_functional(t, 1, 12, grid)
    assert (rep.value, rep.argmax, rep.n_profile) == _partial_sum_oracle(t, 1, 12, grid)


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("p", [1, 2])
def test_stacked_mean_growth_equals_per_angle_loop(form, p):
    t = _operator_form(random_operator(5, 1.0, seed=47).matrix, form)
    rep = mean_growth_functional(t, p, 1, 12, 16)
    assert (rep.value, rep.argmax, rep.n_profile) == _mean_growth_oracle(t, p, 1, 12, 16)


def test_stacked_sweeps_keep_the_first_of_tied_angles():
    # the weighted shift is rotation invariant: its angles tie up to rounding
    t = dirichlet_shift(0.5, 128, "forward")
    grid = AnnulusGrid.dyadic(2, 16)
    rep = kreiss_functional(t, 0, grid)
    assert (rep.value, rep.argmax, rep.radius_profile, rep.skipped) == \
        _kreiss_oracle(t, 0, grid)
    growth = mean_growth_functional(t, 2, 0, 6, 4)
    assert (growth.value, growth.argmax, growth.n_profile) == _mean_growth_oracle(t, 2, 0, 6, 4)
    sums = partial_sum_functional(t, 0, 4, grid)
    assert (sums.value, sums.argmax, sums.n_profile) == _partial_sum_oracle(t, 0, 4, grid)


def test_stacked_sweeps_cross_chunk_boundaries():
    # d = 48 stacks 7 points: a 64-angle ring is 9 full stacks and 1 point
    t = _operator_form(random_operator(48, 0.95, seed=53).matrix, "dense_gram")
    grid = AnnulusGrid((1.25,), 64)
    rep = kreiss_functional(t, 1, grid)
    assert (rep.value, rep.argmax, rep.radius_profile, rep.skipped) == \
        _kreiss_oracle(t, 1, grid)
    sums = partial_sum_functional(t, 1, 2, grid)
    assert (sums.value, sums.argmax, sums.n_profile) == _partial_sum_oracle(t, 1, 2, grid)
    growth = mean_growth_functional(t, 1, 1, 2, 64)
    assert (growth.value, growth.argmax, growth.n_profile) == _mean_growth_oracle(t, 1, 1, 2, 64)


def _real_matrix(d, seed):
    """A real, non-normal d x d matrix of spectral radius 0.9."""
    m = np.random.default_rng(seed).standard_normal((d, d))
    return 0.9 * m / np.max(np.abs(np.linalg.eigvals(m)))


_RING_CASES = [("real", "model"), ("complex", "model"), ("real", "diag_gram"),
               ("real", "tridiagonal_gram"), ("real", "dense_gram"), ("real", "complex_gram")]


@pytest.mark.parametrize("angles", [9, 16])
@pytest.mark.parametrize("kind,form", _RING_CASES)
def test_half_rings_mirror_real_operators_and_match_the_full_ring(kind, form, angles,
                                                                   monkeypatch):
    m = _real_matrix(5, 59) if kind == "real" else random_operator(5, 0.9, seed=59).matrix
    t = _operator_form(m, form)
    real = kind == "real" and form != "complex_gram"
    grid = AnnulusGrid.dyadic(3, angles)
    ring_points, stacked_points = [], []
    norm, sums = spectral.resolvent_norm, spectral._pascal_sums

    def counted_norm(op, lam):
        ring_points.append(np.size(lam))
        return norm(op, lam)

    def counted_sums(b, p, nmax):
        stacked_points.append(len(b))
        return sums(b, p, nmax)

    monkeypatch.setattr(spectral, "resolvent_norm", counted_norm)
    monkeypatch.setattr(spectral, "_pascal_sums", counted_sums)
    rep = kreiss_functional(t, 1, grid)
    partial = partial_sum_functional(t, 1, 6, grid)
    monkeypatch.undo()
    # a real ring is evaluated at angle indices 0..A/2, a complex one whole
    evaluated = angles // 2 + 1 if real else angles
    assert ring_points == [evaluated] * len(grid.radii)
    assert sum(stacked_points) == evaluated * len(grid.radii)
    if form == "tridiagonal_gram":
        assert t.geometry._dense is None
    if real:
        assert rep.argmax["angle"] <= np.pi and partial.argmax["angle"] <= np.pi

    # bit for bit against the per-point loop over the same mirrored ring
    assert (rep.value, rep.argmax, rep.radius_profile, rep.skipped) == \
        _kreiss_oracle(t, 1, grid)
    assert (partial.value, partial.argmax, partial.n_profile) == \
        _partial_sum_oracle(t, 1, 6, grid)
    # to rounding against the per-point loop over the full ring
    value, _, profile, skipped = _kreiss_oracle(t, 1, grid, mirror=False)
    assert rep.value == pytest.approx(value, rel=1e-12)
    assert [v for _, v in rep.radius_profile] == pytest.approx([v for _, v in profile],
                                                               rel=1e-12)
    assert rep.skipped == skipped
    value, _, n_profile = _partial_sum_oracle(t, 1, 6, grid, mirror=False)
    assert partial.value == pytest.approx(value, rel=1e-12)
    assert [v for _, v in partial.n_profile] == pytest.approx([v for _, v in n_profile],
                                                              rel=1e-12)
    # the value at the reported argmax is the maximum
    weight = dict(zip(grid.radii, grid.kreiss_weights(1)))
    rho, theta = rep.argmax["radius"], rep.argmax["angle"]
    assert weight[rho] * resolvent_norm(t, rho * np.exp(1j * theta)) == rep.value
    rho, theta, n = partial.argmax["radius"], partial.argmax["angle"], partial.argmax["n"]
    assert _partial_sums_at(as_operator(t), weight[rho], rho, theta, 6)[n] == partial.value


def test_mirrored_ring_skips_both_conjugate_eigenvalues(tmp_path):
    # 1.5 times the rotation by 2 pi 3/16: its eigenvalues 1.5 e^{+-2 pi i 3/16}
    # are the points 3 and 13 of the 16-angle ring at radius 1.5
    phi = 2.0 * np.pi * 3 / 16
    t = OperatorModel(1.5 * np.array([[np.cos(phi), -np.sin(phi)],
                                      [np.sin(phi), np.cos(phi)]]))
    grid = AnnulusGrid.dyadic(3, 16)
    rep = kreiss_functional(t, 0, grid)
    assert rep.skipped == 2
    value, argmax, _, skipped = _kreiss_oracle(t, 0, grid, mirror=False)
    assert (rep.value, rep.argmax, rep.skipped) == (value, argmax, skipped)
    save_operator(t, tmp_path / "op.json")
    out = tmp_path / "r.json"
    assert cli.main(["kreiss", "--op", str(tmp_path / "op.json"), "--kmax", "3",
                     "--angles", "16", "--out", str(out)]) == 1
    [check] = json.loads(out.read_text())["checks"]
    assert (check["name"], check["value"]) == ("evaluated_grid_points", 2)


def test_failed_stacked_solve_skips_exactly_the_singular_point():
    # eigenvalues 5e-6 from 1.5 pass the distance rule, but T - 1.5 I is
    # singular in floating point, so a whole-ring stacked solve fails
    t = np.array([[1.5, 1.0, 0.0], [-0.5, 2.0, 0.5], [0.5, 0.5, 1.0]])
    grid = AnnulusGrid.dyadic(1, 8)
    ring = 1.5 * np.exp(1j * grid.angle_values())
    eye = np.eye(3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(t - ring[:, None, None] * eye, eye)
    rep = kreiss_functional(t, 0, grid)
    assert rep.skipped == 1
    assert (rep.value, rep.argmax, rep.radius_profile, rep.skipped) == \
        _kreiss_oracle(t, 0, grid)
    assert np.isnan(resolvent_norm(t, ring)).tolist() == [True] + [False] * 7


def test_resolvent_norm_of_an_array_has_nan_at_skipped_points():
    t = diag_operator([1.0, 0.5])
    got = resolvent_norm(t, np.array([[1.0, 2.0], [0.5, -1.0]]))
    assert got.shape == (2, 2)
    assert np.isnan(got[0, 0]) and np.isnan(got[1, 0])
    assert got[0, 1] == resolvent_norm(t, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert got[1, 1] == resolvent_norm(t, -1.0) == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_kreiss_weights_take_the_log_form_only_where_rho_r_overflows():
    grid = AnnulusGrid((2.0, 1.5), 8)
    assert grid.kreiss_weights(1) == [1.0 ** 2 / 2.0, 0.5 ** 2 / 1.5]
    # 2^1050 overflows a float; the weight 2^-1050 is subnormal, not 0
    heavy = grid.kreiss_weights(1050)
    assert heavy[0] == pytest.approx(2.0 ** -1050, rel=1e-6)
    assert heavy[1] == 0.0
    assert kreiss_functional(jordan_block(2, 1), 5000, AnnulusGrid.dyadic(3, 8)).value == 0.0


def test_mean_growth_lets_n_to_the_minus_r_underflow():
    rep = mean_growth_functional(jordan_block(2, 1), 1, 400, 64, 8)
    profile = dict(rep.n_profile)
    assert profile[64] == 0.0          # 64^400 overflows a float
    assert rep.value == profile[1] > 0.0
