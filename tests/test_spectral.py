import json
import math

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
    _cesaro_means,
    _first_max,
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


def _cesaro_product_loop(b, p, nmax):
    """Oracle: the Cesaro means of orders 0..p at n = 0..nmax by the
    recurrence M_n^(q) = M_{n-1}^(q) (n/(n+q)) + M_n^(q-1) (q/(n+q)), each
    power the one before it times ``b`` by ``@``, starting from the
    identity."""
    means = [np.broadcast_to(np.eye(b.shape[-1]), b.shape)] * (p + 1)
    out = [np.array(means)]
    for n in range(1, nmax + 1):
        means[0] = means[0] @ b
        for q in range(1, p + 1):
            means[q] = means[q] * (n / (n + q)) + means[q - 1] * (q / (n + q))
        out.append(np.array(means))
    return out


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stacked", [False, True])
def test_cesaro_means_match_the_recurrence_and_the_explicit_means(dtype, stacked, request):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 4, 4)) / 2.0
    if dtype is complex:
        m = m + 1j * rng.standard_normal((3, 4, 4)) / 2.0
    # nilpotent: weighted 4 x 4 shifts, whose powers from n = 4 on are zero
    shifts = np.array([np.eye(4, k=-1) * z for z in (1.0, -0.5, 2.0)], dtype=dtype)
    nmax = 9
    for b in (m, shifts):
        b = b if stacked else b[0]
        for p in (1, 2, 3, 8):
            # M_n^(p) = sum_j C(n-j+p-1, p-1) b^j / C(n+p, p)
            explicit = np.array([[sum(math.comb(n - j + p - 1, p - 1) * power(a, j)
                                      for j in range(n + 1)) / math.comb(n + p, p)
                                  for n in range(nmax + 1)] for a in b.reshape(-1, 4, 4)])
            oracle = _cesaro_product_loop(b, p, nmax)
            got = []
            for n, means in _cesaro_means(b, p, nmax):
                assert len(means) == p + 1
                assert all(a.shape == b.shape for a in means)
                # every order is the product loop's, bit for bit
                assert np.array_equal(np.array(means), oracle[n])
                got.append(np.array(means[p]).reshape(-1, 4, 4))
            assert len(got) == nmax + 1
            np.testing.assert_allclose(np.stack(got, axis=1), explicit,
                                       rtol=1e-12, atol=1e-12)
            if not stacked:
                # the public sequence yields copies: writing into one
                # changes no later mean
                for n, mean in cesaro_mean_sequence(b, p, nmax):
                    assert np.array_equal(mean, oracle[n][p])
                    mean[...] = np.nan
    # a triangular b: a matrix takes the walk's trmm route, a stack does not
    lookups = request.getfixturevalue("trmm_lookups")
    tri = np.tril(m if stacked else m[0])
    oracle = _cesaro_product_loop(tri, 2, nmax)
    for n, means in _cesaro_means(tri, 2, nmax):
        np.testing.assert_allclose(np.array(means), oracle[n], rtol=1e-12, atol=1e-12)
    assert lookups == ([] if stacked else ["trmm"])


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


@pytest.mark.parametrize("p, nmax", [(1, 10_000), (2, 10_000), (8, 1000), (30, 400)])
def test_cesaro_sequence_matches_mpmath(p, nmax):
    mpmath = pytest.importorskip("mpmath")
    a, c, d = 0.6, 1.0, -0.9
    *_, (n, mean) = cesaro_mean_sequence(np.array([[a, c], [0.0, d]]), p, nmax)
    assert n == nmax
    with mpmath.workdps(40):
        weights = [mpmath.mpf(math.comb(nmax - j + p - 1, p - 1)) / math.comb(nmax + p, p)
                   for j in range(nmax + 1)]

        def scalar_mean(x):
            x = mpmath.mpf(x)
            return mpmath.fsum(w * x ** j for j, w in enumerate(weights))

        # T^j = [[a^j, c (a^j - d^j) / (a - d)], [0, d^j]]
        ma, md = scalar_mean(a), scalar_mean(d)
        ref = [[ma, c * (ma - md) / (mpmath.mpf(a) - d)], [0, md]]
        ref = np.array([[float(v) for v in row] for row in ref])
    assert np.max(np.abs(mean - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cesaro_sequence_rejects_an_order_that_is_not_an_integer():
    for p in (1.5, True):
        with pytest.raises(ValueError, match="cesaro order p must be an integer >= 1"):
            next(cesaro_mean_sequence(jordan_block(2, 0.5), p, 4))


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


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("t", [jordan_block(2, 1.0), random_operator(4, 0.95, seed=12),
                               diag_operator([1j, 0.5])], ids=["jordan", "random", "diag"])
def test_resolvent_series_residual_at_order_50(t, rho):
    # the default truncation follows p: one of ceil(40 / (1 - rho)) terms
    # left residuals of 4.5e-3 to 1.52 on these operators
    assert resolvent_series_residual(t, 50, np.exp(1j * np.pi / 3.0), rho) <= 1e-10


@pytest.mark.parametrize("p", [1, 2, 50, 400])
def test_resolvent_series_weights_at_order(p):
    # no walk: the 5,456-step walk of order 400 takes seconds.  The factor
    # (1 - rho)^p underflows at order 400, so a weight must not start from
    # it; weights from differences of lgamma values were off by 4.5e-13 to
    # 1.6e-11 relative at these orders
    mpmath = pytest.importorskip("mpmath")
    rho = 0.9
    assert p < 324 or (1.0 - rho) ** p == 0.0
    weights = spectral._series_weights(p, rho)
    nterms = len(weights)
    assert math.fsum(weights) == pytest.approx(1.0 / (1.0 - rho), rel=1e-15)
    with mpmath.workdps(40):
        for n in sorted({*range(0, nterms, max(1, nterms // 100)), nterms - 1}):
            exact = (1 - mpmath.mpf(rho)) ** p * mpmath.binomial(n + p, p) * mpmath.mpf(rho) ** n
            # below the normal range a weight keeps fewer digits
            if exact >= 1e-300:
                assert weights[n] == pytest.approx(float(exact), rel=1e-13)
            else:
                assert weights[n] < 1e-299
    # the terms past the truncation weigh below 1e-17 of the mass
    q = rho * (nterms + p) / nterms
    assert q < 1.0 and weights[-1] * q / (1.0 - q) < 1e-17 / (1.0 - rho)


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


def test_harmonic_grid_takes_radii_one_plus_one_over_n_at_powers_of_two():
    for nmax in (1, 2, 3, 63, 64, 1000):
        radii = sorted({1.0 + 1.0 / n for n in range(1, nmax + 1) if (n & (n - 1)) == 0},
                       reverse=True)
        grid = AnnulusGrid.harmonic(nmax, 16)
        assert grid.radii == tuple(radii) and grid.angles == 16
    with pytest.raises(ValueError, match="nmax"):
        AnnulusGrid.harmonic(0, 16)


def test_uniform_kreiss_mean_bound_cases():
    res = uniform_kreiss_mean_bound(scalar_op(1.0), 0, 64, 16)
    # C <= 1 and ||M_n|| = 1: the ratio is 1/((2e-1) C) < 1
    assert res["partial_sum_constant"] <= 1.0 + 1e-9
    assert res["max_ratio"] < 1.0
    res0 = uniform_kreiss_mean_bound(scalar_op(0.0), 0, 16, 8)
    assert res0["max_ratio"] < 1.0
    shift = dirichlet_shift(1.0, 16, "backward")  # a contraction
    res_s = uniform_kreiss_mean_bound(shift, 0, 32, 8)
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
    norm, walk = spectral.resolvent_norm, spectral._power_walk

    def counted_norm(op, lam):
        ring_points.append(np.size(lam))
        return norm(op, lam)

    def counted_walk(b, ns):
        stacked_points.append(len(b))
        return walk(b, ns)

    monkeypatch.setattr(spectral, "resolvent_norm", counted_norm)
    monkeypatch.setattr(spectral, "_power_walk", counted_walk)
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


def test_a_zero_power_ends_the_partial_sum_walk(monkeypatch):
    # uniform_kreiss on dirichlet:1.0:16:backward at nmax 64: T^16 = 0, so
    # each chunk norms S_0..S_15 and copies S_15 to n = 16..64
    op = cli.parse_operator("dirichlet:1.0:16:backward")
    radii = sorted({1.0 + 1.0 / n for n in (1, 2, 4, 8, 16, 32, 64)}, reverse=True)
    grid = AnnulusGrid(tuple(radii), 16)
    chunks, norms = [], []
    walk, norm = spectral._power_walk, OperatorModel.norm
    monkeypatch.setattr(spectral, "_power_walk",
                        lambda *args: (chunks.append(1), walk(*args))[1])
    monkeypatch.setattr(OperatorModel, "norm",
                        lambda self, *args, **kw: (norms.append(1), norm(self, *args, **kw))[1])
    rep = partial_sum_functional(op, 1, 64, grid)
    monkeypatch.undo()
    assert len(chunks) == 7
    assert len(norms) == 16 * len(chunks)
    assert (rep.value, rep.argmax, rep.n_profile) == _partial_sum_oracle(op, 1, 64, grid)


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
