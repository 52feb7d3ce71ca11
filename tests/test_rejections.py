"""Range checks, one table: each call raises the documented exception with
a message that names what is out of range."""

import json
import math
import os

import numpy as np
import pytest

from ergolab.ergodic import (
    GrowthReport,
    NonPositiveValues,
    almost_convergence_defect,
    alternating_sum_residual,
    gamma_quotient,
    growth_exponent,
    log_fit,
    mean_convergence_report,
    mean_norms,
    power_norm_samples,
    power_norm_sequence,
)
from ergolab.linop import (
    BadDimension,
    DimensionMismatch,
    GramGeometry,
    dirichlet_shift,
    jordan_block,
    load_operator,
    matrix_from_obj,
    op_norm,
    power,
    random_operator,
)
from ergolab.means import (
    RowOutOfRange,
    abel,
    apply_mean,
    block_mean_residual,
    cesaro,
    identity_powers,
    power_series,
    rows_to_csv,
    scalar_mean,
    zweier,
)
from ergolab.spaces import (
    as_poly,
    cesaro_multiplier,
    circle_abs_mean,
    d_alpha_norm,
    h1_gram,
    h1_mean_norm,
    h1_norm,
    m_isometry_defect,
    poly_derivative,
    shields_report,
    shift_by_z,
    xr_norm,
)
from ergolab import spectral
from ergolab.spectral import (
    AnnulusGrid,
    abel_summation_residual,
    cesaro_mean_sequence,
    kreiss_functional,
    mean_growth_functional,
    partial_sum_functional,
    resolvent_series_residual,
    uniform_kreiss_mean_bound,
)

T = jordan_block(2, 0.5)
P, X = np.zeros((2, 2)), [1.0, 1.0]
_REPORT = GrowthReport("g", np.arange(1, 17), np.ones(16))
GRID = AnnulusGrid.dyadic(2, 8)
NAN, INF = math.nan, math.inf

# (id, call, exception, message fragment)
REJECTIONS = [
    ("power_negative", lambda: power(T, -1), ValueError,
     "power exponent n must be an integer >= 0, got -1"),
    ("dirichlet_alpha", lambda: dirichlet_shift(-1.0, 4), ValueError,
     "dirichlet shift alpha must be a finite number > -1, got -1.0"),
    ("dirichlet_direction", lambda: dirichlet_shift(0.5, 4, "sideways"), ValueError,
     "direction must be"),
    ("gram_dim_0", lambda: GramGeometry(0, diag=[]), BadDimension,
     "geometry dim must be an integer >= 1, got 0"),
    ("gram_diag_length", lambda: GramGeometry(3, diag=[1.0, 2.0]), DimensionMismatch,
     "diagonal weight length"),
    ("gram_dense_shape", lambda: GramGeometry(3, dense=np.eye(2)), DimensionMismatch,
     "dense Gram shape"),
    ("vector_norm_length", lambda: GramGeometry.diagonal([1.0, 2.0]).vector_norm([1.0]),
     DimensionMismatch, "vector length"),
    ("op_norm_cod", lambda: op_norm(np.eye(2), cod=GramGeometry.diagonal([1.0, 2.0, 3.0])),
     DimensionMismatch, "codomain geometry dim"),
    ("matrix_short_re",
     lambda: matrix_from_obj({"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0], "im": [0.0] * 4}),
     DimensionMismatch, "re/im length"),
    ("growth_window_0", lambda: growth_exponent(_REPORT, 0.0), ValueError,
     "window_fraction must be a finite number > 0 and <= 1, got 0.0"),
    ("log_fit_nonpositive", lambda: log_fit([1, 2, 3], [1.0, 0.0, 2.0]), NonPositiveValues,
     "positive values"),
    # log(0) was taken, a divide-by-zero warning
    ("log_fit_index_0", lambda: log_fit([0, 1, 2], [1.0, 2.0, 3.0]), ValueError,
     "indices n >= 1"),
    ("growth_index_0",
     lambda: growth_exponent(GrowthReport("g", np.arange(16), np.ones(16)), 1.0),
     ValueError, "indices n >= 1"),
    # a float or bool row index ran another row (row 2 for 2.7, row 1 for 1.5
    # and True), or failed in np.bincount on the Cesaro route of mean_norms
    ("row_float", lambda: zweier().row(2.7), ValueError,
     "zweier row index n must be an integer, got 2.7"),
    ("apply_mean_float", lambda: apply_mean(zweier(), T, 1.5), ValueError,
     "zweier row index n must be an integer, got 1.5"),
    ("apply_mean_bool", lambda: apply_mean(zweier(), T, True), ValueError,
     "zweier row index n must be an integer, got True"),
    ("mean_norms_float", lambda: mean_norms(zweier(), T, [1.5, 2.5]), ValueError,
     "zweier row index n must be an integer, got 1.5"),
    ("mean_norms_cesaro_float", lambda: mean_norms(cesaro(1), T, [1.5, 2.5]), ValueError,
     "cesaro(p=1) row index n must be an integer, got 1.5"),
    # a 2-D ns failed on numpy's ambiguous truth value on the Cesaro route and
    # returned a 2 x 2 array on the others; a scalar failed in np.diff
    ("mean_norms_cesaro_2d", lambda: mean_norms(cesaro(1), T, [[1, 2], [3, 4]]), ValueError,
     "mean_norms needs a 1-D ns, got shape (2, 2)"),
    ("mean_norms_abel_2d", lambda: mean_norms(abel(), T, [[1, 2], [3, 4]]), ValueError,
     "mean_norms needs a 1-D ns, got shape (2, 2)"),
    ("mean_norms_scalar", lambda: mean_norms(zweier(), T, 5), ValueError,
     "mean_norms needs a 1-D ns, got shape ()"),
    # a negative radius ran an operator of spectral radius 1
    ("random_radius_negative", lambda: random_operator(4, -1.0), ValueError,
     "random operator spectral radius must be a finite number >= 0, got -1.0"),
    ("random_radius_nan", lambda: random_operator(4, math.nan), ValueError,
     "random operator spectral radius must be a finite number >= 0, got nan"),
    ("power_norm_sequence_1", lambda: power_norm_sequence(T, 1), ValueError,
     "nmax must be an integer >= 2, got 1"),
    ("power_norm_samples_0", lambda: power_norm_samples(T, [0, 4]), ValueError,
     "sample index n must be an integer >= 1, got 0"),
    ("alternating_k_below_m",
     lambda: alternating_sum_residual(identity_powers(), T, 1, 2, 1, [1.0, 1.0], 4),
     ValueError, "k >= m"),
    ("power_series_2d", lambda: power_series([[1.0, 2.0]]), ValueError, "1-D sequence"),
    ("power_series_underflow", lambda: power_series([0.0, 5e-324]).row(2), RowOutOfRange,
     "F(r_n) = 0"),
    ("block_mean_column", lambda: block_mean_residual(T, [1.0, 2.0, 3.0], 1.0, cesaro(1), 4),
     ValueError, "column length"),
    ("as_poly_empty", lambda: as_poly([]), ValueError, "nonempty 1-D"),
    ("d_alpha_minus_1", lambda: d_alpha_norm([1.0, 2.0], -1.0), ValueError,
     "alpha must be a finite number > -1, got -1.0"),
    ("h1_gram_0", lambda: h1_gram(0), ValueError,
     "h1 degree n must be an integer >= 1, got 0"),
    ("cesaro_multiplier_negative", lambda: cesaro_multiplier(-1), ValueError,
     "n must be an integer >= 0, got -1"),
    ("xr_norm_negative", lambda: xr_norm([1.0, 2.0], -1), ValueError,
     "r must be an integer >= 0, got -1"),
    ("shields_nmax", lambda: shields_report(1, 2 ** 15), ValueError,
     "nmax must be an integer >= 2 and <= 16384, got 32768"),
    ("partial_sum_nmax_0", lambda: partial_sum_functional(T, 1, 0, AnnulusGrid.dyadic(2, 8)),
     ValueError, "nmax must be an integer >= 1, got 0"),
    ("mean_growth_angles_0", lambda: mean_growth_functional(T, 1, 0, 8, 0), ValueError,
     "angles must be an integer >= 1, got 0"),
    ("mean_growth_nmax_0", lambda: mean_growth_functional(T, 1, 0, 0, 8), ValueError,
     "nmax must be an integer >= 1, got 0"),
    ("abel_summation_rho_0", lambda: abel_summation_residual(T, 1.0, 0.0, 4), ValueError,
     "rho must be a finite number > 0 and <= 1, got 0.0"),
    ("abel_summation_n_0", lambda: abel_summation_residual(T, 1.0, 0.5, 0), ValueError,
     "n must be an integer >= 1, got 0"),
    ("cesaro_sequence_nmax_negative", lambda: list(cesaro_mean_sequence(T, 1, -3)), ValueError,
     "nmax must be an integer >= 0, got -3"),
    ("series_nterms_negative", lambda: resolvent_series_residual(T, 1, 1.0, 0.5, nterms=-5),
     ValueError, "nterms must be an integer >= 1, got -5"),
    ("series_nterms_0", lambda: resolvent_series_residual(T, 1, 1.0, 0.5, nterms=0),
     ValueError, "nterms must be an integer >= 1, got 0"),
    # a count or index that is a float or a bool was truncated, or read as 0
    # or 1, and ran another input than the one given
    ("power_float", lambda: power(T, 2.7), ValueError,
     "power exponent n must be an integer >= 0, got 2.7"),
    ("power_bool", lambda: power(T, True), ValueError,
     "power exponent n must be an integer >= 0, got True"),
    ("power_norm_samples_float", lambda: power_norm_samples(T, [1.5, 2.9, 3.9, 4.9]),
     ValueError, "sample index n must be an integer >= 1, got 1.5"),
    ("annulus_angles_float", lambda: AnnulusGrid((2.0, 1.5), 8.5), ValueError,
     "angles must be an integer >= 8, got 8.5"),
    ("harmonic_nmax_float", lambda: AnnulusGrid.harmonic(8.5, 8), ValueError,
     "nmax must be an integer >= 1, got 8.5"),
    ("dirichlet_n_float", lambda: dirichlet_shift(0.5, 4.5), BadDimension,
     "dirichlet shift N must be an integer >= 2, got 4.5"),
    ("h1_gram_float", lambda: h1_gram(3.5), ValueError,
     "h1 degree n must be an integer >= 1, got 3.5"),
    ("xr_norm_nodes_float", lambda: xr_norm([1.0, 2.0], 0, quad_nodes=1024.5), ValueError,
     "quad_nodes must be an integer, got 1024.5"),
    ("circle_abs_mean_float", lambda: circle_abs_mean([1.0, 1.0], 8.7), ValueError,
     "nodes must be an integer >= 1, got 8.7"),
    ("gamma_window_float", lambda: gamma_quotient(T, identity_powers(), 0, (16.9, 40.2)),
     ValueError, "gamma window end must be an integer, got 16.9"),
    ("shields_nmax_float", lambda: shields_report(1, 64.5), ValueError,
     "nmax must be an integer >= 2 and <= 16384, got 64.5"),
    ("rows_to_csv_float", lambda: rows_to_csv(zweier(), [1.5], os.devnull), ValueError,
     "zweier row index n must be an integer, got 1.5"),
    # a float k failed on the row index 0.0, a negative k divided by k + 1 = 0
    ("almost_k_float", lambda: almost_convergence_defect(cesaro(1), T, P, 2.5, 4, X),
     ValueError, "k must be an integer >= 0, got 2.5"),
    ("almost_k_negative", lambda: almost_convergence_defect(cesaro(1), T, P, -1, 4, X),
     ValueError, "k must be an integer >= 0, got -1"),
    ("almost_n_sup_float", lambda: almost_convergence_defect(cesaro(1), T, P, 2, 4.5, X),
     ValueError, "n_sup must be an integer >= 0, got 4.5"),
    # an empty window returned 0.0, the supremum of an empty set
    ("almost_n_sup_0_abel", lambda: almost_convergence_defect(abel(), T, P, 2, 0, X),
     ValueError, "n_sup must be an integer >= 1, got 0"),
    ("almost_n_sup_negative", lambda: almost_convergence_defect(cesaro(1), T, P, 2, -5, X),
     ValueError, "n_sup must be an integer >= 0, got -5"),
    # returned empty reports
    ("shields_nmax_1", lambda: shields_report(1, 1), ValueError,
     "nmax must be an integer >= 2 and <= 16384, got 1"),
    # a NaN or infinite real parameter returned NaN, a wrong answer, or
    # failed later on a message that named no parameter
    ("kreiss_r_nan", lambda: kreiss_functional(T, NAN, GRID), ValueError,
     "r must be a finite number >= 0, got nan"),
    ("partial_sum_r_nan", lambda: partial_sum_functional(T, NAN, 4, GRID), ValueError,
     "r must be a finite number >= 0, got nan"),
    ("mean_growth_r_nan", lambda: mean_growth_functional(T, 1, NAN, 8, 8), ValueError,
     "r must be a finite number >= 0, got nan"),
    ("uniform_kreiss_r_nan", lambda: uniform_kreiss_mean_bound(T, NAN, 8, 8), ValueError,
     "r must be a finite number >= 0, got nan"),
    ("apply_mean_lam_nan", lambda: apply_mean(zweier(), T, 3, lam=NAN), ValueError,
     "rotation parameter must have modulus 1, got nan"),
    ("scalar_mean_mu_nan", lambda: scalar_mean(zweier(), 3, NAN), ValueError,
     "rotation parameter must have modulus 1, got nan"),
    ("d_alpha_nan", lambda: d_alpha_norm([1.0, 2.0], NAN), ValueError,
     "alpha must be a finite number > -1, got nan"),
    ("d_alpha_inf", lambda: d_alpha_norm([1.0, 2.0, 3.0], INF), ValueError,
     "alpha must be a finite number > -1, got inf"),
    ("dirichlet_alpha_inf", lambda: dirichlet_shift(INF, 4), ValueError,
     "dirichlet shift alpha must be a finite number > -1, got inf"),
    ("dirichlet_alpha_nan", lambda: dirichlet_shift(NAN, 4), ValueError,
     "dirichlet shift alpha must be a finite number > -1, got nan"),
    ("annulus_radius_nan", lambda: AnnulusGrid((NAN,), 8), ValueError,
     "radius must be a finite number > 1, got nan"),
    ("annulus_radius_inf", lambda: AnnulusGrid((INF, 1.5), 8), ValueError,
     "radius must be a finite number > 1, got inf"),
    ("kreiss_weights_r_nan", lambda: GRID.kreiss_weights(NAN), ValueError,
     "r must be a finite number >= 0, got nan"),
    ("annulus_radii_empty", lambda: AnnulusGrid((), 8), ValueError,
     "radii must be nonempty and strictly decreasing toward 1"),
    ("gamma_kernel_tol_inf",
     lambda: gamma_quotient(T, identity_powers(), 0, (8, 40), kernel_tol=INF), ValueError,
     "kernel_tol must be a finite number > 0, got inf"),
    # a count that is a bool, a float or negative was read as another count
    # or failed in numpy, Python or a row index with a message naming no
    # parameter
    ("poly_derivative_bool", lambda: poly_derivative([1.0, 2.0, 3.0], True), ValueError,
     "derivative order must be an integer >= 0, got True"),
    ("poly_derivative_negative", lambda: poly_derivative([1.0, 2.0, 3.0], -1), ValueError,
     "derivative order must be an integer >= 0, got -1"),
    ("shift_by_z_bool", lambda: shift_by_z([1.0], True), ValueError,
     "shift k must be an integer >= 0, got True"),
    ("shift_by_z_negative", lambda: shift_by_z([1.0], -1), ValueError,
     "shift k must be an integer >= 0, got -1"),
    ("isometry_order_float", lambda: m_isometry_defect(h1_norm, shift_by_z, 2.0, [1.0]),
     ValueError, "isometry order must be an integer >= 2 and <= 3, got 2.0"),
    ("alternating_k_float",
     lambda: alternating_sum_residual(identity_powers(), T, 2.5, 1, 1, X, 4), ValueError,
     "k must be an integer >= 0, got 2.5"),
    ("alternating_m_negative",
     lambda: alternating_sum_residual(identity_powers(), T, 1, -1, 1, X, 4), ValueError,
     "m must be an integer >= 0, got -1"),
    ("alternating_n0_float",
     lambda: alternating_sum_residual(identity_powers(), T, 2, 1, 1.5, X, 4), ValueError,
     "n0 must be an integer >= 0, got 1.5"),
    # kmax True built the one radius 1.5, a float kmax failed in range, and
    # from kmax 53 the innermost radius rounds to 1.0
    ("dyadic_kmax_bool", lambda: AnnulusGrid.dyadic(True, 8), ValueError,
     "kmax must be an integer >= 1 and <= 52, got True"),
    ("dyadic_kmax_float", lambda: AnnulusGrid.dyadic(2.5, 8), ValueError,
     "kmax must be an integer >= 1 and <= 52, got 2.5"),
    ("dyadic_kmax_53", lambda: AnnulusGrid.dyadic(53, 8), ValueError,
     "kmax must be an integer >= 1 and <= 52, got 53"),
    # a rotation off the unit circle gave NaN means or a residual of the
    # wrong identity, and a NaN one failed on a message naming no parameter
    ("cesaro_sequence_lam_nan", lambda: list(cesaro_mean_sequence(T, 1, 2, NAN)), ValueError,
     "rotation parameter must have modulus 1, got nan"),
    ("cesaro_sequence_lam_2", lambda: list(cesaro_mean_sequence(T, 1, 2, 2.0)), ValueError,
     "rotation parameter must have modulus 1, got 2.0"),
    ("cesaro_sequence_lam_array",
     lambda: list(cesaro_mean_sequence(T, 1, 2, np.array([1.0, 1j, 0.5]))), ValueError,
     "rotation parameter must have modulus 1, got array("),
    ("series_lam_nan", lambda: resolvent_series_residual(T, 1, NAN, 0.5), ValueError,
     "rotation parameter must have modulus 1, got nan"),
    ("series_lam_2", lambda: resolvent_series_residual(T, 1, 2.0, 0.5), ValueError,
     "rotation parameter must have modulus 1, got 2.0"),
    ("abel_summation_lam_nan", lambda: abel_summation_residual(T, NAN, 0.5, 4), ValueError,
     "rotation parameter must have modulus 1, got nan"),
    ("abel_summation_lam_2", lambda: abel_summation_residual(T, 2.0, 0.5, 4), ValueError,
     "rotation parameter must have modulus 1, got 2.0"),
    # nmax 4.5 failed naming the row index 0.0 and nmax -3 returned an empty
    # report; a float seed failed in numpy with a TypeError, a negative one
    # with numpy's message; a gamma window of one end failed to unpack, and
    # one of three ends was read as its first two
    ("convergence_nmax_float", lambda: mean_convergence_report(cesaro(1), T, 4.5), ValueError,
     "nmax must be an integer >= 0, got 4.5"),
    ("convergence_nmax_negative", lambda: mean_convergence_report(cesaro(1), T, -3),
     ValueError, "nmax must be an integer >= 0, got -3"),
    ("convergence_nmax_below_first_row", lambda: mean_convergence_report(abel(), T, 0),
     ValueError, "nmax must be an integer >= 1, got 0"),
    ("random_seed_float", lambda: random_operator(3, 0.5, 1.5), ValueError,
     "random operator seed must be an integer >= 0, got 1.5"),
    ("random_seed_negative", lambda: random_operator(3, 0.5, -1), ValueError,
     "random operator seed must be an integer >= 0, got -1"),
    ("gamma_window_one_end", lambda: gamma_quotient(T, identity_powers(), 0, (1,)),
     ValueError, "gamma window must be two ends (lo, hi), got (1,)"),
    ("gamma_window_three_ends", lambda: gamma_quotient(T, identity_powers(), 0, (1, 40, 3)),
     ValueError, "gamma window must be two ends (lo, hi), got (1, 40, 3)"),
]

# Every real-valued parameter under the real-number rule: (id, the parameter
# as its message names it, call taking the value)
REAL_PARAMETERS = [
    ("dirichlet_alpha", "dirichlet shift alpha", lambda v: dirichlet_shift(v, 4)),
    ("random_radius", "random operator spectral radius", lambda v: random_operator(4, v)),
    ("tail_eps", "tail_eps", lambda v: abel().row(4, tail_eps=v)),
    ("annulus_radius", "radius", lambda v: AnnulusGrid((2.0, v), 8)),
    ("kreiss_weights_r", "r", GRID.kreiss_weights),
    ("kreiss_r", "r", lambda v: kreiss_functional(T, v, GRID)),
    ("partial_sum_r", "r", lambda v: partial_sum_functional(T, v, 4, GRID)),
    ("mean_growth_r", "r", lambda v: mean_growth_functional(T, 1, v, 8, 8)),
    ("series_rho", "rho", lambda v: resolvent_series_residual(T, 1, 1.0, v)),
    ("abel_summation_rho", "rho", lambda v: abel_summation_residual(T, 1.0, v, 4)),
    ("window_fraction", "window_fraction", lambda v: growth_exponent(_REPORT, v)),
    ("kernel_tol", "kernel_tol",
     lambda v: gamma_quotient(T, identity_powers(), 0, (8, 40), kernel_tol=v)),
    ("d_alpha", "alpha", lambda v: d_alpha_norm([1.0, 2.0], v)),
]


@pytest.mark.parametrize("call, exception, fragment", [row[1:] for row in REJECTIONS],
                         ids=[row[0] for row in REJECTIONS])
def test_out_of_range_input_raises(call, exception, fragment):
    with pytest.raises(exception) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("value", [NAN, INF, True], ids=["nan", "inf", "bool"])
@pytest.mark.parametrize("what, call", [row[1:] for row in REAL_PARAMETERS],
                         ids=[row[0] for row in REAL_PARAMETERS])
def test_real_parameter_must_be_a_finite_number_in_range(what, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(f"{what} must be a finite number")
    assert message.endswith(f", got {value!r}")


@pytest.mark.parametrize("obj, exception, fragment", [
    ({"rows": 2.5, "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]}, DimensionMismatch,
     "matrix rows must be an integer >= 1, got 2.5"),
    ({"rows": "2", "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]}, DimensionMismatch,
     "matrix rows must be an integer >= 1, got '2'"),
    ({"matrix": {"rows": 2, "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]},
      "gram": {"dim": 2.9, "diag": [1.0, 2.0]}}, BadDimension,
     "Gram dim must be an integer >= 1, got 2.9"),
], ids=["rows_float", "rows_string", "gram_dim_float"])
def test_load_operator_rejects_a_size_that_is_not_an_integer(tmp_path, obj, exception, fragment):
    # each file loaded, as an operator of the truncated (or parsed) size
    path = tmp_path / "op.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(exception) as info:
        load_operator(path)
    assert fragment in str(info.value)


def test_empty_index_arrays_give_empty_results():
    # one rule for the index arrays: an empty one has no entry that fails
    assert h1_mean_norm([], 16).shape == (0,)
    assert mean_norms(zweier(), T, []).shape == (0,)


def test_resolvent_series_residual_sums_nterms_terms(monkeypatch):
    # the series is truncated after nterms terms, n = 0..nterms - 1
    seen = []

    def counting(b, p, nmax):
        for n, means in cesaro_means(b, p, nmax):
            seen.append(n)
            yield n, means

    cesaro_means = spectral._cesaro_means
    monkeypatch.setattr(spectral, "_cesaro_means", counting)
    resolvent_series_residual(T, 2, 1.0, 0.5, nterms=3)
    assert seen == [0, 1, 2]


def test_resolvent_series_residual_default_nterms(monkeypatch):
    # the default truncation, from (p, rho), sums as many terms as the call
    # that names their count
    seen = []

    def counting(b, p, nmax):
        for n, means in cesaro_means(b, p, nmax):
            seen.append(n)
            yield n, means

    cesaro_means = spectral._cesaro_means
    monkeypatch.setattr(spectral, "_cesaro_means", counting)
    got = resolvent_series_residual(T, 2, 1.0, 0.5)
    nterms = len(seen)
    assert seen == list(range(nterms)) and nterms == len(spectral._series_weights(2, 0.5))
    assert got == resolvent_series_residual(T, 2, 1.0, 0.5, nterms=nterms)
    assert got < 1e-12
