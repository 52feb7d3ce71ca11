"""Exact coefficient arithmetic for three polynomial-space constructions.

* Weighted Dirichlet norms: ||p||_alpha^2 = sum_k (k+1)^{1-alpha} |p_k|^2.
  alpha = 0 makes the shift M_z a 2-isometry.
* The 3-isometry space built over D_0 with seed polynomial 1 - z: the norm
  has the closed form
      ||p||_1^2 = sum |p_k|^2 + sum_k (k+1)(k+2)/2 * |q_k|^2,  q = (1-z) p,
  whose polarization gives a symmetric tridiagonal Gram with
  diag_k = 1 + (k+2)^2 and off_k = -(k+2)(k+3)/2.  The comparison norm
  ||p||_*^2 = ||p||_2^2 + int |p'(z)(1-z)|^2 dm  is kept as an independent
  implementation; the two are equivalent, not equal.
* The modified Shields spaces X_r:
      ||f||_r = sum_{j<=r} |f^(j)(0)| + int |f^(r+1)| dm,
  with dm the normalized arclength measure.  The absolute value destroys
  trig-polynomial exactness, so circle integrals use a dense FFT trapezoid
  rule with a doubled-node consistency check available to callers.
"""

from __future__ import annotations

import math

import numpy as np

from .ergodic import GrowthReport
from .linop import GramGeometry, _check_integer, _check_integers, _check_real, op_norm

# the ranges of r and nmax that shields_report covers
_SHIELDS_R = (0, 3)
_SHIELDS_NMAX = (2, 2 ** 14)


class TooFewNodes(ValueError):
    """Circle quadrature called with fewer nodes than the safety floor."""


class BadTruncation(ValueError):
    """Truncation degree too small for the requested multiplier index."""


def as_poly(p) -> np.ndarray:
    """Coefficient vector (ascending powers) as a 1-D complex array."""
    c = np.atleast_1d(np.asarray(p, dtype=complex))
    if c.ndim != 1 or c.size < 1:
        raise ValueError("polynomial needs a nonempty 1-D coefficient vector")
    return c


def poly_mul(p, q) -> np.ndarray:
    return np.convolve(as_poly(p), as_poly(q))


def shift_by_z(p, k: int = 1) -> np.ndarray:
    """Multiply by z^k: prepend k zeros."""
    k = _check_integer(k, "shift k", least=0)
    return np.concatenate([np.zeros(k, dtype=complex), as_poly(p)])


def poly_derivative(p, order: int = 1) -> np.ndarray:
    c = as_poly(p)
    for _ in range(_check_integer(order, "derivative order", least=0)):
        if c.size == 1:
            return np.zeros(1, dtype=complex)
        c = c[1:] * np.arange(1, c.size)
    return c


def l2_norm(p) -> float:
    return float(np.linalg.norm(as_poly(p)))


def d_alpha_norm(p, alpha: float) -> float:
    """sqrt( sum_k (k+1)^{1-alpha} |p_k|^2 )."""
    _check_real(alpha, "alpha", least=-1, open_least=True)
    c = as_poly(p)
    k = np.arange(c.size, dtype=float)
    return float(math.sqrt(np.sum((k + 1.0) ** (1.0 - alpha) * np.abs(c) ** 2)))


def h1_norm(p) -> float:
    """Closed form of the 3-isometry norm: with q = (1-z) p,
    sqrt( sum |p_k|^2 + sum_k (k+1)(k+2)/2 |q_k|^2 )."""
    c = as_poly(p)
    q = np.convolve(c, np.array([1.0, -1.0]))
    k = np.arange(q.size, dtype=float)
    weights = (k + 1.0) * (k + 2.0) / 2.0
    return float(math.sqrt(np.sum(np.abs(c) ** 2)
                           + np.sum(weights * np.abs(q) ** 2)))


def h1_star_norm(p) -> float:
    """Comparison norm sqrt( ||p||_2^2 + int |p'(z)(1-z)|^2 dm ), evaluated
    exactly by Parseval on the coefficients of p'(z)(1-z)."""
    c = as_poly(p)
    deriv_scaled = np.convolve(poly_derivative(c), np.array([1.0, -1.0]))
    return float(math.sqrt(np.sum(np.abs(c) ** 2)
                           + np.sum(np.abs(deriv_scaled) ** 2)))


def _h1_bands(n: int):
    """Diagonal and off-diagonal of the h1 Gram of z^0..z^n (closed form)."""
    k = np.arange(_check_integer(n, "h1 degree n", least=1) + 1, dtype=float)
    diag = 1.0 + (k + 2.0) ** 2
    off = -(k[:-1] + 2.0) * (k[:-1] + 3.0) / 2.0
    return diag, off


def h1_gram(n: int) -> np.ndarray:
    """Tridiagonal Gram of the monomials z^0..z^n in the 3-isometry norm:
    diag_k = 1 + (k+2)^2, off_k = -(k+2)(k+3)/2.  Positive definite."""
    diag, off = _h1_bands(n)
    gram = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.linalg.cholesky(gram)  # construction-time positive-definiteness check
    return gram


def h1_geometry(n: int) -> GramGeometry:
    """The h1 Gram of z^0..z^n as a tridiagonal geometry (O(n) factor)."""
    return GramGeometry.tridiagonal(*_h1_bands(n))


def m_isometry_defect(norm, shift, order: int, p) -> float:
    """Signed binomial difference sum_k (-1)^k C(order, k) norm(shift^k p)^2;
    zero iff the shift is an ``order``-isometry at p."""
    order = _check_integer(order, "isometry order", least=2, most=3)
    c = as_poly(p)
    total = 0.0
    current = c
    for k in range(order + 1):
        total += (-1.0) ** k * math.comb(order, k) * norm(current) ** 2
        if k < order:
            current = shift(current)
    return float(total)


def h1_shift_lower_bound(f, n: int):
    """(lhs, rhs) of the power growth inequality in the 3-isometry space:
    lhs = ||z^n f||_1,  rhs = ||(1-z) f||_2 * sqrt(n(n-1)/2).
    The contract is lhs >= rhs."""
    n = _check_integer(n, "n", least=2)
    c = as_poly(f)
    lhs = h1_norm(shift_by_z(c, n))
    rhs = l2_norm(np.convolve(c, np.array([1.0, -1.0]))) * math.sqrt(n * (n - 1) / 2.0)
    return lhs, rhs


def cesaro_multiplier(n: int) -> np.ndarray:
    """Coefficients of F_n(z) = (1/(n+1)) sum_{j<=n} z^j."""
    n = _check_integer(n, "n", least=0)
    return np.full(n + 1, 1.0 / (n + 1), dtype=complex)


def h1_mean_pairing(n: int, p, q) -> complex:
    """Gram pairing <F_n * p, q> in the 3-isometry space."""
    left = poly_mul(cesaro_multiplier(n), p)
    right = as_poly(q)
    # h1_gram needs degree >= 1, so the vectors are sized to its Gram
    gram = h1_gram(max(left.size, right.size, 2) - 1)
    a = np.zeros(len(gram), dtype=complex)
    a[: left.size] = left
    b = np.zeros(len(gram), dtype=complex)
    b[: right.size] = right
    return complex(b.conj() @ gram @ a)


def h1_mean_norm(n, n_trunc: int):
    """Gram-weighted operator norm of multiplication by F_n from polynomials
    of degree <= n_trunc into degree <= n_trunc + n (a truncation estimate of
    the mean's norm on the whole space).

    ``n`` is one index, which gives a float, or an array of indices, which
    gives the array of their norms; index 0 gives exactly 1.0.  An array is
    one sweep: one triangular solve forms W = L_dom^{-1}, and the running
    sum S_n = S_{n-1} + (W shifted down n rows), at O(n_trunc^2) per step,
    is M_n L_dom^{-1} up to the factor n + 1.  Each requested index then
    costs one banded product by the codomain factor and one SVD of the
    (n_trunc + n + 1) x (n_trunc + 1) matrix.  One codomain geometry, at
    n_trunc + max(n), serves every index: the leading block of its banded
    Cholesky is the factor of the leading block of the Gram, and the rows
    of S_n beyond n_trunc + n are zero, so the result for an index does not
    depend on the others it is swept with.
    """
    ns = _check_integers(n, "mean index n", least=0)
    n_trunc = _check_integer(n_trunc, "n_trunc")
    uniq, where = np.unique(ns.reshape(-1), return_inverse=True)
    top = int(uniq[-1]) if uniq.size else 0
    if n_trunc < 4 * top:
        raise BadTruncation(f"need n_trunc >= 4*n for a stable estimate, got n = {top} "
                            f"and n_trunc = {n_trunc}")
    norms = np.ones(uniq.size)
    if top:
        cols = n_trunc + 1
        cod = h1_geometry(n_trunc + top)
        w = h1_geometry(n_trunc).apply_factor_inverse_right(np.eye(cols))
        s = np.zeros((n_trunc + top + 1, cols))
        s[:cols] = w
        k = 0  # s holds S_k
        for i, m in enumerate(uniq.tolist()):
            if m == 0:
                continue
            for k in range(k + 1, m + 1):
                s[k:k + cols] += w
            b = cod.apply_factor(s)[:cols + m]
            b /= m + 1
            norms[i] = op_norm(b)
    out = norms[where]
    return out.reshape(ns.shape) if ns.ndim else float(out[0])


def _quad_node_count(degree: int, quad_nodes) -> int:
    floor = 4 * (degree + 1)
    if quad_nodes is None:
        return max(1024, 8 * max(degree, 1))
    quad_nodes = _check_integer(quad_nodes, "quad_nodes")
    if quad_nodes < floor:
        raise TooFewNodes(f"need at least {floor} nodes for degree {degree}")
    return quad_nodes


def circle_abs_mean(p, nodes: int) -> float:
    """(1/2pi) int |p(e^it)| dt by the M-node trapezoid rule (FFT values)."""
    c = as_poly(p)
    values = np.fft.fft(c, n=_check_integer(nodes, "nodes", least=1))
    return float(np.mean(np.abs(values)))


def xr_norm(f, r: int, quad_nodes=None) -> float:
    """sum_{j<=r} |f^(j)(0)| + (1/2pi) int |f^(r+1)(e^it)| dt.

    Derivative values at 0 are j! f_j exactly; the circle integral uses the
    trapezoid rule with ``quad_nodes`` nodes (default max(1024, 8*degree)).
    """
    r = _check_integer(r, "r", least=0)
    c = as_poly(f)
    nodes = _quad_node_count(c.size - 1, quad_nodes)
    point_terms = sum(math.factorial(j) * abs(c[j]) for j in range(min(r + 1, c.size)))
    return float(point_terms) + circle_abs_mean(poly_derivative(c, r + 1), nodes)


def _scaled_abs_mean(p, radius: float, nodes: int) -> float:
    c = as_poly(p)
    scaled = c * radius ** np.arange(c.size, dtype=float)
    return circle_abs_mean(scaled, nodes)


def shields_report(r: int, nmax: int, quad_nodes=None):
    """Growth triple for the shift on the X_r space applied to f = 1.

    Returns three GrowthReports over the sample indices (dyadic
    3-per-octave from 2 to nmax):

    * ``mean``  : n^{-r} ||F_n||_r, the scaled norm of the order-1 mean;
      grows like c*log(n).
    * ``power`` : n^{-r-1} ||z^n||_r = prod_{j=1}^{r} (1 - j/n), exact.
    * ``inner`` : n^{-r} (1/2pi) int |F_n^{(r+1)}((1-1/n) e^it)| dt, the
      inner-circle lower-bound integrand at radius 1 - 1/n.
    """
    r = _check_integer(r, "r", *_SHIELDS_R)
    nmax = _check_integer(nmax, "nmax", *_SHIELDS_NMAX)
    ns = sorted({int(round(2.0 ** (k / 3.0)))
                 for k in range(3, int(3 * math.log2(nmax)) + 1)})
    ns = [n for n in ns if 2 <= n <= nmax]
    mean_vals, power_vals, inner_vals = [], [], []
    for n in ns:
        fn = cesaro_multiplier(n)
        nodes = _quad_node_count(n, quad_nodes)
        mean_vals.append(xr_norm(fn, r, nodes) / n ** r)
        exact = 1.0
        for j in range(1, r + 1):
            exact *= 1.0 - j / n
        power_vals.append(exact)
        deriv = poly_derivative(fn, r + 1)
        inner_vals.append(_scaled_abs_mean(deriv, 1.0 - 1.0 / n, nodes) / n ** r)
    ns_arr = np.asarray(ns)
    return (
        GrowthReport(label=f"n^-{r} ||F_n||_{r}", ns=ns_arr,
                     values=np.asarray(mean_vals)),
        GrowthReport(label=f"n^-{r + 1} ||z^n||_{r}", ns=ns_arr,
                     values=np.asarray(power_vals)),
        GrowthReport(label=f"n^-{r} inner-circle integral", ns=ns_arr,
                     values=np.asarray(inner_vals)),
    )
