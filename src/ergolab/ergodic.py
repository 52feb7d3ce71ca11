"""Power growth, ergodic projections, and quotient-isometry experiments.

Growth sequences come with a log-log least-squares exponent fit over a
trailing window.  The ergodic projection is the spectral projection onto
the fixed space along the range of (T - I), computed from a sorted Schur
form; a nontrivial Jordan structure at 1 is rejected.  Norm sweeps of
means go through ``mean_norms``; the vector consumers call ``apply_mean``.

``gamma_quotient`` estimates the limsup seminorm
``gamma(x) = limsup_n || T_n (T - I)^m x ||`` by a window maximum, detects
its kernel from an averaged Gram, and builds the induced operator on the
quotient.  Under the regularity of the scheme that operator is an isometry;
the report carries the sampled isometry defect so the property can be
checked instead of assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linop import (OperatorModel, _check_integer, _check_integers, _check_real, _chunks,
                    _power_walk, as_matrix, as_operator, op_norm, power)
from .means import MeanScheme, apply_mean
from .spectral import cesaro_mean_sequence

_OVERFLOW_LIMIT = 1e300
_FIXED_TOL = 1e-9  # eigenvalues within this distance of 1 form the fixed cluster
_PROBE_SEED = 0x5EED


class NonSimplePole(ValueError):
    """Eigenvalue 1 carries a nontrivial Jordan block."""


class NonPositiveValues(ValueError):
    """Log-log fit requested on a window containing non-positive values."""


class WindowTooSmall(ValueError):
    """A window-based estimate needs more indices than were supplied."""


@dataclass
class GrowthReport:
    """A labeled sequence (n, value) with an optional fitted exponent."""

    label: str
    ns: np.ndarray
    values: np.ndarray
    fit_exponent: float | None = None
    fit_residual: float | None = None
    window: tuple | None = None
    overflow_at: int | None = None

    @property
    def points(self):
        return list(zip(self.ns.tolist(), self.values.tolist()))

    def _tail(self, window_fraction: float):
        """(ns, values) of the trailing ``window_fraction`` of the points, one at least."""
        start = len(self.ns) - max(int(math.ceil(window_fraction * len(self.ns))), 1)
        return self.ns[start:], self.values[start:]


def _line_fit(x, y):
    """(slope, intercept, deviations) of the least-squares line
    y ~ slope * x + intercept, with deviations = fit - y."""
    design = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(slope), float(intercept), design @ np.array([slope, intercept]) - y


def growth_exponent(report: GrowthReport, window_fraction: float = 0.5):
    """The slope of the line fit (``_line_fit``) of log(value) against
    log(n) over the trailing ``window_fraction`` of the points; the residual
    is the maximum absolute log deviation from the fit."""
    _check_real(window_fraction, "window_fraction", least=0, most=1, open_least=True)
    ns, vals = (np.asarray(a, dtype=float) for a in report._tail(window_fraction))
    if ns.size < 8:
        raise WindowTooSmall("exponent fit needs at least 8 points")
    if np.any(ns < 1):
        raise ValueError("exponent fit needs indices n >= 1")
    if np.any(vals <= 0.0):
        raise NonPositiveValues("exponent fit needs positive values")
    slope, _, deviations = _line_fit(np.log(ns), np.log(vals))
    return slope, float(np.max(np.abs(deviations)))


def log_fit(ns, values):
    """The line fit (``_line_fit``) value ~ c*log(n) + d; returns
    (c, d, rel_residual) with rel_residual the max of |fit - value| / value."""
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if np.any(ns < 1):
        raise ValueError("log fit needs indices n >= 1")
    if np.any(vals <= 0.0):
        raise NonPositiveValues("log fit needs positive values")
    c, d, deviations = _line_fit(np.log(ns), vals)
    return c, d, float(np.max(np.abs(deviations) / vals))


def fitted(report: GrowthReport, window_fraction: float = 0.5) -> GrowthReport:
    """Copy of the report with the trailing-window exponent fit filled in
    (left unfitted when the window is too small or has non-positive values)."""
    try:
        expo, res = growth_exponent(report, window_fraction)
    except (WindowTooSmall, NonPositiveValues):
        return report
    return replace(report, fit_exponent=expo, fit_residual=res,
                   window=(int(report._tail(window_fraction)[0][0]), int(report.ns[-1])))


def _power_norms(op: OperatorModel, ns: list, mode: str, label: str) -> GrowthReport:
    """||T^n|| at the ascending indices ``ns`` (all >= 1) from one power
    walk of single steps (``linop._power_walk`` at ``size=1``).  It stops
    (and records where) at the first power with a non-finite entry or a
    norm above 1e300.
    """
    # map drops each stack of one power once normed, so the walk can free it
    # as it steps on
    def norm(stack):
        return op.norm(stack[0], mode=mode) if np.all(np.isfinite(stack)) else math.inf

    vals = []
    overflow_at = None
    # overflowing products are expected here and flagged, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for n, v in zip(ns, map(norm, _power_walk(op.matrix, ns))):
            if not np.isfinite(v) or v > _OVERFLOW_LIMIT:
                overflow_at = n
                break
            vals.append(v)
    return GrowthReport(label, np.asarray(ns[:len(vals)]), np.asarray(vals),
                        overflow_at=overflow_at)


def power_norm_sequence(t, nmax: int, mode: str = "spectral",
                        window_fraction: float = 0.5) -> GrowthReport:
    """(n, ||T^n||) for n = 1..nmax by incremental multiplication, with the
    default trailing-half exponent fit.  Stops early (and records where) on
    overflow: a non-finite entry or a norm above 1e300."""
    nmax = _check_integer(nmax, "nmax", least=2)
    op = as_operator(t)
    report = _power_norms(op, list(range(1, nmax + 1)), mode,
                          f"||{op.label}^n|| ({mode})")
    return fitted(report, window_fraction)


def power_norm_samples(t, ns, mode: str = "spectral",
                       window_fraction: float = 0.5) -> GrowthReport:
    """||T^n|| at the given sample indices via memoized binary powering;
    cheap enough for large dimensions where a full sweep is not."""
    op = as_operator(t)
    ns = sorted(_check_integers(list(ns), "sample index n", least=1).tolist())
    if len(ns) < 2:
        raise ValueError("need at least two sample indices")
    report = _power_norms(op, ns, mode, f"||{op.label}^n|| ({mode}, sampled)")
    return fitted(report, window_fraction)


def ergodic_projection(t) -> np.ndarray:
    """Spectral projection onto N(T - I) along R(T - I).

    Schur-sorts the eigenvalue cluster within 1e-9 of 1 to the front; the
    restriction of T to that invariant subspace must be the identity up to
    1e-8 (otherwise 1 is a defective eigenvalue and NonSimplePole is
    raised).  Returns the zero matrix when 1 is not in the spectrum.
    """
    a = as_operator(t).matrix
    d = a.shape[0]
    import scipy.linalg
    ts, z, sdim = scipy.linalg.schur(a, output="complex",
                                     sort=lambda lam: abs(lam - 1.0) <= _FIXED_TOL)
    if sdim == 0:
        return np.zeros_like(a)
    a11 = ts[:sdim, :sdim]
    defect = a11 - np.eye(sdim)
    # semisimple <=> the cluster block is the identity (rank of defect = 0)
    if op_norm(defect) > 1e-8 * max(1.0, op_norm(a)):
        raise NonSimplePole("eigenvalue 1 has a nontrivial Jordan block")
    if sdim == d:
        return np.eye(d)
    a12 = ts[:sdim, sdim:]
    a22 = ts[sdim:, sdim:]
    x = scipy.linalg.solve_sylvester(a11, -a22, a12)
    proj = np.zeros_like(ts)
    proj[:sdim, :sdim] = np.eye(sdim)
    proj[:sdim, sdim:] = x
    proj = z @ proj @ z.conj().T
    # the spectral projection of a real matrix is real
    return proj if np.iscomplexobj(a) else proj.real.copy()


def mean_norms(s: MeanScheme, t, ns, mode: str = "spectral", minus=0.0) -> np.ndarray:
    """|| T_n - minus || at the ascending indices ``ns`` (gaps and repeats
    allowed), normed in stacks of at most _STACK_CELLS cells: by the one
    walk of ``cesaro_mean_sequence`` for a Cesaro scheme of any order, else
    by one ``apply_mean`` each.  A descending ``ns`` is a ValueError, and so
    is a float or bool index (``MeanScheme.row``'s message, on either
    route)."""
    op = as_operator(t)
    ns = _check_integers(ns, f"{s.name} row index n")
    if np.any(np.diff(ns) < 0):
        raise ValueError("mean_norms needs ascending indices")
    parts = _chunks(ns.size, op.dim ** 2)
    if s.kind == "cesaro" and ns.size and ns[0] >= s.min_n:
        # the mean at n once for each time ns holds n
        counts = np.bincount(ns)
        walk = (m for n, m in cesaro_mean_sequence(op, s.p, int(ns[-1])) for _ in range(counts[n]))
        stacks = (np.stack([next(walk) for _ in ns[part]]) for part in parts)
    else:
        stacks = (apply_mean(s, op, ns[part]) for part in parts)
    vals = [op.norm(stack - minus, mode=mode) for stack in stacks]
    return np.concatenate(vals) if vals else np.empty(0)


def mean_convergence_report(s: MeanScheme, t, nmax: int) -> GrowthReport:
    """(n, || T_n - P ||) for n from the scheme's first row up to nmax, P
    the ergodic projection."""
    start = max(s.min_n, 0)
    nmax = _check_integer(nmax, "nmax", least=start)
    op = as_operator(t)
    ns = np.arange(start, nmax + 1)
    return GrowthReport(label=f"||mean_n({op.label}) - P||", ns=ns,
                        values=mean_norms(s, op, ns, minus=ergodic_projection(op)))


def alternating_sum_residual(s: MeanScheme, t, k: int, m: int, n0: int,
                             x, n: int) -> float:
    """Residual of the repeated-regularity expansion
    (T - I)^{k-m} T_n x  ~  sum_{l} (-1)^l C(k-m, l) T_{n + (k-m-l) n0} x.

    Exact (zero) for the identity-powers scheme with n0 = 1; otherwise a
    defect sequence that decays when the scheme is (n0, m)-regular on x.
    All q + 2 means come from one batched ``apply_mean`` call.
    """
    k = _check_integer(k, "k", least=0)
    m = _check_integer(m, "m", least=0)
    n0 = _check_integer(n0, "n0", least=0)
    if k < m:
        raise ValueError("need k >= m")
    q = k - m
    op = as_operator(t)
    ns = [n] + [n + (q - ell) * n0 for ell in range(q + 1)]
    means = apply_mean(s, op, ns, x=x)
    coeffs = np.array([(-1.0) ** ell * math.comb(q, ell) for ell in range(q + 1)])
    lhs = power(op.matrix - np.eye(op.dim), q) @ means[0]
    return op.vector_norm(lhs - coeffs @ means[1:])


@dataclass
class QuotientModel:
    """Kernel/quotient data for the estimated limsup seminorm."""

    kernel_basis: np.ndarray
    quotient_map: np.ndarray
    induced_op: np.ndarray
    gamma_values: dict
    isometry_defect: float
    threshold: float

    @property
    def quotient_dim(self) -> int:
        return self.quotient_map.shape[0]


def _probe_vectors(d: int) -> np.ndarray:
    """The probes as columns: the d unit vectors, then 8 random unit
    vectors."""
    rng = np.random.default_rng(_PROBE_SEED)
    randoms = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(8)]
    return np.column_stack([np.eye(d)] + [v / np.linalg.norm(v) for v in randoms])


def gamma_quotient(t, s: MeanScheme, m: int, n_window,
                   kernel_tol: float = 1e-8) -> QuotientModel:
    """Window estimate of gamma(x) = limsup_n ||T_n (T - I)^m x|| and the
    operator induced on the quotient by its kernel.

    The limsup is approximated by the max over n in [lo, hi], lo raised to
    the scheme's first row (WindowTooSmall below hi - lo = 16); the kernel
    is read off the averaged Gram of the window maps (eigendirections whose
    scale falls below ``kernel_tol`` times the largest probed gamma).  The
    quotient coordinates are scaled so the Euclidean norm there matches the
    Gram-estimated seminorm, and the induced operator is expressed in those
    coordinates.  gamma_values records per-probe estimates on the full
    window and on its halves (window-sensitivity diagnostic).  Raises
    OverflowError, naming the window, when the window maps or their Gram
    are not finite, and ValueError when ``kernel_tol`` is not a finite
    number > 0 or ``n_window`` is not two integer ends.
    """
    _check_real(kernel_tol, "kernel_tol", least=0, open_least=True)
    if len(n_window) != 2:
        raise ValueError(f"gamma window must be two ends (lo, hi), got {n_window!r}")
    lo, hi = (_check_integer(end, "gamma window end") for end in n_window)
    lo = max(lo, s.min_n)
    if hi - lo < 16:
        raise WindowTooSmall(f"gamma window [{lo}, {hi}] needs hi - lo >= 16")
    op = as_operator(t)
    a = op.matrix
    d = op.dim
    b = power(a - np.eye(d), m)
    # an overflow is raised below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        maps = apply_mean(s, op, np.arange(lo, hi + 1)) @ b
        if op.geometry is not None:
            maps = op.geometry.apply_factor(maps)
        flat = maps.reshape(-1, d)
        gram = flat.conj().T @ flat / len(maps)
    if not (np.all(np.isfinite(maps)) and np.all(np.isfinite(gram))):
        raise OverflowError(f"the maps of the gamma window [{lo}, {hi}] "
                            "or their Gram overflow")

    def gammas(x):
        """Per-map norms ||c x|| of each probe (the columns of x)."""
        return np.linalg.norm(maps @ x, axis=-2)

    half = len(maps) // 2
    probes = _probe_vectors(d)
    norms = gammas(probes)
    gamma_values = {
        "window": norms.max(axis=0).tolist(),
        "first_half": norms[:half].max(axis=0).tolist(),
        "second_half": norms[half:].max(axis=0).tolist(),
    }
    scale = max(gamma_values["window"], default=0.0)
    threshold = kernel_tol * scale
    eigvals, eigvecs = np.linalg.eigh(gram)
    sigma = np.sqrt(np.clip(eigvals, 0.0, None))
    if scale <= 0.0:
        kernel_mask = np.ones(d, dtype=bool)
    else:
        kernel_mask = sigma < threshold
    kernel_basis = eigvecs[:, kernel_mask]
    kept = eigvecs[:, ~kernel_mask]
    kept_sigma = sigma[~kernel_mask]
    quotient_map = kept_sigma[:, None] * kept.conj().T
    if kept.shape[1] == 0:
        induced = np.zeros((0, 0))
        defect = 0.0
    else:
        pseudo_inverse = kept / kept_sigma[None, :]
        induced = quotient_map @ a @ pseudo_inverse
        defect = np.max(np.abs(gammas(a @ probes).max(axis=0) - norms.max(axis=0)))
    return QuotientModel(kernel_basis=kernel_basis, quotient_map=quotient_map,
                         induced_op=induced, gamma_values=gamma_values,
                         isometry_defect=float(defect), threshold=float(threshold))


def almost_convergence_defect(s: MeanScheme, t, p, k: int, n_sup: int,
                              x) -> float:
    """sup over n <= n_sup of || (1/(k+1)) sum_{j<=k} T_{n+j} x - P x ||.

    P is supplied (typically the ergodic projection); rows from the scheme's
    first valid index through n_sup + k are used, all from one batched
    ``apply_mean`` call.
    """
    k = _check_integer(k, "k", least=0)
    n_sup = _check_integer(n_sup, "n_sup")
    op = as_operator(t)
    target = as_matrix(p) @ np.asarray(x)
    start = s.min_n
    prefix = np.cumsum(apply_mean(s, op, np.arange(start, n_sup + k + 1), x=x), axis=0)

    def window_avg(n):
        i = n - start
        total = prefix[i + k] - (prefix[i - 1] if i > 0 else 0.0)
        return total / (k + 1)

    worst = 0.0
    for n in range(start, n_sup + 1):
        worst = max(worst, op.vector_norm(window_avg(n) - target))
    return worst
