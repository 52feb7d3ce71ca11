"""Resolvent sweeps and rotation-invariant growth functionals.

The suprema of interest are over |lambda| > 1 (resolvent weights), over the
unit circle (rotated means), or over both plus an index n (partial sums of
the resolvent's Taylor expansion at infinity).  Infinite suprema are
replaced by grid suprema; reports carry per-radius / per-index profiles so
that refinement diagnostics (doubling ratios, plateau detection) can be read
off without re-running the sweep.  Divergence verdicts are never emitted
here -- callers compare the recorded ratios against their own thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linop import as_operator
from .means import SpectralRadiusTooLarge

_SINGULAR_TOL = 1e-12


class SingularResolvent(ValueError):
    """lambda is (numerically) in the spectrum; the resolvent solve fails."""


@dataclass(frozen=True)
class AnnulusGrid:
    """Sampling grid in {|lambda| > 1}: a decreasing ladder of radii
    approaching 1 and equispaced angles on the circle."""

    radii: tuple
    angles: int

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.size == 0 or np.any(r <= 1.0) or np.any(np.diff(r) >= 0):
            raise ValueError("radii must be > 1 and strictly decreasing toward 1")
        if self.angles < 8:
            raise ValueError("need at least 8 angles")
        object.__setattr__(self, "radii", tuple(float(x) for x in r))

    @classmethod
    def dyadic(cls, kmax: int = 10, angles: int = 512) -> "AnnulusGrid":
        """Radii 1 + 2^{-k}, k = 1..kmax: each refinement step halves the
        distance to the unit circle."""
        return cls(tuple(1.0 + 2.0 ** (-k) for k in range(1, kmax + 1)), angles)

    def angle_values(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.angles) / self.angles


@dataclass
class FunctionalReport:
    """Grid supremum of a weighted functional plus enough structure to judge
    refinement: per-radius maxima for resolvent sweeps, per-index maxima for
    n-parameterized sweeps."""

    value: float
    argmax: dict
    radius_profile: list = field(default_factory=list)   # (radius, max over angles)
    n_profile: list = field(default_factory=list)        # (n, max over grid)
    refinement_ratio: float | None = None
    tail_value: float | None = None
    skipped: int = 0


def resolvent_norm(t, lam: complex) -> float:
    """Norm of (T - lambda I)^{-1} in T's geometry, by dense solve."""
    op = as_operator(t)
    if np.min(np.abs(op.eigenvalues() - lam)) < _SINGULAR_TOL:
        raise SingularResolvent(f"lambda = {lam} within {_SINGULAR_TOL} of the spectrum")
    eye = np.eye(op.dim)
    try:
        inv = np.linalg.solve(op.matrix - lam * eye, eye)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"solve failed at lambda = {lam}") from exc
    return op.norm(inv)


def _kreiss_weight(rho: float, r: int) -> float:
    return (rho - 1.0) ** (r + 1) / rho ** r


def kreiss_functional(t, r: int, grid: AnnulusGrid) -> FunctionalReport:
    """Grid sup of ((|lambda|-1)^{r+1} / |lambda|^r) ||(T - lambda I)^{-1}||.

    Grid points inside the (numerical) spectrum are skipped and counted.
    The refinement ratio compares the sup with and without the innermost
    radius ring.
    """
    op = as_operator(t)
    best = -math.inf
    argmax = {}
    per_radius = [(-math.inf)] * len(grid.radii)
    skipped = 0
    angles = grid.angle_values()
    for i, rho in enumerate(grid.radii):
        w = _kreiss_weight(rho, r)
        for m, theta in enumerate(angles):
            lam = rho * np.exp(1j * theta)
            try:
                val = w * resolvent_norm(op, lam)
            except SingularResolvent:
                skipped += 1
                continue
            if val > per_radius[i]:
                per_radius[i] = val
            if val > best:
                best = val
                argmax = {"radius": rho, "angle": float(theta)}
    report = FunctionalReport(value=best, argmax=argmax, skipped=skipped)
    report.radius_profile = [(rho, v) for rho, v in zip(grid.radii, per_radius)]
    if len(per_radius) >= 2:
        coarse = max(per_radius[:-1])
        if coarse > 0:
            report.refinement_ratio = best / coarse
    return report


def partial_sum_functional(t, r: int, nmax: int, grid: AnnulusGrid) -> FunctionalReport:
    """Grid sup over n <= nmax of the weighted partial sums
    ((|lambda|-1)^{r+1} / |lambda|^r) || sum_{k<=n} lambda^{-k-1} T^k ||.

    Per grid point the sums are accumulated incrementally in powers of
    T/lambda, so the whole n-range costs one matrix product per step.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    op = as_operator(t)
    a = op.matrix
    eye = np.eye(op.dim)
    best = -math.inf
    argmax = {}
    n_best = np.full(nmax + 1, -math.inf)
    for i, rho in enumerate(grid.radii):
        w = _kreiss_weight(rho, r)
        for m, theta in enumerate(grid.angle_values()):
            lam = rho * np.exp(1j * theta)
            b = a / lam
            p = eye.copy()
            acc = eye.copy()
            for n in range(0, nmax + 1):
                if n > 0:
                    p = p @ b
                    acc = acc + p
                val = w * op.norm(acc) / rho
                if val > n_best[n]:
                    n_best[n] = val
                if val > best:
                    best = val
                    argmax = {"radius": rho, "angle": float(theta), "n": n}
    report = FunctionalReport(value=best, argmax=argmax)
    report.n_profile = [(n, float(v)) for n, v in enumerate(n_best)]
    return report


def cesaro_mean_sequence(t, p: int, nmax: int, lam: complex = 1.0):
    """Yield (n, M_n of order p applied to lam*T) for n = 0..nmax.

    Uses the cumulative (Pascal-triangle) recursion: the unnormalized
    accumulators satisfy A_n^{(q)} = A_{n-1}^{(q)} + A_n^{(q-1)} with
    A_n^{(0)} = (lam T)^n, and M_n^{(p)} = A_n^{(p)} / C(n+p, p).  One matrix
    product per step regardless of p; validated against the row-coefficient
    route in the test suite.
    """
    if p < 1:
        raise ValueError("cesaro order p must be >= 1")
    op = as_operator(t)
    b = lam * op.matrix
    eye = np.eye(op.dim)
    accs = [eye.copy() for _ in range(p + 1)]
    pow_n = eye.copy()
    binom = 1.0
    yield 0, eye.copy()
    for n in range(1, nmax + 1):
        pow_n = pow_n @ b
        accs[0] = pow_n
        for q in range(1, p + 1):
            accs[q] = accs[q] + accs[q - 1]
        binom *= (n + p) / n
        yield n, accs[p] / binom


def mean_growth_functional(t, p: int, r: int, nmax: int, angles: int) -> FunctionalReport:
    """Sup over n in [1, nmax] and the angle grid of
    n^{-r} || M_n^{(p)}(lam T) ||.

    The report's n_profile holds the per-n maxima over angles and tail_value
    the maximum over the trailing half of the n-range (the plateau reading
    for bounded cases; the left edge can dominate the raw sup).
    """
    if angles < 1:
        raise ValueError("need at least one angle")
    op = as_operator(t)
    n_best = np.full(nmax + 1, -math.inf)
    best = -math.inf
    argmax = {}
    for m in range(angles):
        lam = np.exp(2j * np.pi * m / angles)
        for n, mean in cesaro_mean_sequence(op, p, nmax, lam):
            if n == 0:
                continue
            val = op.norm(mean) / n ** r
            if val > n_best[n]:
                n_best[n] = val
            if val > best:
                best = val
                argmax = {"n": n, "angle": float(2.0 * np.pi * m / angles)}
    report = FunctionalReport(value=best, argmax=argmax)
    report.n_profile = [(n, float(v)) for n, v in enumerate(n_best) if n >= 1]
    tail = [v for n, v in report.n_profile if n > nmax // 2]
    report.tail_value = max(tail) if tail else None
    return report


def resolvent_series_residual(t, p: int, lam: complex, rho: float,
                              nterms: int | None = None) -> float:
    """Residual of the generating identity
    (I - rho lam T)^{-1} = (1-rho)^p sum_n C(n+p, p) M_n^{(p)}(lam T) rho^n,
    truncated after ``nterms`` terms (default ceil(40 / (1 - rho))).
    """
    if not (0.0 < rho <= 0.9):
        raise ValueError("rho must lie in (0, 0.9] for a negligible tail")
    op = as_operator(t)
    if op.spectral_radius() > 1.0 + 1e-9:
        raise SpectralRadiusTooLarge("series identity needs spectral radius <= 1")
    if nterms is None:
        nterms = int(math.ceil(40.0 / (1.0 - rho)))
    eye = np.eye(op.dim)
    lhs = np.linalg.solve(eye - rho * lam * op.matrix, eye)
    scale = (1.0 - rho) ** p
    rhs = np.zeros_like(lhs)
    binom = 1.0  # C(n+p, p)
    rho_n = 1.0
    for n, mean in cesaro_mean_sequence(op, p, nterms, lam):
        if n > 0:
            binom *= (n + p) / n
            rho_n *= rho
        rhs += scale * binom * rho_n * mean
    return op.norm(lhs - rhs)


def abel_summation_residual(t, lam: complex, rho: float, n: int) -> float:
    """Residual of the exact rearrangement
    sum_{k<=n} rho^k (lam T)^k
      = (1-rho) sum_{k<=n-1} (k+1) M_k(lam T) rho^k + (n+1) M_n(lam T) rho^n.

    Both sides are assembled from one incremental power sweep; the identity
    is algebraic so the residual is rounding-level for any T.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    op = as_operator(t)
    b = lam * op.matrix
    eye = np.eye(op.dim)
    lhs = np.zeros_like(b)
    rhs = np.zeros_like(b)
    p = eye.copy()          # (lam T)^k
    partial = eye.copy()    # (k+1) M_k = sum_{j<=k} (lam T)^j
    rho_k = 1.0
    for k in range(0, n + 1):
        if k > 0:
            p = p @ b
            partial = partial + p
            rho_k *= rho
        lhs += rho_k * p
        if k <= n - 1:
            rhs += (1.0 - rho) * rho_k * partial
    rhs += rho_k * partial  # rho^n (n+1) M_n
    return op.norm(lhs - rhs)


def uniform_kreiss_mean_bound(t, r: int, nmax: int, angles: int,
                              grid: AnnulusGrid) -> dict:
    """Check the explicit mean bound implied by the partial-sum condition.

    Computes C as the grid sup of the weighted partial sums, then the max
    over n <= nmax and unimodular mu of
    || M_n(mu T) || / (2^r (2e - 1) C n^r), read off the order-1
    ``mean_growth_functional``.  For the grid to dominate the constants used
    in the derivation it should contain radii 1 + 1/n for the n of interest.
    """
    op = as_operator(t)
    c_value = partial_sum_functional(op, r, nmax, grid).value
    bound = 2.0 ** r * (2.0 * math.e - 1.0) * c_value
    growth = mean_growth_functional(op, 1, r, nmax, angles)
    return {
        "partial_sum_constant": c_value,
        "bound_constant": bound,
        "max_ratio": growth.value / bound,
        "argmax": growth.argmax,
    }
