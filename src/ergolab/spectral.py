"""Resolvent sweeps and rotation-invariant growth functionals.

The suprema of interest are over |lambda| > 1 (resolvent weights), over the
unit circle (rotated means), or over both plus an index n (partial sums of
the resolvent's Taylor expansion at infinity).  Infinite suprema are
replaced by grid suprema; reports carry per-radius / per-index profiles so
that refinement diagnostics (doubling ratios, plateau detection) can be read
off without re-running the sweep.  Divergence verdicts are never emitted
here -- callers compare the recorded ratios against their own thresholds.

Three rules are written once.  ``_pascal_sums`` is the one walk of the Cesaro
sums A_n^(q) of the powers, one matrix product per step: the order-p means,
the partial sums of the resolvent series (order 1 in T/lambda) and the Abel
rearrangement (orders 0 and 1) all read it.  ``_first_max`` is the one
reduction of a sweep's grid of values: its first maximum in C order, so of
tied grid points the one that comes first in (radius, angle, n) order wins.
``_ring_angles`` is the one mirror rule of the two annulus sweeps: for a
real T in a real geometry, (T - conj(lambda))^{-1} and the partial sums at
conj(lambda) are the conjugates of those at lambda, so both functionals
take equal values there.  ``kreiss_functional`` and
``partial_sum_functional`` then evaluate the angle indices 0..A/2 of each
ring and copy index k into index A - k; a copy comes after its source in C
order, so a real operator's argmax angle lies in [0, pi].  A complex
operator or a complex Gram keeps the full ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linop import _chunks, as_operator
from .means import SpectralRadiusTooLarge

_SINGULAR_TOL = 1e-12


def _angle_values(count: int) -> np.ndarray:
    """The equispaced angles 2 pi k / count, k = 0..count-1, of every
    sweep's circle."""
    return 2.0 * np.pi * np.arange(count) / count


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
        return _angle_values(self.angles)

    def kreiss_weights(self, r: int) -> list:
        """(rho - 1)^{r+1} / rho^r for each radius rho.  Where rho^r
        overflows the weight is taken in log form, so a weight too small
        for a float is 0 instead of an error."""
        weights = []
        for rho in self.radii:
            try:
                weights.append((rho - 1.0) ** (r + 1) / rho ** r)
            except OverflowError:
                weights.append(math.exp((r + 1) * math.log(rho - 1.0) - r * math.log(rho)))
        return weights


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


def _pascal_sums(b, p: int, nmax: int):
    """Yield (n, [A_n^(0), ..., A_n^(p)]) for n = 0..nmax: the Cesaro sums
    of the powers of ``b`` (a matrix or a stack of them), with
    A_n^(0) = b^n and A_n^(q) = A_{n-1}^(q) + A_n^(q-1), all starting from
    the identity.  One matrix product per step, whatever p.  The list is
    reused at the next step: a consumer norms the sums at once or divides
    them into a fresh array, and never writes to them.
    """
    sums = [np.broadcast_to(np.eye(b.shape[-1]), b.shape)] * (p + 1)
    yield 0, sums
    for n in range(1, nmax + 1):
        sums[0] = sums[0] @ b
        for q in range(1, p + 1):
            sums[q] = sums[q] + sums[q - 1]
        yield n, sums


def _first_max(values):
    """(value, index) of np.argmax's first maximum of ``values`` in C order;
    the value is a float and the index a tuple of ints."""
    k = int(np.argmax(values))
    return float(values.flat[k]), tuple(int(i) for i in np.unravel_index(k, values.shape))


def _ring_angles(op, angles: np.ndarray):
    """(evaluated, sources) for a ring at ``angles``: the angles a sweep
    evaluates, and for each angle index k of the ring the index into
    ``evaluated`` whose value it takes.

    A real operator in a real geometry evaluates indices 0..A/2 and index k
    takes min(k, A - k): lambda_{A-k} is conj(lambda_k), where its
    functionals take the values they take at lambda_k.  Any other evaluates
    the whole ring.  A diagonal or tridiagonal geometry is real and holds no
    dense Gram until one is asked for, so this builds none.
    """
    k = np.arange(angles.size)
    gram = op.geometry
    if np.iscomplexobj(op.matrix) or (gram is not None and gram._dense is not None
                                      and np.any(gram._dense.imag)):
        return angles, k
    return angles[:angles.size // 2 + 1], np.minimum(k, angles.size - k)


def resolvent_norm(t, lam):
    """Norm of (T - lambda I)^{-1} in T's geometry, by dense solve.

    ``lam`` is one point or an array of points.  A point within
    _SINGULAR_TOL of an eigenvalue, or one whose solve fails, is skipped:
    for one point that raises SingularResolvent, for an array it leaves NaN
    there.  An array is solved in stacks of at most _STACK_CELLS matrix
    cells, one stacked solve and one stacked norm each; a stack whose solve
    fails is solved again point by point, so exactly the failing points are
    skipped.
    """
    op = as_operator(t)
    lams = np.asarray(lam)
    flat = lams.reshape(-1)
    out = np.full(flat.shape, np.nan)
    dist = np.min(np.abs(op.eigenvalues()[None, :] - flat[:, None]), axis=1)
    solvable = np.flatnonzero(~(dist < _SINGULAR_TOL))
    eye = np.eye(op.dim)
    for part in _chunks(solvable.size, op.dim ** 2):
        at = solvable[part]
        shifted = op.matrix - flat[at, None, None] * eye
        try:
            out[at] = op.norm(np.linalg.solve(shifted, eye))
        except np.linalg.LinAlgError:
            for j, s in zip(at, shifted):
                try:
                    out[j] = op.norm(np.linalg.solve(s, eye))
                except np.linalg.LinAlgError:
                    pass
    if lams.ndim:
        return out.reshape(lams.shape)
    if np.isnan(out[0]):
        raise SingularResolvent(f"lambda = {lam} is (numerically) in the spectrum")
    return float(out[0])


def kreiss_functional(t, r: int, grid: AnnulusGrid) -> FunctionalReport:
    """Grid sup of ((|lambda|-1)^{r+1} / |lambda|^r) ||(T - lambda I)^{-1}||.

    Each radius ring is one ``resolvent_norm`` call, over angle indices
    0..A/2 for a real operator in a real geometry, whose other half it
    mirrors (``_ring_angles``), and over the full ring otherwise.  Grid
    points inside the (numerical) spectrum are skipped and counted, mirrored
    copies included.  The refinement ratio compares the sup with and without
    the innermost radius ring.
    """
    op = as_operator(t)
    angles = grid.angle_values()
    evaluated, sources = _ring_angles(op, angles)
    norms = np.array([resolvent_norm(op, rho * np.exp(1j * evaluated))
                      for rho in grid.radii])[:, sources]
    skipped = np.isnan(norms)
    values = np.where(skipped, -math.inf, np.array(grid.kreiss_weights(r))[:, None] * norms)
    best, (i, m) = _first_max(values)
    argmax = {"radius": grid.radii[i], "angle": float(angles[m])} if best > -math.inf else {}
    per_radius = [float(v) for v in values.max(axis=1)]
    report = FunctionalReport(value=best, argmax=argmax, skipped=int(skipped.sum()))
    report.radius_profile = list(zip(grid.radii, per_radius))
    if len(per_radius) >= 2:
        coarse = max(per_radius[:-1])
        if coarse > 0:
            report.refinement_ratio = best / coarse
    return report


def partial_sum_functional(t, r: int, nmax: int, grid: AnnulusGrid) -> FunctionalReport:
    """Grid sup over n <= nmax of the weighted partial sums
    ((|lambda|-1)^{r+1} / |lambda|^r) || sum_{k<=n} lambda^{-k-1} T^k ||.

    The sums are the order-1 Pascal sums of T/lambda, walked for a stack
    of angles at once, so the whole n-range costs one stacked matrix
    product and one stacked norm per step.  A real operator in a real
    geometry is walked at angle indices 0..A/2 of each ring, which give the
    other half by mirroring (``_ring_angles``); any other at every angle.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    op = as_operator(t)
    angles = grid.angle_values()
    evaluated, sources = _ring_angles(op, angles)
    values = np.empty((len(grid.radii), evaluated.size, nmax + 1))
    for i, (rho, w) in enumerate(zip(grid.radii, grid.kreiss_weights(r))):
        lams = rho * np.exp(1j * evaluated)
        for part in _chunks(evaluated.size, op.dim ** 2):
            for n, sums in _pascal_sums(op.matrix / lams[part, None, None], 1, nmax):
                values[i, part, n] = w * op.norm(sums[1]) / rho
    values = values[:, sources]
    best, (i, m, n) = _first_max(values)
    report = FunctionalReport(value=best, argmax={"radius": grid.radii[i],
                                                  "angle": float(angles[m]), "n": n})
    report.n_profile = [(n, float(v)) for n, v in enumerate(values.max(axis=(0, 1)))]
    return report


def cesaro_mean_sequence(t, p: int, nmax: int, lam=1.0):
    """Yield (n, M_n of order p applied to lam*T) for n = 0..nmax.

    ``lam`` is one rotation or an array of them; an array yields stacks of
    means, one per rotation.  M_n^{(p)} = A_n^{(p)} / C(n+p, p), with the
    Pascal sums A_n^{(p)} of lam T from ``_pascal_sums``: one matrix
    product per step regardless of p; validated against the
    row-coefficient route in the test suite.
    """
    if p < 1:
        raise ValueError("cesaro order p must be >= 1")
    op = as_operator(t)
    binom = 1.0
    for n, sums in _pascal_sums(np.asarray(lam)[..., None, None] * op.matrix, p, nmax):
        if n:
            binom *= (n + p) / n
        yield n, sums[p] / binom


def mean_growth_functional(t, p: int, r: int, nmax: int, angles: int) -> FunctionalReport:
    """Sup over n in [1, nmax] and the angle grid of
    n^{-r} || M_n^{(p)}(lam T) ||.

    The means of a stack of angles come from one ``cesaro_mean_sequence``.
    Where n^r overflows, n^{-r} is taken as 0.  The report's n_profile
    holds the per-n maxima over angles and tail_value the maximum over the
    trailing half of the n-range (the plateau reading for bounded cases;
    the left edge can dominate the raw sup).

    Unlike the two annulus sweeps it evaluates the full ring even for a
    real operator: its reported argmax is decided between angles that tie
    up to rounding (a weighted shift is rotation invariant), and mirroring
    would move it to the lower of each tied pair.  The mirror waits for a
    benchmark gate that reads the value at the argmax rather than its angle
    (ROADMAP item 1).
    """
    if angles < 1:
        raise ValueError("need at least one angle")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    op = as_operator(t)
    thetas = _angle_values(angles)
    lams = np.exp(1j * thetas)
    with np.errstate(over="ignore"):
        n_pow_r = np.arange(1, nmax + 1, dtype=float) ** r
    values = np.empty((angles, nmax))
    for part in _chunks(angles, op.dim ** 2):
        for n, means in cesaro_mean_sequence(op, p, nmax, lams[part]):
            if n > 0:
                values[part, n - 1] = op.norm(means) / n_pow_r[n - 1]
    best, (m, n) = _first_max(values)
    report = FunctionalReport(value=best, argmax={"n": n + 1, "angle": float(thetas[m])})
    report.n_profile = [(n, float(v)) for n, v in enumerate(values.max(axis=0), start=1)]
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

    Both sides are assembled from one walk of the Pascal sums of orders 0
    and 1 (the powers, and (k+1) M_k); the identity is algebraic so the
    residual is rounding-level for any T.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    op = as_operator(t)
    b = lam * op.matrix
    lhs = np.zeros_like(b)
    rhs = np.zeros_like(b)
    rho_k = 1.0
    for k, (power, partial) in _pascal_sums(b, 1, n):
        if k:
            rho_k *= rho
        lhs += rho_k * power
        # partial = (k+1) M_k; the last term is rho^n (n+1) M_n
        rhs += (rho_k if k == n else (1.0 - rho) * rho_k) * partial
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
