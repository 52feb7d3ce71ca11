"""Resolvent sweeps and rotation-invariant growth functionals.

The suprema of interest are over |lambda| > 1 (resolvent weights), over the
unit circle (rotated means), or over both plus an index n (partial sums of
the resolvent's Taylor expansion at infinity).  Infinite suprema are
replaced by grid suprema; reports carry per-radius / per-index profiles so
that refinement diagnostics (doubling ratios, plateau detection) can be read
off without re-running the sweep.  Divergence verdicts are never emitted
here -- callers compare the recorded ratios against their own thresholds.

Three rules are written once: ``_cesaro_means``, the one walk of the
Cesaro means of the powers, which the order-p means, the resolvent series
identity and the Abel rearrangement (order 1) all read; ``_first_max``, the
one reduction of a sweep's grid of values; and ``_ring_angles``, the one
ring of the two annulus sweeps, ``kreiss_functional`` and
``partial_sum_functional``, with its mirror rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linop import _check_integer, _check_real, _chunks, _power_walk, as_operator
from .means import _check_radius, _check_unimodular

_SINGULAR_TOL = 1e-12
_MIN_ANGLES = 8  # the fewest angles of an AnnulusGrid
# the largest kmax of AnnulusGrid.dyadic: the radius 1 + 2^-kmax rounds to
# 1.0 in double precision from kmax = 53
_MAX_KMAX = 52


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
        radii = tuple(_check_real(x, "radius", least=1, open_least=True) for x in self.radii)
        if not radii or any(a <= b for a, b in zip(radii, radii[1:])):
            raise ValueError("radii must be nonempty and strictly decreasing toward 1")
        angles = _check_integer(self.angles, "angles", least=_MIN_ANGLES)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "radii", radii)

    @classmethod
    def dyadic(cls, kmax: int = 10, angles: int = 512) -> "AnnulusGrid":
        """Radii 1 + 2^{-k}, k = 1..kmax: each refinement step halves the
        distance to the unit circle; kmax is at most _MAX_KMAX."""
        kmax = _check_integer(kmax, "kmax", least=1, most=_MAX_KMAX)
        return cls(tuple(1.0 + 2.0 ** (-k) for k in range(1, kmax + 1)), angles)

    @classmethod
    def harmonic(cls, nmax: int, angles: int) -> "AnnulusGrid":
        """Radii 1 + 1/n at the powers of two n = 2^k <= nmax, the radii
        that the derivation behind ``uniform_kreiss_mean_bound`` needs."""
        nmax = _check_integer(nmax, "nmax", least=1)
        return cls(tuple(1.0 + 2.0 ** (-k) for k in range(nmax.bit_length())), angles)

    def angle_values(self) -> np.ndarray:
        return _angle_values(self.angles)

    def kreiss_weights(self, r: int) -> list:
        """(rho - 1)^{r+1} / rho^r for each radius rho, r a finite number
        >= 0.  Where rho^r overflows the weight is taken in log form, so a
        weight too small for a float is 0 instead of an error."""
        _check_real(r, "r", least=0)
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


def _cesaro_means(b, p: int, nmax: int):
    """Yield (n, [M_n^(0), ..., M_n^(p)]) for n = 0..nmax: the Cesaro means
    of the powers of ``b`` (a matrix or a stack of them), with M_n^(0) = b^n
    and M_n^(q) = M_{n-1}^(q) n/(n+q) + M_n^(q-1) q/(n+q), all starting from
    the identity.  Each mean is a convex combination of its predecessor and
    the mean of the order below, so the walk forms nothing larger than the
    powers (the Cesaro sums C(n+q, q) M_n^(q) would).  The powers come from
    one ``linop._power_walk``, one matrix product per step, whatever p.  The
    list is reused at the next step, which reads the means in it: a
    consumer norms them at once or copies them, and never writes to them.
    """
    means = [np.broadcast_to(np.eye(b.shape[-1]), b.shape)] * (p + 1)
    yield 0, means
    for n, (power,) in enumerate(_power_walk(b, range(1, nmax + 1)), start=1):
        means[0] = power
        for q in range(1, p + 1):
            means[q] = means[q] * (n / (n + q)) + means[q - 1] * (q / (n + q))
        yield n, means


def _first_max(values):
    """(value, index) of np.argmax's first maximum of ``values`` in C order;
    the value is a float and the index a tuple of ints."""
    k = int(np.argmax(values))
    return float(values.flat[k]), tuple(int(i) for i in np.unravel_index(k, values.shape))


def _ring_angles(op, grid: AnnulusGrid):
    """(angles, points, sources) of the annulus sweeps on ``grid``: the
    ring's angles, the points rho e^{i theta} a sweep evaluates (one row per
    radius), and for each angle index k of the ring the column of
    ``points`` whose value it takes.

    A real operator in a real geometry evaluates indices 0..A/2 and index k
    takes min(k, A - k): lambda_{A-k} is conj(lambda_k), where
    (T - lambda)^{-1} and the partial sums are the conjugates of those at
    lambda_k, so the functionals take the same values.  A copy comes after
    its source in C order, so by ``_first_max`` a real operator's argmax
    angle lies in [0, pi].  Any other evaluates the whole ring.  A diagonal
    or tridiagonal geometry is real and holds no dense Gram until one is
    asked for, so this builds none.
    """
    angles = grid.angle_values()
    k = np.arange(angles.size)
    if np.iscomplexobj(op.matrix) or not (op.geometry is None or op.geometry.is_real):
        evaluated, sources = angles, k
    else:
        evaluated, sources = angles[:angles.size // 2 + 1], np.minimum(k, angles.size - k)
    points = np.array(grid.radii)[:, None] * np.exp(1j * evaluated)
    return angles, points, sources


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

    Each radius ring is one ``resolvent_norm`` call at the points of
    ``_ring_angles``, whose mirror fills the rest of the ring.  Grid
    points inside the (numerical) spectrum are skipped and counted, mirrored
    copies included.  The refinement ratio compares the sup with and without
    the innermost radius ring.
    """
    weights = np.array(grid.kreiss_weights(r))[:, None]
    op = as_operator(t)
    angles, points, sources = _ring_angles(op, grid)
    norms = np.array([resolvent_norm(op, ring) for ring in points])[:, sources]
    skipped = np.isnan(norms)
    values = np.where(skipped, -math.inf, weights * norms)
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

    The sums run over one ``linop._power_walk`` of T/lambda for a stack of
    angles at once, so the whole n-range costs one stacked matrix product
    and one stacked norm per step.  Each ring is walked at the
    points of ``_ring_angles``, whose mirror fills the rest of the ring.
    At the first n >= 1 whose stacked power (T/lambda)^n is exactly zero
    (a nilpotent T, such as a truncated shift), the values of S_{n-1} are
    copied to n..nmax and that stack's walk ends (the zero-power rule).
    """
    nmax = _check_integer(nmax, "nmax", least=1)
    op = as_operator(t)
    angles, points, sources = _ring_angles(op, grid)
    values = np.empty(points.shape + (nmax + 1,))
    for i, (rho, w, lams) in enumerate(zip(grid.radii, grid.kreiss_weights(r), points)):
        for part in _chunks(lams.size, op.dim ** 2):
            b = op.matrix / lams[part, None, None]
            total = np.broadcast_to(np.eye(op.dim), b.shape)
            values[i, part, 0] = w * op.norm(total) / rho
            for n, (power,) in enumerate(_power_walk(b, range(1, nmax + 1)), start=1):
                if not power.any():
                    values[i, part, n:] = values[i, part, n - 1, None]
                    break
                total = total + power
                values[i, part, n] = w * op.norm(total) / rho
    values = values[:, sources]
    best, (i, m, n) = _first_max(values)
    report = FunctionalReport(value=best, argmax={"radius": grid.radii[i],
                                                  "angle": float(angles[m]), "n": n})
    report.n_profile = [(n, float(v)) for n, v in enumerate(values.max(axis=(0, 1)))]
    return report


def cesaro_mean_sequence(t, p: int, nmax: int, lam=1.0):
    """Yield (n, M_n of order p applied to lam*T) for n = 0..nmax (a
    negative nmax is a ValueError).

    ``lam`` is one rotation or an array of them, each of modulus 1
    (``means._check_unimodular``); an array yields stacks of means, one per
    rotation.  The means are copies of those of ``_cesaro_means``, one
    matrix product per step regardless of p, so a caller may write into
    them; validated against the row-coefficient route in the test suite.
    """
    p = _check_integer(p, "cesaro order p", least=1)
    nmax = _check_integer(nmax, "nmax", least=0)
    lam = _check_unimodular(lam)
    op = as_operator(t)
    for n, means in _cesaro_means(np.asarray(lam)[..., None, None] * op.matrix, p, nmax):
        yield n, means[p].copy()


def mean_growth_functional(t, p: int, r: int, nmax: int, angles: int) -> FunctionalReport:
    """Sup over n in [1, nmax] and the angle grid of
    n^{-r} || M_n^{(p)}(lam T) ||.

    The means of a stack of angles come from one ``cesaro_mean_sequence``.
    Where n^r overflows, n^{-r} is taken as 0.  The report's n_profile
    holds the per-n maxima over angles and tail_value the maximum over the
    trailing half of the n-range (the plateau reading for bounded cases;
    the left edge can dominate the raw sup).

    Unlike ``partial_sum_functional`` it does not stop when the power
    vanishes.  Past T^n = 0 each mean is still a new step of the walk, a
    rescaled predecessor mixed with the order below, and a norm rescaled
    from an earlier one would not be bit for bit the walked one.

    Unlike the two annulus sweeps it evaluates the full ring even for a
    real operator: its reported argmax is decided between angles that tie
    up to rounding (a weighted shift is rotation invariant), and mirroring
    would move it to the lower of each tied pair.  The mirror waits for a
    benchmark gate that reads the value at the argmax rather than its angle
    (ROADMAP item 1).
    """
    _check_real(r, "r", least=0)
    angles = _check_integer(angles, "angles", least=1)
    nmax = _check_integer(nmax, "nmax", least=1)
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
    (I - rho lam T)^{-1} = sum_n (1-rho)^p C(n+p, p) rho^n M_n^{(p)}(lam T),
    with the means of ``_cesaro_means``, truncated after ``nterms`` >= 1
    terms, n = 0..nterms - 1 (default ceil(40 / (1 - rho))); ``lam`` has
    modulus 1 (``means._check_unimodular``) and T must pass
    ``means._check_radius``.  The weight of M_n^{(p)}, at most 1 / (1 -
    rho), is carried as one running scalar.
    """
    # rho <= 0.9 keeps the tail past the default nterms negligible
    _check_real(rho, "rho", least=0, most=0.9, open_least=True)
    lam = _check_unimodular(lam)
    op = as_operator(t)
    _check_radius(op, "series identity")
    p = _check_integer(p, "cesaro order p", least=1)
    nterms = _check_integer(math.ceil(40.0 / (1.0 - rho)) if nterms is None else nterms,
                            "nterms", least=1)
    eye = np.eye(op.dim)
    lhs = np.linalg.solve(eye - rho * lam * op.matrix, eye)
    rhs = np.zeros_like(lhs)
    weight = (1.0 - rho) ** p
    for n, means in _cesaro_means(lam * op.matrix, p, nterms - 1):
        if n:
            weight *= rho * (n + p) / n
        rhs += weight * means[p]
    return op.norm(lhs - rhs)


def abel_summation_residual(t, lam: complex, rho: float, n: int) -> float:
    """Residual of the exact rearrangement
    sum_{k<=n} rho^k (lam T)^k
      = (1-rho) sum_{k<=n-1} (k+1) M_k(lam T) rho^k + (n+1) M_n(lam T) rho^n.

    Both sides are assembled from one walk of ``_cesaro_means`` of order 1
    (the powers, and the means M_k); ``lam`` has modulus 1
    (``means._check_unimodular``).  The identity is algebraic so the
    residual is rounding-level for any T.
    """
    _check_real(rho, "rho", least=0, most=1, open_least=True)
    lam = _check_unimodular(lam)
    n = _check_integer(n, "n", least=1)
    op = as_operator(t)
    b = lam * op.matrix
    lhs = np.zeros_like(b)
    rhs = np.zeros_like(b)
    rho_k = 1.0
    for k, (power, mean) in _cesaro_means(b, 1, n):
        if k:
            rho_k *= rho
        lhs += rho_k * power
        # the last term is rho^n (n+1) M_n
        rhs += (k + 1) * (rho_k if k == n else (1.0 - rho) * rho_k) * mean
    return op.norm(lhs - rhs)


def uniform_kreiss_mean_bound(t, r: int, nmax: int, angles: int) -> dict:
    """Check the explicit mean bound implied by the partial-sum condition.

    Computes C as the sup of the weighted partial sums on
    ``AnnulusGrid.harmonic(nmax, angles)``, whose radii 1 + 1/n dominate
    the constants used in the derivation, then the max over n <= nmax and
    unimodular mu of || M_n(mu T) || / (2^r (2e - 1) C n^r), read off the
    order-1 ``mean_growth_functional``.
    """
    op = as_operator(t)
    c_value = partial_sum_functional(op, r, nmax, AnnulusGrid.harmonic(nmax, angles)).value
    bound = 2.0 ** r * (2.0 * math.e - 1.0) * c_value
    growth = mean_growth_functional(op, 1, r, nmax, angles)
    return {
        "partial_sum_constant": c_value,
        "bound_constant": bound,
        "max_ratio": growth.value / bound,
        "argmax": growth.argmax,
    }
