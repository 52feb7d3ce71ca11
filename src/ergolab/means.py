"""Summability schemes {t_nj} and their action on operator powers.

A mean scheme is a nonnegative row-stochastic coefficient table: row n
applied to the power sequence {T^j} gives the operator mean
``T_n = sum_j t_nj T^j``.  Every scheme, backward iterates included, is one
``MeanScheme`` holding a row rule that its factory binds.  Implemented families:

* ``cesaro(p)``   -- Cesaro means of integer order p >= 1 (a float or a bool
  is a ValueError, as in ``cesaro_mean_sequence``); row weights come
  from the product form ``(p/(n+p)) * prod_{k=1}^{p-1} (n+k-j)/(n+k)`` of
  exact ratios, which stays well-scaled and accurate to a few ulps for n up
  to 1e4.
* ``abel()``      -- discretized Abel means ``(1/n) sum_j (1-1/n)^j T^j``.
* ``zweier()``    -- ``(T^{n-1} + T^n)/2``.
* ``binomial()``  -- ``2^{-n} sum_k C(n,k) T^k = ((T+I)/2)^n``.
* ``power_series(coeffs)`` -- ``F(r_n T)/F(r_n)`` at r_n = 1 - 1/n for a
  generating function F with nonnegative Taylor coefficients.
* ``identity_powers()`` -- the powers themselves, ``T_n = T^n``.

Rows of the infinite families (Abel, power series) are truncated at a
geometric tail-mass bound below ``tail_eps`` and are *not* renormalized, so
the truncation defect stays visible in tests.  Only ``MeanScheme.row``
takes ``tail_eps``; every mean below uses rows at ``DEFAULT_TAIL_EPS``.

``backward_iterate`` produces the scheme with coefficients
``s_nk = (sum_{j>=k+1} t_nj) / (sum_{j>=1} j t_nj)``: a ``MeanScheme`` whose
row rule, picked by the source's kind, is a closed form for the Cesaro and
Abel families and the defining formula, ``backward_row_from_definition``,
otherwise.  The formula is also the test oracle of the closed forms.

Means are formed by two engines.  ``apply_mean`` walks the powers, or,
given ``x``, the vectors T^j x, under the rows of any scheme, in groups of
rows.  ``cesaro_mean_sequence`` walks the Cesaro means of one order at
consecutive n, by the convex recurrence of ``_cesaro_means``, which the
resolvent series identities in ``spectral`` read as well.  ``mean_norms``
is the one place that picks between them, for a sweep of norms.  Every
function taking an operator coerces it once with ``as_operator`` and passes
the model on, so the eigenvalues behind the spectral-radius check of the
infinite-row kinds are computed once per operator.

The algebraic identities of the means have their residuals here too: the
three Cesaro recursions (``cesaro_identity_residuals``), the backward
iterate's (``backit_identity_residual``) and the triangular block's
(``block_mean_residual``).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linop import (DimensionMismatch, OperatorModel, _bind_spec, _check_integer, _check_integers,
                    _check_real, _chunks, _power_walk, _stack_size, as_operator, op_norm)

DEFAULT_TAIL_EPS = 1e-12


class RowOutOfRange(ValueError):
    """Row index below the scheme's first valid row."""


class DegenerateRow(ValueError):
    """Backward iterate undefined: the source row has t_n0 = 1."""


class SpectralRadiusTooLarge(ValueError):
    """An operator that fails ``_check_radius``: spectral radius > 1."""


@dataclass(frozen=True)
class MeanRow:
    """One row of a scheme: sparse support (indices, weights) plus the
    geometric bound on the truncated tail mass (0 for finite rows)."""

    n: int
    indices: np.ndarray
    weights: np.ndarray
    tail_mass_bound: float = 0.0

    def total(self) -> float:
        return float(np.sum(self.weights))

    def dense(self) -> np.ndarray:
        out = np.zeros(int(self.indices[-1]) + 1)
        out[self.indices] = self.weights
        return out


class MeanScheme:
    """A summability scheme: row n is ``rule(n, tail_eps)``, under the
    metadata that reports and dispatch read (``p``: the Cesaro order)."""

    def __init__(self, kind, name, rule, min_n=0, finite_rows=True, p=None):
        self.kind = kind
        self.name = name
        self.rule = rule
        self.min_n = min_n
        self.finite_rows = finite_rows
        self.p = p

    def row(self, n: int, tail_eps: float = DEFAULT_TAIL_EPS) -> MeanRow:
        # a plain int and the default tail_eps skip the helpers, whose
        # abstract-class checks cost about 0.5 us a call
        if type(n) is not int:
            n = _check_integer(n, f"{self.name} row index n")
        if tail_eps != DEFAULT_TAIL_EPS:
            tail_eps = _check_real(tail_eps, "tail_eps", least=0, most=1e-6, open_least=True)
        if n < self.min_n:
            raise RowOutOfRange(f"{self.name}: row {n} < min_n {self.min_n}")
        return self.rule(n, float(tail_eps))

    def __repr__(self):
        return f"<MeanScheme {self.name}>"


def _cesaro_row(p, n, tail_eps):
    j = np.arange(n + 1, dtype=float)
    w = np.full(n + 1, p / (n + p))
    for k in range(1, p):
        w *= (n + k - j) / (n + k)
    return MeanRow(n, np.arange(n + 1), w)


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


def cesaro_mean_sequence(t, p: int, nmax: int, lam=1.0):
    """Yield (n, M_n of order p applied to lam*T) for n = 0..nmax (a
    negative nmax is a ValueError).

    ``lam`` is one rotation or an array of them, each of modulus 1
    (``_check_unimodular``); an array yields stacks of means, one per
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


def _abel_row(n, tail_eps):
    if n == 1:
        return MeanRow(1, np.arange(1), np.array([1.0]))
    q = 1.0 - 1.0 / n
    # smallest J with q^{J+1} < tail_eps
    j_max = int(math.ceil(math.log(tail_eps) / math.log(q))) - 1
    j_max = max(j_max, 0)
    j = np.arange(j_max + 1)
    w = (1.0 / n) * q ** j.astype(float)
    return MeanRow(n, j, w, tail_mass_bound=q ** (j_max + 1))


def _zweier_row(n, tail_eps):
    return MeanRow(n, np.array([n - 1, n]), np.array([0.5, 0.5]))


def _binomial_row(n, tail_eps):
    import scipy.special
    j = np.arange(n + 1, dtype=float)
    logw = (scipy.special.gammaln(n + 1) - scipy.special.gammaln(j + 1)
            - scipy.special.gammaln(n - j + 1) - n * math.log(2.0))
    return MeanRow(n, np.arange(n + 1), np.exp(logw))


def _powers_row(n, tail_eps):
    return MeanRow(n, np.array([n]), np.array([1.0]))


def _polynomial_row(coeffs, n, tail_eps):
    r = 1.0 - 1.0 / n
    u = coeffs * r ** np.arange(coeffs.size, dtype=float)
    keep = np.nonzero(u > 0)[0]
    if keep.size == 0:
        raise RowOutOfRange(f"power_series row {n}: F(r_n) = 0")
    # the row is scale-invariant: an exact power-of-two rescale of its
    # terms to a maximum in [1/2, 1) keeps F(r_n) from overflowing
    u = np.ldexp(u, -np.frexp(u.max())[1])
    return MeanRow(n, keep, u[keep] / np.sum(u))


def _series_row(coeff, n, tail_eps):
    r = 1.0 - 1.0 / n
    if r == 0.0:
        # F(0*T)/F(0) = I; only defined when f_0 > 0 (guarded by min_n)
        return MeanRow(n, np.arange(1), np.array([1.0]))
    # infinite series: accumulate until the geometric majorant of the tail
    # (ratio test on the observed terms) is below tail_eps
    terms = []
    j = 0
    accum = 0.0
    window = []
    while True:
        u = float(coeff(j)) * r ** j
        if not 0.0 <= u < math.inf:
            raise ValueError("power_series coefficients must be finite and >= 0")
        terms.append(u)
        accum += u
        if terms[-1] > 0 and len(terms) >= 2 and terms[-2] > 0:
            window.append(terms[-1] / terms[-2])
            window = window[-8:]
        if j >= 8 and window:
            ratio = max(window)
            if ratio < 1.0 and accum > 0:
                tail = terms[-1] * ratio / (1.0 - ratio)
                if tail < tail_eps * accum:
                    total = accum + tail
                    u_arr = np.asarray(terms)
                    keep = u_arr > 0
                    return MeanRow(n, np.nonzero(keep)[0], u_arr[keep] / total,
                                   tail_mass_bound=tail / total)
        j += 1
        if j > 2_000_000:
            raise RuntimeError("power_series row truncation did not converge")


def cesaro(p: int = 1) -> MeanScheme:
    p = _check_integer(p, "cesaro order p", least=1)
    return MeanScheme("cesaro", f"cesaro(p={p})", functools.partial(_cesaro_row, p), p=p)


def abel() -> MeanScheme:
    return MeanScheme("abel", "abel", _abel_row, min_n=1, finite_rows=False)


def zweier() -> MeanScheme:
    return MeanScheme("zweier", "zweier", _zweier_row, min_n=1)


def binomial() -> MeanScheme:
    return MeanScheme("binomial", "binomial", _binomial_row)


def power_series(coeffs) -> MeanScheme:
    """F(r_n T)/F(r_n) for F with nonnegative Taylor coefficients.

    ``coeffs`` is either a finite sequence (F a polynomial; rows exact) or a
    callable j -> f_j (rows truncated by an observed-ratio geometric bound).
    Row n is taken at the radius r_n = 1 - 1/n.

    A polynomial row keeps the indices of the positive terms c_j r_n^j and
    rescales the terms by an exact power of two to a maximum in [1/2, 1).
    The row is scale-invariant, so it is bit for bit that of the given
    coefficients unless a sum overflowed or a term is subnormal on one side
    of the rescale: coefficients such as 1e308, 1e308 do not overflow
    F(r_n), and a coefficient far below the largest (f_0 = 1e-300 beside
    1e308) keeps its index, with weight 0 where its term vanishes.
    """
    if callable(coeffs):
        rule = functools.partial(_series_row, coeffs)
        f0 = float(coeffs(0))
    else:
        vec = np.asarray(coeffs, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("power_series coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(vec)) or np.any(vec < 0) or not np.any(vec > 0):
            raise ValueError("power_series coeffs must be finite, >= 0 and not all zero")
        rule = functools.partial(_polynomial_row, vec)
        f0 = float(vec[0])
    # row 1 has radius 0: only defined when f_0 > 0
    return MeanScheme("power_series", "power_series", rule, min_n=1 if f0 > 0 else 2,
                      finite_rows=not callable(coeffs))


def identity_powers() -> MeanScheme:
    return MeanScheme("identity_powers", "powers", _powers_row)


def backward_row_from_definition(s: MeanScheme, n: int,
                                 tail_eps: float = DEFAULT_TAIL_EPS) -> MeanRow:
    """The defining formula s_nk = (sum_{j>=k+1} t_nj)/(sum_{j>=1} j t_nj),
    evaluated on the row of ``s`` (truncated well below tail_eps so the
    result itself is tail_eps-accurate).  Rows of the backward iterates
    without a closed form, and the oracle for the closed forms."""
    # truncating the source row at tail mass delta perturbs the backward
    # coefficients by ~ delta * (J + n); a 1e-6 cushion keeps the result
    # accurate to tail_eps itself
    row = s.row(n, max(tail_eps * 1e-6, 5e-324))
    t = row.dense()
    if t[0] >= 1.0 - 1e-15:
        raise DegenerateRow(f"row {n}: t_n0 = 1, backward iterate undefined")
    denom = float(np.sum(np.arange(t.size) * t))
    if denom <= 0.0:
        raise DegenerateRow(f"row {n}: sum_j j t_nj = 0")
    # the coefficients for k = 0..J-1, from the tail sums sum_{j >= k+1} t_j
    coeffs = np.cumsum(t[::-1])[::-1][1:] / denom
    keep = coeffs > 0
    # a finite source row gives an exact backward row
    bound = tail_eps if row.tail_mass_bound else 0.0
    return MeanRow(n, np.nonzero(keep)[0], coeffs[keep], tail_mass_bound=bound)


def backward_iterate(s: MeanScheme) -> MeanScheme:
    """The ``MeanScheme`` of the backward-iterate coefficients of ``s``,
    whose row rule is picked by ``s.kind``: a closed form for the Cesaro
    and Abel kinds, the defining formula otherwise.

    Closed forms: cesaro(p) -> row n - 1 of cesaro(p+1), relabelled n;
    abel -> the Abel row itself.  On zweier the formula gives the closed form
    (2/(2n-1)) * (sum_{k<=n-2} T^k + T^{n-1}/2) bit for bit.  The first row
    is max(s.min_n, 1), or the next one when the formula finds that row
    degenerate (the identity row of abel and of power series with f_0 > 0).
    The kind is ``"<base kind>_backward"`` and the name
    ``"<base name>^(-1)"``.
    """
    if s.kind == "cesaro":
        def rule(n, tail_eps):
            row = _cesaro_row(s.p + 1, n - 1, tail_eps)
            return MeanRow(n, row.indices, row.weights)
    elif s.kind == "abel":
        rule = _abel_row
    else:
        rule = functools.partial(backward_row_from_definition, s)
    min_n = max(s.min_n, 1)
    try:
        backward_row_from_definition(s, min_n)
    except DegenerateRow:
        min_n += 1
    return MeanScheme(s.kind + "_backward", s.name + "^(-1)", rule, min_n, s.finite_rows)


def _check_unimodular(lam):
    """``lam``, one rotation or an array of them, if every entry has
    modulus within 1e-12 of 1, else a ValueError that names it."""
    # "not <=" rejects a NaN, which fails every comparison; one rotation
    # takes no numpy reduction
    near = abs(abs(lam) - 1.0) <= 1e-12
    if not (near.all() if type(near) is np.ndarray else near):
        raise ValueError(f"rotation parameter must have modulus 1, got {lam!r}")
    return lam


def _check_radius(op: OperatorModel, what: str) -> None:
    """The one admission test rho(T) <= 1 + 1e-9, of the infinite-row means
    and of the resolvent series identity; SpectralRadiusTooLarge names ``what``."""
    rho = op.spectral_radius()
    if rho > 1.0 + 1e-9:
        raise SpectralRadiusTooLarge(f"{what} needs spectral radius <= 1, got {rho:.6g}")


def _row_groups(rows):
    """Yield ``(group, span)``: consecutive runs of ``rows`` whose weight
    blocks (rows x support span) hold at most _STACK_CELLS cells, at least
    one row each, and each one's support span ``range(lo, hi + 1)``."""
    group, lo, hi = [], 0, 0
    for row in rows:
        first, last = int(row.indices[0]), int(row.indices[-1])
        if group and len(group) >= _stack_size(max(hi, last) - min(lo, first) + 1):
            yield group, range(lo, hi + 1)
            group = []
        lo, hi = (min(lo, first), max(hi, last)) if group else (first, last)
        group.append(row)
    if group:
        yield group, range(lo, hi + 1)


def _group_means(rows: list, span: range, b: np.ndarray, out: np.ndarray,
                 left=None) -> None:
    """Write into ``out`` the means ``sum_j t_nj b^j``, or ``sum_j t_nj
    left b^j`` when a left factor is given, one per row, from one walk of
    the powers of ``b`` over the group's support ``span``, the one by which
    ``_row_groups`` sized the group.  The walk's ``size`` is as many powers
    as _STACK_CELLS cells hold, so it yields stacks of at most _STACK_CELLS
    cells (``linop._power_walk`` says how it fills them).  Each stack is
    contracted with its block of row weights in one product.
    It stops drawing stacks at the first whose first power (or ``left
    b^j``) is exactly zero, by the walk's zero-power rule: the sums start
    at +0.0.  A nilpotent ``b`` thus pays for no power past its nilpotency
    index, however long the rows."""
    weights = np.zeros((len(rows), len(span)))
    for i, row in enumerate(rows):
        weights[i, row.indices - span.start] = row.weights
    cells = out[0].size
    acc = out.reshape(len(rows), cells)
    acc.fill(0.0)
    start = 0
    for stack in _power_walk(b, span, left, _stack_size(cells)):
        if not stack[0].any():
            break
        acc += weights[:, start:start + len(stack)] @ stack.reshape(-1, cells)
        start += len(stack)


def apply_mean(s: MeanScheme, t, n, lam: complex = 1.0, x=None) -> np.ndarray:
    """The mean ``sum_j t_nj (lam*T)^j`` over the support of row ``n``, or,
    for an array ``n`` of row indices, the ``(len(n), d, d)`` stack of
    means.  With a right operand ``x`` of shape ``(d,)`` or ``(d, k)`` it
    returns the means applied to ``x``, of shape ``n.shape + x.shape``,
    without forming the mean matrices.

    The rows are taken in the groups of ``_row_groups``; one walk per group
    carries the powers of lam*T over its span.  With ``x`` the walk carries
    ``x^T (lam*T^T)^j``, the transposed ``(lam*T)^j x``, so it keeps the
    same right-multiplying step.  A walk ends at its first power that is exactly
    zero (``_group_means``), so a long row on a nilpotent T, or an ``x``
    that a power of T annihilates, costs only the nonzero powers.
    ``lam = 1`` gives the plain mean.  Infinite-row kinds admit only T
    with spectral radius <= 1 (``_check_radius``).
    """
    lam = _check_unimodular(lam)
    op = as_operator(t)
    if not s.finite_rows:
        _check_radius(op, s.name)
    ns = np.asarray(n)
    b = lam * op.matrix
    left = None
    if x is None:
        out = np.empty((ns.size,) + b.shape, dtype=b.dtype)
    else:
        x = np.asarray(x)
        if x.ndim not in (1, 2) or x.shape[0] != op.dim:
            raise DimensionMismatch(
                f"operand of shape {x.shape} does not act on dimension {op.dim}")
        left, b = x.reshape(op.dim, -1).T, b.T
        out = np.empty((ns.size,) + left.shape, dtype=np.result_type(b, left))
    start = 0
    for group, span in _row_groups(s.row(k) for k in ns.reshape(-1).tolist()):
        _group_means(group, span, b, out[start:start + len(group)], left)
        start += len(group)
    if x is None:
        return out.reshape(ns.shape + b.shape)
    return out.swapaxes(1, 2).reshape(ns.shape + x.shape)


def mean_norms(s: MeanScheme, t, ns, mode: str = "spectral", minus=0.0) -> np.ndarray:
    """|| T_n - minus || at the ascending indices ``ns`` (gaps and repeats
    allowed), normed in stacks of at most _STACK_CELLS cells: by the one
    walk of ``cesaro_mean_sequence`` for a Cesaro scheme of any order, else
    by one ``apply_mean`` each.  A descending ``ns`` is a ValueError, and so
    is a float or bool index (``MeanScheme.row``'s message, on either
    route)."""
    op = as_operator(t)
    ns = _check_integers(ns, f"{s.name} row index n")
    if ns.ndim != 1:
        raise ValueError(f"mean_norms needs a 1-D ns, got shape {ns.shape}")
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


def scalar_mean(s: MeanScheme, n: int, mu: complex) -> complex:
    """The row's generating value sum_j t_nj mu^j (the mean of the 1x1
    operator [mu]); equals 1 at mu = 1 up to the truncated tail."""
    mu = _check_unimodular(mu)
    row = s.row(n)
    return np.sum(row.weights * mu ** row.indices.astype(float))


def cesaro_identity_residuals(t, pmax: int, nmax: int) -> np.ndarray:
    """The norms, of shape (3, pmax, nmax), of the residuals of the three
    Cesaro recursions at orders p = 1..pmax and rows n = 1..nmax, with
    M_n = M_n^(p) and L_n = M_n^(p-1) (L_n = T^n at p = 1):

    1. M_n (T - I) = p/(n+1) (L_{n+1} - I),
    2. T M_n = (n+p+1)/(n+1) M_{n+1} - p/(n+1) I,
    3. (n+p+1)/(n+1) M_{n+1} = M_n + p/(n+1) L_{n+1}.

    The rows are taken in stacks of at most _STACK_CELLS cells, with one
    ``apply_mean`` per order and stack (the order below is the previous
    order's) and one stacked norm per identity.
    """
    pmax = _check_integer(pmax, "pmax", least=1)
    nmax = _check_integer(nmax, "nmax", least=1)
    op = as_operator(t)
    eye = np.eye(op.dim)
    out = np.empty((3, pmax, nmax))
    for part in _chunks(nmax, op.dim ** 2):
        # rows n of this slice, and n + 1 for the means of the next row
        n = np.arange(part.start + 1, part.stop + 1)[:, None, None]
        rows = np.arange(part.start + 1, part.stop + 2)
        lower = apply_mean(identity_powers(), op, rows)
        for p in range(1, pmax + 1):
            upper = apply_mean(cesaro(p), op, rows)
            m_n, m_next, m_lower = upper[:-1], upper[1:], lower[1:]
            out[:, p - 1, part] = [op.norm(r) for r in (
                m_n @ (op.matrix - eye) - (p / (n + 1)) * (m_lower - eye),
                op.matrix @ m_n - ((n + p + 1) / (n + 1)) * m_next + (p / (n + 1)) * eye,
                ((n + p + 1) / (n + 1)) * m_next - m_n - (p / (n + 1)) * m_lower)]
            lower = upper
    return out


def backit_identity_residual(s: MeanScheme, t, n):
    """Norm of  T_n^{(-1)}(T - I) - (sum_j j t_nj)^{-1} (T_n - I)  at row
    ``n``, or, for an array ``n`` of row indices, the array of these norms,
    formed in stacks of at most _STACK_CELLS cells (one ``apply_mean`` per
    scheme and one stacked norm each).

    An algebraic identity, so the residual is rounding-level for finite rows
    and tail-mass-level for truncated ones.
    """
    op = as_operator(t)
    ns = np.asarray(n).reshape(-1)
    back = backward_iterate(s)
    eye = np.eye(op.dim)
    out = np.empty(ns.shape)
    for part in _chunks(ns.size, op.dim ** 2):
        denom = np.array([float(np.sum(row.indices * row.weights))
                          for row in map(s.row, ns[part].tolist())])
        rhs = (apply_mean(s, op, ns[part]) - eye) / denom[:, None, None]
        out[part] = op.norm(apply_mean(back, op, ns[part]) @ (op.matrix - eye) - rhs)
    return out.reshape(np.shape(n)) if np.ndim(n) else float(out[0])


def block_mean_residual(a, b_col, mu: complex, s: MeanScheme, n: int) -> float:
    """Two-route check of the triangular-block structure of a mean.

    Route 1 applies the mean to the assembled operator [[A, b], [0, mu]];
    route 2 assembles the block prediction from the mean of A, the row's
    generating value at mu, and the off-diagonal column computed by direct
    power sums.  Returns the operator norm of the difference.
    """
    mu = _check_unimodular(mu)
    op = as_operator(a)
    a = op.matrix
    b_col = np.asarray(b_col).reshape(-1)
    d = a.shape[0]
    if b_col.shape[0] != d:
        raise ValueError("column length must match A")
    dtype = np.result_type(a, b_col, mu)
    big = np.zeros((d + 1, d + 1), dtype=dtype)
    big[:d, :d] = a
    big[:d, d] = b_col
    big[d, d] = mu
    full = apply_mean(s, big, n)

    row = s.row(n)
    # off-diagonal column of M^j: c_{j+1} = A c_j + mu^j b
    blockwise = np.zeros_like(big)
    blockwise[:d, :d] = apply_mean(s, op, n)
    blockwise[d, d] = scalar_mean(s, n, mu)
    c = np.zeros(d, dtype=dtype)
    col = np.zeros(d, dtype=dtype)
    pos = 0
    mu_pow = 1.0
    for idx, w in zip(row.indices, row.weights):
        while pos < int(idx):
            c = a @ c + mu_pow * b_col
            mu_pow *= mu
            pos += 1
        col += w * c
    blockwise[:d, d] = col
    return op_norm(full - blockwise)


# spec head -> factory (``linop._bind_spec``); powseries takes coeffs by name only
_SPEC_HEADS = {"cesaro": lambda p=1: cesaro(int(p)), "abel": abel, "zweier": zweier,
               "binomial": binomial, "powers": identity_powers, "powseries":
               lambda *, coeffs: power_series(list(map(float, coeffs.split(","))))}


def parse_scheme(spec: str) -> MeanScheme:
    """Parse a scheme spec string: "cesaro:p=2" (or "cesaro:2"), "abel", "zweier",
    "binomial", "powers", "powseries:coeffs=1,0.5,0.25".  A parameter that the
    family does not take, one given twice or one missing is a ValueError."""
    return _bind_spec("scheme", spec, _SPEC_HEADS)


def rows_to_csv(s: MeanScheme, ns, path) -> None:
    """Dump rows as CSV with columns n, j, t."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "t"])
        for n in ns:
            row = s.row(n)
            for j, t in zip(row.indices, row.weights):
                writer.writerow([row.n, int(j), repr(float(t))])
