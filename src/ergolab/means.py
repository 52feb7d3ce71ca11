"""Summability schemes {t_nj} and their action on operator powers.

A mean scheme is a nonnegative row-stochastic coefficient table: row n
applied to the power sequence {T^j} gives the operator mean
``T_n = sum_j t_nj T^j``.  Implemented families:

* ``cesaro(p)``   -- Cesaro means of integer order p >= 1; row weights come
  from the product form ``(p/(n+p)) * prod_{k=1}^{p-1} (n+k-j)/(n+k)`` of
  exact ratios, which stays well-scaled and accurate to a few ulps for n up
  to 1e4.
* ``abel()``      -- discretized Abel means ``(1/n) sum_j (1-1/n)^j T^j``.
* ``zweier()``    -- ``(T^{n-1} + T^n)/2``.
* ``binomial()``  -- ``2^{-n} sum_k C(n,k) T^k = ((T+I)/2)^n``.
* ``power_series(coeffs, radii)`` -- ``F(r_n T)/F(r_n)`` for a generating
  function F with nonnegative Taylor coefficients; default radii 1 - 1/n.
* ``identity_powers()`` -- the powers themselves, ``T_n = T^n``.

Rows of the infinite families (Abel, power series) are truncated at a
geometric tail-mass bound below ``tail_eps`` and are *not* renormalized, so
the truncation defect stays visible in tests.  Only ``MeanScheme.row``
takes ``tail_eps``; every mean below uses rows at ``DEFAULT_TAIL_EPS``.

``backward_iterate`` produces the scheme with coefficients
``s_nk = (sum_{j>=k+1} t_nj) / (sum_{j>=1} j t_nj)``; closed forms are used
for the Cesaro / Abel / Zweier families and the defining formula otherwise.

``apply_mean`` is the one mean walk: of the powers, or, given ``x``, of the
vectors T^j x.  Every function taking an operator coerces it once with
``as_operator`` and passes the model on, so the eigenvalues behind the
spectral-radius check of the infinite-row kinds are computed once per
operator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .linop import (DimensionMismatch, OperatorModel, _chunks, _power_walk, _stack_size,
                    as_operator, op_norm)

DEFAULT_TAIL_EPS = 1e-12


class RowOutOfRange(ValueError):
    """Row index below the scheme's first valid row."""


class DegenerateRow(ValueError):
    """Backward iterate undefined: the source row has t_n0 = 1."""


class SpectralRadiusTooLarge(ValueError):
    """Infinite-row scheme applied to an operator with spectral radius > 1."""


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


def _check_tail_eps(tail_eps: float) -> None:
    if not (0.0 < tail_eps <= 1e-6):
        raise ValueError("tail_eps must lie in (0, 1e-6]")


class MeanScheme:
    """Base class: a row generator with kind/name metadata."""

    kind = "abstract"
    name = "abstract"
    min_n = 0
    finite_rows = True

    def row(self, n: int, tail_eps: float = DEFAULT_TAIL_EPS) -> MeanRow:
        _check_tail_eps(tail_eps)
        if n < self.min_n:
            raise RowOutOfRange(f"{self.name}: row {n} < min_n {self.min_n}")
        return self._row(int(n), float(tail_eps))

    def _row(self, n: int, tail_eps: float) -> MeanRow:
        raise NotImplementedError

    def __repr__(self):
        return f"<MeanScheme {self.name}>"


class _Cesaro(MeanScheme):
    kind = "cesaro"

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("cesaro order p must be >= 1")
        self.p = int(p)
        self.name = f"cesaro(p={p})"

    def _row(self, n, tail_eps):
        j = np.arange(n + 1, dtype=float)
        w = np.full(n + 1, self.p / (n + self.p))
        for k in range(1, self.p):
            w *= (n + k - j) / (n + k)
        return MeanRow(n, np.arange(n + 1), w)


class _Abel(MeanScheme):
    kind = name = "abel"
    min_n = 1
    finite_rows = False

    def _row(self, n, tail_eps):
        if n == 1:
            return MeanRow(1, np.arange(1), np.array([1.0]))
        q = 1.0 - 1.0 / n
        # smallest J with q^{J+1} < tail_eps
        j_max = int(math.ceil(math.log(tail_eps) / math.log(q))) - 1
        j_max = max(j_max, 0)
        j = np.arange(j_max + 1)
        w = (1.0 / n) * q ** j.astype(float)
        return MeanRow(n, j, w, tail_mass_bound=q ** (j_max + 1))


class _Zweier(MeanScheme):
    kind = name = "zweier"
    min_n = 1

    def _row(self, n, tail_eps):
        if n == 1:
            return MeanRow(1, np.arange(2), np.array([0.5, 0.5]))
        return MeanRow(n, np.array([n - 1, n]), np.array([0.5, 0.5]))


class _Binomial(MeanScheme):
    kind = name = "binomial"

    def _row(self, n, tail_eps):
        j = np.arange(n + 1, dtype=float)
        logw = gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1) - n * math.log(2.0)
        return MeanRow(n, np.arange(n + 1), np.exp(logw))


class _PowerSeries(MeanScheme):
    """F(r_n T)/F(r_n) for F with nonnegative Taylor coefficients.

    ``coeffs`` is either a finite sequence (F a polynomial; rows exact) or a
    callable j -> f_j (rows truncated by an observed-ratio geometric bound).
    ``radii`` is a callable n -> r_n, defaulting to 1 - 1/n.
    """

    kind = name = "power_series"
    _MAX_TERMS = 2_000_000

    def __init__(self, coeffs, radii=None):
        if callable(coeffs):
            self._coeff_fn = coeffs
            self._coeff_vec = None
            f0 = float(coeffs(0))
        else:
            vec = np.asarray(coeffs, dtype=float)
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError("power_series coeffs must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(vec)) or np.any(vec < 0) or not np.any(vec > 0):
                raise ValueError("power_series coeffs must be finite, >= 0 and not all zero")
            # the rows are scale-invariant: an exact power-of-two rescale to
            # a maximum in [1/2, 1) keeps their sums F(r_n) from overflowing
            vec = np.ldexp(vec, -np.frexp(vec.max())[1])
            self._coeff_vec = vec
            self._coeff_fn = None
            f0 = float(vec[0])
        if radii is None:
            self._radius = lambda n: 1.0 - 1.0 / n
            # row 1 has radius 0: only defined when f_0 > 0
            self.min_n = 1 if f0 > 0 else 2
        else:
            if callable(radii):
                self._radius = radii
                self.min_n = 1
            else:
                rs = np.asarray(radii, dtype=float)
                if np.any(rs <= 0) or np.any(rs >= 1) or np.any(np.diff(rs) <= 0):
                    raise ValueError("radii must be strictly increasing in (0, 1)")
                self._radius = lambda n, rs=rs: float(rs[n - 1])
                self.min_n = 1
        self.finite_rows = self._coeff_vec is not None

    def _row(self, n, tail_eps):
        r = float(self._radius(n))
        if not (0.0 <= r < 1.0):
            raise ValueError(f"radius r_{n} = {r} outside [0, 1)")
        if self._coeff_vec is not None:
            u = self._coeff_vec * r ** np.arange(self._coeff_vec.size, dtype=float)
            total = float(np.sum(u))
            if total <= 0:
                raise RowOutOfRange(f"power_series row {n}: F(r_n) = 0")
            keep = u > 0
            return MeanRow(n, np.nonzero(keep)[0], u[keep] / total)
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
            u = float(self._coeff_fn(j)) * r ** j
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
            if j > self._MAX_TERMS:
                raise RuntimeError("power_series row truncation did not converge")


class _IdentityPowers(MeanScheme):
    kind = "identity_powers"
    name = "powers"

    def _row(self, n, tail_eps):
        return MeanRow(n, np.array([n]), np.array([1.0]))


class _CesaroBackward(MeanScheme):
    """Backward iterate of cesaro(p): row n equals row n-1 of cesaro(p+1)."""

    kind = "cesaro_backward"
    min_n = 1

    def __init__(self, p: int):
        self.name = f"cesaro(p={p + 1})<<1"
        self.p = p
        self._inner = _Cesaro(p + 1)

    def _row(self, n, tail_eps):
        inner = self._inner._row(n - 1, tail_eps)
        return MeanRow(n, inner.indices, inner.weights)


class _AbelBackward(_Abel):
    """Backward iterate of abel(): the Abel rows themselves from row 2 on."""

    kind = "abel_backward"
    name = "abel^(-1)"
    min_n = 2


class _ZweierBackward(MeanScheme):
    """Closed form (2/(2n-1)) * (sum_{k<=n-2} T^k + T^{n-1}/2)."""

    kind = "zweier_backward"
    name = "zweier^(-1)"
    min_n = 1

    def _row(self, n, tail_eps):
        w = np.full(n, 2.0 / (2 * n - 1))
        w[-1] *= 0.5
        return MeanRow(n, np.arange(n), w)


class _FormulaBackward(MeanScheme):
    """Backward iterate computed from the defining formula on the base row."""

    def __init__(self, base: MeanScheme, min_n: int):
        self.kind = base.kind + "_backward"
        self.name = base.name + "^(-1)"
        self._base = base
        self.min_n = min_n
        self.finite_rows = base.finite_rows

    def _row(self, n, tail_eps):
        return backward_row_from_definition(self._base, n, tail_eps)


def _inner_eps(tail_eps: float) -> float:
    # truncating the source row at tail mass delta perturbs the backward
    # coefficients by ~ delta * (J + n); a 1e-6 cushion keeps the result
    # accurate to tail_eps itself
    return max(tail_eps * 1e-6, 5e-324)


def _backward_row(row: MeanRow, tail_mass: float | None = None) -> MeanRow:
    t = row.dense()
    if t[0] >= 1.0 - 1e-15:
        raise DegenerateRow(f"row {row.n}: t_n0 = 1, backward iterate undefined")
    denom = float(np.sum(np.arange(t.size) * t))
    if denom <= 0.0:
        raise DegenerateRow(f"row {row.n}: sum_j j t_nj = 0")
    # s_k = sum_{j >= k+1} t_j / denom for k = 0..J-1
    tails = np.cumsum(t[::-1])[::-1]
    s = tails[1:] / denom
    keep = s > 0
    if row.tail_mass_bound == 0.0:
        bound = 0.0  # finite source row: the backward row is exact
    else:
        bound = row.tail_mass_bound if tail_mass is None else tail_mass
    return MeanRow(row.n, np.nonzero(keep)[0], s[keep], tail_mass_bound=bound)


def cesaro(p: int = 1) -> MeanScheme:
    return _Cesaro(p)


def abel() -> MeanScheme:
    return _Abel()


def zweier() -> MeanScheme:
    return _Zweier()


def binomial() -> MeanScheme:
    return _Binomial()


def power_series(coeffs, radii=None) -> MeanScheme:
    return _PowerSeries(coeffs, radii)


def identity_powers() -> MeanScheme:
    return _IdentityPowers()


def backward_row_from_definition(s: MeanScheme, n: int,
                                 tail_eps: float = DEFAULT_TAIL_EPS) -> MeanRow:
    """The defining formula s_nk = (sum_{j>=k+1} t_nj)/(sum_{j>=1} j t_nj),
    evaluated on the row of ``s`` (truncated well below tail_eps so the
    result itself is tail_eps-accurate).  Rows of the formula-based backward
    schemes, and the oracle for the closed-form ones."""
    return _backward_row(s.row(n, _inner_eps(tail_eps)), tail_eps)


def backward_iterate(s: MeanScheme) -> MeanScheme:
    """Scheme of the backward-iterate coefficients of ``s``.

    Closed forms: cesaro(p) -> cesaro(p+1) shifted one row; abel -> abel
    (first valid row 2); zweier -> the two-level uniform rows.  Other kinds,
    power series included, apply the defining formula row by row; the kind
    of every backward scheme is ``"<base kind>_backward"``.
    """
    if isinstance(s, _Cesaro):
        return _CesaroBackward(s.p)
    if isinstance(s, _Abel):
        return _AbelBackward()
    if isinstance(s, _Zweier):
        return _ZweierBackward()
    min_n = max(s.min_n, 1)
    if isinstance(s, _PowerSeries) and s._radius(1) == 0.0:
        min_n = max(min_n, 2)  # row 1 is F(0 T)/F(0) = I, degenerate
    return _FormulaBackward(s, min_n)


def _check_unimodular(lam: complex) -> complex:
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ValueError("rotation parameter must have modulus 1")
    return lam


def _check_radius_for(s: MeanScheme, op: OperatorModel) -> None:
    if s.finite_rows:
        return
    rho = op.spectral_radius()
    if rho > 1.0 + 1e-9:
        raise SpectralRadiusTooLarge(
            f"{s.name} needs spectral radius <= 1, got {rho:.6g}")


def _row_groups(rows):
    """Consecutive runs of ``rows`` whose weight blocks (rows x support
    span) hold at most _STACK_CELLS cells, at least one row each."""
    group, lo, hi = [], 0, 0
    for row in rows:
        first, last = int(row.indices[0]), int(row.indices[-1])
        if group and len(group) >= _stack_size(max(hi, last) - min(lo, first) + 1):
            yield group
            group = []
        lo, hi = (min(lo, first), max(hi, last)) if group else (first, last)
        group.append(row)
    if group:
        yield group


def _group_means(rows: list, b: np.ndarray, out: np.ndarray, left=None) -> None:
    """Write into ``out`` the means ``sum_j t_nj b^j``, or ``sum_j t_nj
    left b^j`` when a left factor is given, one per row, from one walk of
    the powers of ``b`` over the union of the rows' supports.  The walked
    states are collected in stacks of at most _STACK_CELLS cells, and each
    stack is contracted with its block of row weights in one product."""
    lo = min(int(row.indices[0]) for row in rows)
    used = np.zeros(max(int(row.indices[-1]) for row in rows) - lo + 1, dtype=bool)
    for row in rows:
        used[row.indices - lo] = True
    support = lo + np.flatnonzero(used)
    column = np.cumsum(used) - 1
    weights = np.zeros((len(rows), support.size))
    for i, row in enumerate(rows):
        weights[i, column[row.indices - lo]] = row.weights
    cells = out[0].size
    acc = out.reshape(len(rows), cells)
    acc.fill(0.0)
    walk = _power_walk(b, support.tolist(), left)
    state = np.dtype((out.dtype, out.shape[1:]))
    for part in _chunks(support.size, cells):
        stack = np.fromiter(walk, state, part.stop - part.start)
        acc += weights[:, part] @ stack.reshape(-1, cells)


def apply_mean(s: MeanScheme, t, n, lam: complex = 1.0, x=None) -> np.ndarray:
    """The mean ``sum_j t_nj (lam*T)^j`` over the support of row ``n``, or,
    for an array ``n`` of row indices, the ``(len(n), d, d)`` stack of
    means.  With a right operand ``x`` of shape ``(d,)`` or ``(d, k)`` it
    returns the means applied to ``x``, of shape ``n.shape + x.shape``,
    without forming the mean matrices.

    The rows are taken in groups whose weight blocks (rows x support span)
    hold at most _STACK_CELLS cells; one walk per group carries the powers
    of lam*T over the union of the group's supports.  With ``x`` the walk
    carries ``x^T (lam*T^T)^j``, the transposed ``(lam*T)^j x``, so it keeps
    the same right-multiplying step.  ``lam = 1`` gives the plain mean.
    Infinite-row kinds require spectral radius <= 1.
    """
    lam = _check_unimodular(lam)
    op = as_operator(t)
    _check_radius_for(s, op)
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
    for group in _row_groups(s.row(k) for k in ns.reshape(-1).tolist()):
        _group_means(group, b, out[start:start + len(group)], left)
        start += len(group)
    if x is None:
        return out.reshape(ns.shape + b.shape)
    return out.swapaxes(1, 2).reshape(ns.shape + x.shape)


def scalar_mean(s: MeanScheme, n: int, mu: complex) -> complex:
    """The row's generating value sum_j t_nj mu^j (the mean of the 1x1
    operator [mu]); equals 1 at mu = 1 up to the truncated tail."""
    mu = _check_unimodular(mu)
    row = s.row(n)
    return np.sum(row.weights * mu ** row.indices.astype(float))


def backit_identity_residual(s: MeanScheme, t, n):
    """Norm of  T_n^{(-1)}(T - I) - (sum_j j t_nj)^{-1} (T_n - I)  at row
    ``n``, or, for an array ``n`` of row indices, the array of these norms
    (one batched ``apply_mean`` per scheme and one stacked norm).

    An algebraic identity, so the residual is rounding-level for finite rows
    and tail-mass-level for truncated ones.
    """
    op = as_operator(t)
    ns = np.asarray(n)
    eye = np.eye(op.dim)
    lhs = apply_mean(backward_iterate(s), op, ns) @ (op.matrix - eye)
    denom = np.array([float(np.sum(row.indices * row.weights))
                      for row in map(s.row, ns.reshape(-1).tolist())])
    rhs = (apply_mean(s, op, ns) - eye) / denom.reshape(ns.shape + (1, 1))
    return op.norm(lhs - rhs)


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


def regularity_defect(s: MeanScheme, t, n0: int, x, n: int) -> float:
    """|| T (T_n x) - T_{n+n0} x || in the operator's geometry, from one
    batched ``apply_mean`` call over the rows n and n + n0.

    The probe x is expected to lie in the relevant range space already;
    callers apply (T - I)^m themselves.
    """
    op = as_operator(t)
    mean_n, mean_later = apply_mean(s, op, [n, n + n0], x=x)
    return op.vector_norm(op.matrix @ mean_n - mean_later)


def parse_scheme(spec: str) -> MeanScheme:
    """Parse a scheme spec string: "cesaro:p=2", "abel", "zweier",
    "binomial", "powers", "powseries:coeffs=1,0.5,0.25"."""
    parts = spec.strip().split(":")
    head = parts[0].lower()
    params = {}
    for piece in parts[1:]:
        if "=" in piece:
            key, val = piece.split("=", 1)
            params[key.strip()] = val.strip()
        else:
            params.setdefault("p", piece.strip())
    if head == "cesaro":
        return cesaro(int(params.get("p", 1)))
    if head == "abel":
        return abel()
    if head == "zweier":
        return zweier()
    if head == "binomial":
        return binomial()
    if head == "powers":
        return identity_powers()
    if head == "powseries":
        if "coeffs" not in params:
            raise ValueError("powseries spec needs coeffs=c0,c1,...")
        coeffs = [float(c) for c in params["coeffs"].split(",")]
        return power_series(coeffs)
    raise ValueError(f"unknown scheme spec {spec!r}")


def rows_to_csv(s: MeanScheme, ns, path) -> None:
    """Dump rows as CSV with columns n, j, t."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "j", "t"])
        for n in ns:
            row = s.row(int(n))
            for j, t in zip(row.indices, row.weights):
                writer.writerow([int(n), int(j), repr(float(t))])
