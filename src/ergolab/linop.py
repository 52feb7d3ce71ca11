"""Dense operators with optional Gram-weighted geometry.

Everything downstream (summability means, resolvent functionals, growth
reports) coerces its operator argument once with ``as_operator`` and takes
norms, eigenvalues and labels from the resulting model; this module supplies
the norm engine (``op_norm``), the one power walk (``_power_walk``) behind
every power and mean, the spec and JSON wire formats, and constructors for
the test operators: Jordan blocks, weighted Dirichlet shifts, and the
discretized Volterra operator.

With a Gram geometry ``G`` on the domain and ``H`` on the codomain, the
operator norm of ``A`` is the largest singular value of ``L_H A L_G^{-1}``,
where ``L`` is any factor with ``L* L = Gram`` (``GramGeometry`` says which
factor each kind keeps).
An operator or a dense Gram is real unless its entries are not: an
imaginary part that is identically zero is dropped (``_real_if_real``), so
a real Gram read from a file stays real, and complex arithmetic enters
only with a complex scalar or complex data.
``mode="colsum"`` and ``mode="rowsum"`` select the max-column-sum /
max-row-sum norms instead, i.e. the l1- and linf-induced operator norms.

Import rule for the whole package: no module imports scipy at module level.
scipy is imported inside the function that calls it, as ``import
scipy.linalg`` (or ``scipy.linalg.blas``, ``scipy.special``) on the line
before the ``scipy.linalg.x(...)`` call, so ``import ergolab`` loads only
numpy and a run that reaches no scipy kernel never pays for scipy's import.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class DimensionMismatch(ValueError):
    """Shapes of an operator and its geometry (or operand) do not agree."""


class NonPositiveDefiniteGram(ValueError):
    """A Gram matrix failed the Hermitian positive-definite check."""


class BadDimension(ValueError):
    """Requested operator size below the constructor's minimum."""


_HERMITIAN_TOL = 1e-12
# Smallest triangular operator walked by BLAS trmm: below it a trmm call costs
# more than the @ it halves (1.8-2.8 us against 1.0-1.9 us at d = 2 to 16).
_TRMM_MIN_DIM = 128
# Matrix cells in one stacked solve, product, SVD or weight block: whole
# resolvent rings and mean sweeps at small dim, one matrix per stack at dim
# 128, and a peak memory close to that of one matrix at a time.
_STACK_CELLS = 1 << 14
# The seed of every random draw that a caller does not seed: random
# operators, the gamma quotient's probes and the CLI's h1 trials
DEFAULT_SEED = 0x5EED


def _number_rule(integer: bool, least=None, most=None, open_least=False) -> str:
    """The phrase of a numeric rule, as the errors and ``ergolab --help``
    print it: "an integer >= 1 and <= 52", "a finite number > 0"."""
    bounds = " and ".join(f"{op} {x}" for op, x in ((">" if open_least else ">=", least),
                                                    ("<=", most)) if x is not None)
    rule = "an integer" if integer else "a finite number"
    return f"{rule} {bounds}" if bounds else rule


def _is_number(value, integer: bool, least=None, most=None, open_least=False) -> bool:
    """Whether ``value`` keeps the rule ``_number_rule`` states: an integer
    (``numbers.Integral``) or a finite real (``numbers.Real``), never a
    bool, from least (excluded if ``open_least``) to most."""
    return (not isinstance(value, bool)
            and isinstance(value, numbers.Integral if integer else numbers.Real)
            and -math.inf < value < math.inf
            and (least is None or (value > least if open_least else value >= least))
            and (most is None or value <= most))


def _check_integer(value, what: str, least=None, most=None, error=ValueError) -> int:
    """The one rule of a count or index argument: ``value`` as an int if it
    is an integer (not a float or a bool) in [least, most], else ``error``
    with the message "<what> must be an integer[ >= least][ and <= most],
    got <value>"."""
    if not _is_number(value, True, least, most):
        raise error(f"{what} must be {_number_rule(True, least, most)}, got {value!r}")
    return int(value)


def _check_real(value, what: str, least=None, most=None, open_least=False) -> float:
    """The one rule of a real parameter: ``value`` as a float if it is a
    finite real (not a bool, a complex or a string) from least (excluded if
    ``open_least``) to most, else a ValueError with the message "<what> must
    be a finite number[ > or >= least][ and <= most], got <value>"."""
    if not _is_number(value, False, least, most, open_least):
        raise ValueError(f"{what} must be {_number_rule(False, least, most, open_least)}, "
                         f"got {value!r}")
    return float(value)


def _check_integers(values, what: str, least=None) -> np.ndarray:
    """``values`` as an array whose entries pass ``_check_integer``; the
    error names the first entry that fails."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" or least is not None and a.size and a.min() < least:
        for value in a.ravel().tolist():
            _check_integer(value, what, least)
    return a


def _stack_size(cells: int) -> int:
    """Items of ``cells`` cells each in one stack: as many as _STACK_CELLS
    cells hold, and at least one."""
    return max(1, _STACK_CELLS // cells)


def _chunks(count: int, cells: int) -> list:
    """Slices covering range(count) whose stacks of items of ``cells``
    cells each hold at most _STACK_CELLS cells (at least one item each)."""
    step = _stack_size(cells)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a matrix, or a stack ``(..., m, n)`` of
    matrices, with finite entries: complex if ``a`` is complex, real (float)
    otherwise."""
    m = np.asarray(a)
    m = m.astype(complex if np.iscomplexobj(m) else float, copy=False)
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _real_if_real(m: np.ndarray) -> np.ndarray:
    """The dtype rule of operators and dense Grams: drop a zero imaginary part."""
    return m.real.copy() if np.iscomplexobj(m) and not np.any(m.imag) else m


class GramGeometry:
    """Positive-definite weighting under which vector/operator norms are taken.

    Holds a diagonal weight vector (``diag``), a dense Hermitian
    positive-definite matrix (``dense``), or the diagonal and off-diagonal
    of a real symmetric tridiagonal one (``bands``).  A tridiagonal Gram is
    factored in O(n) by the banded Cholesky and keeps its upper-bidiagonal
    factor as two bands, its diagonal and superdiagonal: ``apply_factor``
    is then the O(n) per column product ``d * a + e * a[1:]``.  Its dense
    Gram and dense factor are built on first use, by ``matrix()`` (or
    ``.dense``), ``factor()``, the wire format and the triangular solve of
    ``apply_factor_inverse_right``; a geometry only ever applied as a
    factor allocates no n x n array.  Vector norms are ``||L x||_2`` with
    ``L* L = gram``.
    """

    def __init__(self, dim, diag=None, dense=None, bands=None):
        self.dim = _check_integer(dim, "geometry dim", least=1, error=BadDimension)
        if sum(arg is not None for arg in (diag, dense, bands)) != 1:
            raise ValueError("provide exactly one of diag=, dense= or bands=")
        self.diag = self._dense = self._gram_bands = self._factor_bands = None
        if diag is not None:
            w = np.asarray(diag, dtype=float)
            if w.shape != (self.dim,):
                raise DimensionMismatch("diagonal weight length != dim")
            if not np.all(w > 0.0):
                raise NonPositiveDefiniteGram("diagonal weights must be positive")
            self.diag = w
            self._factor = np.sqrt(w)
        elif bands is not None:
            d, e = (np.asarray(b, dtype=float) for b in bands)
            if d.shape != (self.dim,) or e.shape != (self.dim - 1,):
                raise DimensionMismatch("tridiagonal band lengths != (dim, dim - 1)")
            upper = np.zeros((2, self.dim))
            upper[0, 1:] = e
            upper[1] = d
            import scipy.linalg
            try:
                u = scipy.linalg.cholesky_banded(upper)
            except np.linalg.LinAlgError as exc:
                raise NonPositiveDefiniteGram("Gram matrix is not positive definite") from exc
            self._gram_bands = (d, e)
            # diagonal and superdiagonal of the upper-bidiagonal L with L^T L = G
            self._factor_bands = (u[1], u[0, 1:])
            self._factor = None
        else:
            g = _real_if_real(as_matrix(dense))
            if g.shape != (self.dim, self.dim):
                raise DimensionMismatch("dense Gram shape != (dim, dim)")
            if np.max(np.abs(g - g.conj().T)) > _HERMITIAN_TOL * max(1.0, np.max(np.abs(g))):
                raise NonPositiveDefiniteGram("Gram matrix is not Hermitian")
            g = 0.5 * (g + g.conj().T)
            try:
                chol_lower = np.linalg.cholesky(g)
            except np.linalg.LinAlgError as exc:
                raise NonPositiveDefiniteGram("Gram matrix is not positive definite") from exc
            self._dense = g
            # upper-triangular L with L*L = G
            self._factor = chol_lower.conj().T

    @classmethod
    def diagonal(cls, weights) -> "GramGeometry":
        w = np.asarray(weights, dtype=float)
        return cls(w.shape[0], diag=w)

    @classmethod
    def hermitian(cls, gram) -> "GramGeometry":
        g = as_matrix(gram)
        return cls(g.shape[0], dense=g)

    @classmethod
    def tridiagonal(cls, diag, off) -> "GramGeometry":
        """Real symmetric tridiagonal Gram: ``diag`` on the diagonal, ``off``
        on both off-diagonals."""
        d = np.asarray(diag, dtype=float)
        return cls(d.shape[0], bands=(d, off))

    @property
    def is_diagonal(self) -> bool:
        return self.diag is not None

    @property
    def is_real(self) -> bool:
        """Whether the Gram is real.  A diagonal or tridiagonal one always is,
        and asking builds no dense Gram."""
        return not np.iscomplexobj(self._dense)

    @property
    def dense(self) -> np.ndarray | None:
        """The dense Gram matrix (None for a diagonal geometry); a
        tridiagonal geometry builds it on first use."""
        if self._dense is None and self._gram_bands is not None:
            d, e = self._gram_bands
            self._dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        return self._dense

    def matrix(self) -> np.ndarray:
        """The Gram matrix as a dense array."""
        if self.is_diagonal:
            return np.diag(self.diag)
        return self.dense

    def factor(self) -> np.ndarray:
        """A factor L with L* L = Gram (1-D array of square roots if diagonal);
        a tridiagonal geometry builds its dense bidiagonal L on first use."""
        if self._factor is None:
            d, e = self._factor_bands
            self._factor = np.diag(d) + np.diag(e, 1)
        return self._factor

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        """Left-multiply by the factor: L @ a (columns of a are vectors;
        ``a`` may be a stack of matrices).  A tridiagonal geometry applies
        its two bands, ``d * a + e * a[1:]``, with no dense L."""
        if self.is_diagonal:
            return self._factor[:, None] * a if a.ndim >= 2 else self._factor * a
        if self._factor_bands is None:
            return self._factor @ a
        if a.ndim == 1:
            return self.apply_factor(a[:, None])[:, 0]
        d, e = self._factor_bands
        out = d[:, None] * a
        out[..., :-1, :] += e[:, None] * a[..., 1:, :]
        return out

    def apply_factor_inverse_right(self, a: np.ndarray) -> np.ndarray:
        """Right-multiply a matrix, or each of a stack, by L^{-1}: a @ L^{-1}."""
        if self.is_diagonal:
            return a / self._factor[None, :]
        # solve X L = a  <=>  L^T X^T = a^T  (plain transpose; L upper triangular)
        import scipy.linalg
        x_t = scipy.linalg.solve_triangular(self.factor().T, a.swapaxes(-1, -2),
                                          lower=True)
        return x_t.swapaxes(-1, -2)

    def vector_norm(self, x) -> float:
        x = np.asarray(x)
        if x.shape[0] != self.dim:
            raise DimensionMismatch("vector length != geometry dim")
        return float(np.linalg.norm(self.apply_factor(x)))


@dataclass
class OperatorModel:
    """A square matrix together with the geometry its norms are measured in."""

    matrix: np.ndarray
    geometry: GramGeometry | None = None
    label: str = ""
    _eigvals: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = _real_if_real(as_matrix(self.matrix))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise DimensionMismatch("OperatorModel matrix must be square")
        if self.geometry is not None and self.geometry.dim != self.matrix.shape[0]:
            raise DimensionMismatch("geometry dim != matrix size")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        if self._eigvals is None:
            self._eigvals = np.linalg.eigvals(self.matrix)
        return self._eigvals

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues()))) if self.dim else 0.0

    def norm(self, a=None, mode="spectral") -> float:
        """Norm of ``a`` (default: the operator itself) in this geometry;
        the array of norms for a stack ``a``."""
        target = self.matrix if a is None else a
        return op_norm(target, self.geometry, self.geometry, mode=mode)

    def vector_norm(self, x) -> float:
        if self.geometry is None:
            return float(np.linalg.norm(x))
        return self.geometry.vector_norm(x)


def as_operator(t) -> OperatorModel:
    """``t`` itself if it is an OperatorModel, else the square matrix ``t``
    in the Euclidean geometry with the label "operator"."""
    if isinstance(t, OperatorModel):
        return t
    return OperatorModel(t, label="operator")


def op_norm(a, dom: GramGeometry | None = None, cod: GramGeometry | None = None,
            mode: str = "spectral") -> float:
    """Gram-weighted operator norm of a dense matrix, or of each matrix of a
    stack.

    In spectral mode the SVD runs on the nonzero core: after both geometry
    factors are applied, the rows and columns that are zero in every matrix
    of ``a`` are dropped (the singular values of the rest are those of the
    whole).  A stack is thus reduced by the union of its matrices' zero
    patterns: it equals one call per matrix bit for bit when they share one
    pattern, and agrees with those calls to rounding otherwise.  When that
    union core holds exactly one nonzero per row and per column (one
    popcount against the kept line counts; an all-zero ``a`` has none),
    every matrix of ``a`` is a scaled partial permutation, and its norm is
    its largest |entry| with no SVD.

    Parameters
    ----------
    a : array_like
        Matrix, possibly rectangular, or a stack ``(..., m, n)`` of them; a
        matrix gives a float, a stack the array of its norms.
    dom, cod : GramGeometry, optional
        Geometries on the domain (columns) and codomain (rows).  When absent
        the Euclidean geometry is used on that side.
    mode : str
        "spectral" (largest singular value, the default), "colsum"
        (max-column-sum, l1-induced) or "rowsum" (max-row-sum, linf-induced).
    """
    b = as_matrix(a)
    if dom is not None and dom.dim != b.shape[-1]:
        raise DimensionMismatch("domain geometry dim != number of columns")
    if cod is not None and cod.dim != b.shape[-2]:
        raise DimensionMismatch("codomain geometry dim != number of rows")
    if cod is not None:
        b = cod.apply_factor(b)
    if dom is not None:
        b = dom.apply_factor_inverse_right(b)
    if mode == "spectral":
        # lines zero in every matrix of the stack carry no singular value
        pattern = np.any(b != 0, axis=tuple(range(b.ndim - 2)))
        rows, cols = pattern.any(axis=1), pattern.any(axis=0)
        if np.count_nonzero(pattern) == rows.sum() == cols.sum():
            # one nonzero per kept row and column (an all-zero stack has
            # none): a scaled partial permutation, whose singular values are
            # its |entries|
            norms = np.max(np.abs(b), axis=(-2, -1))
        else:
            if not (rows.all() and cols.all()):
                b = b[(Ellipsis,) + np.ix_(rows, cols)]
            norms = np.linalg.svd(b, compute_uv=False)[..., 0]
    elif mode == "colsum":
        norms = np.max(np.sum(np.abs(b), axis=-2), axis=-1)
    elif mode == "rowsum":
        norms = np.max(np.sum(np.abs(b), axis=-1), axis=-1)
    else:
        raise ValueError(f"unknown norm mode {mode!r}")
    return float(norms) if b.ndim == 2 else norms


def identity_operator(d: int) -> OperatorModel:
    return OperatorModel(np.eye(d), label="identity")


def diag_operator(values) -> OperatorModel:
    return OperatorModel(np.diag(values), label="diag")


def jordan_block(d: int, eig: complex) -> OperatorModel:
    """d x d upper bidiagonal block: ``eig`` on the diagonal, ones above."""
    d = _check_integer(d, "Jordan block d", least=1, error=BadDimension)
    m = eig * np.eye(d) + np.eye(d, k=1)
    return OperatorModel(m, label=f"jordan({d},{eig})")


def dirichlet_shift(alpha: float, n: int, direction: str = "forward") -> OperatorModel:
    """Truncated weighted shift in the orthonormal coordinates of the
    weighted Dirichlet space with coefficient weights ``(k+1)^(1-alpha)``.

    Forward: entry (k+1, k) = ((k+2)/(k+1))^((1-alpha)/2).  Backward is the
    transpose (the adjoint shift).  Expressed in orthonormal coordinates the
    geometry is Euclidean, so no Gram is attached.
    """
    _check_real(alpha, "dirichlet shift alpha", least=-1, open_least=True)
    n = _check_integer(n, "dirichlet shift N", least=2, error=BadDimension)
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    k = np.arange(n - 1, dtype=float)
    w = ((k + 2.0) / (k + 1.0)) ** ((1.0 - alpha) / 2.0)
    m = np.diag(w, -1)
    if direction == "backward":
        m = m.T.copy()
    return OperatorModel(m, label=f"dirichlet({alpha},{n},{direction})")


def volterra_operator(n: int) -> OperatorModel:
    """Composite-trapezoid discretization of cumulative integration on [0, 1].

    Nodes t_i = i/n for i = 0..n; row i carries weights h*(1/2, 1, ..., 1, 1/2)
    over columns 0..i with h = 1/n, so the result is the (n+1) x (n+1)
    lower-triangular matrix that is exact on linear integrands.
    """
    n = _check_integer(n, "volterra N", least=2, error=BadDimension)
    h = 1.0 / n
    m = h * (np.tril(np.ones((n + 1, n + 1))) - 0.5 * np.eye(n + 1))
    m[1:, 0] = 0.5 * h
    m[0, 0] = 0.0
    return OperatorModel(m, label=f"volterra({n})")


def _power_walk(a: np.ndarray, ns, left=None, size=1):
    """Yield the powers ``a^n``, or ``left @ a^n``, at the indices ``ns``
    from one walk, as stacks: one stack per consecutive slice of at most
    ``size`` entries of ``ns``.  ``a`` is a matrix or, with no ``left``, a
    stack ``(..., d, d)`` walked as one.  The two contracts on ``ns``: with
    ``size > 1`` it is one consecutive span ``lo, lo + 1, ..., hi``; with
    ``size=1`` it is any ascending indices, gaps and repeats allowed.

    Each power costs one product.  A single step is one product by ``a``
    for a gap of 1, and one product per set bit by the binary squares
    a^(2^k) for a longer gap.  A stack is filled in runs of at most
    _STACK_CELLS cells of ``a``: a run's first power is one single step,
    and the rest is filled by doubling, ``run[m:2m] = run[:m] @ a^m``, one
    batched product per square.  The squares are the walk's one memo of
    powers, grown on demand, so the walk forms no power above the largest
    index it yields.  The cap keeps a run's squares cheaper than the run,
    and from dimension 128 every run is one power.  A triangular matrix
    ``a`` (exact-zero test) of dimension >= _TRMM_MIN_DIM takes its single
    steps and squares by BLAS trmm, typed by ``a`` and ``left`` together,
    at half the flops of ``@``; it takes the transposes, ``x @ y = (y^T
    x^T)^T``, so no C-ordered operand is copied.

    With ``size=1`` there are no runs: the walk is the single steps alone,
    and each stack is the view ``p[None]`` of the walk's own power (``a``
    itself at n = 1, ``left`` itself at n = 0).

    The zero-power rule: once a yielded stack's first power is exactly
    zero, every later power the walk forms is a product by that zero
    matrix, so it is exactly zero too.  A consumer that finds a zero first
    power (one ``.any()``) may stop drawing stacks and take every later
    power as zero, bit for bit: a sum of powers that starts from +0.0
    entries (zeros or the identity) never holds -0.0, so zeros change none
    of its bits."""
    mul = np.matmul
    if a.ndim == 2 and a.shape[0] >= _TRMM_MIN_DIM:
        a = np.ascontiguousarray(a)
        lower = not np.triu(a, 1).any()
        if lower or not np.tril(a, -1).any():
            import scipy.linalg.blas
            trmm = scipy.linalg.blas.get_blas_funcs("trmm", (a, a if left is None else left))
            mul = lambda x, y: trmm(1.0, y.T, x.T, lower=not lower).T
    most = _stack_size(a.size)
    squares, p, prev = [a], left, 0

    def square(k):
        while len(squares) <= k:
            squares.append(mul(squares[-1], squares[-1]))
        return squares[k]

    def step(n):
        nonlocal p
        gap, bit = n - prev, 0
        if gap == 1 and p is not None:
            p, gap = mul(p, a), 0
        while gap:
            if gap & 1:
                p = square(bit) if p is None else mul(p, square(bit))
            gap >>= 1
            bit += 1
        return np.eye(a.shape[-1], dtype=a.dtype) if p is None else p

    if size == 1:
        for n in np.asarray(ns, dtype=int).tolist():
            # no local keeps the yielded power, so the next step can free it
            yield step(n)[None]
            prev = n
        return
    for start in range(0, len(ns), size):
        stack = np.empty((min(size, len(ns) - start),) + (a.shape if left is None else left.shape),
                         a.dtype if left is None else np.result_type(a, left))
        for i in range(0, len(stack), most):
            run = stack[i:i + most]
            run[0] = step(ns[start + i])
            for k in range((len(run) - 1).bit_length()):
                fill = run[1 << k:2 << k]
                np.matmul(run[:len(fill)], square(k), out=fill)
            if len(run) > 1:
                p = run[-1]
            prev = ns[start + i] + len(run) - 1
        yield stack


def power(t, n: int) -> np.ndarray:
    """n-th power, a fresh array, from one binary-squares walk (see
    ``_power_walk``); ``power(t, 0)`` is the identity."""
    n = _check_integer(n, "power exponent n", least=0)
    return next(_power_walk(as_operator(t).matrix, [n]))[0].copy()


def random_operator(dim: int, spectral_radius: float = 0.9,
                    seed: int = DEFAULT_SEED) -> OperatorModel:
    """Entrywise uniform-on-the-unit-disk matrix rescaled to a target
    spectral radius (finite and >= 0).  Deterministic for a given seed, an
    integer >= 0."""
    dim = _check_integer(dim, "random operator dim", least=1, error=BadDimension)
    _check_real(spectral_radius, "random operator spectral radius", least=0)
    seed = _check_integer(seed, "random operator seed", least=0)
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, (dim, dim)))
    theta = rng.uniform(0.0, 2.0 * np.pi, (dim, dim))
    m = r * np.exp(1j * theta)
    rho = np.max(np.abs(np.linalg.eigvals(m)))
    if rho > 0:
        m *= spectral_radius / rho
    return OperatorModel(m, label=f"random({dim},{spectral_radius},{seed})")


# ---------------------------------------------------------------------------
# Wire formats: spec strings (``_bind_spec``) and JSON files.
# Matrix: {"rows": R, "cols": C, "re": [...], "im": [...]} row-major.
# Gram:   {"dim": D, "diag": [...]} or {"dim": D, "gram_re": [...], "gram_im": [...]}.
# A key outside its object's form is a ValueError.
# ---------------------------------------------------------------------------

def _bind_spec(what: str, spec: str, heads: dict):
    """Call ``heads[head]`` on the string fields of ``head:f1:...:key=value``
    (head case-insensitive): a plain field fills the next positional parameter,
    ``key=value`` the parameter ``key``.  An unknown head, a field the factory
    does not take, given twice or missing raises a ValueError naming it."""
    head, *fields = spec.strip().split(":")
    head = head.lower()
    if head not in heads:
        raise ValueError(f"unknown {what} spec {spec!r}")
    params = inspect.signature(heads[head]).parameters.values()
    slots = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    named = [p.name for p in params if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)]
    bound, filled = {}, 0
    for item in fields:
        key, eq, value = map(str.strip, item.partition("="))
        if not eq and filled < len(slots):
            key, value, filled = slots[filled], item, filled + 1
        elif not eq or key not in named:
            raise ValueError(f"{what} {head} takes no parameter {key!r}")
        if key in bound:
            raise ValueError(f"{what} {head} takes parameter {key!r} once, got it twice")
        bound[key] = value
    for p in params:
        if p.default is p.empty and p.name not in bound:
            raise ValueError(f"{what} {head} needs parameter {p.name!r}")
    return heads[head](*[bound.pop(name) for name in slots[:filled]], **bound)


def _check_keys(obj: dict, known: tuple, what: str) -> None:
    unknown = sorted(obj.keys() - set(known))
    if unknown:
        raise ValueError(f"{what} object takes no key {unknown[0]!r}")


def matrix_to_obj(a) -> dict:
    m = as_matrix(a)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def matrix_from_obj(obj: dict) -> np.ndarray:
    rows, cols = (_check_integer(obj[key], f"matrix {key}", least=1, error=DimensionMismatch)
                  for key in ("rows", "cols"))
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    _check_keys(obj, ("rows", "cols", "re", "im"), "matrix")
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionMismatch("re/im length != rows*cols")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def gram_to_obj(g: GramGeometry) -> dict:
    if g.is_diagonal:
        return {"dim": g.dim, "diag": g.diag.tolist()}
    return {
        "dim": g.dim,
        "gram_re": g.dense.real.ravel().tolist(),
        "gram_im": g.dense.imag.ravel().tolist(),
    }


def gram_from_obj(obj: dict) -> GramGeometry:
    dim = _check_integer(obj["dim"], "Gram dim", least=1, error=BadDimension)
    if "diag" in obj:
        _check_keys(obj, ("dim", "diag"), "diagonal Gram")
        return GramGeometry(dim, diag=np.asarray(obj["diag"], dtype=float))
    _check_keys(obj, ("dim", "gram_re", "gram_im"), "dense Gram")
    re = np.asarray(obj["gram_re"], dtype=float).reshape(dim, dim)
    im = np.asarray(obj["gram_im"], dtype=float).reshape(dim, dim)
    return GramGeometry(dim, dense=re + 1j * im)


def save_operator(t: OperatorModel, path) -> None:
    obj = {"matrix": matrix_to_obj(t.matrix), "label": t.label}
    if t.geometry is not None:
        obj["gram"] = gram_to_obj(t.geometry)
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_operator(path) -> OperatorModel:
    """Load an operator file: either a bare matrix object or
    {"matrix": ..., "gram": ...?, "label": ...?}."""
    with open(path) as fh:
        obj = json.load(fh)
    if "matrix" in obj:
        _check_keys(obj, ("matrix", "gram", "label"), "operator")
        g = gram_from_obj(obj["gram"]) if "gram" in obj else None
        return OperatorModel(matrix_from_obj(obj["matrix"]), geometry=g,
                             label=obj.get("label", ""))
    return OperatorModel(matrix_from_obj(obj))
