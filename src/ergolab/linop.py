"""Dense operators with optional Gram-weighted geometry.

Everything downstream (summability means, resolvent functionals, growth
reports) coerces its operator argument once with ``as_operator`` and takes
norms, eigenvalues and labels from the resulting model; this module supplies
the norm engine, the one power walk (``_power_walk``) behind every power and
mean, the JSON wire formats, and constructors for the standard test operators:
Jordan blocks, weighted Dirichlet shifts, and the discretized Volterra operator.

With a Gram geometry ``G`` on the domain and ``H`` on the codomain, the
operator norm of ``A`` is the largest singular value of ``L_H A L_G^{-1}``,
where ``L`` is any factor with ``L* L = Gram`` (Cholesky for dense Grams,
the O(n) banded Cholesky for real tridiagonal ones, elementwise square root
for diagonal ones).  The SVD runs on the nonzero core of that matrix: its
zero rows and columns (for a stack, those zero in every matrix) carry no
singular value and are dropped, so the nilpotent powers of a truncated
shift cost a fraction of a full SVD.  A core with exactly one nonzero in
each kept row and column (a weighted shift, its powers, a diagonal) is a
scaled partial permutation and needs no SVD: its norm is its largest
|entry|.  An operator is real unless its entries are not: an imaginary
part that is identically zero is dropped, and complex arithmetic enters
only with a complex scalar or complex data.
``mode="colsum"`` and ``mode="rowsum"`` select the max-column-sum /
max-row-sum norms instead, i.e. the l1- and linf-induced operator norms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas


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


class GramGeometry:
    """Positive-definite weighting under which vector/operator norms are taken.

    Holds a diagonal weight vector (``diag``), a dense Hermitian
    positive-definite matrix (``dense``), or the diagonal and off-diagonal
    of a real symmetric tridiagonal one (``bands``).  A tridiagonal Gram is
    factored in O(n) by the banded Cholesky and then kept, with its
    upper-bidiagonal factor, as a dense real array, so it shares every
    method (and the wire format) of the dense kind.  Vector norms are
    ``||L x||_2`` with ``L* L = gram``.
    """

    def __init__(self, dim, diag=None, dense=None, bands=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise BadDimension("geometry dimension must be >= 1")
        if sum(arg is not None for arg in (diag, dense, bands)) != 1:
            raise ValueError("provide exactly one of diag=, dense= or bands=")
        if diag is not None:
            w = np.asarray(diag, dtype=float)
            if w.shape != (self.dim,):
                raise DimensionMismatch("diagonal weight length != dim")
            if not np.all(w > 0.0):
                raise NonPositiveDefiniteGram("diagonal weights must be positive")
            self.diag = w
            self.dense = None
            self._factor = np.sqrt(w)
        elif bands is not None:
            d, e = (np.asarray(b, dtype=float) for b in bands)
            if d.shape != (self.dim,) or e.shape != (self.dim - 1,):
                raise DimensionMismatch("tridiagonal band lengths != (dim, dim - 1)")
            upper = np.zeros((2, self.dim))
            upper[0, 1:] = e
            upper[1] = d
            try:
                u = scipy.linalg.cholesky_banded(upper)
            except np.linalg.LinAlgError as exc:
                raise NonPositiveDefiniteGram("Gram matrix is not positive definite") from exc
            self.diag = None
            self.dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            # upper-bidiagonal L with L^T L = G
            self._factor = np.diag(u[1]) + np.diag(u[0, 1:], 1)
        else:
            g = as_matrix(dense)
            if g.shape != (self.dim, self.dim):
                raise DimensionMismatch("dense Gram shape != (dim, dim)")
            if np.max(np.abs(g - g.conj().T)) > _HERMITIAN_TOL * max(1.0, np.max(np.abs(g))):
                raise NonPositiveDefiniteGram("Gram matrix is not Hermitian")
            g = 0.5 * (g + g.conj().T)
            try:
                chol_lower = np.linalg.cholesky(g)
            except np.linalg.LinAlgError as exc:
                raise NonPositiveDefiniteGram("Gram matrix is not positive definite") from exc
            self.diag = None
            self.dense = g
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

    def matrix(self) -> np.ndarray:
        """The Gram matrix as a dense array."""
        if self.is_diagonal:
            return np.diag(self.diag)
        return self.dense

    def factor(self) -> np.ndarray:
        """A factor L with L* L = Gram (1-D array of square roots if diagonal)."""
        return self._factor

    def apply_factor(self, a: np.ndarray) -> np.ndarray:
        """Left-multiply by the factor: L @ a (columns of a are vectors;
        ``a`` may be a stack of matrices)."""
        if self.is_diagonal:
            return self._factor[:, None] * a if a.ndim >= 2 else self._factor * a
        return self._factor @ a

    def apply_factor_inverse_right(self, a: np.ndarray) -> np.ndarray:
        """Right-multiply a matrix, or each of a stack, by L^{-1}: a @ L^{-1}."""
        if self.is_diagonal:
            return a / self._factor[None, :]
        # solve X L = a  <=>  L^T X^T = a^T  (plain transpose; L upper triangular)
        x_t = scipy.linalg.solve_triangular(self._factor.T, a.swapaxes(-1, -2), lower=True)
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
        self.matrix = as_matrix(self.matrix)
        if np.iscomplexobj(self.matrix) and not np.any(self.matrix.imag):
            self.matrix = self.matrix.real.copy()
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
    whole), and an all-zero ``a`` has norm 0.  A stack is thus reduced by
    the union of its matrices' zero patterns: it equals one call per matrix
    bit for bit when they share one pattern, and agrees with those calls to
    rounding otherwise.  When that union core holds exactly one nonzero per
    row and per column (one popcount against the kept line counts), every
    matrix of ``a`` is a scaled partial permutation, and its norm is its
    largest |entry| with no SVD.

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
        if not rows.any():
            norms = np.zeros(b.shape[:-2])
        elif np.count_nonzero(pattern) == rows.sum() == cols.sum():
            # one nonzero per kept row and column: a scaled partial
            # permutation, whose singular values are its |entries|
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
    if d < 1:
        raise BadDimension("Jordan block needs d >= 1")
    m = eig * np.eye(d) + np.eye(d, k=1)
    return OperatorModel(m, label=f"jordan({d},{eig})")


def dirichlet_shift(alpha: float, n: int, direction: str = "forward") -> OperatorModel:
    """Truncated weighted shift in the orthonormal coordinates of the
    weighted Dirichlet space with coefficient weights ``(k+1)^(1-alpha)``.

    Forward: entry (k+1, k) = ((k+2)/(k+1))^((1-alpha)/2).  Backward is the
    transpose (the adjoint shift).  Expressed in orthonormal coordinates the
    geometry is Euclidean, so no Gram is attached.
    """
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    if n < 2:
        raise BadDimension("dirichlet shift needs N >= 2")
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
    if n < 2:
        raise BadDimension("volterra discretization needs N >= 2")
    h = 1.0 / n
    m = h * (np.tril(np.ones((n + 1, n + 1))) - 0.5 * np.eye(n + 1))
    m[1:, 0] = 0.5 * h
    m[0, 0] = 0.0
    return OperatorModel(m, label=f"volterra({n})")


def _power_walk(a: np.ndarray, ns, left=None):
    """Yield ``a^n``, or ``left @ a^n``, at the ascending indices ``ns``
    (repeats allowed) from one walk: a gap of 1 is one product by ``a``, a
    longer gap one product per set bit by the memoized binary squares.  A
    triangular ``a`` (an exact-zero test) of dimension >= _TRMM_MIN_DIM is
    walked by BLAS trmm, typed by ``a`` and ``left`` together, at half the
    flops of ``@``; it takes the transposes, ``x @ y = (y^T x^T)^T``, so no
    C-ordered operand is copied.  The yielded arrays are the walk's own
    (``a`` itself at n = 1, ``left`` itself at n = 0)."""
    mul = np.matmul
    if a.shape[0] >= _TRMM_MIN_DIM:
        a = np.ascontiguousarray(a)
        lower = not np.triu(a, 1).any()
        if lower or not np.tril(a, -1).any():
            trmm = scipy.linalg.blas.get_blas_funcs("trmm", (a, a if left is None else left))
            mul = lambda x, y: trmm(1.0, y.T, x.T, lower=not lower).T
    squares, p, prev = [a], left, 0
    for n in ns:
        gap, bit = n - prev, 0
        if gap == 1 and p is not None:
            p, gap = mul(p, a), 0
        while gap:
            if bit == len(squares):
                squares.append(mul(squares[-1], squares[-1]))
            if gap & 1:
                p = squares[bit] if p is None else mul(p, squares[bit])
            gap >>= 1
            bit += 1
        prev = n
        yield np.eye(a.shape[0], dtype=a.dtype) if p is None else p


def power(t, n: int) -> np.ndarray:
    """n-th power, a fresh array, from one binary-squares walk (see
    ``_power_walk``); ``power(t, 0)`` is the identity."""
    if n < 0:
        raise ValueError("power exponent must be >= 0")
    return next(_power_walk(as_operator(t).matrix, [n])).copy()


def random_operator(dim: int, spectral_radius: float = 0.9,
                    seed: int = 0x5EED) -> OperatorModel:
    """Entrywise uniform-on-the-unit-disk matrix rescaled to a target
    spectral radius.  Deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, (dim, dim)))
    theta = rng.uniform(0.0, 2.0 * np.pi, (dim, dim))
    m = r * np.exp(1j * theta)
    rho = np.max(np.abs(np.linalg.eigvals(m)))
    if rho > 0:
        m *= spectral_radius / rho
    return OperatorModel(m, label=f"random({dim},{spectral_radius},{seed})")


# ---------------------------------------------------------------------------
# JSON wire formats.
# Matrix: {"rows": R, "cols": C, "re": [...], "im": [...]} row-major.
# Gram:   {"dim": D, "diag": [...]} or {"dim": D, "gram_re": [...], "gram_im": [...]}.
# ---------------------------------------------------------------------------

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
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
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
    dim = int(obj["dim"])
    if "diag" in obj:
        return GramGeometry(dim, diag=np.asarray(obj["diag"], dtype=float))
    re = np.asarray(obj["gram_re"], dtype=float).reshape(dim, dim)
    im = np.asarray(obj["gram_im"], dtype=float).reshape(dim, dim)
    return GramGeometry(dim, dense=re + 1j * im)


def save_matrix(a, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(a), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))


def save_gram(g: GramGeometry, path) -> None:
    with open(path, "w") as fh:
        json.dump(gram_to_obj(g), fh)


def load_gram(path) -> GramGeometry:
    with open(path) as fh:
        return gram_from_obj(json.load(fh))


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
        g = gram_from_obj(obj["gram"]) if "gram" in obj else None
        return OperatorModel(matrix_from_obj(obj["matrix"]), geometry=g,
                             label=obj.get("label", ""))
    return OperatorModel(matrix_from_obj(obj))
