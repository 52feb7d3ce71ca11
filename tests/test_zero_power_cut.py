"""A power that a walk finds exactly zero ends the walk.

The mean walk (``means._group_means``) and the partial-sum sweep
(``spectral.partial_sum_functional``) stop at their first zero power.  The
uncut mean walk lives on here as an oracle, the partial sums are checked
against ``test_spectral``'s per-point loop, and every cut result must equal
the oracle's by ``==``: on nilpotent operators at indices below, at and past
the nilpotency index, on an operand that a power of a non-nilpotent T
annihilates, in diagonal and dense Gram geometries, and on non-nilpotent
controls, where nothing is cut.
"""

import numpy as np
import pytest
from test_spectral import _partial_sum_oracle

from ergolab import cli, linop, means
from ergolab.ergodic import mean_norms
from ergolab.linop import (
    GramGeometry,
    OperatorModel,
    _power_walk,
    _stack_size,
    dirichlet_shift,
    jordan_block,
)
from ergolab.means import abel, apply_mean, backward_iterate, binomial, cesaro, zweier
from ergolab.spectral import AnnulusGrid, partial_sum_functional

# --- the uncut mean walk ---------------------------------------------------------


def _uncut_group_means(rows, span, b, out, left=None):
    """``means._group_means`` contracting every stack of the walk."""
    weights = np.zeros((len(rows), len(span)))
    for i, row in enumerate(rows):
        weights[i, row.indices - span.start] = row.weights
    cells = out[0].size
    acc = out.reshape(len(rows), cells)
    acc.fill(0.0)
    start = 0
    for stack in _power_walk(b, span, left, _stack_size(cells)):
        acc += weights[:, start:start + len(stack)] @ stack.reshape(-1, cells)
        start += len(stack)


def _uncut(monkeypatch, f, *args, **kwargs):
    """``f(*args, **kwargs)`` with the uncut mean walk."""
    with monkeypatch.context() as m:
        m.setattr(means, "_group_means", _uncut_group_means)
        return f(*args, **kwargs)


# --- operators, geometries and schemes -------------------------------------------

# (operator, nilpotency index or None)
_NILPOTENT = [(jordan_block(d, 0), d) for d in (1, 2, 5)] + \
    [(dirichlet_shift(0.5, d, direction), d) for d in (2, 5, 16)
     for direction in ("forward", "backward")]
_CONTROLS = [(cli.parse_operator("jordan:2:1"), None),
             (cli.parse_operator("random:6:0.9:3"), None)]
_OPERATORS = _NILPOTENT + _CONTROLS
_OPERATOR_IDS = [op.label for op, _ in _OPERATORS]
_SCHEMES = [abel(), cesaro(2), binomial(), zweier(), backward_iterate(zweier())]


def _in_geometry(op, form):
    """``op`` in the Euclidean, a diagonal or a dense Gram geometry."""
    d = op.dim
    if form == "euclidean":
        return op
    if form == "diag_gram":
        return OperatorModel(op.matrix, GramGeometry.diagonal(np.linspace(0.5, 2.0, d)))
    b = np.random.default_rng(d).standard_normal((d, d))
    return OperatorModel(op.matrix, GramGeometry.hermitian(b.T @ b + np.eye(d)))


def _index(op, nu):
    """The nilpotency index, or the dimension for a control."""
    return op.dim if nu is None else nu


# --- the mean walk ---------------------------------------------------------------


@pytest.mark.parametrize("s", _SCHEMES, ids=lambda s: s.name)
@pytest.mark.parametrize("op,nu", _OPERATORS, ids=_OPERATOR_IDS)
def test_apply_mean_equals_the_uncut_walk(monkeypatch, op, nu, s):
    # rows below, at and past the index; a row of a zweier or backward
    # iterate below it ends the walk before any power vanishes
    ns = list(range(s.min_n, 2 * _index(op, nu) + 3))
    x = np.random.default_rng(op.dim).standard_normal((op.dim, 2))
    for lam in (1.0, np.exp(0.7j)):
        for operand in (None, x, x[:, 0]):
            got = apply_mean(s, op, ns, lam, x=operand)
            ref = _uncut(monkeypatch, apply_mean, s, op, ns, lam, x=operand)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("cells", [1, 40])
@pytest.mark.parametrize("s", [abel(), binomial()], ids=lambda s: s.name)
def test_apply_mean_equals_the_uncut_walk_in_short_stacks(monkeypatch, s, cells):
    # stacks of a few powers each: the zero power starts a stack, or falls
    # inside one
    monkeypatch.setattr(linop, "_STACK_CELLS", cells)
    for op, nu in _NILPOTENT:
        ns = list(range(s.min_n, 2 * nu + 3))
        got = apply_mean(s, op, ns, np.exp(0.7j))
        assert np.array_equal(got, _uncut(monkeypatch, apply_mean, s, op, ns, np.exp(0.7j)))


@pytest.mark.parametrize("cells", [2, linop._STACK_CELLS])
@pytest.mark.parametrize("s", [abel(), zweier(), binomial()], ids=lambda s: s.name)
def test_an_annihilated_operand_ends_the_walk_from_its_left_factor(monkeypatch, s, cells,
                                                                   mean_walk_starts):
    # T = diag(0, 1) is not nilpotent, but T e0 = 0: the walk of e0^T (T^T)^j
    # meets a zero at j = 1 from the left factor alone; at 2 cells each
    # stack holds one power
    monkeypatch.setattr(linop, "_STACK_CELLS", cells)
    t = np.diag([0.0, 1.0])
    e0 = np.array([1.0, 0.0])
    ns = list(range(s.min_n, 12))
    for lam in (1.0, np.exp(0.7j)):
        mean_walk_starts.clear()
        got = apply_mean(s, t, ns, lam, x=e0)
        assert np.array_equal(got, _uncut(monkeypatch, apply_mean, s, t, ns, lam, x=e0))
        # each walk ends at the first stack that starts past index 0; at
        # the full budget a group's walk is one stack from index 0
        past = [sum(start >= 1 for start in starts) for starts in mean_walk_starts]
        assert max(past) == (cells == 2)
        # the matrix means, where no power of T is zero, are not cut
        got = apply_mean(s, t, ns, lam)
        assert np.array_equal(got, _uncut(monkeypatch, apply_mean, s, t, ns, lam))


@pytest.mark.parametrize("mode", ["spectral", "colsum"])
@pytest.mark.parametrize("form", ["euclidean", "diag_gram", "dense_gram"])
@pytest.mark.parametrize("op,nu", _OPERATORS, ids=_OPERATOR_IDS)
def test_mean_norms_equal_the_uncut_walk(monkeypatch, op, nu, form, mode):
    t = _in_geometry(op, form)
    for s in _SCHEMES:
        ns = np.arange(s.min_n, 2 * _index(op, nu) + 3)
        got = mean_norms(s, t, ns, mode=mode, minus=np.eye(op.dim) / 3)
        ref = _uncut(monkeypatch, mean_norms, s, t, ns, mode=mode, minus=np.eye(op.dim) / 3)
        assert np.array_equal(got, ref)


# --- the partial-sum sweep -------------------------------------------------------


@pytest.mark.parametrize("form", ["euclidean", "diag_gram", "dense_gram"])
@pytest.mark.parametrize("op,nu", _OPERATORS, ids=_OPERATOR_IDS)
def test_partial_sums_equal_the_per_point_loop(op, nu, form):
    t = _in_geometry(op, form)
    index = _index(op, nu)
    grid = AnnulusGrid.dyadic(2, 8)
    for r in (0, 1):
        # nmax below, at and past the index (nothing is cut below it)
        for nmax in sorted({max(1, index - 1), index, 2 * index + 3}):
            rep = partial_sum_functional(t, r, nmax, grid)
            assert (rep.value, rep.argmax, rep.n_profile) == \
                _partial_sum_oracle(t, r, nmax, grid)


def test_partial_sums_of_a_complex_nilpotent_walk_the_full_ring():
    # a complex nilpotent T is walked at every angle, and cut all the same
    t = 1j * dirichlet_shift(0.5, 5, "forward").matrix
    grid = AnnulusGrid.dyadic(2, 9)
    rep = partial_sum_functional(t, 1, 12, grid)
    assert (rep.value, rep.argmax, rep.n_profile) == \
        _partial_sum_oracle(t, 1, 12, grid)
