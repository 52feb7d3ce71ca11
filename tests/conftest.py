import pytest
import scipy.linalg.blas

from ergolab import linop, means


@pytest.fixture
def trmm_lookups(monkeypatch):
    """Lower the power walk's trmm threshold to d = 1, so that a small
    triangular operator is walked by BLAS trmm, and record the BLAS routines
    the walk looks up: "trmm" once per walk that takes trmm."""
    seen = []
    lookup = scipy.linalg.blas.get_blas_funcs

    def spy(names, arrays=(), **kwargs):
        seen.append(names)
        return lookup(names, arrays, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "get_blas_funcs", spy)
    monkeypatch.setattr(linop, "_TRMM_MIN_DIM", 1)
    return seen


@pytest.fixture
def mean_walk_starts(monkeypatch):
    """Record, for each walk of the powers in ``means``, the first index of
    every stack it yields: one list per ``means._power_walk`` call.  Both
    mean engines walk there: the row groups of ``apply_mean`` and the Cesaro
    walk of ``_cesaro_means``."""
    walks, walk = [], means._power_walk

    def counted(a, ns, left=None, size=1):
        ns = list(ns)
        walks.append([])
        for k, stack in enumerate(walk(a, ns, left, size)):
            walks[-1].append(ns[k * size])
            yield stack

    monkeypatch.setattr(means, "_power_walk", counted)
    return walks
