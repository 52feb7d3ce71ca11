import pytest
import scipy.linalg.blas

from ergolab import linop


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
