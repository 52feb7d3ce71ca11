"""``import ergolab`` loads numpy and no scipy module: scipy is imported inside
the functions that call it.  One fresh interpreter checks that, then calls
each of those functions once, cold, and must give what they give here."""

import os
import subprocess
import sys
from pathlib import Path

import scipy.linalg.blas

import ergolab

# one call of each function that imports scipy when it runs
CALLS = """
import numpy as np
from ergolab import ergodic, linop, means

geometry = linop.GramGeometry.tridiagonal([2.0, 2.5, 3.0, 2.0], [-0.5, 0.25, -1.0])
upper = np.triu(np.cos(np.arange(128 * 128.0)).reshape(128, 128)) / 16.0
results = {
    "banded_factor": geometry.factor().tolist(),
    "inverse_right": geometry.apply_factor_inverse_right(
        np.arange(12.0).reshape(3, 4) - 5.0).tolist(),
    "trmm_power": linop.power(upper, 5).tolist(),
    "projection": ergodic.ergodic_projection(np.diag([1.0, 0.5])).tolist(),
    "binomial_row": means.binomial().row(12).weights.tolist(),
}
"""

COLD = """
import sys
import ergolab, ergolab.cli
print(repr(sorted(name for name in sys.modules if name.startswith("scipy"))))
""" + CALLS + """
print(repr(results))
"""


def test_import_loads_no_scipy_and_each_scipy_call_matches_in_process(monkeypatch):
    src = str(Path(ergolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, cold = proc.stdout.splitlines()
    assert loaded == "[]"

    # the d = 128 triangular power is walked by trmm
    seen = []
    lookup = scipy.linalg.blas.get_blas_funcs

    def spy(names, arrays=(), **kwargs):
        seen.append(names)
        return lookup(names, arrays, **kwargs)

    monkeypatch.setattr(scipy.linalg.blas, "get_blas_funcs", spy)
    scope = {}
    exec(CALLS, scope)
    assert seen == ["trmm"]
    assert cold == repr(scope["results"])
