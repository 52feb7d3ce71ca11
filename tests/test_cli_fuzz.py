"""Every CLI input ends in exit 0, 1 or 2, and an exit 2 in one stderr line.

The configs are drawn from each scenario's key table, ``cli._KEYS``, with
small values: ints, floats (non-finite ones included), ``None``, a string,
short lists and operator and scheme specs, malformed ones included.  A key
mostly gets a value of its own kind and range, drawn from its rule, so that
most runs get past the config and into the library; a scenario that needs
an operator always gets one.
"""

import io
import json
import warnings
from contextlib import redirect_stderr

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import cli

OPERATORS = ["jordan:2:1", "jordan:3:0.5", "diag:1,0.5", "diag:2", "diag:1,-1,1j",
             "dirichlet:0.5:8:forward", "dirichlet:1:8:backward", "volterra:8",
             "identity_minus_volterra:8", "random:4:0.9:1", "random:3:1.1",
             # malformed
             "jordan:x:1", "jordan:-3:1", "diag:", "diag:a", "dirichlet:1:4:sideways",
             "volterra:-3", "random:-3:1", "bogus:1", "", "missing.json",
             "jordan:2:1:junk", "jordan:2", "jordan:d=2:eig=1", "random:4:1.0:7:9"]
SCHEMES = ["cesaro:p=1", "cesaro:p=2", "abel", "zweier", "binomial", "powers",
           "powseries:coeffs=1,0.5", "powseries:coeffs=0,1",
           # malformed
           "cesaro:p=0", "cesaro:p=x", "powseries", "powseries:coeffs=1,nan", "bogus",
           "cesaro:2:3", "cesaro:3:p=2", "powseries:coeffs=1:coeffs=2", "powseries:1,0.5"]
CHECKS = list(cli._KEYS["h1"]["check"].choices) + ["typo"]

scalars = st.one_of(st.integers(-3, 40), st.floats(-3.0, 40.0),
                    st.sampled_from([float("nan"), float("inf"), None, "x"]))
values = st.one_of(scalars, st.lists(scalars, max_size=3),
                   st.sampled_from(OPERATORS + SCHEMES + CHECKS))
SPECS = {"operator": OPERATORS, "scheme": SCHEMES}
NEEDS_OPERATOR = ("identities", "kreiss", "uniform_kreiss", "growth", "convergence")


def own_kind(key, rule):
    """Values that ``rule`` admits, from -3 (or its lower bound, excluded if
    the rule excludes it) to 40 (or its upper bound); a bound of None is none."""
    lo = -3 if rule.lo is None else max(rule.lo, -3)
    hi = 40 if rule.hi is None else min(rule.hi, 40)
    if rule.kind == "int":
        return st.integers(lo, hi)
    if rule.kind == "number":
        return st.floats(lo, hi, exclude_min=rule.open_lo)
    if rule.kind == "bool":
        return st.booleans()
    if rule.kind == "band":
        return st.lists(own_kind(key, rule.item), min_size=2, max_size=2).map(sorted)
    return st.sampled_from(rule.choices or SPECS[key])


def value_for(scenario, key):
    own = own_kind(key, cli._KEYS[scenario][key])
    return st.one_of(own, own, values)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_every_config_exits_0_1_or_2(data, tmp_path_factory):
    scenario = data.draw(st.sampled_from(sorted(cli._KEYS)), label="scenario")
    keys = data.draw(st.lists(st.sampled_from(list(cli._KEYS[scenario])), unique=True,
                              max_size=4), label="keys")
    if scenario in NEEDS_OPERATOR and "operator" not in keys:
        keys.append("operator")
    config = {key: data.draw(value_for(scenario, key), label=key) for key in keys}
    path = tmp_path_factory.mktemp("fuzz")
    cfg, out = path / "cfg.json", path / "r.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([scenario, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2), config
    assert not caught, (config, [str(w.message) for w in caught])
    text = err.getvalue()
    assert "Traceback" not in text and "Warning" not in text
    if code == 2:
        assert len(text.splitlines()) == 1, (config, text)
        assert not out.exists()
    else:
        assert out.exists()
