import json
import warnings

import numpy as np
import pytest

from ergolab import cli, linop
from ergolab.cli import ConfigError, list_builtins, parse_operator, run, write_report


def test_list_builtins():
    catalog = list_builtins()
    assert any("volterra" in item for item in catalog)
    assert any("dirichlet" in item for item in catalog)
    assert "identity_minus_volterra:<N>" in catalog
    assert catalog == sorted(catalog)
    assert catalog == list_builtins()  # stable across calls


def test_parse_operator_builtins():
    t = parse_operator("builtin:jordan:2:1")
    assert np.allclose(t.matrix, [[1, 1], [0, 1]])
    t = parse_operator("diag:1,0.5")
    assert np.allclose(np.diag(t.matrix), [1.0, 0.5])
    t = parse_operator("dirichlet:0:4:forward")
    assert t.matrix[1, 0] == pytest.approx(np.sqrt(2.0))
    t = parse_operator("volterra:4")
    assert t.dim == 5
    t = parse_operator("identity_minus_volterra:4")
    assert np.allclose(np.diag(t.matrix), [1.0, 0.875, 0.875, 0.875, 0.875])
    with pytest.raises(ConfigError):
        parse_operator("mystery:3")
    with pytest.raises(ConfigError):
        parse_operator("jordan:x:1")


def test_parse_operator_file(tmp_path):
    path = tmp_path / "op.json"
    linop.save_operator(linop.jordan_block(3, 0.5), path)
    t = parse_operator(str(path))
    assert t.dim == 3


def test_run_identities_scenario():
    report = run({"scenario": "identities", "operator": "builtin:jordan:2:1",
                  "scheme": "cesaro:p=2", "nmax": 12, "p": 2})
    assert report["pass"]
    assert all(c["value"] <= 1e-10 for c in report["checks"])
    assert all("threshold" in c for c in report["checks"])


def test_run_unknown_scenario():
    with pytest.raises(ConfigError):
        run({"scenario": "frobnicate"})


def test_run_deterministic_bytes():
    config = {"scenario": "growth", "operator": "jordan:2:1", "nmax": 32}
    a = json.dumps(run(config), sort_keys=True)
    b = json.dumps(run(config), sort_keys=True)
    assert a == b


def test_growth_csv_sidecar(tmp_path):
    report = run({"scenario": "growth", "operator": "jordan:2:1", "nmax": 16})
    path = tmp_path / "growth.csv"
    write_report(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1].startswith("1,")
    assert lines[-2].startswith("fit_exponent,")
    assert lines[-1].startswith("fit_residual,")


def test_write_report_json_round_trip(tmp_path):
    report = {"scenario": "demo", "values": {"sequences": []},
              "checks": [], "pass": True}
    path = tmp_path / "r.json"
    write_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == report


def test_main_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["identities", "--op", "jordan:2:1", "--scheme", "cesaro:p=1",
                     "--nmax", "8", "--p", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pass"]
    # impossible expectation -> check failure -> exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"expect_exponent_band": [5.0, 6.0]}))
    code = cli.main(["growth", "--op", "jordan:2:1", "--nmax", "32",
                     "--config", str(cfg), "--out", str(out)])
    assert code == 1
    code = cli.main(["growth", "--op", "bogus:1", "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("argv, fragment", [
    # the ergodic projection rejects a defective eigenvalue 1 (NonSimplePole)
    (["convergence", "--op", "jordan:2:1", "--nmax", "16"], "Jordan block"),
    # 2^n over the default gamma window [256, 512]: the Gram of the window
    # maps overflows, and the message names the window
    (["quotient", "--op", "diag:2"], "[256, 512]"),
], ids=["defective_pole", "quotient_overflow"])
def test_library_error_exits_2_with_one_stderr_line(argv, fragment, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv + ["--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and fragment in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["identities", "--op", "jordan:2:1", "--nmax", "0"],
    ["identities", "--op", "jordan:2:1", "--nmax", "1"],
    ["convergence", "--op", "diag:1,0.5", "--nmax", "0"],
    ["h1", "--check", "meannorm", "--nmax", "0"],
    ["growth", "--op", "jordan:2:1", "--scheme", "abel", "--nmax", "0"],
    ["shields", "--nmax", "1"],
    ["shields", "--nmax", "2"],
    # one and two samples in [fit_from, nmax] = [64, nmax]: no log fit
    ["shields", "--nmax", "64"],
    ["shields", "--nmax", "100"],
])
def test_nmax_out_of_range_is_a_config_error_naming_the_key(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "nmax" in err[0]


@pytest.mark.parametrize("p", ["0", "-1"])
def test_identities_with_no_cesaro_order_is_a_config_error(p, capsys):
    # p < 1 evaluates no Cesaro order, so identity1..3 would read 0.0 unchecked
    assert cli.main(["identities", "--op", "jordan:2:1", "--p", p]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "p must be >= 1" in err[0]


@pytest.mark.parametrize("argv, zero_rings", [
    (["kreiss", "--op", "jordan:2:1", "--r", "5000", "--kmax", "3", "--angles", "8"], 3),
    (["uniform_kreiss", "--op", "jordan:2:1", "--r", "400", "--nmax", "8",
      "--angles", "8"], 1),
    (["uniform_kreiss", "--op", "jordan:2:1", "--r", "400", "--nmax", "64",
      "--angles", "8"], 4),
], ids=["kreiss_r5000", "uniform_kreiss_r400_nmax8", "uniform_kreiss_r400_nmax64"])
def test_underflowed_ring_weight_fails_its_check(argv, zero_rings, tmp_path, capsys):
    # rho^r overflows a float; the weight (rho-1)^{r+1}/rho^r underflows to 0
    out = tmp_path / "r.json"
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert failed == [{"name": "zero_weight_rings", "value": zero_rings, "op": "<=",
                       "threshold": 0, "pass": False}]


def test_long_builtin_spec_is_not_probed_as_a_path(tmp_path):
    # 400 characters: longer than a file name may be
    spec = "diag:" + ",".join(["0.5"] * 100)
    out = tmp_path / "r.json"
    assert cli.main(["growth", "--op", spec, "--nmax", "16", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"]["points"][0] == [1, 0.5]


def test_long_non_builtin_spec_is_a_config_error(capsys):
    assert cli.main(["growth", "--op", "x" * 300, "--nmax", "16"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in the report")
    return json.loads(text, parse_constant=reject)


def test_kreiss_with_every_grid_point_skipped_fails(tmp_path, capsys):
    # the 8 grid points of the one ring 1.5 e^{2 pi i k / 8} are the spectrum
    ring = 1.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    spec = "diag:" + ",".join(repr(complex(z)).strip("()") for z in ring)
    out = tmp_path / "r.json"
    argv = ["kreiss", "--op", spec, "--kmax", "1", "--angles", "8"]
    assert cli.main(argv + ["--out", str(out)]) == 1
    report = _strict_json(out.read_text())
    assert report["values"]["value"] is None
    assert report["values"]["radius_profile"] == [[1.5, None]]
    [check] = report["checks"]
    assert check["name"] == "evaluated_grid_points"
    assert check["value"] == 8 and check["pass"] is False
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert _strict_json(capsys.readouterr().out) == report


def test_kreiss_without_skipped_points_adds_no_check(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "8",
                     "--out", str(out)]) == 0
    assert _strict_json(out.read_text())["checks"] == []


def _main_with_config(tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    code = cli.main(argv + ["--config", str(cfg), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_kreiss_without_refinement_ratio_fails_its_check(tmp_path):
    # kmax = 1 leaves one radius ring, so no refinement ratio exists
    code, report = _main_with_config(tmp_path, ["kreiss", "--op", "jordan:2:1"],
                                     {"kmax": 1, "angles": 16,
                                      "expect_stable_tol": 0.1})
    assert code == 1
    assert report["values"]["refinement_ratio"] is None
    [check] = report["checks"]
    assert check["value"] is None and check["pass"] is False


def test_growth_without_fit_fails_its_check(tmp_path):
    # three points leave no fittable window, so no exponent exists
    code, report = _main_with_config(tmp_path,
                                     ["growth", "--op", "jordan:2:1", "--nmax", "3"],
                                     {"expect_exponent_band": [0.5, 1.5]})
    assert code == 1
    assert report["values"]["fit_exponent"] is None
    [check] = report["checks"]
    assert check["value"] is None and check["pass"] is False


def test_growth_overflow_is_flagged_in_the_report(tmp_path):
    # nmax > 1024 selects the sampled walk; 3^n overflows long before n = 1200
    out = tmp_path / "growth.json"
    code = cli.main(["growth", "--op", "jordan:3:3", "--nmax", "1200",
                     "--out", str(out)])
    assert code == 0

    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    report = json.loads(out.read_text(), parse_constant=reject)
    # the first sample whose norm passes 1e300, on the trmm walk as on @
    assert report["values"]["overflow_at"] == 659
    assert report["values"]["points"]
    assert report["values"]["points"][-1][0] < report["values"]["overflow_at"]


def test_main_rows_and_builtins(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert cli.main(["rows", "--scheme", "zweier", "--nmax", "3",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,j,t"
    assert cli.main(["builtins"]) == 0
    captured = capsys.readouterr()
    assert "volterra" in captured.out


@pytest.mark.parametrize("argv", [
    ["rows", "--scheme", "powseries:coeffs=1,nan", "--nmax", "3"],
    ["rows", "--scheme", "powseries:coeffs=1,inf", "--nmax", "3"],
    ["convergence", "--op", "diag:1,0.5", "--scheme", "powseries:coeffs=1,nan"],
    ["convergence", "--op", "diag:1,0.5", "--scheme", "powseries:coeffs=1,inf"],
], ids=["rows_nan", "rows_inf", "convergence_nan", "convergence_inf"])
def test_non_finite_power_series_coefficients_are_a_config_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "finite" in err[0]
    assert not out.exists()


def test_power_series_rows_with_overflowing_coefficients(tmp_path):
    # F(r_n) of coefficients 1e308 overflows unless they are rescaled
    # first; the rows are then those of the same vector scaled by 2^-1000
    big, scaled = tmp_path / "big.csv", tmp_path / "scaled.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["rows", "--scheme", "powseries:coeffs=1e308,1e308", "--nmax", "8",
                         "--out", str(big)]) == 0
    assert not caught
    weights = [float(line.split(",")[2]) for line in big.read_text().splitlines()[1:]]
    assert len(weights) == 15 and all(w > 0 for w in weights)
    c = repr(float(np.ldexp(1e308, -1000)))
    assert cli.main(["rows", "--scheme", f"powseries:coeffs={c},{c}", "--nmax", "8",
                     "--out", str(scaled)]) == 0
    assert big.read_text() == scaled.read_text()


@pytest.mark.parametrize("argv, name", [
    (["rows", "--scheme", "zweier", "--nmax", "3"], "x.csv"),
    (["convergence", "--op", "diag:1,0.5", "--nmax", "8"], "r.json"),
    (["growth", "--op", "jordan:2:1", "--nmax", "16"], "g.csv"),
], ids=["rows", "convergence", "growth_csv"])
def test_unwritable_out_exits_2_with_one_error_line(argv, name, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path / "missing" / name)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_example_alias(tmp_path):
    out = tmp_path / "h1.json"
    code = cli.main(["example", "h1", "--check", "pairing", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenario"] == "h1"
    assert report["pass"]


def test_quotient_scenario_defaults(tmp_path):
    report = run({"scenario": "quotient", "expect_kernel_dim": 1})
    assert report["pass"]
    assert report["values"]["kernel_dim"] == 1
    assert report["values"]["quotient_dim"] == 2


def test_convergence_scenario():
    report = run({"scenario": "convergence", "operator": "diag:1,0.5",
                  "nmax": 64, "expect_rate_constant": 2.0})
    assert report["pass"]
    points = dict((n, v) for n, v in report["values"]["points"])
    assert points[50] == pytest.approx(2.0 / 51.0, rel=1e-12)


def _numbers(obj):
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


@pytest.mark.parametrize("config", [
    {"scenario": "identities", "operator": "random:3:1.1:7", "scheme": "zweier",
     "p": 3, "nmax": 24},
    {"scenario": "growth", "operator": "jordan:2:0.99", "scheme": "abel", "nmax": 40},
    {"scenario": "growth", "operator": "jordan:3:1", "scheme": "zweier", "nmax": 64,
     "norm": "colsum"},
    {"scenario": "convergence", "operator": "diag:1,-1,1j,0.5", "scheme": "binomial",
     "nmax": 40},
    {"scenario": "quotient", "window": [64, 96]},
], ids=["identities", "growth_abel", "growth_zweier", "convergence", "quotient"])
def test_mean_sweeps_do_not_depend_on_the_cell_budget(monkeypatch, config):
    wide = run(config)
    # slices of a few means, stacks of a few powers, row groups of a few rows
    monkeypatch.setattr(linop, "_STACK_CELLS", 40)
    narrow = run(config)
    assert narrow["pass"] == wide["pass"]
    np.testing.assert_allclose(_numbers(narrow["values"]), _numbers(wide["values"]),
                               rtol=1e-12, atol=1e-14)


def test_uniform_kreiss_scenario():
    report = run({"scenario": "uniform_kreiss", "operator": "diag:1,0.5",
                  "nmax": 32, "angles": 8})
    assert report["pass"]
    assert report["values"]["max_ratio"] < 1.0
