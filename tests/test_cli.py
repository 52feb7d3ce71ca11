import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ergolab import cli, linop, means, spectral
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


@pytest.mark.parametrize("spec, expected", [
    ("builtin:jordan:2:1", lambda: linop.jordan_block(2, 1 + 0j)),
    ("JORDAN:2:1", lambda: linop.jordan_block(2, 1 + 0j)),
    ("random:4:1.0", lambda: linop.random_operator(4, 1.0, linop.DEFAULT_SEED)),
    ("random:4:1.0:7", lambda: linop.random_operator(4, 1.0, 7)),
    ("diag:1,0.5+0.8660254037844386j,0.5",
     lambda: linop.diag_operator([1, 0.5 + 0.8660254037844386j, 0.5])),
    ("dirichlet:1:8:backward", lambda: linop.dirichlet_shift(1.0, 8, "backward")),
    ("identity_minus_volterra:4", lambda: linop.OperatorModel(
        np.eye(5) - linop.volterra_operator(4).matrix, label="I-V(4)")),
])
def test_parse_operator_builds_the_named_operator(spec, expected):
    t, want = parse_operator(spec), expected()
    assert (t.label, t.geometry, t.matrix.dtype) == (want.label, None, want.matrix.dtype)
    assert np.array_equal(t.matrix, want.matrix)


def test_each_builtin_usage_names_its_factory_fields_in_order():
    assert list_builtins() == list(cli._BUILTINS)
    for usage, factory in cli._BUILTINS.items():
        params = list(inspect.signature(factory).parameters.values())
        names = re.findall(r"<([^>]+)>", usage)
        assert len(names) == len(params), usage
        # a required field is :<name>, an optional one [:<name>]
        forms = [":<{}>" if p.default is p.empty else "[:<{}>]" for p in params]
        assert usage == usage.split(":")[0] + "".join(
            form.format(name) for form, name in zip(forms, names))
        for name, p in zip(names, params):
            assert p.kind == p.POSITIONAL_ONLY, usage
            # a field shown by its form (v1,v2,..., forward|backward) has no name
            assert name == p.name or not name.isidentifier(), usage
    assert "random:<dim>:<radius>[:<seed>]" in list_builtins()


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


def _raised_weight(rule, at):
    """The row rule ``rule`` with the weight at position ``at`` of each row
    raised by a relative 1e-6."""
    def raised(*args):
        row = rule(*args)
        weights = row.weights.copy()
        weights[at] *= 1.0 + 1e-6
        return dataclasses.replace(row, weights=weights)
    return raised


_IDENTITIES = ["identities", "--op", "jordan:2:1", "--nmax", "12", "--p", "2"]


# each check of the identities scenario fails when the kernel behind it is
# raised by a relative 1e-6; unpatched, every one of them passes
@pytest.mark.parametrize("scheme, kernel, patch, failing", [
    ("cesaro:p=2", "_cesaro_row", _raised_weight(means._cesaro_row, 0),
     {"identity1", "identity2", "backward_identity"}),
    ("cesaro:p=2", "_cesaro_row", _raised_weight(means._cesaro_row, -1),
     {"identity1", "identity3", "backward_identity"}),
    ("cesaro:p=2", "scalar_mean", lambda *args, f=means.scalar_mean: f(*args) * (1.0 + 1e-6),
     {"block_identity"}),
    ("zweier", "backward_row_from_definition",
     _raised_weight(means.backward_row_from_definition, 0), {"backward_identity"}),
], ids=["cesaro_row_first", "cesaro_row_last", "scalar_mean", "backward_row"])
def test_each_identities_check_can_fail(scheme, kernel, patch, failing, monkeypatch, tmp_path):
    out = tmp_path / "r.json"
    argv = _IDENTITIES + ["--scheme", scheme, "--out", str(out)]
    assert cli.main(argv) == 0
    monkeypatch.setattr(means, kernel, patch)
    assert cli.main(argv) == 1
    checks = json.loads(out.read_text())["checks"]
    assert {c["name"] for c in checks if not c["pass"]} == failing


def test_run_unknown_scenario():
    with pytest.raises(ConfigError):
        run({"scenario": "frobnicate"})


def test_run_deterministic_bytes():
    config = {"scenario": "growth", "operator": "jordan:2:1", "nmax": 32}
    a = json.dumps(run(config), sort_keys=True)
    b = json.dumps(run(config), sort_keys=True)
    assert a == b


def _kreiss_report(threads, path):
    """The bytes of a kreiss report written by a fresh interpreter whose BLAS
    runs ``threads`` threads."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # with a 2-core OpenBLAS the 1- and 2-thread reports are byte-equal at
    # d = 64 and differ in their last digits at d = 96, so the threaded BLAS
    # paths run here; one report takes under a second, and the timeout only
    # stops a hung interpreter
    argv = ["kreiss", "--op", "dirichlet:0.5:96:forward", "--r", "0", "--kmax", "6",
            "--angles", "8", "--out", str(path)]
    proc = subprocess.run([sys.executable, "-m", "ergolab.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return path.read_bytes()


@pytest.fixture(scope="module")
def one_thread_report(tmp_path_factory):
    return _kreiss_report(1, tmp_path_factory.mktemp("kreiss") / "r.json")


def test_report_bytes_are_identical_at_a_fixed_thread_count(one_thread_report, tmp_path):
    # the same config, numpy/scipy/BLAS build and thread count give the same bytes
    assert _kreiss_report(1, tmp_path / "r.json") == one_thread_report


def test_report_values_agree_to_rounding_across_thread_counts(one_thread_report, tmp_path):
    one = json.loads(one_thread_report)
    two = json.loads(_kreiss_report(2, tmp_path / "r.json"))
    assert two.keys() == one.keys() and two["config"] == one["config"]
    assert np.allclose(_numbers(two), _numbers(one), rtol=1e-12, atol=0.0)


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


def test_finite_requested_powers_do_not_overflow(tmp_path, capsys):
    # 1000^65 is about 1e195, and the mean walk forms no power above the 65th
    argv = ["convergence", "--op", "diag:1000", "--scheme", "cesaro:p=1", "--nmax", "65"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv + ["--out", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""


def test_cesaro_growth_with_bounded_means_does_not_overflow(tmp_path):
    # T = [[1, 1e300], [0, 0]] is idempotent, so the mean of order p at n is
    # w I + (1 - w) T with w = p / (n + p), of norm n / (n + p) * 1e300; the
    # Pascal sums reach 1e300 * C(110, 20) > 1e308, past 2^64 times the means
    path = tmp_path / "op.json"
    linop.save_operator(linop.OperatorModel(np.array([[1.0, 1e300], [0.0, 0.0]])), path)
    out = tmp_path / "r.json"
    argv = ["growth", "--op", str(path), "--scheme", "cesaro:p=20", "--nmax", "90"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    points = json.loads(out.read_text())["values"]["points"]
    assert [n for n, _ in points] == list(range(1, 91))
    for n, v in points:
        assert v == pytest.approx(n / (n + 20) * 1e300, rel=1e-12)


@pytest.mark.parametrize("argv", [
    # (3 / |lambda|)^n passes 1e308 in the partial sums and the Cesaro means
    ["uniform_kreiss", "--op", "diag:3", "--nmax", "1024", "--r", "1"],
    ["growth", "--op", "diag:3", "--scheme", "cesaro:p=1", "--nmax", "2000"],
    # 1e200^2 overflows in the first squaring of the mean walk
    ["identities", "--op", "diag:1e200", "--nmax", "8"],
    ["convergence", "--op", "diag:1e200", "--scheme", "zweier", "--nmax", "8"],
], ids=["uniform_kreiss", "growth_cesaro", "identities", "convergence_zweier"])
def test_numerical_overflow_exits_2_with_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(out)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: numerical overflow: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["identities", "--op", "jordan:2:1", "--nmax", "0"],
    ["identities", "--op", "jordan:2:1", "--nmax", "1"],
    ["convergence", "--op", "diag:1,0.5", "--nmax", "0"],
    ["h1", "--check", "meannorm", "--nmax", "0"],
    ["growth", "--op", "jordan:2:1", "--scheme", "abel", "--nmax", "0"],
    # the power sweep fits from n = 2
    ["growth", "--op", "jordan:2:1", "--nmax", "1"],
    ["nevanlinna", "--nmax", "1"],
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


@pytest.mark.parametrize("scenario, key, value", [
    ("kreiss", "kmax", 53), ("kreiss", "r", 1.5), ("identities", "tol", True),
    ("quotient", "kernel_tol", float("nan")), ("growth", "window_fraction", 0),
    ("quotient", "kernel_tol", float("inf")), ("h1", "seed", None),
])
def test_a_rejected_number_key_has_the_library_message(scenario, key, value):
    # the CLI's int and number rules are the library's numeric rule, in its words
    rule = cli._KEYS[scenario][key]
    with pytest.raises(ValueError) as library:
        if rule.kind == "int":
            linop._check_integer(value, key, rule.lo, rule.hi)
        else:
            linop._check_real(value, key, rule.lo, rule.hi, rule.open_lo)
    with pytest.raises(ConfigError) as config:
        run({"scenario": scenario, key: value})
    assert str(config.value) == str(library.value)


@pytest.mark.parametrize("value", [4.5, True])
def test_config_get_least_is_the_integer_rule(value):
    # a float above least passed a plain comparison with it
    with pytest.raises(ConfigError) as info:
        cli._Config({"nmax": value}).get("nmax", least=3)
    assert str(info.value) == f"nmax must be an integer >= 3, got {value!r}"


def test_kmax_limit_is_the_library_limit(capsys):
    # the CLI rule reads the limit of AnnulusGrid.dyadic, and both say it alike
    assert cli._KEYS["kreiss"]["kmax"].hi == spectral._MAX_KMAX == 52
    with pytest.raises(ValueError) as info:
        spectral.AnnulusGrid.dyadic(spectral._MAX_KMAX + 1, 8)
    assert cli.main(["kreiss", "--op", "builtin:jordan:2:1", "--kmax", "53"]) == 2
    assert capsys.readouterr().err == f"config error: {info.value}\n"


@pytest.mark.parametrize("p", ["0", "-1"])
def test_identities_with_no_cesaro_order_is_a_config_error(p, capsys):
    # p < 1 evaluates no Cesaro order, so identity1..3 would read 0.0 unchecked
    assert cli.main(["identities", "--op", "jordan:2:1", "--p", p]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ") and "p must be an integer >= 1" in err[0]


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


@pytest.mark.parametrize("argv, config, fragment", [
    # a key the scenario never reads: a misspelt check, a flag growth ignores
    (["growth", "--op", "jordan:2:1", "--nmax", "64"], {"expect_exponet_band": [9, 10]},
     "config error: scenario growth reads no config key 'expect_exponet_band'"),
    (["growth", "--op", "jordan:2:1", "--nmax", "64", "--seed", "3"], None,
     "config error: unrecognized arguments: --seed 3"),
    (["h1", "--check", "typo"], None,
     "config error: check must be one of 3iso|pairing|inequality|meannorm|all, got 'typo'"),
    # a flag value of the wrong type
    (["growth", "--nmax", "x"], None,
     "config error: argument --nmax: invalid int value: 'x'"),
    # a gamma window of one bound, and a config file that is not a JSON object
    (["quotient"], {"window": [256]},
     "config error: window must be [lo, hi] with lo <= hi"),
    (["quotient"], [1, 2], "must hold a JSON object"),
    # a kernel tolerance that is not positive
    (["quotient"], {"kernel_tol": -3, "m": 20},
     "config error: kernel_tol must be a finite number > 0, got -3"),
    (["quotient"], {"kernel_tol": -1},
     "config error: kernel_tol must be a finite number > 0, got -1"),
    (["quotient"], {"kernel_tol": 0},
     "config error: kernel_tol must be a finite number > 0, got 0"),
    # a fit window outside (0, 1], a Shields order or nmax above what
    # spaces.shields_report covers
    (["growth", "--op", "jordan:2:1", "--nmax", "64"], {"window_fraction": 0},
     "config error: window_fraction must be a finite number > 0 and <= 1, got 0"),
    (["nevanlinna", "--nmax", "64"], {"window_fraction": 1.5},
     "config error: window_fraction must be a finite number > 0 and <= 1, got 1.5"),
    (["shields", "--nmax", "64", "--r", "4"], None,
     "config error: r must be an integer >= 0 and <= 3, got 4"),
    (["shields", "--nmax", "16385"], None,
     "config error: nmax must be an integer >= 2 and <= 16384, got 16385"),
    # an h1 seed that is not a nonnegative int (null would draw OS entropy)
    (["h1", "--check", "3iso"], {"seed": None, "trials": 3},
     "config error: seed must be an integer >= 0, got None"),
    (["h1", "--check", "3iso"], {"seed": True, "trials": 3},
     "config error: seed must be an integer >= 0, got True"),
    (["h1", "--check", "3iso"], {"seed": -1, "trials": 3},
     "config error: seed must be an integer >= 0, got -1"),
    (["h1", "--check", "3iso"], {"seed": 1.5, "trials": 3},
     "config error: seed must be an integer >= 0, got 1.5"),
    # no trials: a defect of 0.0 from nothing
    (["h1", "--check", "3iso"], {"trials": -5},
     "config error: trials must be an integer >= 1, got -5"),
    (["h1", "--check", "inequality"], {"trials": 0},
     "config error: trials must be an integer >= 1, got 0"),
    # a non-empty string is true, so "no" took the sampled route
    (["growth", "--op", "jordan:2:1", "--nmax", "64"], {"sampled": "no"},
     "config error: sampled must be true or false, got 'no'"),
    (["growth", "--op", "jordan:2:1", "--nmax", "64"], {"sampled": 1},
     "config error: sampled must be true or false, got 1"),
    # one sample reached the library, which named no config key
    (["growth", "--op", "jordan:2:1", "--nmax", "64"], {"sampled": True, "samples": 1},
     "config error: samples must be an integer >= 2, got 1"),
    # the sampled sweep reported n = 2 beyond nmax 1, and had one index at nmax 2
    (["growth", "--op", "jordan:2:1", "--nmax", "1"], {"sampled": True},
     "config error: nmax must be an integer >= 3, got 1"),
    (["nevanlinna", "--nmax", "2"], {"sampled": True},
     "config error: nmax must be an integer >= 3, got 2"),
    (["nevanlinna", "--nmax", "1"], None,
     "config error: nmax must be an integer >= 2, got 1"),
    # a Kreiss order that is negative or not an integer, a reversed band, a
    # float where an integer goes, a NaN tolerance and a truncated window
    (["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "8"], {"r": -1},
     "config error: r must be an integer >= 0, got -1"),
    (["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "8"], {"r": 1.5},
     "config error: r must be an integer >= 0, got 1.5"),
    (["uniform_kreiss", "--op", "jordan:2:1", "--nmax", "8", "--angles", "8"], {"r": -2},
     "config error: r must be an integer >= 0, got -2"),
    (["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "8"],
     {"expect_ratio_band": [3, 1]},
     "config error: expect_ratio_band must be [lo, hi] with lo <= hi, each a finite "
     "number, got [3, 1]"),
    (["kreiss", "--op", "jordan:2:1", "--angles", "8"], {"kmax": 3.0},
     "config error: kmax must be an integer >= 1 and <= 52, got 3.0"),
    # the radius 1 + 2^-53 rounds to 1.0
    (["kreiss", "--op", "jordan:2:1", "--kmax", "53", "--angles", "8"], None,
     "config error: kmax must be an integer >= 1 and <= 52, got 53"),
    (["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "4"], None,
     "config error: angles must be an integer >= 8, got 4"),
    (["identities", "--op", "jordan:2:1", "--nmax", "8"], {"tol": float("nan")},
     "config error: tol must be a finite number >= 0, got nan"),
    (["quotient"], {"window": [256.5, 512]},
     "config error: window must be [lo, hi] with lo <= hi, each an integer >= 0, "
     "got [256.5, 512]"),
    # a scenario run without its operator
    (["kreiss"], None, "config error: missing config key 'operator'"),
    (["growth"], None, "config error: missing config key 'operator'"),
    (["identities"], None, "config error: missing config key 'operator'"),
    (["convergence"], None, "config error: missing config key 'operator'"),
    (["uniform_kreiss"], None, "config error: missing config key 'operator'"),
    # a rows nmax below the scheme's first row wrote a header-only CSV
    (["rows", "--scheme", "abel", "--nmax", "0"], None,
     "config error: nmax must be an integer >= 1, got 0"),
    # a scheme parameter that its family does not take ran the default scheme
    (["growth", "--op", "jordan:2:1", "--scheme", "cesaro:order=3", "--nmax", "16"], None,
     "config error: scheme cesaro takes no parameter 'order'"),
    (["growth", "--op", "jordan:2:1", "--scheme", "zweier:3", "--nmax", "16"], None,
     "config error: scheme zweier takes no parameter '3'"),
    # a fractional Cesaro order
    (["growth", "--op", "jordan:2:1", "--scheme", "cesaro:p=1.5", "--nmax", "16"], None,
     "config error: invalid literal for int() with base 10: '1.5'"),
    # a spec field past the last its head takes, given twice or missing ran
    # another operator or scheme, or failed on an index
    *[(["growth", "--op", spec, "--nmax", "8"], None,
       f"config error: bad operator spec {spec!r}: operator {fragment}")
      for spec, fragment in [
          ("jordan:2:1:junk", "jordan takes no parameter 'junk'"),
          ("volterra:8:9", "volterra takes no parameter '9'"),
          ("diag:1,2:3", "diag takes no parameter '3'"),
          ("identity_minus_volterra:4:x", "identity_minus_volterra takes no parameter 'x'"),
          ("dirichlet:0.5:8:forward:1", "dirichlet takes no parameter '1'"),
          ("random:4:1.0:7:9", "random takes no parameter '9'"),
          ("jordan:2", "jordan needs parameter 'eig'"),
          # builtin fields are positional only
          ("jordan:d=2:eig=1", "jordan takes no parameter 'd'")]],
    # a random operator of dimension 0 failed in a reduction with no identity
    (["growth", "--op", "random:0:1.0", "--nmax", "4"], None,
     "config error: bad operator spec 'random:0:1.0': random operator dim must be an integer "
     ">= 1, got 0"),
    # a negative radius ran an operator of spectral radius 1
    (["growth", "--op", "random:4:-1", "--nmax", "8"], None,
     "config error: bad operator spec 'random:4:-1': random operator spectral radius must be "
     "a finite number >= 0, got -1.0"),
    *[(["growth", "--op", "jordan:2:1", "--scheme", spec, "--nmax", "8"], None,
       f"config error: scheme {fragment}")
      for spec, fragment in [
          ("cesaro:2:3", "cesaro takes no parameter '3'"),
          ("cesaro:3:p=2", "cesaro takes parameter 'p' once, got it twice"),
          ("cesaro:p=2:p=5", "cesaro takes parameter 'p' once, got it twice"),
          ("powseries:coeffs=1:coeffs=2",
           "powseries takes parameter 'coeffs' once, got it twice"),
          ("powseries", "powseries needs parameter 'coeffs'")]],
    # <F_n 1, 1> = 2/(n+1) holds from n = 1 on
    (["h1"], {"check": "pairing", "n": 0}, "config error: n must be an integer >= 1, got 0"),
    # a flag is read only when written in full: --n is not --nmax
    (["h1", "--check", "pairing", "--n", "0"], None,
     "config error: unrecognized arguments: --n 0"),
], ids=["misspelt_check", "unread_flag", "h1_check", "flag_type", "window_of_one",
        "config_list", "kernel_tol_m20", "kernel_tol", "kernel_tol_zero",
        "window_fraction_zero", "window_fraction_above_one", "shields_r_above_3",
        "shields_nmax_above_2_14", "seed_null", "seed_bool",
        "seed_negative", "seed_float", "trials_negative", "trials_zero", "sampled_string",
        "sampled_int", "samples_one", "sampled_nmax_1", "sampled_nmax_2", "sweep_nmax_1",
        "kreiss_r_negative", "kreiss_r_float", "uniform_kreiss_r_negative",
        "ratio_band_reversed", "kmax_float", "kmax_53", "angles_few", "tol_nan",
        "window_float", "kreiss_no_operator", "growth_no_operator",
        "identities_no_operator", "convergence_no_operator", "uniform_kreiss_no_operator",
        "rows_nmax_0", "cesaro_order", "zweier_positional", "cesaro_fractional",
        "jordan_extra", "volterra_extra", "diag_extra", "i_minus_v_extra", "dirichlet_extra",
        "random_extra", "jordan_missing", "jordan_named", "random_dim_0",
        "random_radius_negative", "cesaro_extra",
        "cesaro_p_twice", "cesaro_named_p_twice", "coeffs_twice", "powseries_missing",
        "h1_pairing_n0", "abbreviated_flag"])
def test_rejected_input_exits_2_with_one_stderr_line(argv, config, fragment, tmp_path,
                                                     capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "r.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(out)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert len(err.splitlines()) == 1 and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"rows": null, "cols": 1, "re": [1], "im": [0]}',
    "5",
    '{"matrix": 5}',
    '{"rows": 1e400, "cols": 1, "re": [1], "im": [0]}',
    '{"matrix": {"rows": 1, "cols": 1, "re": [0.5], "im": [0]}, "gram": [1]}',
    # an unknown key was ignored: a misspelt "gram" dropped the geometry,
    # and a Gram of both forms silently took diag
    '{"matrix": {"rows": 1, "cols": 1, "re": [0.5], "im": [0]},'
    ' "gramm": {"dim": 1, "diag": [4]}}',
    '{"matrix": {"rows": 1, "cols": 1, "re": [0.5], "im": [0], "imag": [0]}}',
    '{"rows": 1, "cols": 1, "re": [0.5], "im": [0], "label": "bare"}',
    '{"matrix": {"rows": 1, "cols": 1, "re": [0.5], "im": [0]},'
    ' "gram": {"dim": 1, "diag": [4], "gram_re": [1], "gram_im": [0]}}',
    '{"matrix": {"rows": 1, "cols": 1, "re": [0.5], "im": [0]},'
    ' "gram": {"dim": 1, "gram_re": [1], "gram_im": [0], "hermitian": true}}',
    # a fractional size was truncated: the operator loaded as a 2 x 2 one
    '{"rows": 2.5, "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]}',
    '{"matrix": {"rows": 2, "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]},'
    ' "gram": {"dim": 2.9, "diag": [1, 2]}}',
], ids=["array", "rows_null", "number", "matrix_number", "rows_infinite", "gram_array",
        "gramm", "matrix_imag", "bare_label", "gram_both_forms", "dense_gram_extra",
        "rows_fractional", "gram_dim_fractional"])
def test_malformed_operator_file_exits_2_with_one_stderr_line(text, tmp_path, capsys):
    op = tmp_path / "op.json"
    op.write_text(text)
    out = tmp_path / "r.json"
    assert cli.main(["kreiss", "--op", str(op), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot load operator file {str(op)!r}: ")
    assert not out.exists()


@pytest.mark.parametrize("name, text", [("missing.json", None), ("dir", None),
                                        ("bad.json", "{not json")],
                         ids=["missing", "directory", "not_json"])
def test_unreadable_config_exits_2_with_one_stderr_line(name, text, tmp_path, capsys):
    cfg = tmp_path / name
    if name == "dir":
        cfg.mkdir()
    elif text is not None:
        cfg.write_text(text)
    out = tmp_path / "r.json"
    assert cli.main(["kreiss", "--op", "jordan:2:1", "--config", str(cfg),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot read {cfg}: ")
    assert not out.exists()


def test_out_of_memory_exits_2_with_one_stderr_line(monkeypatch, tmp_path, capsys):
    def too_large(d, eig):
        raise MemoryError(f"Unable to allocate the {d} x {d} block")

    monkeypatch.setattr(linop, "jordan_block", too_large)
    out = tmp_path / "r.json"
    assert cli.main(["growth", "--op", "jordan:2:1", "--nmax", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate the 2 x 2 block"]
    assert not out.exists()


@pytest.mark.parametrize("band, code", [([1.8, 2.2], 0), ([3, 4], 1)])
def test_kreiss_step_ratios_are_checked_against_the_band(band, code, tmp_path):
    # the Jordan block's resolvent sup doubles with each halving of |lambda| - 1
    code_seen, report = _main_with_config(
        tmp_path, ["kreiss", "--op", "jordan:2:1", "--r", "0", "--kmax", "6",
                   "--angles", "8"], {"expect_ratio_band": band})
    assert code_seen == code
    checks = [c for c in report["checks"] if c["name"].startswith("step_ratio_")]
    assert [c["name"] for c in checks] == ["step_ratio_0", "step_ratio_1", "step_ratio_2"]
    assert [c["value"] for c in checks] == report["values"]["step_ratios"][-3:]
    assert all(c["pass"] == (code == 0) and c["threshold"] == band for c in checks)
    assert [round(c["value"], 3) for c in checks] == [1.977, 1.994, 1.999]


def test_main_twice_in_one_process_reports_as_two_fresh_processes(tmp_path, capsys):
    # main builds its argument parser once per process; a usage error in
    # one call must leave nothing behind for the next
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli._build_parser.cache_clear()
    for k, argv in enumerate([["growth", "--op", "jordan:2:1", "--nmax", "x"],
                              ["growth", "--op", "jordan:2:1", "--nmax", "8"]]):
        fresh, same = tmp_path / f"fresh{k}.json", tmp_path / f"same{k}.json"
        proc = subprocess.run([sys.executable, "-m", "ergolab.cli", *argv, "--out",
                               str(fresh)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert cli.main(argv + ["--out", str(same)]) == proc.returncode == 2 * (1 - k)
        assert capsys.readouterr().err == proc.stderr
        assert same.exists() == fresh.exists() == bool(k)
        assert not k or same.read_bytes() == fresh.read_bytes()
    assert cli._build_parser.cache_info().misses == 1


def test_no_command_is_a_config_error(capsys):
    assert cli.main([]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: the following arguments are required: command"]


@pytest.mark.parametrize("argv", [
    ["kreiss", "--op", "jordan:2:1", "--kmax", "3", "--angles", "8"],
    ["h1", "--check", "pairing"],
    ["shields", "--nmax", "256"],
    ["nevanlinna", "--nmax", "64"],
], ids=["kreiss", "h1", "shields", "nevanlinna"])
def test_csv_out_without_points_is_a_config_error(argv, tmp_path, capsys):
    # a .csv report holds only the points, which these reports do not have
    out = tmp_path / "r.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: out must be a path string, .csv only for growth "
                   f"and convergence, got {str(out)!r}"]
    assert not out.exists()


@pytest.mark.parametrize("sampled", [True, False])
def test_growth_sampled_takes_a_json_boolean(sampled, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sampled": sampled}))
    out = tmp_path / "r.json"
    argv = ["growth", "--op", "jordan:2:1", "--nmax", "2000", "--config", str(cfg)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    # the sampled route reads at most 33 powers; the full sweep reads all 2000
    points = len(json.loads(out.read_text())["values"]["points"])
    assert points <= 33 if sampled else points == 2000


def test_h1_seed_zero_is_a_seed():
    assert run({"scenario": "h1", "check": "3iso", "trials": 2, "seed": 0})["pass"]
