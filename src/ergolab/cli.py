"""ergolab command line: reproducible scenario runs with JSON/CSV reports.

Scenarios: identities, kreiss, uniform_kreiss, growth, nevanlinna, shields,
h1, quotient, convergence (plus the ``example`` alias group for shields/h1
and the ``rows`` dump utility).  Reports are deterministic for a fixed
config: byte-identical JSON, seeds fixed, no timestamps.  Exit codes:
0 all declared checks pass, 1 a check failed (a missing diagnostic, such as
an unfittable growth exponent, fails its check), 2 configuration error,
numerical overflow or an input the library rejects (one line on stderr, no
traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import ergodic, linop, means, spaces, spectral

DEFAULT_SEED = 0x5EED

SCENARIOS = ("identities", "kreiss", "uniform_kreiss", "growth", "nevanlinna",
             "shields", "h1", "quotient", "convergence")


class ConfigError(ValueError):
    """Bad scenario configuration (unknown operator/scheme spec, bad range)."""


def _parse_scheme(spec: str) -> means.MeanScheme:
    """``means.parse_scheme``, with a rejected spec raised as a ConfigError."""
    try:
        return means.parse_scheme(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def list_builtins():
    """Catalog of builtin operator specs, stable order."""
    return [
        "diag:<v1,v2,...>",
        "dirichlet:<alpha>:<N>:<forward|backward>",
        "identity_minus_volterra:<N>",
        "jordan:<d>:<eig>",
        "random:<dim>:<radius>:<seed>",
        "volterra:<N>",
    ]


_BUILTIN_KINDS = frozenset(item.split(":")[0] for item in list_builtins())


def parse_operator(spec: str) -> linop.OperatorModel:
    """Operator from a builtin spec string or an operator JSON file; a spec
    of a builtin kind is never looked up as a path."""
    spec = spec.strip()
    if spec.startswith("builtin:"):
        spec = spec[len("builtin:"):]
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind not in _BUILTIN_KINDS:
        try:
            if spec.endswith(".json") or Path(spec).exists():
                return linop.load_operator(spec)
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(f"cannot load operator file {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown operator spec {spec!r}")
    try:
        if kind == "jordan":
            return linop.jordan_block(int(parts[1]), complex(parts[2]))
        if kind == "diag":
            values = [complex(v) for v in parts[1].split(",")]
            return linop.diag_operator(values)
        if kind == "dirichlet":
            return linop.dirichlet_shift(float(parts[1]), int(parts[2]), parts[3])
        if kind == "volterra":
            return linop.volterra_operator(int(parts[1]))
        if kind == "identity_minus_volterra":
            v = linop.volterra_operator(int(parts[1]))
            return linop.OperatorModel(np.eye(v.dim) - v.matrix,
                                       label=f"I-V({parts[1]})")
        # the remaining builtin kind: random
        seed = int(parts[3]) if len(parts) > 3 else DEFAULT_SEED
        return linop.random_operator(int(parts[1]), float(parts[2]), seed)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad operator spec {spec!r}: {exc}") from exc


def _json_safe(obj):
    """``obj`` with every non-finite float replaced by ``None`` (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _check(name, value, threshold, op="<="):
    """A named comparison; a missing or non-finite diagnostic fails it."""
    compare = {"<=": operator.le, ">=": operator.ge,
               "<": operator.lt, ">": operator.gt}[op]
    value = _json_safe(value)
    ok = value is not None and compare(value, threshold)
    return {"name": name, "value": value, "op": op,
            "threshold": threshold, "pass": bool(ok)}


def _band_check(name, value, band):
    lo, hi = band
    value = _json_safe(value)
    ok = value is not None and lo <= value <= hi
    return {"name": name, "value": value, "op": "in",
            "threshold": [lo, hi], "pass": bool(ok)}


def _require(key, value, least):
    """``value`` itself, or ConfigError naming ``key`` when it is below
    ``least``."""
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _ring_weight_checks(grid, r):
    """The failing check ``zero_weight_rings`` (value: their count) when
    the weight of some radius ring underflowed to 0, so that ring added
    nothing to the supremum; no check otherwise."""
    zero = grid.kreiss_weights(r).count(0.0)
    return [_check("zero_weight_rings", zero, 0)] if zero else []


def _scenario_identities(cfg):
    op = parse_operator(cfg["operator"])
    tol = cfg.get("tol", 1e-10)
    pmax = _require("p", cfg.get("p", 2), 1)
    scheme = _parse_scheme(cfg.get("scheme", "cesaro:p=1"))
    # the backward-identity sweep runs over the rows first..nmax
    first = max(scheme.min_n, 1) + 1
    nmax = _require("nmax", cfg.get("nmax", 32), first)
    a = op.matrix
    eye = np.eye(op.dim)
    worst = {"identity1": 0.0, "identity2": 0.0, "identity3": 0.0}
    for part in linop._chunks(nmax, op.dim ** 2):
        # rows n of this slice, and n + 1 for the means of the next row
        n = np.arange(part.start + 1, part.stop + 1)[:, None, None]
        rows = np.arange(part.start + 1, part.stop + 2)
        lower = means.apply_mean(means.identity_powers(), op, rows)
        for p in range(1, pmax + 1):
            upper = means.apply_mean(means.cesaro(p), op, rows)
            m_n, m_next, m_lower = upper[:-1], upper[1:], lower[1:]
            r1 = m_n @ (a - eye) - (p / (n + 1)) * (m_lower - eye)
            r2 = a @ m_n - ((n + p + 1) / (n + 1)) * m_next + (p / (n + 1)) * eye
            r3 = ((n + p + 1) / (n + 1)) * m_next - m_n - (p / (n + 1)) * m_lower
            for key, r in zip(worst, (r1, r2, r3)):
                worst[key] = max(worst[key], float(np.max(op.norm(r))))
            lower = upper
    back_rows = np.arange(first, nmax + 1)
    back_res = max(
        float(np.max(means.backit_identity_residual(scheme, op, back_rows[part])))
        for part in linop._chunks(back_rows.size, op.dim ** 2))
    block_res = means.block_mean_residual(op, np.ones(op.dim), 1.0, scheme,
                                          max(scheme.min_n + 1, 4))
    values = dict(worst, backward_identity=back_res, block_identity=block_res)
    checks = [_check(k, v, tol) for k, v in values.items()]
    return values, checks


def _scenario_kreiss(cfg):
    op = parse_operator(cfg["operator"])
    r = cfg.get("r", 0)
    grid = spectral.AnnulusGrid.dyadic(cfg.get("kmax", 10), cfg.get("angles", 512))
    report = spectral.kreiss_functional(op, r, grid)
    ratios = [b / a for (_, a), (_, b) in
              zip(report.radius_profile, report.radius_profile[1:]) if a > 0]
    values = {
        "value": report.value,
        "argmax": report.argmax,
        "refinement_ratio": report.refinement_ratio,
        "radius_profile": report.radius_profile,
        "step_ratios": ratios,
    }
    checks = []
    if "expect_stable_tol" in cfg:
        ratio = report.refinement_ratio
        checks.append(_check("refinement_stability",
                             None if ratio is None else abs(ratio - 1.0),
                             cfg["expect_stable_tol"]))
    if "expect_ratio_band" in cfg:
        tail = ratios[-3:]
        for i, ratio in enumerate(tail):
            checks.append(_band_check(f"step_ratio_{i}", ratio,
                                      cfg["expect_ratio_band"]))
    if report.skipped:
        # grid points on the spectrum were left out of the supremum
        checks.append(_check("evaluated_grid_points", report.skipped, 0))
    return values, checks + _ring_weight_checks(grid, r)


def _scenario_uniform_kreiss(cfg):
    op = parse_operator(cfg["operator"])
    r = cfg.get("r", 0)
    nmax = cfg.get("nmax", 64)
    angles = cfg.get("angles", 16)
    radii = sorted({1.0 + 1.0 / n for n in range(1, nmax + 1)
                    if (n & (n - 1)) == 0}, reverse=True)
    grid = spectral.AnnulusGrid(tuple(radii), angles)
    result = spectral.uniform_kreiss_mean_bound(op, r, nmax, angles, grid)
    checks = [_check("mean_bound_ratio", result["max_ratio"],
                     cfg.get("tol", 1.0 + 1e-6))]
    return result, checks + _ring_weight_checks(grid, r)


def _growth_report(cfg):
    op = parse_operator(cfg["operator"])
    nmax = cfg.get("nmax", 512)
    mode = cfg.get("norm", "spectral")
    window = cfg.get("window_fraction", 0.5)
    if cfg.get("scheme"):
        # growth of the means ||T_n|| instead of the powers ||T^n||
        scheme = _parse_scheme(cfg["scheme"])
        _require("nmax", nmax, max(scheme.min_n, 1))
        if scheme.kind == "cesaro":
            pairs = [(n, op.norm(m, mode=mode))
                     for n, m in spectral.cesaro_mean_sequence(op, scheme.p, nmax)
                     if n >= 1]
            ns, vals = (np.asarray(seq) for seq in zip(*pairs))
        else:
            ns = np.arange(max(scheme.min_n, 1), nmax + 1)
            vals = np.empty(ns.size)
            for part in linop._chunks(ns.size, op.dim ** 2):
                vals[part] = op.norm(means.apply_mean(scheme, op, ns[part]), mode=mode)
        report = ergodic.GrowthReport(label=f"||{scheme.name}({op.label})||",
                                      ns=ns, values=vals)
        report = ergodic.fitted(report, window)
        return op, report
    if cfg.get("sampled", nmax > 1024):
        count = cfg.get("samples", 33)
        ns = sorted({int(round(2.0 ** e))
                     for e in np.linspace(1, math.log2(nmax), count)})
        return op, ergodic.power_norm_samples(op, ns, mode, window)
    return op, ergodic.power_norm_sequence(op, nmax, mode, window)


def _scenario_growth(cfg):
    _, report = _growth_report(cfg)
    values = {
        "points": [[int(n), float(v)] for n, v in report.points],
        "fit_exponent": report.fit_exponent,
        "fit_residual": report.fit_residual,
        "window": list(report.window) if report.window else None,
        "overflow_at": report.overflow_at,
    }
    checks = []
    if "expect_exponent_band" in cfg:
        checks.append(_band_check("fit_exponent", report.fit_exponent,
                                  cfg["expect_exponent_band"]))
    return values, checks


def _scenario_nevanlinna(cfg):
    cfg = dict(cfg)
    cfg.setdefault("operator", "jordan:2:1")
    op, report = _growth_report(cfg)
    r = cfg.get("r", op.dim - 1)
    values = {
        "fit_exponent": report.fit_exponent,
        "fit_residual": report.fit_residual,
        "bound_exponent": r + 1,
    }
    checks = [
        _band_check("fit_exponent", report.fit_exponent, [r - 0.1, r + 0.1]),
        _check("below_bound", report.fit_exponent, r + 1, op="<"),
    ]
    return values, checks


def _scenario_shields(cfg):
    r = cfg.get("r", 0)
    nmax = _require("nmax", cfg.get("nmax", 4096), 2)
    lo = cfg.get("fit_from", 64)
    mean_rep, power_rep, inner_rep = spaces.shields_report(
        r, nmax, cfg.get("quad_nodes"))
    mask = mean_rep.ns >= lo
    if mask.sum() < 3:
        raise ConfigError(f"the log fit needs at least 3 samples n in "
                          f"[fit_from, nmax] = [{lo}, {nmax}], got {mask.sum()}")
    c, d, rel = ergodic.log_fit(mean_rep.ns[mask], mean_rep.values[mask])
    quotients = mean_rep.values[mask] / np.log(mean_rep.ns[mask])
    exact = np.array([math.prod(1.0 - j / n for j in range(1, r + 1))
                      for n in power_rep.ns])
    power_err = float(np.max(np.abs(power_rep.values - exact)))
    values = {
        "mean": [[int(n), float(v)] for n, v in mean_rep.points],
        "power": [[int(n), float(v)] for n, v in power_rep.points],
        "inner": [[int(n), float(v)] for n, v in inner_rep.points],
        "log_fit": {"c": c, "d": d, "rel_residual": rel},
        "band": [float(np.min(quotients)), float(np.max(quotients))],
    }
    checks = [
        _check("log_fit_slope_positive", c, 0.0, op=">"),
        _check("log_fit_rel_residual", rel, cfg.get("fit_tol", 0.10)),
        _check("power_sequence_exact", power_err, 1e-12),
        _check("log_band_ratio",
               values["band"][1] / values["band"][0],
               cfg.get("band_ratio_max", 2.5)),
    ]
    return values, checks


def _scenario_h1(cfg):
    which = cfg.get("check", "all")
    degree = cfg.get("degree", 8)
    seed = cfg.get("seed", DEFAULT_SEED)
    rng = np.random.default_rng(seed)
    values = {}
    checks = []
    if which in ("3iso", "all"):
        worst = 0.0
        for _ in range(cfg.get("trials", 50)):
            p = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            worst = max(worst, abs(spaces.m_isometry_defect(
                spaces.h1_norm, spaces.shift_by_z, 3, p)))
        values["three_isometry_defect"] = worst
        checks.append(_check("three_isometry_defect", worst, cfg.get("tol", 1e-9)))
    if which in ("pairing", "all"):
        n = cfg.get("n", 199)
        val = spaces.h1_mean_pairing(n, [1.0], [1.0])
        values["pairing"] = [val.real, val.imag]
        checks.append(_check("pairing_error", abs(val - 2.0 / (n + 1)), 1e-12))
    if which in ("inequality", "all"):
        violations = 0
        for _ in range(cfg.get("trials", 50)):
            p = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            n = int(rng.integers(2, 65))
            lhs, rhs = spaces.h1_shift_lower_bound(p, n)
            if lhs < rhs - 1e-12:
                violations += 1
        values["inequality_violations"] = violations
        checks.append(_check("inequality_violations", violations, 0))
    if which in ("meannorm", "all"):
        n_trunc = cfg.get("n_trunc", 256)
        nmax = _require("nmax", cfg.get("nmax", 16), 1)
        sup = max(spaces.h1_mean_norm(n, n_trunc) for n in range(1, nmax + 1))
        values["mean_norm_sup"] = sup
        checks.append(_check("mean_norm_sup", sup, cfg.get("sup_max", 10.0)))
    return values, checks


def _scenario_quotient(cfg):
    op = parse_operator(cfg.get("operator", "diag:1,0.5+0.8660254037844386j,0.5"))
    scheme = _parse_scheme(cfg.get("scheme", "powers"))
    window = cfg.get("window", [256, 512])
    model = ergodic.gamma_quotient(op, scheme, cfg.get("m", 0),
                                   (window[0], window[1]),
                                   cfg.get("kernel_tol", 1e-8))
    eigs = (np.linalg.eigvals(model.induced_op).tolist()
            if model.quotient_dim else [])
    values = {
        "kernel_dim": int(model.kernel_basis.shape[1]),
        "quotient_dim": model.quotient_dim,
        "isometry_defect": model.isometry_defect,
        "induced_eigenvalues": [[z.real, z.imag] for z in eigs],
    }
    checks = [_check("isometry_defect", model.isometry_defect,
                     cfg.get("tol", 1e-6))]
    if "expect_kernel_dim" in cfg:
        checks.append(_check("kernel_dim", values["kernel_dim"],
                             cfg["expect_kernel_dim"], op="<="))
        checks.append(_check("kernel_dim_lower", values["kernel_dim"],
                             cfg["expect_kernel_dim"], op=">="))
    return values, checks


def _scenario_convergence(cfg):
    op = parse_operator(cfg["operator"])
    scheme = _parse_scheme(cfg.get("scheme", "cesaro:p=1"))
    nmax = _require("nmax", cfg.get("nmax", 256), max(scheme.min_n, 1))
    report = ergodic.mean_convergence_report(scheme, op, nmax)
    rates = [(n, n * v) for n, v in report.points if n >= 1]
    c_measured = max(r for _, r in rates)
    values = {
        "points": [[int(n), float(v)] for n, v in report.points],
        "rate_constant": c_measured,
    }
    checks = []
    if "expect_rate_constant" in cfg:
        checks.append(_check("rate_constant", c_measured,
                             cfg["expect_rate_constant"]))
    return values, checks


_RUNNERS = {
    "identities": _scenario_identities,
    "kreiss": _scenario_kreiss,
    "uniform_kreiss": _scenario_uniform_kreiss,
    "growth": _scenario_growth,
    "nevanlinna": _scenario_nevanlinna,
    "shields": _scenario_shields,
    "h1": _scenario_h1,
    "quotient": _scenario_quotient,
    "convergence": _scenario_convergence,
}


def run(config: dict) -> dict:
    """Run one scenario; returns the report dict (JSON-serializable)."""
    scenario = config.get("scenario")
    if scenario not in _RUNNERS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    try:
        values, checks = _RUNNERS[scenario](config)
    except ConfigError:
        raise
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"scenario {scenario}: bad config ({exc})") from exc
    report = {
        "scenario": scenario,
        "config": {k: v for k, v in sorted(config.items()) if k != "out"},
        "values": values,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return _json_safe(report)


def write_report(report: dict, path) -> None:
    """Deterministic JSON (sorted keys, fixed float repr, no timestamps);
    a growth CSV sidecar is written instead when the path ends in .csv."""
    path = Path(path)
    if path.suffix == ".csv":
        points = report["values"].get("points", [])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value"])
            for n, v in points:
                writer.writerow([n, repr(float(v))])
            if report["values"].get("fit_exponent") is not None:
                writer.writerow(["fit_exponent", repr(report["values"]["fit_exponent"])])
                writer.writerow(["fit_residual", repr(report["values"]["fit_residual"])])
        return
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _add_common(sub):
    sub.add_argument("--op", dest="operator", help="operator spec or file")
    sub.add_argument("--scheme", help="scheme spec string")
    sub.add_argument("--nmax", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--kmax", type=int)
    sub.add_argument("--angles", type=int)
    sub.add_argument("--norm", choices=["spectral", "colsum", "rowsum"])
    sub.add_argument("--degree", type=int)
    sub.add_argument("--check", help="h1 sub-check: 3iso|pairing|inequality|meannorm|all")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--config", help="JSON config file; overrides flags")
    sub.add_argument("--out", help="report path (.json, or .csv for growth)")


def _build_parser():
    parser = argparse.ArgumentParser(prog="ergolab",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        _add_common(subs.add_parser(name))
    example = subs.add_parser("example")
    example_subs = example.add_subparsers(dest="example_scenario", required=True)
    for name in ("shields", "h1"):
        _add_common(example_subs.add_parser(name))
    rows = subs.add_parser("rows", help="dump scheme rows as CSV (n, j, t)")
    rows.add_argument("--scheme", required=True)
    rows.add_argument("--nmax", type=int, default=8)
    rows.add_argument("--out", required=True)
    subs.add_parser("builtins", help="list builtin operator specs")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "builtins":
        for item in list_builtins():
            print(item)
        return 0
    if args.command == "rows":
        try:
            scheme = means.parse_scheme(args.scheme)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        ns = [n for n in range(scheme.min_n, args.nmax + 1)]
        try:
            means.rows_to_csv(scheme, ns, args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    scenario = args.example_scenario if args.command == "example" else args.command
    config = {"scenario": scenario}
    config.update((key, value) for key, value in vars(args).items()
                  if value is not None
                  and key not in ("command", "example_scenario", "config", "out"))
    if args.config:
        try:
            with open(args.config) as fh:
                config.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    config.setdefault("scenario", scenario)
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or config.get("out")
    if out:
        try:
            write_report(report, out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['value']} "
              f"{check['op']} {check['threshold']}", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
