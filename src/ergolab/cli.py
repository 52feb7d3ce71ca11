"""ergolab command line: reproducible scenario runs with JSON/CSV reports.

Scenarios: identities, kreiss, uniform_kreiss, growth, nevanlinna, shields,
h1, quotient, convergence (plus the ``rows`` dump utility).  Reports are
deterministic for a fixed config: byte-identical JSON, seeds fixed, no
timestamps.  Exit codes: 0 all declared checks pass, 1 a check failed (a
missing diagnostic, such as an unfittable growth exponent, fails its
check), 2 configuration error, numerical overflow or an input the library
rejects (one line on stderr, no traceback).  A scenario takes the keys of
its ``_KEYS`` table, each checked for kind and range before the run, and
the flags among them; ``ergolab <scenario> --help`` lists every key with
its rule.  A .csv report is written for growth and convergence.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import operator
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ergodic, linop, means, spaces, spectral

DEFAULT_SEED = 0x5EED


class ConfigError(ValueError):
    """Bad scenario configuration (unknown operator/scheme spec, bad range)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser, subparsers included, that reads only flags written
    in full (``--n`` is not ``--nmax``) and raises usage errors as ConfigError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


class _Config(dict):
    """A scenario config that records each key read through ``[]``, ``get``
    or ``in``.  ``[key]`` raises a ConfigError naming a missing ``key``, and
    ``get(key, default, least=x)`` the integer rule's error
    (``linop._check_integer``) naming ``key`` when the value is not an
    integer >= ``x``."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        try:
            return super().__getitem__(key)
        except KeyError:
            raise ConfigError(f"missing config key {key!r}") from None

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None, least=None):
        self.read.add(key)
        value = super().get(key, default)
        if least is not None:
            linop._check_integer(value, key, least, error=ConfigError)
        return value


def _parse_scheme(spec: str) -> means.MeanScheme:
    """``means.parse_scheme``, with a rejected spec raised as a ConfigError."""
    try:
        return means.parse_scheme(spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _identity_minus_volterra(N, /):
    v = linop.volterra_operator(int(N))
    return linop.OperatorModel(np.eye(v.dim) - v.matrix, label=f"I-V({N})")


# usage -> factory, whose positional-only parameters are the usage's fields
_BUILTINS = {
    "diag:<v1,v2,...>": lambda v, /: linop.diag_operator(list(map(complex, v.split(",")))),
    "dirichlet:<alpha>:<N>:<forward|backward>":
        lambda alpha, N, direction, /: linop.dirichlet_shift(float(alpha), int(N), direction),
    "identity_minus_volterra:<N>": _identity_minus_volterra,
    "jordan:<d>:<eig>": lambda d, eig, /: linop.jordan_block(int(d), complex(eig)),
    "random:<dim>:<radius>[:<seed>]": lambda dim, radius, seed=DEFAULT_SEED, /:
        linop.random_operator(int(dim), float(radius), int(seed)),
    "volterra:<N>": lambda N, /: linop.volterra_operator(int(N)),
}
_OPERATOR_HEADS = {usage.split(":")[0]: factory for usage, factory in _BUILTINS.items()}


def list_builtins():
    """Catalog of builtin operator specs, stable order."""
    return list(_BUILTINS)


def parse_operator(spec: str) -> linop.OperatorModel:
    """Operator from a builtin spec string or an operator JSON file; a spec
    of a builtin kind is never looked up as a path."""
    spec = spec.strip()
    if spec.startswith("builtin:"):
        spec = spec[len("builtin:"):]
    if spec.split(":")[0].lower() not in _OPERATOR_HEADS:
        try:
            if spec.endswith(".json") or Path(spec).exists():
                return linop.load_operator(spec)
        except (OSError, KeyError, ValueError, TypeError, AttributeError,
                OverflowError) as exc:
            raise ConfigError(f"cannot load operator file {spec!r}: {exc}") from exc
        raise ConfigError(f"unknown operator spec {spec!r}")
    try:
        return linop._bind_spec("operator", spec, _OPERATOR_HEADS)
    except ValueError as exc:
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


_COMPARE = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
            ">": operator.gt, "in": lambda value, band: band[0] <= value <= band[1]}


def _check(name, value, threshold, op="<="):
    """A named comparison, with ``op="in"`` for a ``[lo, hi]`` band; a
    missing or non-finite diagnostic fails it."""
    value = _json_safe(value)
    ok = value is not None and _COMPARE[op](value, threshold)
    return {"name": name, "value": value, "op": op,
            "threshold": threshold, "pass": bool(ok)}


def _ring_weight_checks(grid, r):
    """The failing check ``zero_weight_rings`` (value: their count) when
    the weight of some radius ring underflowed to 0, so that ring added
    nothing to the supremum; no check otherwise."""
    zero = grid.kreiss_weights(r).count(0.0)
    return [_check("zero_weight_rings", zero, 0)] if zero else []


def _scenario_identities(cfg):
    op = parse_operator(cfg["operator"])
    tol = cfg.get("tol", 1e-10)
    pmax = cfg.get("p", 2)
    scheme = _parse_scheme(cfg.get("scheme", "cesaro:p=1"))
    # the backward-identity sweep runs over the rows first..nmax
    first = max(scheme.min_n, 1) + 1
    nmax = cfg.get("nmax", 32, least=first)
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
            checks.append(_check(f"step_ratio_{i}", ratio,
                                 cfg["expect_ratio_band"], op="in"))
    if report.skipped:
        # grid points on the spectrum were left out of the supremum
        checks.append(_check("evaluated_grid_points", report.skipped, 0))
    return values, checks + _ring_weight_checks(grid, r)


def _scenario_uniform_kreiss(cfg):
    op = parse_operator(cfg["operator"])
    r = cfg.get("r", 0)
    nmax = cfg.get("nmax", 64)
    angles = cfg.get("angles", 16)
    result = spectral.uniform_kreiss_mean_bound(op, r, nmax, angles)
    checks = [_check("mean_bound_ratio", result["max_ratio"],
                     cfg.get("tol", 1.0 + 1e-6))]
    return result, checks + _ring_weight_checks(spectral.AnnulusGrid.harmonic(nmax, angles), r)


def _growth_report(cfg, op):
    mode = cfg.get("norm", "spectral")
    window = cfg.get("window_fraction", 0.5)
    if cfg.get("scheme"):
        # growth of the means ||T_n|| instead of the powers ||T^n||
        scheme = _parse_scheme(cfg["scheme"])
        first = max(scheme.min_n, 1)
        ns = np.arange(first, cfg.get("nmax", 512, least=first) + 1)
        report = ergodic.GrowthReport(label=f"||{scheme.name}({op.label})||", ns=ns,
                                      values=ergodic.mean_norms(scheme, op, ns, mode))
        return ergodic.fitted(report, window)
    sampled = cfg.get("sampled", cfg.get("nmax", 512) > 1024)
    # two points at least: n = 1, 2 in the sweep, and the samples start at n = 2
    nmax = cfg.get("nmax", 512, least=3 if sampled else 2)
    if sampled:
        count = cfg.get("samples", 33)
        ns = sorted({int(round(2.0 ** e))
                     for e in np.linspace(1, math.log2(nmax), count)})
        return ergodic.power_norm_samples(op, ns, mode, window)
    return ergodic.power_norm_sequence(op, nmax, mode, window)


def _scenario_growth(cfg):
    report = _growth_report(cfg, parse_operator(cfg["operator"]))
    values = {
        "points": report.points,
        "fit_exponent": report.fit_exponent,
        "fit_residual": report.fit_residual,
        "window": list(report.window) if report.window else None,
        "overflow_at": report.overflow_at,
    }
    checks = []
    if "expect_exponent_band" in cfg:
        checks.append(_check("fit_exponent", report.fit_exponent,
                             cfg["expect_exponent_band"], op="in"))
    return values, checks


def _scenario_nevanlinna(cfg):
    op = parse_operator(cfg.get("operator", "jordan:2:1"))
    report = _growth_report(cfg, op)
    r = cfg.get("r", op.dim - 1)
    values = {
        "fit_exponent": report.fit_exponent,
        "fit_residual": report.fit_residual,
        "bound_exponent": r + 1,
    }
    checks = [
        _check("fit_exponent", report.fit_exponent, [r - 0.1, r + 0.1], op="in"),
        _check("below_bound", report.fit_exponent, r + 1, op="<"),
    ]
    return values, checks


def _scenario_shields(cfg):
    r = cfg.get("r", 0)
    nmax = cfg.get("nmax", 4096)
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
        "mean": mean_rep.points,
        "power": power_rep.points,
        "inner": inner_rep.points,
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
    rng = np.random.default_rng(cfg.get("seed", DEFAULT_SEED))
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
        nmax = cfg.get("nmax", 16)
        sup = float(spaces.h1_mean_norm(np.arange(1, nmax + 1), n_trunc).max())
        values["mean_norm_sup"] = sup
        checks.append(_check("mean_norm_sup", sup, cfg.get("sup_max", 10.0)))
    return values, checks


def _scenario_quotient(cfg):
    op = parse_operator(cfg.get("operator", "diag:1,0.5+0.8660254037844386j,0.5"))
    scheme = _parse_scheme(cfg.get("scheme", "powers"))
    model = ergodic.gamma_quotient(op, scheme, cfg.get("m", 0),
                                   cfg.get("window", (256, 512)),
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
    nmax = cfg.get("nmax", 256, least=max(scheme.min_n, 1))
    report = ergodic.mean_convergence_report(scheme, op, nmax)
    rates = [(n, n * v) for n, v in report.points if n >= 1]
    c_measured = max(r for _, r in rates)
    values = {
        "points": report.points,
        "rate_constant": c_measured,
    }
    checks = []
    if "expect_rate_constant" in cfg:
        checks.append(_check("rate_constant", c_measured,
                             cfg["expect_rate_constant"]))
    return values, checks


class _Rule(NamedTuple):
    """A config value's kind and static range: an ``int`` or finite
    ``number`` from lo (excluded if ``open_lo``) to hi, either bound None
    for none, under the library's numeric rule (``linop._is_number`` and
    its phrase ``linop._number_rule``); a ``bool``, a ``choice`` of
    ``choices``, a ``spec`` string (operator or scheme) or a ``band``
    [lo, hi] of two ``item``s."""

    kind: str
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    item: _Rule | None = None
    open_lo: bool = False

    def admits(self, value) -> bool:
        if self.kind in ("int", "number"):
            return linop._is_number(value, self.kind == "int", self.lo, self.hi, self.open_lo)
        if self.kind == "band":
            return (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(self.item.admits, value)) and value[0] <= value[1])
        return (isinstance(value, bool if self.kind == "bool" else str)
                and (self.kind != "choice" or value in self.choices))

    def __str__(self):
        if self.kind in ("int", "number"):
            return linop._number_rule(self.kind == "int", self.lo, self.hi, self.open_lo)
        return {"bool": "true or false", "choice": "one of " + "|".join(self.choices),
                "spec": "a spec string",
                "band": f"[lo, hi] with lo <= hi, each {self.item}"}[self.kind]


_SPEC, _INT0, _INT1 = _Rule("spec"), _Rule("int", 0), _Rule("int", 1)
_TOL, _BAND = _Rule("number", 0), _Rule("band", item=_Rule("number"))
_NORMS = _Rule("choice", choices=("spectral", "colsum", "rowsum"))
_ANGLES = _Rule("int", spectral._MIN_ANGLES)
_GROWTH = {"operator": _SPEC, "norm": _NORMS,
           "window_fraction": _Rule("number", 0, 1, open_lo=True), "scheme": _SPEC,
           "nmax": _INT1, "sampled": _Rule("bool"), "samples": _Rule("int", 2)}
# Each scenario's config keys (the runners hold the defaults).  A null seed
# would draw OS entropy and break the byte-identical report.
_KEYS = {
    "identities": {"operator": _SPEC, "tol": _TOL, "p": _INT1, "scheme": _SPEC,
                   "nmax": _INT1},
    "kreiss": {"operator": _SPEC, "r": _INT0, "kmax": _Rule("int", 1, spectral._MAX_KMAX),
               "angles": _ANGLES, "expect_stable_tol": _TOL, "expect_ratio_band": _BAND},
    "uniform_kreiss": {"operator": _SPEC, "r": _INT0, "nmax": _INT1, "angles": _ANGLES,
                       "tol": _TOL},
    "growth": dict(_GROWTH, expect_exponent_band=_BAND),
    "nevanlinna": dict(_GROWTH, r=_INT0),
    "shields": {"r": _Rule("int", *spaces._SHIELDS_R), "nmax": _Rule("int", *spaces._SHIELDS_NMAX),
                "fit_from": _INT1, "quad_nodes": _INT1, "fit_tol": _TOL, "band_ratio_max": _TOL},
    "h1": {"check": _Rule("choice", choices=("3iso", "pairing", "inequality", "meannorm",
                                             "all")),
           "degree": _INT0, "seed": _INT0, "trials": _INT1, "tol": _TOL, "n": _INT1,
           "n_trunc": _INT1, "nmax": _INT1, "sup_max": _TOL},
    "quotient": {"operator": _SPEC, "scheme": _SPEC, "window": _Rule("band", item=_INT0),
                 "m": _INT0, "kernel_tol": _Rule("number", 0, open_lo=True), "tol": _TOL,
                 "expect_kernel_dim": _INT0},
    "convergence": {"operator": _SPEC, "scheme": _SPEC, "nmax": _INT1,
                    "expect_rate_constant": _TOL},
}
# The runner of scenario X is _scenario_X
_RUNNERS = {name: globals()[f"_scenario_{name}"] for name in _KEYS}
# A scenario takes the flags of its keys that are named here
_FLAG_KEYS = ("operator", "scheme", "nmax", "r", "p", "kmax", "angles", "norm", "degree",
              "check", "seed")


def _reject_unread(scenario, keys):
    unread = sorted(keys - {"scenario", "out"})
    if unread:
        raise ConfigError(f"scenario {scenario} reads no config key "
                          + ", ".join(map(repr, unread)))


def run(config: dict) -> dict:
    """Run one scenario; returns the report dict (JSON-serializable).

    An overflowing, invalid or dividing-by-zero floating-point operation
    raises FloatingPointError, except where the library flags it by design
    (the power-norm sweeps' ``overflow_at``, the gamma window's
    OverflowError, the underflowing n^-r of the mean growth functional).
    A key outside the scenario's ``_KEYS`` table or a value its rule does
    not admit, a missing key, a key other than ``scenario`` and ``out`` that
    the run never reads, and an ``out`` that is not a path string (or is a
    .csv path for a scenario without ``points``) raise ConfigError.
    """
    scenario = config.get("scenario")
    if not isinstance(scenario, str) or scenario not in _RUNNERS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    _reject_unread(scenario, config.keys() - _KEYS[scenario].keys())
    for key, rule in _KEYS[scenario].items():
        if key in config and not rule.admits(config[key]):
            raise ConfigError(f"{key} must be {rule}, got {config[key]!r}")
    # a .csv report holds the points, which only growth and convergence have
    out = config.get("out", "")
    if not isinstance(out, str) or (Path(out).suffix == ".csv"
                                    and scenario not in ("growth", "convergence")):
        raise ConfigError(f"out must be a path string, .csv only for growth and "
                          f"convergence, got {out!r}")
    cfg = _Config(config)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values, checks = _RUNNERS[scenario](cfg)
    _reject_unread(scenario, config.keys() - cfg.read)
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
    a CSV of the report's ``points`` (growth, convergence) is written
    instead when the path ends in .csv."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value"])
            for n, v in report["values"]["points"]:
                writer.writerow([n, repr(float(v))])
            if report["values"].get("fit_exponent") is not None:
                writer.writerow(["fit_exponent", repr(report["values"]["fit_exponent"])])
                writer.writerow(["fit_residual", repr(report["values"]["fit_residual"])])
        return
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


@functools.cache  # built on the first main call, not at import
def _build_parser():
    parser = _Parser(prog="ergolab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, keys in _KEYS.items():
        # a flag's help is its rule; the keys without a flag list theirs here
        epilog = "\n".join(["keys set only by --config:"] + [
            f"  {key}: {rule}" for key, rule in keys.items() if key not in _FLAG_KEYS])
        sub = subs.add_parser(name, epilog=epilog,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
        for key, rule in keys.items():
            if key in _FLAG_KEYS:
                sub.add_argument("--op" if key == "operator" else f"--{key}", dest=key,
                                 type=int if rule.kind == "int" else str, help=str(rule))
        sub.add_argument("--config", help="JSON config file; overrides flags")
        sub.add_argument("--out", help="report path (.json; .csv for growth, convergence)")
    rows = subs.add_parser("rows", help="dump scheme rows as CSV (n, j, t)")
    rows.add_argument("--scheme", required=True)
    rows.add_argument("--nmax", type=int, default=8)
    rows.add_argument("--out", required=True)
    subs.add_parser("builtins", help="list builtin operator specs")
    return parser


def _load_config(args) -> dict:
    """The scenario config: the flags given, overridden by the keys of the
    ``--config`` file, which must hold a JSON object."""
    config = {"scenario": args.command}
    config.update((key, value) for key, value in vars(args).items()
                  if value is not None and key not in ("command", "config"))
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config} must hold a JSON object, "
                              f"not a {type(loaded).__name__}")
        config.update(loaded)
    return config


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "builtins":
            for item in list_builtins():
                print(item)
            return 0
        if args.command == "rows":
            scheme = _parse_scheme(args.scheme)
            nmax = _Config(vars(args)).get("nmax", least=scheme.min_n)
            means.rows_to_csv(scheme, range(scheme.min_n, nmax + 1), args.out)
            return 0
        config = _load_config(args)
        report = run(config)
        if config.get("out"):
            write_report(report, config["out"])
        else:
            print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: {check['value']} "
              f"{check['op']} {check['threshold']}", file=sys.stderr)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
