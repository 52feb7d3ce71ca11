"""The benchmark's four workloads, their generated inputs, and the layers
each workload must exercise.

Each workload is a fixed list of ``ergolab`` CLI operations.  An operation is
run in-process as ``ergolab.cli.main([scenario, "--config", cfg, "--out",
report])`` with a config file written at set-up time; ``<seed>`` in a config
value is replaced by the workload seed.  Every workload loads one layer
heavily and bypasses the others, so a change to one layer has a workload
that should move and workloads that should not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ergolab import linop

DEFAULT_SEED = 24301
SEED_TOKEN = "<seed>"
GRAM_OPERATOR = "random_gram_op.json"


@dataclass(frozen=True)
class Operation:
    """One CLI call.  ``expect_exit`` is the set of accepted exit codes;
    ``error_path`` marks a known-defect input that is run once per run as a
    probe instead of inside the timed passes."""

    name: str
    scenario: str
    config: dict
    expect_exit: tuple = (0,)
    error_path: bool = False

    @property
    def seeded(self) -> bool:
        """True when the operation's inputs depend on the workload seed."""
        text = json.dumps(self.config)
        return SEED_TOKEN in text or GRAM_OPERATOR in text


def _op(name, scenario, **config):
    return Operation(name, scenario, config)


def _error_path(name, scenario, **config):
    return Operation(name, scenario, config, expect_exit=(0, 1, 2), error_path=True)


WORKLOADS = {
    # spectral: dense resolvent solves plus mid-size SVDs; one dense-Gram operator.
    "resolvent_grid": [
        _op("kreiss_jordan_r0", "kreiss", operator="jordan:2:1", r=0, kmax=10,
            angles=512, expect_ratio_band=[1.8, 2.2]),
        _op("kreiss_jordan_r1", "kreiss", operator="jordan:2:1", r=1, kmax=10,
            angles=512, expect_stable_tol=0.05),
        _op("kreiss_dirichlet_halfweight", "kreiss",
            operator="dirichlet:0.5:128:forward", r=0, kmax=10, angles=16,
            expect_stable_tol=0.10),
        _op("kreiss_random_gram", "kreiss", operator=GRAM_OPERATOR, r=1, kmax=8,
            angles=64),
        _op("uniform_kreiss_dirichlet", "uniform_kreiss",
            operator="dirichlet:1.0:16:backward", r=1, nmax=64, angles=16),
        _op("uniform_kreiss_jordan", "uniform_kreiss", operator="jordan:2:1", r=1,
            nmax=64, angles=8),
    ],
    # means: scheme rows + apply_mean, short finite rows and long truncated ones.
    "mean_rows": [
        _op("convergence_diag_cesaro", "convergence", operator="diag:1,0.5",
            scheme="cesaro:p=1", nmax=256, expect_rate_constant=2.0),
        _op("convergence_diag_abel", "convergence", operator="diag:1,-1,1j,0.5",
            scheme="abel", nmax=128, expect_rate_constant=2.0),
        _op("convergence_random_binomial", "convergence",
            operator="random:16:1.0:<seed>", scheme="binomial", nmax=256),
        _op("growth_jordan3_binomial", "growth", operator="jordan:3:1",
            scheme="binomial", nmax=256),
        _op("growth_jordan2_abel", "growth", operator="jordan:2:0.99",
            scheme="abel", nmax=128),
        _op("growth_jordan2_zweier", "growth", operator="jordan:2:1",
            scheme="zweier", nmax=512),
        _op("identities_jordan_cesaro2", "identities", operator="jordan:2:1",
            scheme="cesaro:p=2"),
        _op("identities_random_zweier", "identities", operator="random:6:1.1:<seed>",
            scheme="zweier", p=3),
        _op("quotient_default", "quotient"),
        _error_path("convergence_jordan_defective", "convergence",
                    operator="jordan:2:1"),
    ],
    # ergodic: power-norm sweeps; the only large matrix products (d = 401).
    "power_growth": [
        _op("growth_volterra_sampled", "growth", operator="identity_minus_volterra:400",
            norm="colsum", nmax=2048, expect_exponent_band=[0.15, 0.35]),
        _op("growth_dirichlet", "growth", operator="dirichlet:0.0:256:forward",
            nmax=192, expect_exponent_band=[0.45, 0.55]),
        _op("growth_random", "growth", operator="random:64:1.0:<seed>", nmax=512),
        _op("growth_jordan4", "growth", operator="jordan:4:1", nmax=512,
            expect_exponent_band=[2.9, 3.1]),
        _op("nevanlinna_jordan3", "nevanlinna", operator="jordan:3:1", nmax=512),
        _error_path("growth_jordan_overflow", "growth", operator="jordan:3:3",
                    nmax=1200),
    ],
    # spaces: h1 geometry (dense Cholesky, triangular solve, large SVD) and FFT
    # circle quadrature.
    "poly_spaces": [
        _op("h1_meannorm_n16", "h1", check="meannorm", nmax=16, n_trunc=512),
        _op("h1_meannorm_n32", "h1", check="meannorm", nmax=32, n_trunc=256),
        _op("h1_all", "h1", check="all", seed="<seed>"),
        _op("h1_3iso_deg32", "h1", check="3iso", degree=32, trials=200,
            seed="<seed>"),
        _op("shields_r0", "shields", r=0, nmax=4096),
        _op("shields_r1", "shields", r=1, nmax=4096),
        _op("shields_r2", "shields", r=2, nmax=16384),
    ],
}

# Wrapped functions that must record calls on a workload; the traced run
# fails when one of them records none there.  The layer table in README.md
# says which end-to-end metric each layer should move on which workload.
_EVERY = tuple(WORKLOADS)
_OPERATOR_WORKLOADS = ("resolvent_grid", "mean_rows", "power_growth")
REQUIRED_CALLS = {
    "cli.main": _EVERY,
    "cli.write_report": _EVERY,
    "cli.parse_operator": _OPERATOR_WORKLOADS,
    "linop.op_norm": _EVERY,
    "linop.as_matrix": _EVERY,
    "linop.GramGeometry.init": ("resolvent_grid", "poly_spaces"),
    "linop.GramGeometry.apply_factor": ("resolvent_grid", "poly_spaces"),
    "linop.GramGeometry.apply_factor_inverse_right": ("resolvent_grid", "poly_spaces"),
    "linop.power": ("mean_rows",),
    "means.MeanScheme.row": ("mean_rows",),
    "means.apply_mean": ("mean_rows",),
    "means.backit_identity_residual": ("mean_rows",),
    "means.block_mean_residual": ("mean_rows",),
    "spectral.resolvent_norm": ("resolvent_grid",),
    "spectral.kreiss_functional": ("resolvent_grid",),
    "spectral.partial_sum_functional": ("resolvent_grid",),
    "spectral.cesaro_mean_sequence": ("resolvent_grid",),
    "spectral.uniform_kreiss_mean_bound": ("resolvent_grid",),
    "ergodic.power_norm_sequence": ("power_growth",),
    "ergodic.power_norm_samples": ("power_growth",),
    "ergodic.mean_convergence_report": ("mean_rows",),
    "ergodic.ergodic_projection": ("mean_rows",),
    "ergodic.gamma_quotient": ("mean_rows",),
    "spaces.h1_mean_norm": ("poly_spaces",),
    "spaces.h1_gram": ("poly_spaces",),
    "spaces.circle_abs_mean": ("poly_spaces",),
    "spaces.shields_report": ("poly_spaces",),
    "spaces.m_isometry_defect": ("poly_spaces",),
    "kernel.svd": _EVERY,
    "kernel.solve": ("resolvent_grid",),
    "kernel.eigvals": ("resolvent_grid",),
    "kernel.cholesky": ("poly_spaces",),
    "kernel.solve_triangular": ("poly_spaces",),
    "kernel.schur": ("mean_rows",),
    "kernel.fft": ("poly_spaces",),
}

# The layer each workload is built to load; the traced run reports its share.
DOMINANT_LAYER = {
    "resolvent_grid": ("spectral.resolvent_norm",),
    "mean_rows": ("means.apply_mean",),
    "power_growth": ("ergodic.power_norm_sequence", "ergodic.power_norm_samples"),
    "poly_spaces": ("spaces.h1_mean_norm",),
}


def _substitute(value, seed: int):
    if isinstance(value, str) and SEED_TOKEN in value:
        return seed if value == SEED_TOKEN else value.replace(SEED_TOKEN, str(seed))
    return value


def _write_gram_operator(path: Path, seed: int) -> None:
    """random:48:0.95:<seed> carried in a seeded dense Hermitian
    positive-definite Gram geometry."""
    rng = np.random.default_rng(seed)
    op = linop.random_operator(48, 0.95, seed)
    b = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    gram = b @ b.conj().T / 48.0 + 0.5 * np.eye(48)
    gram = 0.5 * (gram + gram.conj().T)
    geometry = linop.GramGeometry.hermitian(gram)
    linop.save_operator(linop.OperatorModel(op.matrix, geometry=geometry,
                                            label=f"random_gram(48,{seed})"), path)


def write_inputs(workload: str, seed: int, directory: Path) -> list:
    """Write the workload's config (and operator) files into ``directory``;
    returns ``(operation, argv, report_path)`` for every operation."""
    directory.mkdir(parents=True, exist_ok=True)
    runs = []
    for op in WORKLOADS[workload]:
        config = {key: _substitute(value, seed) for key, value in op.config.items()}
        if config.get("operator") == GRAM_OPERATOR:
            gram_path = directory / GRAM_OPERATOR
            _write_gram_operator(gram_path, seed)
            config["operator"] = str(gram_path)
        config_path = directory / f"{op.name}.config.json"
        config_path.write_text(json.dumps(config, sort_keys=True))
        report_path = directory / f"{op.name}.report.json"
        argv = [op.scenario, "--config", str(config_path), "--out", str(report_path)]
        runs.append((op, argv, report_path))
    return runs
