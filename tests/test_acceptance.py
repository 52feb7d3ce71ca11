"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines live.
Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from ergolab.ergodic import (
    ergodic_projection,
    gamma_quotient,
    log_fit,
    mean_convergence_report,
    power_norm_samples,
    power_norm_sequence,
)
from ergolab.linop import (
    OperatorModel,
    diag_operator,
    dirichlet_shift,
    jordan_block,
    power,
    random_operator,
    volterra_operator,
)
from ergolab.means import (
    abel,
    apply_mean,
    backit_identity_residual,
    backward_iterate,
    backward_row_from_definition,
    cesaro,
    identity_powers,
    zweier,
)
from ergolab.spaces import (
    cesaro_multiplier,
    h1_mean_norm,
    h1_mean_pairing,
    h1_norm,
    h1_shift_lower_bound,
    m_isometry_defect,
    shields_report,
    shift_by_z,
    xr_norm,
)
from ergolab.spectral import (
    AnnulusGrid,
    abel_summation_residual,
    kreiss_functional,
    mean_growth_functional,
    resolvent_series_residual,
    uniform_kreiss_mean_bound,
)


def _report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {status} -- {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _row_gap(got, ref):
    """Largest |difference| of two rows, each zero off its support."""
    a, b = got.dense(), ref.dense()
    size = max(a.size, b.size)
    return float(np.max(np.abs(np.pad(a, (0, size - a.size)) - np.pad(b, (0, size - b.size)))))


def _stacked_powers(a, count):
    powers = np.empty((count, a.shape[0], a.shape[1]), dtype=complex)
    powers[0] = np.eye(a.shape[0])
    for j in range(1, count):
        powers[j] = powers[j - 1] @ a
    return powers


def _mean_from_powers(powers, p, n):
    if p == 0:
        return powers[n]
    row = cesaro(p).row(n)
    return np.tensordot(row.weights, powers[: n + 1], axes=1)


def test_criterion_01_cesaro_identities():
    start = time.time()
    operators = [random_operator(6, 1.1, seed=s) for s in (1, 2, 3)]
    operators += [jordan_block(3, 1.0), diag_operator([1.0, 1j, -0.5, 0.9])]
    worst = 0.0
    for t in operators:
        a = t.matrix
        d = a.shape[0]
        eye = np.eye(d, dtype=complex)
        powers = _stacked_powers(a, 67)
        for p in range(1, 5):
            for n in range(1, 65):
                m_n = _mean_from_powers(powers, p, n)
                m_next = _mean_from_powers(powers, p, n + 1)
                m_low = _mean_from_powers(powers, p - 1, n + 1)
                r1 = m_n @ (a - eye) - (p / (n + 1)) * (m_low - eye)
                r2 = a @ m_n - ((n + p + 1) / (n + 1)) * m_next + (p / (n + 1)) * eye
                r3 = ((n + p + 1) / (n + 1)) * m_next - m_n - (p / (n + 1)) * m_low
                worst = max(worst, np.linalg.norm(r1, 2), np.linalg.norm(r2, 2),
                            np.linalg.norm(r3, 2))
    elapsed = time.time() - start
    _report(1, "cesaro identities", worst <= 1e-10 and elapsed < 5.0,
            f"max residual {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 5s)")


def test_criterion_02_backward_iterate_suite():
    start = time.time()
    tail_eps = 1e-12
    ops = [random_operator(4, 0.9, seed=9), jordan_block(2, 1.0)]
    backit_worst = max(backit_identity_residual(s, t, n)
                       for t in ops
                       for s in (cesaro(1), cesaro(2), zweier())
                       for n in (2, 5, 12))
    # each closed form against the defining formula, over the union of the
    # two supports: a row on the wrong support deviates by a whole weight
    shift_worst = max(_row_gap(backward_iterate(cesaro(p)).row(n),
                               backward_row_from_definition(cesaro(p), n))
                      for p in (1, 2, 3) for n in range(1, 65))
    abel_worst = max(_row_gap(backward_iterate(abel()).row(n, tail_eps),
                              backward_row_from_definition(abel(), n, tail_eps))
                     for n in (2, 3, 10, 50))
    # zweier takes the formula, here against its closed form
    # (2/(2n-1)) * (sum_{k<=n-2} T^k + T^{n-1}/2)
    zw_exact = True
    for n in range(2, 65):
        got = backward_iterate(zweier()).row(n)
        expected = np.full(n, 2.0 / (2 * n - 1))
        expected[-1] *= 0.5
        zw_exact &= bool(np.array_equal(got.indices, np.arange(n))
                         and np.array_equal(got.weights, expected))
    elapsed = time.time() - start
    ok = (backit_worst <= 1e-10 and shift_worst <= 1e-12
          and abel_worst <= 1e-12 + tail_eps and zw_exact and elapsed < 2.0)
    _report(2, "backward iterates", ok,
            f"backit {backit_worst:.2e} shift {shift_worst:.2e} "
            f"abel {abel_worst:.2e} zweier exact {zw_exact}, {elapsed:.1f}s (< 2s)")


def test_criterion_03_generating_identities_and_bound():
    start = time.time()
    sr_ops = [diag_operator([0.0]), diag_operator([1.0]), diag_operator([1j, 0.5]),
              jordan_block(2, 1.0), random_operator(4, 0.95, seed=12)]
    sw_worst = 0.0
    for t in sr_ops:
        for p in (1, 2, 3):
            for rho in (0.5, 0.9):
                nterms = int(math.ceil(40.0 / (1.0 - rho)))
                sw_worst = max(sw_worst, resolvent_series_residual(
                    t, p, np.exp(1j * np.pi / 3.0), rho, nterms))
    rng = np.random.default_rng(0x5EED)
    abel_worst = 0.0
    for trial in range(100):
        t = random_operator(3, 1.05, seed=trial)
        rho = float(rng.uniform(0.05, 1.0))
        lam = np.exp(2j * np.pi * rng.uniform())
        n = int(rng.integers(1, 40))
        abel_worst = max(abel_worst, abel_summation_residual(t, lam, rho, n))
    builtin_set = [diag_operator([1.0]), diag_operator([0.0]),
                   jordan_block(2, 1.0), diag_operator([1.0, 1j, 0.5]),
                   dirichlet_shift(1.0, 16, "backward")]
    ratio_worst = max(uniform_kreiss_mean_bound(t, r, 64, 8)["max_ratio"]
                      for t in builtin_set for r in (0, 1))
    elapsed = time.time() - start
    ok = (sw_worst <= 1e-8 and abel_worst <= 1e-10
          and ratio_worst <= 1.0 + 1e-6 and elapsed < 30.0)
    _report(3, "resolvent series / partial-sum bound", ok,
            f"series {sw_worst:.2e} (tol 1e-8) abel-sum {abel_worst:.2e} "
            f"(tol 1e-10) bound ratio {ratio_worst:.3f} (<= 1+1e-6), "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_04_jordan_kreiss_dichotomy():
    t = jordan_block(2, 1.0)
    rep0 = kreiss_functional(t, 0, AnnulusGrid.dyadic(10, 64))
    prof = [v for _, v in rep0.radius_profile]
    ratios = [b / a for a, b in zip(prof, prof[1:])]
    # the first step (radius 1.5 -> 1.25) predates the (lambda-1)^{-2}
    # blowup regime; the divergence signature is the refinement tail
    ratios_ok = all(1.8 <= r <= 2.2 for r in ratios[1:])
    rep1a = kreiss_functional(t, 1, AnnulusGrid.dyadic(8, 64))
    rep1b = kreiss_functional(t, 1, AnnulusGrid.dyadic(10, 64))
    stable_ok = abs(rep1b.value / rep1a.value - 1.0) < 0.05
    mg0 = mean_growth_functional(t, 1, 0, 128, 8)
    grow_ok = mg0.value >= 60.0 and abs(mg0.value / 64.0 - 1.0) < 0.1
    mg1 = mean_growth_functional(t, 1, 1, 512, 8)
    plateau_ok = mg1.tail_value <= 1.2
    ok = ratios_ok and stable_ok and grow_ok and plateau_ok
    _report(4, "jordan kreiss dichotomy", ok,
            f"step ratios {[round(r, 3) for r in ratios[1:]]} in [1.8, 2.2]; "
            f"r=1 change {abs(rep1b.value / rep1a.value - 1.0):.4f} (< 5%); "
            f"mean r=0 value {mg0.value:.1f} (~n/2), r=1 plateau "
            f"{mg1.tail_value:.3f} (<= 1.2)")


def test_criterion_05_power_growth_below_resolvent_bound():
    details = []
    ok = True
    for d in (2, 3, 4):
        rep = power_norm_sequence(jordan_block(d, 1.0), 512)
        expo = rep.fit_exponent
        ok &= abs(expo - (d - 1)) <= 0.1 and expo < d
        details.append(f"d={d}: {expo:.3f}")
    _report(5, "power growth vs resolvent order", ok,
            "; ".join(details) + " (bands [d-1 +/- 0.1], strictly below d)")


def test_criterion_06_volterra_exponent():
    start = time.time()
    ns = sorted({int(round(2.0 ** e)) for e in np.linspace(1, 11, 33)})
    exponents = {}
    for size in (400, 800):
        v = volterra_operator(size)
        t = OperatorModel(np.eye(v.dim) - v.matrix, label=f"I-V({size})")
        rep = power_norm_samples(t, ns, mode="colsum")
        exponents[size] = rep.fit_exponent
    elapsed = time.time() - start
    in_band = 0.15 <= exponents[400] <= 0.35
    stable = abs(exponents[800] - exponents[400]) < 0.05
    ok = in_band and stable and elapsed < 60.0
    _report(6, "volterra power exponent", ok,
            f"N=400 exponent {exponents[400]:.3f} (target 0.25, band "
            f"[0.15, 0.35]); N=800 shift {abs(exponents[800] - exponents[400]):.3f} "
            f"(< 0.05); {elapsed:.1f}s (< 60s)")


def test_criterion_07_shift_inequality_and_monomials():
    rng = np.random.default_rng(0x5EED)
    violations = 0
    for _ in range(1000):
        deg = int(rng.integers(0, 33))
        f = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        n = int(rng.integers(2, 65))
        lhs, rhs = h1_shift_lower_bound(f, n)
        if lhs < rhs - 1e-12:
            violations += 1
    monomial_err = max(abs(h1_norm(shift_by_z([1.0], k)) ** 2 - (1.0 + (k + 2) ** 2))
                       for k in range(21))
    ok = violations == 0 and monomial_err <= 1e-9
    _report(7, "shift norm inequality", ok,
            f"{violations} violations in 1000 trials; monomial norm error "
            f"{monomial_err:.2e}")


def test_criterion_08_three_isometry_weak_nullity():
    rng = np.random.default_rng(0x5EED)
    defect = max(abs(m_isometry_defect(h1_norm, shift_by_z, 3,
                                       rng.standard_normal(9)
                                       + 1j * rng.standard_normal(9)))
                 for _ in range(100))
    pairing_err = max(abs(h1_mean_pairing(n, [1.0], [1.0]) - 2.0 / (n + 1))
                      for n in (1, 5, 20, 100, 199))
    pairing_199 = abs(h1_mean_pairing(199, [1.0], [1.0]))
    sup256 = h1_mean_norm(np.arange(1, 65), 256).max()
    sup512 = h1_mean_norm(np.arange(1, 65), 512).max()
    plateau = abs(sup512 - sup256) / sup256
    lower = min(math.sqrt(1.0 + (n + 2.0) ** 2) / n for n in range(8, 257))
    ok = (defect <= 1e-9 and pairing_err <= 1e-12
          and pairing_199 <= 0.01 + 1e-12  # 2/200 exactly, up to one ulp
          and plateau < 0.05 and lower >= 1.0)
    _report(8, "3-isometry / weak nullity", ok,
            f"defect {defect:.2e} (tol 1e-9); pairing err {pairing_err:.2e}; "
            f"pairing(199) {pairing_199:.4f} (<= 0.01); mean-norm sup "
            f"{sup512:.3f} plateau change {plateau:.4f} (< 5%); "
            f"||z^n||_1/n >= {lower:.3f} on [8, 256]")


def test_criterion_09_shields_triple():
    start = time.time()
    details = []
    ok = True
    for r in (0, 1):
        mean_rep, power_rep, _ = shields_report(r, 4096)
        exact = np.array([math.prod(1.0 - j / n for j in range(1, r + 1))
                          for n in power_rep.ns])
        exact_ok = bool(np.max(np.abs(power_rep.values - exact)) == 0.0)
        mask = mean_rep.ns >= 64
        c, d, rel = log_fit(mean_rep.ns[mask], mean_rep.values[mask])
        quotients = mean_rep.values[mask] / np.log(mean_rep.ns[mask])
        band_ok = bool(np.all((quotients >= 0.2) & (quotients <= 1.0)))
        ok &= exact_ok and c > 0.0 and rel <= 0.10 and band_ok
        details.append(f"r={r}: fit c={c:.3f} rel={rel:.4f} band "
                       f"[{quotients.min():.3f}, {quotients.max():.3f}]")
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(9, "shields log growth", ok,
            "; ".join(details) + f"; exact power values; {elapsed:.1f}s (< 120s)")


def test_criterion_10_gamma_quotient():
    t = diag_operator([1.0, np.exp(1j * np.pi / 3.0), 0.5])
    model = gamma_quotient(t, identity_powers(), 0, (256, 512))
    eigs = np.sort_complex(np.linalg.eigvals(model.induced_op))
    expected = np.sort_complex(np.array([1.0, np.exp(1j * np.pi / 3.0)]))
    eig_err = float(np.max(np.abs(eigs - expected))) if model.quotient_dim == 2 else np.inf
    ok = (model.kernel_basis.shape[1] == 1
          and model.isometry_defect <= 1e-6 and eig_err <= 1e-8)
    _report(10, "gamma quotient isometry", ok,
            f"kernel dim {model.kernel_basis.shape[1]} (= 1); defect "
            f"{model.isometry_defect:.2e} (tol 1e-6); eigenvalue error "
            f"{eig_err:.2e} (tol 1e-8)")


def test_criterion_11_mean_ergodic_rate():
    rep = mean_convergence_report(cesaro(1), diag_operator([1.0, 0.5]), 256)
    vals = dict(rep.points)
    rate_err = max(abs(vals[n] - 2.0 / (n + 1)) for n in range(50, 257))
    c_measured = max(n * v for n, v in rep.points if n >= 1)
    t2 = diag_operator([1.0, -1.0, 1j, 0.5])
    rep2 = mean_convergence_report(cesaro(1), t2, 256)
    c2 = max(n * v for n, v in rep2.points if n >= 1)
    # every diagonal component of M_n - P has modulus <= 2/(n+1), so the
    # measured constant for this spectrum is at most 2
    ok = rate_err <= 1e-12 and c_measured <= 2.0 + 1e-12 and c2 <= 2.0 + 1e-12
    _report(11, "mean ergodic convergence rate", ok,
            f"diag(1,0.5) rate error {rate_err:.2e} (tol 1e-12, n >= 50), "
            f"C = {c_measured:.3f} (<= 2); 4-point spectrum C = {c2:.3f} (<= 2)")
