"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import cmath
import math
import time

import numpy as np

from xishift import (
    axis_decay_sequence,
    eta_completed,
    general_theta_residual,
    jacobi_residual,
    make_config,
    moment_limit_check,
    moment_numeric,
    moment_series_rhs,
    psi1_alpha_derivative,
    psi1_limit_value,
    scan_fz,
    transform_identity_residual,
)
from xishift.cli import EXIT_OK, main
from xishift.region import classify_decomposition, classify_inequality
from xishift.settings import EvalSettings
from xishift.shifts import fz_line_vec

from ._oracles import ZETA_ZEROS

HARDY = make_config([1.0], [0.0], 0.0)
EXHIBIT = make_config([1.0, 0.5, 0.25], [0.0, 1.0, 2.0], 0.5 + 0.25j)


def _report(num: int, ok: bool, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_functional_equation():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        s = complex(rng.uniform(0.2, 0.8), rng.uniform(-30.0, 30.0))
        e1 = eta_completed(s).value
        e2 = eta_completed(1.0 - s).value
        worst = max(worst, abs(e1 - e2) / max(1.0, abs(e1)))
    elapsed = time.time() - start
    _report(1, worst <= 1e-9 and elapsed < 10.0,
            elapsed, f"functional equation, worst rel residual {worst:.2e}")


def test_criterion_02_jacobi_transformation():
    start = time.time()
    worst = max(jacobi_residual(float(x)) for x in np.logspace(-1.0, 1.0, 50))
    elapsed = time.time() - start
    _report(2, worst < 1e-12 and elapsed < 1.0,
            elapsed, f"Jacobi transformation, worst residual {worst:.2e}")


def test_criterion_03_generalized_theta():
    start = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    count = 0
    while count < 25:  # random a in the right half-plane, Re(a^2) > 0.05
        a = complex(rng.uniform(0.5, 1.6), rng.uniform(-0.6, 0.6))
        z = complex(*rng.uniform(-1.05, 1.05, 2))
        if (a * a).real <= 0.05 or abs(z) > 1.5:
            continue
        count += 1
        worst = max(worst, general_theta_residual(a, z))
    for _ in range(25):  # unit-modulus a = e^(i alpha), |alpha| <= 0.6
        a = cmath.exp(1j * rng.uniform(-0.6, 0.6))
        z = complex(*rng.uniform(-1.05, 1.05, 2))
        worst = max(worst, general_theta_residual(a, z))
    elapsed = time.time() - start
    _report(3, worst < 1e-9 and elapsed < 30.0,
            elapsed, f"generalized transformation, worst residual {worst:.2e}")


def test_criterion_04_integral_triple_equality():
    start = time.time()
    worst = 0.0
    for a in (1.0, 1.2, cmath.exp(0.2j)):
        for z in (0.0, 0.4 + 0.1j, 0.5 - 0.2j):
            worst = max(worst, transform_identity_residual(a, z))
    elapsed = time.time() - start
    _report(4, worst < 1e-6 and elapsed < 120.0,
            elapsed, f"integral vs both series sides, worst residual {worst:.2e}")


def test_criterion_05_region_equivalence():
    start = time.time()
    rng = np.random.default_rng(505)
    pts = rng.uniform(-4.0, 4.0, size=(100_000, 2))
    disagreements = 0
    for x, y in pts:
        z = complex(x, y)
        v1 = classify_inequality(z)
        if abs(v1.margin) <= 1e-9:
            continue
        if v1.inside != classify_decomposition(z).inside:
            disagreements += 1
    elapsed = time.time() - start
    _report(5, disagreements == 0 and elapsed < 5.0,
            elapsed, f"membership equivalence on 1e5 points, {disagreements} disagreements")


def test_criterion_06_axis_decay():
    start = time.time()
    deltas = [0.2, 0.1, 0.05, 0.02, 0.01]
    ok = True
    last = 0.0
    for z in (0.0, 0.5 + 0.2j, 1.0 + 0.5j):
        for seq in zip(*axis_decay_sequence(z, deltas)):  # |T_4|, then |T_1|
            ok &= all(b < a for a, b in zip(seq, seq[1:])) and seq[-1] < 1e-8
            last = max(last, seq[-1])
    elapsed = time.time() - start
    _report(6, ok and elapsed < 5.0,
            elapsed, f"both expressions strictly decreasing, final <= {last:.2e}")


def test_criterion_07_derivative_limits():
    start = time.time()
    ok = True
    final = 0.0
    for lam in (0.0, 0.3):
        for z in (0.4, 0.4 + 0.1j):
            for m in (0, 1):
                lim = psi1_limit_value(z, lam, 2 * m)
                res = [
                    abs(psi1_alpha_derivative(math.pi / 4.0 - 10.0**-k, z, lam, 2 * m) - lim)
                    for k in (1, 2, 3)
                ]
                ok &= res[0] > res[1] > res[2] and res[2] < 1e-2
                final = max(final, res[2])
    elapsed = time.time() - start
    _report(7, ok and elapsed < 30.0,
            elapsed, f"boundary limits decrease over three decades, final <= {final:.2e}")


def test_criterion_08_moment_identities():
    start = time.time()
    quad = EvalSettings(quad_abs_tol=1e-9)
    cfg_series = make_config([1.0, 0.5], [0.0, 1.0], 0.3 - 0.2j)
    d0 = abs(moment_numeric(0, 0.2, cfg_series, quad) - moment_series_rhs(0, 0.2, cfg_series))
    d1 = abs(moment_numeric(1, 0.2, cfg_series, quad) - moment_series_rhs(1, 0.2, cfg_series))
    l_hardy = moment_limit_check(0, HARDY)
    l_real = moment_limit_check(0, make_config([1.0, 0.5], [0.0, 1.0], 0.5))
    l_m1 = moment_limit_check(1, make_config([1.0], [0.3], 0.4 + 0.2j))
    ok = d0 < 1e-5 and d1 < 1e-4 and l_hardy < 5e-3 and l_real < 5e-3 and l_m1 < 2e-2
    elapsed = time.time() - start
    _report(8, ok and elapsed < 300.0, elapsed,
            f"series residuals ({d0:.1e}, {d1:.1e}); "
            f"limit checks ({l_hardy:.1e}, {l_real:.1e}, {l_m1:.1e})")


def test_criterion_09_hardy_reduction_scan():
    start = time.time()
    report = scan_fz(HARDY, 10.0, 30.0, 0.05, 1e-8)
    ok = len(report.zeros) == 3 and all(
        abs(hit.t - ref) < 1e-6 for hit, ref in zip(report.zeros, ZETA_ZEROS)
    )
    elapsed = time.time() - start
    zeros = ", ".join(f"{hit.t:.6f}" for hit in report.zeros)
    _report(9, ok and elapsed < 120.0, elapsed, f"recovered zeros {zeros}")


def test_criterion_10_shifted_exhibit():
    start = time.time()
    step = 0.02
    report = scan_fz(EXHIBIT, 0.0, 40.0, step, 1e-8)
    confirmed = 0
    for bracket in report.brackets:
        if bracket.is_on_node:
            continue
        dense = np.linspace(bracket.t_lo, bracket.t_hi, 11)  # step/10 resolution
        re, _, _ = fz_line_vec(dense, EXHIBIT)
        if int(np.sum(re[:-1] * re[1:] < 0)) == 1:
            confirmed += 1
    grid = np.arange(0.0, 40.0 + step / 2, step)
    re, im, _ = fz_line_vec(grid, EXHIBIT)
    reality = bool(np.all(np.abs(im) <= 1e-9 * (1.0 + np.hypot(re, im))))
    ok = confirmed >= 5 and confirmed == len(report.brackets) and reality
    elapsed = time.time() - start
    _report(10, ok and elapsed < 300.0, elapsed,
            f"{confirmed} confirmed sign changes, reality bound held: {reality}")


def test_criterion_11_determinism(tmp_path):
    start = time.time()
    reports = [scan_fz(HARDY, 10.0, 30.0, 0.05, 1e-8) for _ in range(3)]
    # repr is exact for every float, -0.0 included, and covers f_lo / f_hi
    same_reports = len({repr(r) for r in reports}) == 1
    cfg = tmp_path / "hardy.json"
    cfg.write_text('{"coefficients": [1.0], "shifts": [0.0], "z_re": 0.0, "z_im": 0.0}\n')
    blobs = {"csv": set(), "json": set()}
    for fmt, outputs in blobs.items():
        # a rerun at one worker, then other values of the CLI's inert --workers
        for run, workers in enumerate(("1", "1", "4", "8")):
            out = tmp_path / f"run{run}.{fmt}"
            code = main([
                "scan", "--config", str(cfg), "--out", str(out), "--format", fmt,
                "--t-min", "14", "--t-max", "15", "--step", "0.05", "--workers", workers,
            ])
            assert code == EXIT_OK
            outputs.add(out.read_bytes())
    same_cli = all(len(outputs) == 1 for outputs in blobs.values())
    ok = same_reports and same_cli
    elapsed = time.time() - start
    _report(11, ok, elapsed,
            f"reports identical across reruns: {same_reports}; "
            f"CLI csv and json byte-identical across reruns and workers: {same_cli}")
