"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(visible with `pytest -s tests/test_acceptance.py`). Criteria are asserted
exactly at their stated tolerances.

Known honest failure: criterion 1's estimate band cannot be met at the
conditioning-extreme cells (kappa_B >= 1e6 paired with kappa_A = 1e2,
kappa_B = 1e8, or kappa_A = 1e8), where the estimate evaluated at the
least-squares multiplier overshoots the numerically minimized estimate by
orders of magnitude (the candidate magnitude ~ kappa_B makes that
multiplier a poor surrogate; the small-rho condition flags exactly these
rows). The criterion is asserted as stated and reports the offending
cells; the analysis lives in the project notes.
"""

import math
import statistics

import numpy as np
import pytest

from ilse import (
    WeightScheme,
    backward_error_estimate,
    least_squares_multiplier,
    minimize_estimate,
    pinv_norm_bound,
    properties,
    solution_distance_lower_bound,
    solve_ilse,
    stability_constant,
)
from ilse.harness import ExperimentConfig, run_experiment
from ilse.oracle import estimate_via_normal_equations

from conftest import row_result, t1_grid_minimum

W1 = WeightScheme(1.0, 1.0, 1.0)

PAPER_GRID = ExperimentConfig(
    m=100, n=50, s=20, p=60, q=40,
    kappa_a_list=(1e2, 1e4, 1e8),
    kappa_b_list=(1e2, 1e4, 1e6, 1e8),
    eps_list=(1e-6, 1e-12),
    trials_per_cell=5,
    base_seed=20240901,
)


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="session")
def paper_rows():
    rows, _ = run_experiment(PAPER_GRID)
    return rows


def test_criterion_01_table_magnitudes(paper_rows):
    mu_target = math.sqrt(100 * 50 + 100 + 20 * 50 + 20)  # sqrt(mn + m + sn + s)
    failures = []
    for eps in PAPER_GRID.eps_list:
        for ka in PAPER_GRID.kappa_a_list:
            for kb in PAPER_GRID.kappa_b_list:
                cell = [
                    r for r in paper_rows
                    if (r.eps, r.kappa_a_nominal, r.kappa_b) == (eps, ka, kb) and not r.failed
                ]
                tag = f"eps={eps:.0e},kA={ka:.0e},kB={kb:.0e}"
                if len(cell) < 3:
                    failures.append(f"{tag}: only {len(cell)} successful trials")
                    continue
                mu_med = statistics.median(r.mu_1 for r in cell)
                if not 0.5 * mu_target <= mu_med / eps <= 2.0 * mu_target:
                    failures.append(f"{tag}: median mu_1/eps = {mu_med / eps:.1f}")
                rho_med = statistics.median(r.rho_xi1 / eps for r in cell)
                if not 1.0 <= rho_med <= 1e3:
                    failures.append(f"{tag}: median rho_xi1/eps = {rho_med:.1f}")
    ok = not failures
    _report(1, "comparison-grid magnitude reproduction", ok,
            "all 24 cells in band" if ok else "; ".join(failures))
    assert ok, (
        "cells outside the stated bands (see notes ledger for the analysis of "
        "the eps=1e-12 extreme-conditioning floor):\n  " + "\n  ".join(failures)
    )


def test_criterion_02_residual_envelope(paper_rows):
    offenders = [
        f"eps={r.eps:.0e},kA={r.kappa_a_nominal:.0e},kB={r.kappa_b:.0e}: "
        f"gamma={r.gamma:.2e}, gamma_bar={r.gamma_bar:.2e}"
        for r in paper_rows
        if not r.failed and r.kappa_b <= 1e6 and not (r.gamma <= 1e-10 and r.gamma_bar <= 1e-10)
    ]
    worst = max(
        max(r.gamma, r.gamma_bar) for r in paper_rows if not r.failed and r.kappa_b <= 1e6
    )
    ok = not offenders
    _report(2, "residual envelope gamma, gamma_bar <= 1e-10", ok, f"worst {worst:.2e}")
    assert ok, offenders


# Criteria 3-6, 9 and the first half of 7 are rows of the property table
# (ilse.properties), which also holds their instance families and seeds.

def test_criterion_03_tau0_equivalence():
    result = row_result(properties.tau0_closed_form)
    worst = max(result.values, default=math.nan)
    _report(3, "tau0 equals explicit pseudoinverse norm on 100 small instances", result.ok,
            f"worst relative difference {worst:.2e}")
    assert result.ok, result.line()


def test_criterion_04_alpha_lower_bound():
    result = row_result(properties.alpha_lower_bound)
    assert result.ok, result.line()
    _report(4, "alpha >= certified lower bound", True,
            f"{result.passed} instances across theta1 in {{0.1, 1, 10}}")


def test_criterion_05_consistency_inequality():
    result = row_result(properties.consistency)
    assert result.ok, result.line()
    _report(5, "consistency inequality on 200 feasible perturbations", True,
            f"worst rho0/bound = {max(result.values):.3f}")


def test_criterion_06_distance_bound():
    result = row_result(properties.distance_bound)
    _report(6, "distance lower bound never exceeds true distance", result.ok,
            f"{result.passed + result.failed} instances, {result.failed} violations")
    assert result.ok, result.line()


def test_criterion_07_oracle_gap(t1):
    result = row_result(properties.minimizer_below_start)
    assert result.ok, result.line()

    y = np.array([0.1])
    _, rho_grid = t1_grid_minimum()
    result = minimize_estimate(t1, y, W1, seed=1)
    gap = abs(result.rho_star - rho_grid)
    ok = gap <= 1e-3
    _report(7, "optimizer never above estimate; matches 1-D grid", ok,
            f"grid gap {gap:.2e}")
    assert ok


def test_criterion_08_hand_verified_micro_instance(t1):
    sol = solve_ilse(t1)
    assert sol.x == pytest.approx([0.0], abs=1e-14)
    assert sol.xi == pytest.approx([1.0], rel=1e-14)

    y = np.array([0.1])
    xi1 = least_squares_multiplier(t1, y)
    assert xi1 == pytest.approx([0.9], abs=1e-12)

    rho = backward_error_estimate(t1, y, xi1, W1)
    rho_oracle = estimate_via_normal_equations(t1, y, xi1, W1)
    assert rho == pytest.approx(0.09962, abs=1e-4)
    assert rho_oracle == pytest.approx(0.09962, abs=1e-4)

    alpha = stability_constant(t1, y, W1)
    assert alpha == pytest.approx(math.sqrt(2.64), abs=1e-12)
    assert pinv_norm_bound(t1, y, W1) == 1.0

    dist = solution_distance_lower_bound(t1, y)
    assert dist == pytest.approx(0.1 / math.sqrt(2), abs=1e-4)
    assert dist <= 0.1
    _report(8, "hand-verified micro instance", True,
            f"rho={rho:.5f}, alpha={alpha:.6f}, distance bound={dist:.4f}")


def test_criterion_09_full_row_rank():
    result = row_result(properties.full_row_rank)
    assert result.ok and result.skipped == 0, result.line()
    _report(9, "linearization full row rank over 100 x 10 samples", True,
            f"worst sigma_min/sigma_max = {min(result.values):.2e}")


def test_criterion_10_experiment_determinism(tmp_path, capsys):
    from ilse import cli

    args = [
        "experiment", "--m", "30", "--n", "15", "--s", "6", "--p", "18", "--q", "12",
        "--kappa-a", "100", "--kappa-b", "100", "--eps", "1e-6", "--eps", "1e-8",
        "--trials", "2", "--seed", "271828",
    ]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    with capsys.disabled():
        _report(10, "byte-identical experiment reruns", identical,
                f"{len(f1.read_bytes())} bytes compared")
    assert identical
