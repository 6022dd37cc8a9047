"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

import numpy as np
import pytest

from dqpassivity import (
    ParasiticConfig,
    RegulationSet,
    SweepGrid,
    VariantFlags,
    assemble_ydq,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_jlf_analytic,
    classify_grid,
    classify_model,
    derive_variant,
    eval_tf,
    random_multisine,
    simulate_dissipation,
    solve_powerflow,
    sweep_psd,
    symmetric_part_eigenvalues,
)
from dqpassivity.reference import EIG_TOL, EXPECTED_GRID, REG_BUSES, REG_KQV, TABLE_EIGS
from dqpassivity.passivate import apply_qv_contribution
from conftest import random_solved_case
from test_passcheck import negative_resistance_case
from test_powerflow import _fd_jacobian

REG = RegulationSet.uniform(REG_BUSES, REG_KQV)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def random_pool():
    rng = np.random.default_rng(2024)
    return [random_solved_case(rng) for _ in range(50)]


def test_criterion_1_table_base(ieee9):
    t0 = time.perf_counter()
    op = solve_powerflow(ieee9)
    eigs = symmetric_part_eigenvalues(build_jlf_analytic(ieee9, op))
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(eigs - np.array(TABLE_EIGS["base"]))))
    ok = err <= EIG_TOL and elapsed < 1.0
    _report("criterion 1 (base eigenvalue table)", ok, f"max err {err:.4f} tol {EIG_TOL}, {elapsed:.3f}s")
    assert err <= EIG_TOL
    assert elapsed < 1.0


def test_criterion_2_table_regulated(ieee9, ieee9_op):
    j = apply_qv_contribution(build_jlf_analytic(ieee9, ieee9_op), REG)
    eigs = symmetric_part_eigenvalues(j)
    expected = np.array(TABLE_EIGS["base_regulated"])
    err = float(np.max(np.abs(eigs - expected)))
    second = float(eigs[1])
    ok = err <= EIG_TOL and abs(second - 0.025) <= 0.005
    _report(
        "criterion 2 (regulated eigenvalue table)",
        ok,
        f"max err {err:.4f}, second-smallest {second:.4f} vs 0.025",
    )
    assert err <= EIG_TOL
    assert abs(second - 0.025) <= 0.005


def test_criterion_3_lossless_tables(ieee9, ieee9_op):
    # The lossless simplification keeps the measured base operating point.
    lossless = derive_variant(ieee9, VariantFlags(lossless=True))
    j = build_jlf_analytic(lossless, ieee9_op, check_operating_point=False)
    base = symmetric_part_eigenvalues(j)
    regulated = symmetric_part_eigenvalues(apply_qv_contribution(j, REG))
    err_b = float(np.max(np.abs(base - np.array(TABLE_EIGS["lossless"]))))
    err_r = float(np.max(np.abs(regulated - np.array(TABLE_EIGS["lossless_regulated"]))))
    second = float(regulated[1])
    ok = err_b <= EIG_TOL and err_r <= EIG_TOL and abs(second - 0.027) <= 0.005
    _report(
        "criterion 3 (lossless eigenvalue tables)",
        ok,
        f"max err base {err_b:.4f} / regulated {err_r:.4f}, second-smallest {second:.4f}",
    )
    assert err_b <= EIG_TOL
    assert err_r <= EIG_TOL
    assert abs(second - 0.027) <= 0.005


def test_criterion_4_verdict_grid(ieee9):
    grid = classify_grid(ieee9, tau=0.01, regulation=REG)
    mismatches = [
        f"{model}/{cell}: computed {grid[model][cell]} expected {expected}"
        for model, cells in EXPECTED_GRID.items()
        for cell, expected in cells.items()
        if grid[model][cell] != expected
    ]

    # Wide-band non-passivity must rest on the feedthrough certificates.
    for model in ("II", "III", "IV"):
        verdict = classify_model(ieee9, model=model, analysis="wideband")
        assert not verdict.feedthrough.psd
        if model in ("II", "IV"):
            assert abs(verdict.feedthrough.trace) < 1e-10
        else:
            assert min(verdict.feedthrough.diagonal) < 0

    # Coupled lossy low-frequency III/IV fail through the residue test.
    for model in ("III", "IV"):
        for flags in (VariantFlags(), VariantFlags(no_shunt_b=True)):
            verdict = classify_model(ieee9, flags, model=model, analysis="lowfreq")
            assert verdict.overall == "non-passive"
            assert not verdict.cond3[0].passed
            assert verdict.cond3[0].hermitian_deviation > 1e-6

    ok = not mismatches
    _report("criterion 4 (verdict grid)", ok, f"{len(mismatches)} mismatching cell(s)")
    assert not mismatches, mismatches


def test_criterion_5_randomized_certificates(random_pool):
    t0 = time.perf_counter()
    grid = SweepGrid()
    worst_sweep = np.inf
    for case, op in random_pool:
        ydq = assemble_ydq(case)
        j2 = build_j_of_s(ydq, op)
        d2 = j2.d
        assert abs(np.trace(d2 + d2.T)) < 1e-10
        d4 = build_jdf(j2, 0.01).d
        assert abs(np.trace(d4 + d4.T)) < 1e-10
        d3 = build_jdp(j2, 0.01).d
        assert np.min(np.diag(d3 + d3.T)) < 0  # Q_o != 0 somewhere
        rep = sweep_psd(ydq, grid)
        worst_sweep = min(worst_sweep, rep.min_eig)
        assert rep.min_eig >= -1e-9
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(
        "criterion 5 (randomized theorem certificates, 50 cases)",
        ok,
        f"worst sweep min-eig {worst_sweep:.2e}, {elapsed:.1f}s (target < 60s)",
    )
    assert elapsed < 60.0


def test_criterion_6_consistency_oracles(ieee9, ieee9_op, random_pool):
    worst_eq4 = 0.0
    worst_fd = 0.0
    for case, op in [(ieee9, ieee9_op)] + [random_pool[i] for i in range(5)]:
        jan = build_jlf_analytic(case, op).d
        j0 = eval_tf(build_j_of_s(assemble_ydq(case), op), 0.0)
        rel = float(np.linalg.norm(j0 - jan) / np.linalg.norm(jan))
        worst_eq4 = max(worst_eq4, rel)
        assert rel <= 1e-6
        fd = float(np.max(np.abs(jan - _fd_jacobian(case, op))))
        worst_fd = max(worst_fd, fd)
        assert fd <= 1e-5
    _report(
        "criterion 6 (static-model consistency)",
        True,
        f"worst interface-route rel err {worst_eq4:.2e}, worst finite-difference err {worst_fd:.2e}",
    )


def test_criterion_7_dissipation(ieee9):
    ss = assemble_ydq(ieee9, ParasiticConfig(r_series_cap=0.05))
    rng = np.random.default_rng(77)
    worst = np.inf
    for _ in range(10):
        u = random_multisine(rng, ss.n_inputs)
        rep = simulate_dissipation(ss, u, t_end=0.5, dt=2e-5)
        worst = min(worst, rep.min_margin)
        assert rep.min_margin >= -1e-6
    neg = assemble_ydq(negative_resistance_case())
    x0 = 0.1 * rng.normal(size=neg.n_states)
    bad = simulate_dissipation(neg, lambda t: np.zeros(4), t_end=0.05, dt=1e-5, x0=x0)
    ok = worst >= -1e-6 and bad.min_margin < -1e-6
    _report(
        "criterion 7 (dissipation inequality)",
        ok,
        f"worst margin {worst:.2e} over 10 runs; negative-resistance margin {bad.min_margin:.2e}",
    )
    assert bad.min_margin < -1e-6


def test_criterion_8_structural_null_mode(ieee9, random_pool):
    worst = 0.0

    def null_residual(j):
        n = len(j.bus_ids)
        null = np.concatenate([np.ones(n), np.zeros(n)])
        return float(np.max(np.abs(j.d @ null)))

    for flags in (
        VariantFlags(),
        VariantFlags(lossless=True),
        VariantFlags(no_shunt_b=True),
        VariantFlags(lossless=True, no_shunt_b=True),
    ):
        variant = derive_variant(ieee9, flags)
        j = build_jlf_analytic(variant, solve_powerflow(variant))
        worst = max(worst, null_residual(j), null_residual(apply_qv_contribution(j, REG)))
    rng = np.random.default_rng(88)
    for case, op in [random_pool[i] for i in range(5)]:
        j = build_jlf_analytic(case, op)
        reg = RegulationSet.uniform(
            [int(b) for b in rng.choice(case.bus_ids, size=2, replace=False)],
            float(rng.uniform(0.1, 1.0)),
        )
        worst = max(worst, null_residual(j), null_residual(apply_qv_contribution(j, reg)))
    ok = worst < 1e-10
    _report("criterion 8 (structural null mode)", ok, f"worst |J_LF [1;0]| = {worst:.2e}")
    assert worst < 1e-10
