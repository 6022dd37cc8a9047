"""Q-V regulation application and minimal-contribution search."""

from dataclasses import replace

import numpy as np
import pytest

from dqpassivity import (
    InfeasibleRegulationError,
    RegulationSet,
    StateSpace,
    VariantFlags,
    apply_qv_contribution,
    build_jlf_analytic,
    classify_model,
    decouple,
    derive_variant,
    min_eig_excluding_uniform_angle,
    min_uniform_kqv,
    solve_powerflow,
    symmetric_part_eigenvalues,
)

REG_BUSES = (1, 2, 3, 5, 6, 8)
REG = RegulationSet.uniform(REG_BUSES, 0.65)


@pytest.fixture(scope="module")
def jlf(ieee9, ieee9_op):
    return build_jlf_analytic(ieee9, ieee9_op)


def test_apply_touches_only_named_diagonals(jlf):
    out = apply_qv_contribution(jlf, REG)
    diff = out.d - jlf.d
    touched = np.zeros((18, 18), dtype=bool)
    for b in REG_BUSES:
        k = jlf.bus_ids.index(b)
        touched[9 + k, 9 + k] = True
    assert np.all(diff[~touched] == 0.0)
    assert np.allclose(diff[touched], 0.65, atol=1e-12)


def test_apply_empty_is_identity(jlf):
    out = apply_qv_contribution(jlf, RegulationSet(entries=()))
    assert np.array_equal(out.d, jlf.d)


@pytest.mark.parametrize(
    "transform",
    [
        decouple,
        lambda j: apply_qv_contribution(j, REG),
        lambda j: apply_qv_contribution(j, RegulationSet(entries=())),
    ],
    ids=["decouple", "apply_qv_contribution", "apply_qv_contribution_empty"],
)
def test_d_transforms_return_new_models(jlf, transform):
    """decouple and apply_qv_contribution copy D and leave their argument unchanged."""
    before = jlf.d.copy()
    out = transform(jlf)
    assert not np.shares_memory(out.d, jlf.d)
    assert np.array_equal(jlf.d, before)
    assert out.n_states == 0 and out.bus_ids == jlf.bus_ids
    assert out.input_labels == jlf.input_labels and out.output_labels == jlf.output_labels


def test_apply_unknown_bus(jlf):
    with pytest.raises(ValueError, match="unknown bus"):
        apply_qv_contribution(jlf, RegulationSet(entries=((42, 0.1),)))


def test_negative_kqv_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        RegulationSet(entries=((1, -0.1),))


def test_regulated_eigenvalues_match_reference(jlf):
    eigs = symmetric_part_eigenvalues(apply_qv_contribution(jlf, REG))
    assert eigs[1] == pytest.approx(0.025, abs=0.005)
    assert eigs[2] == pytest.approx(7.87, abs=0.05)


def test_null_vector_survives_regulation(jlf):
    null = np.concatenate([np.ones(9), np.zeros(9)])
    for k in (0.1, 0.65, 3.0):
        out = apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, k))
        assert np.max(np.abs(out.d @ null)) < 1e-10


def test_deflated_min_eig_monotone_in_k(jlf):
    rng = np.random.default_rng(17)
    for _ in range(10):
        k1, k2 = np.sort(rng.uniform(0.0, 2.0, size=2))
        d1 = apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, k1)).d
        lam1 = min_eig_excluding_uniform_angle(d1 + d1.T)
        d2 = apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, k2)).d
        lam2 = min_eig_excluding_uniform_angle(d2 + d2.T)
        assert lam2 >= lam1 - 1e-12


def test_min_uniform_kqv_against_dense_scan(jlf):
    kstar = min_uniform_kqv(jlf, REG_BUSES)
    # The published sufficient value is not minimal.
    assert kstar <= 0.65
    assert kstar == pytest.approx(0.6341409683, abs=1e-4)
    scan = None
    for k in np.arange(0.0, 0.66, 1e-4):
        d = apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, float(k))).d
        lam = min_eig_excluding_uniform_angle(d + d.T)
        if lam >= -1e-6:
            scan = float(k)
            break
    assert scan is not None
    assert abs(kstar - scan) <= 1.5e-4


def test_min_uniform_kqv_already_passive(ieee9):
    flags = VariantFlags(lossless=True, no_shunt_b=True, decoupled=True)
    from dqpassivity import decouple, solve_powerflow

    variant = derive_variant(ieee9, flags)
    op = solve_powerflow(variant)
    j = decouple(build_jlf_analytic(variant, op))
    assert min_uniform_kqv(j, REG_BUSES) == 0.0


def test_min_uniform_kqv_infeasible():
    # A negative direction outside the regulated block can never be fixed.
    j = StateSpace(
        a=np.zeros((0, 0)),
        b=np.zeros((0, 4)),
        c=np.zeros((4, 0)),
        d=np.diag([1.0, 1.0, -1.0, 1.0]),
        input_labels=("phi:1", "phi:2", "Vn:1", "Vn:2"),
        output_labels=("P:1", "P:2", "Q:1", "Q:2"),
        state_meta=(),
        bus_ids=(1, 2),
    )
    with pytest.raises(InfeasibleRegulationError):
        min_uniform_kqv(j, [2])


def regulated_min_eig(j, buses, k):
    reg = RegulationSet.uniform(buses, k)
    d = apply_qv_contribution(j, reg).d
    return min_eig_excluding_uniform_angle(d + d.T)


def bisection_kqv(j, buses, tol=1e-6, k_cap=1e3):
    """Reference: the doubling-and-bisection search that the closed form replaced."""

    def lam(k):
        return regulated_min_eig(j, buses, k)

    if lam(0.0) >= -tol:
        return 0.0
    hi = 1.0
    while lam(hi) < -tol:
        hi *= 2.0
        if hi > k_cap:
            raise InfeasibleRegulationError(f"nothing up to {k_cap}")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lam(mid) >= -tol:
            hi = mid
        else:
            lo = mid
    return hi


def test_min_uniform_kqv_matches_bisection(ieee9, ieee9_op, jlf):
    tol = 1e-6
    lossless = build_jlf_analytic(
        derive_variant(ieee9, VariantFlags(lossless=True)), ieee9_op, check_operating_point=False
    )
    nob = derive_variant(ieee9, VariantFlags(no_shunt_b=True))
    decoupled_nob = decouple(build_jlf_analytic(nob, solve_powerflow(nob)))
    rng = np.random.default_rng(23)
    subsets = [REG_BUSES, (5, 5, 8)]  # a repeated bus adds its contribution twice
    for _ in range(30):
        size = int(rng.integers(1, 10))
        subsets.append(tuple(int(b) for b in rng.choice(np.arange(1, 10), size=size, replace=False)))
    n_positive = 0
    for j in (jlf, lossless, decoupled_nob):
        for buses in subsets:
            want = bisection_kqv(j, buses, tol)
            # J + (tol / 2) I has the symmetric part J + J^T + tol I: its exact
            # boundary is where the bisection's lam >= -tol is.
            kstar = min_uniform_kqv(replace(j, d=j.d + 0.5 * tol * np.eye(j.n_inputs)), buses)
            # The bisection returns the upper end of a bracket no wider than tol.
            assert -1e-12 <= want - kstar <= tol + 1e-12
            assert regulated_min_eig(j, buses, kstar) >= -tol - 1e-12
            if kstar > 0:
                n_positive += 1
                assert regulated_min_eig(j, buses, kstar - 1e-7) < -tol
    assert n_positive >= 30


@pytest.mark.parametrize(
    "flags",
    [
        VariantFlags(),
        VariantFlags(lossless=True),
        VariantFlags(no_shunt_b=True),
        VariantFlags(lossless=True, no_shunt_b=True),
        VariantFlags(decoupled=True),
        VariantFlags(lossless=True, decoupled=True),
    ],
    ids=["lossy_b", "lossless_b", "lossy_nob", "lossless_nob", "lossy_b/decoupled", "lossless_b/decoupled"],
)
def test_min_uniform_kqv_default_passes_classify_model(ieee9, flags):
    # The default k is the exact PSD boundary, so regulating with it flips
    # low-frequency model II under the verdict's own tolerance.
    variant = derive_variant(ieee9, flags)
    j = build_jlf_analytic(variant, solve_powerflow(variant))
    j = decouple(j) if flags.decoupled else j
    k = min_uniform_kqv(j, REG_BUSES)
    assert k > 0
    reg = RegulationSet.uniform(REG_BUSES, k)
    v = classify_model(ieee9, flags, "II", "lowfreq", regulation=reg)
    assert v.overall == "passive-after-regulation"
    assert v.regulated.min_eig_excluding_structural >= -1e-9


def test_min_uniform_kqv_rejects_unknown_bus(jlf):
    with pytest.raises(ValueError, match="unknown bus 42"):
        min_uniform_kqv(jlf, (1, 42))


def test_min_uniform_kqv_needs_a_bus(jlf):
    with pytest.raises(ValueError, match="need at least one regulating bus"):
        min_uniform_kqv(jlf, [])
