"""Q-V regulation application and minimal-contribution search."""

import numpy as np
import pytest

from dqpassivity import (
    InfeasibleRegulationError,
    JacobianLF,
    RegulationSet,
    VariantFlags,
    apply_qv_contribution,
    build_jlf_analytic,
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
    diff = out.full() - jlf.full()
    touched = np.zeros((18, 18), dtype=bool)
    for b in REG_BUSES:
        k = jlf.bus_ids.index(b)
        touched[9 + k, 9 + k] = True
    assert np.all(diff[~touched] == 0.0)
    assert np.allclose(diff[touched], 0.65, atol=1e-12)


def test_apply_empty_is_identity(jlf):
    out = apply_qv_contribution(jlf, RegulationSet(entries=()))
    assert np.array_equal(out.full(), jlf.full())


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
        assert np.max(np.abs(out.full() @ null)) < 1e-10


def test_deflated_min_eig_monotone_in_k(jlf):
    rng = np.random.default_rng(17)
    for _ in range(10):
        k1, k2 = np.sort(rng.uniform(0.0, 2.0, size=2))
        lam1 = min_eig_excluding_uniform_angle(
            apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, k1)).symmetric_part()
        )
        lam2 = min_eig_excluding_uniform_angle(
            apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, k2)).symmetric_part()
        )
        assert lam2 >= lam1 - 1e-12


def test_min_uniform_kqv_against_dense_scan(jlf):
    kstar = min_uniform_kqv(jlf, REG_BUSES, tol=1e-6)
    # The published sufficient value is not minimal.
    assert kstar <= 0.65
    assert kstar == pytest.approx(0.6341409683, abs=1e-4)
    scan = None
    for k in np.arange(0.0, 0.66, 1e-4):
        lam = min_eig_excluding_uniform_angle(
            apply_qv_contribution(jlf, RegulationSet.uniform(REG_BUSES, float(k))).symmetric_part()
        )
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
    j = JacobianLF(
        j11=np.eye(2),
        j12=np.zeros((2, 2)),
        j21=np.zeros((2, 2)),
        j22=np.diag([-1.0, 1.0]),
        bus_ids=(1, 2),
    )
    with pytest.raises(InfeasibleRegulationError):
        min_uniform_kqv(j, [2])


def regulated_min_eig(j, buses, k):
    reg = RegulationSet.uniform(buses, k)
    return min_eig_excluding_uniform_angle(apply_qv_contribution(j, reg).symmetric_part())


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
            kstar = min_uniform_kqv(j, buses, tol)
            # The bisection returns the upper end of a bracket no wider than tol.
            assert -1e-12 <= want - kstar <= tol + 1e-12
            assert regulated_min_eig(j, buses, kstar) >= -tol - 1e-12
            if kstar > 0:
                n_positive += 1
                assert regulated_min_eig(j, buses, kstar - 1e-7) < -tol
    assert n_positive >= 30


def test_min_uniform_kqv_rejects_unknown_bus(jlf):
    with pytest.raises(ValueError, match="unknown bus 42"):
        min_uniform_kqv(jlf, (1, 42))
