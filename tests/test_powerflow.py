"""Newton power flow and the unreduced load-flow Jacobian."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    ConsistencyError,
    Injection,
    NetworkCase,
    PowerFlowError,
    SystemParams,
    VariantFlags,
    assemble_ydq,
    build_j_of_s,
    build_jlf_analytic,
    build_ybus,
    decouple,
    derive_variant,
    solve_powerflow,
)
from conftest import random_solved_case, two_bus_case


def test_two_bus_lossless_closed_form():
    # P = V1 V2 sin(delta) / X with both magnitudes pinned to 1.
    case = two_bus_case(r=0.0, x=0.1, load_p=-0.5, load_kind="pv", vset=1.0)
    op = solve_powerflow(case)
    delta = float(op.phi[0] - op.phi[1])
    assert delta == pytest.approx(math.asin(0.05), abs=1e-9)
    assert op.vm == pytest.approx([1.0, 1.0])


def test_ybus_closed_form_with_off_nominal_ratio():
    # Bus 1 is the tap side: y/a^2 there, y on bus 2, -y/a between them,
    # half the line charging at each end, and each bus's own shunt.
    r, x, b_line, a = 0.02, 0.1, 0.3, 1.05
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1, g_shunt=0.04, b_shunt=0.05), Bus(id=2, g_shunt=0.07, b_shunt=0.2)),
        branches=(Branch(from_bus=1, to_bus=2, r=r, x=x, b_line=b_line, ratio=a),),
        injections=(Injection(bus=1, kind="slack", vset=1.0), Injection(bus=2, kind="pq", p=-0.5, q=0.0)),
    )
    y = 1.0 / complex(r, x)
    want = np.array(
        [
            [y / a**2 + 0.5j * b_line + complex(0.04, 0.05), -y / a],
            [-y / a, y + 0.5j * b_line + complex(0.07, 0.2)],
        ]
    )
    assert np.allclose(build_ybus(case), want, rtol=1e-14, atol=0.0)


def _replace_item(case, part, index, **changes):
    items = list(getattr(case, part))
    items[index] = replace(items[index], **changes)
    return replace(case, **{part: tuple(items)})


# Cases built in Python skip validate_case; the power flow and Y_DQ read
# x and the shunt susceptance the same way and reject the same values.
UNSUPPORTED_ELEMENTS = {
    "negative-x": (lambda c: _replace_item(c, "branches", 3, x=-0.085), "branch 1-5: series X must be >= 0"),
    "negative-b-shunt": (lambda c: _replace_item(c, "buses", 4, b_shunt=-0.1), "bus 5: negative shunt susceptance"),
    "negative-b-line": (lambda c: _replace_item(c, "branches", 3, b_line=-0.1), "branch 1-5: line charging must be >= 0"),
}


@pytest.mark.parametrize("build", [solve_powerflow, assemble_ydq])
@pytest.mark.parametrize("name", UNSUPPORTED_ELEMENTS)
def test_power_flow_and_ydq_reject_the_same_elements(ieee9, name, build):
    edit, message = UNSUPPORTED_ELEMENTS[name]
    with pytest.raises(ValueError, match=message):
        build(edit(ieee9))


@pytest.mark.parametrize("build", [build_ybus, solve_powerflow, assemble_ydq])
def test_short_circuit_branch_is_rejected_by_name(build):
    # x = 0 makes the branch the conductance 1/r, which r = 0 leaves undefined.
    with pytest.raises(ValueError, match=r"branch 1-2: a branch with x = 0 .* needs r != 0"):
        build(two_bus_case(r=0.0, x=0.0))


def test_ieee9_converges_and_matches_textbook_flows(ieee9, ieee9_op):
    op = ieee9_op
    y = build_ybus(ieee9)
    v = op.voltage_phasor()
    mism = np.max(np.abs(v * np.conj(y @ v) - (op.p + 1j * op.q)))
    assert mism < 1e-8
    # Slack generation lands in the textbook region.
    assert op.p[ieee9.bus_index(4)] == pytest.approx(0.716, abs=5e-3)
    # Determinism across runs.
    op2 = solve_powerflow(ieee9)
    assert np.array_equal(op.vm, op2.vm)
    assert np.array_equal(op.phi, op2.phi)


def test_flat_start_is_exact_for_zero_injection():
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2), Bus(id=3)),
        branches=(
            Branch(from_bus=1, to_bus=2, r=0.01, x=0.1),
            Branch(from_bus=2, to_bus=3, r=0.01, x=0.1),
        ),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )
    op = solve_powerflow(case)
    assert np.array_equal(op.vm, np.ones(3))
    assert np.array_equal(op.phi, np.zeros(3))


def test_operating_point_invariants(ieee9_op):
    ieee9_op.validate()
    assert np.all(np.hypot(ieee9_op.v_d, ieee9_op.v_q) > 0)


def test_angle_convention(ieee9_op):
    # v_D = |V| sin(phi), v_Q = |V| cos(phi)
    assert np.allclose(ieee9_op.v_d, ieee9_op.vm * np.sin(ieee9_op.phi))
    assert np.allclose(ieee9_op.v_q, ieee9_op.vm * np.cos(ieee9_op.phi))


def test_zero_injection_buses_have_exact_zero_current(ieee9, ieee9_op):
    for bus in (1, 2, 3):
        k = ieee9.bus_index(bus)
        assert ieee9_op.i_d[k] == 0.0
        assert ieee9_op.i_q[k] == 0.0
        assert ieee9_op.p[k] == 0.0


def test_divergence_raises():
    case = two_bus_case(r=0.0, x=0.1, load_p=-100.0)
    with pytest.raises(PowerFlowError):
        solve_powerflow(case)


def test_null_vector(ieee9, ieee9_op):
    j = build_jlf_analytic(ieee9, ieee9_op).d
    null = np.concatenate([np.ones(9), np.zeros(9)])
    assert np.max(np.abs(j @ null)) < 1e-10


def test_null_vector_random_cases():
    rng = np.random.default_rng(21)
    for _ in range(4):
        case, op = random_solved_case(rng)
        j = build_jlf_analytic(case, op).d
        n = case.n_bus
        null = np.concatenate([np.ones(n), np.zeros(n)])
        assert np.max(np.abs(j @ null)) < 1e-10


def _fd_jacobian(case, op, h=1e-6):
    """Central finite differences of the nodal power equations in (phi, V_n)."""
    y = build_ybus(case)
    n = case.n_bus

    def power(phi, vn):
        v = (op.vm * vn) * np.exp(1j * phi)
        s = v * np.conj(y @ v)
        return np.concatenate([s.real, s.imag])

    cols = []
    for k in range(2 * n):
        phi_p, vn_p = op.phi.copy(), np.ones(n)
        phi_m, vn_m = op.phi.copy(), np.ones(n)
        if k < n:
            phi_p[k] += h
            phi_m[k] -= h
        else:
            vn_p[k - n] += h
            vn_m[k - n] -= h
        cols.append((power(phi_p, vn_p) - power(phi_m, vn_m)) / (2 * h))
    return np.column_stack(cols)


def test_finite_difference_oracle(ieee9, ieee9_op):
    j = build_jlf_analytic(ieee9, ieee9_op).d
    fd = _fd_jacobian(ieee9, ieee9_op)
    assert np.max(np.abs(j - fd)) < 1e-5


def test_finite_difference_oracle_random():
    rng = np.random.default_rng(22)
    case, op = random_solved_case(rng)
    j = build_jlf_analytic(case, op).d
    assert np.max(np.abs(j - _fd_jacobian(case, op))) < 1e-5


def _trig_jacobian(y, v, s):
    """Textbook trigonometric polar Jacobian in (phi, V_n), diagonal from the supplied S."""
    vm, phi = np.abs(v), np.angle(v)
    g, b = y.real, y.imag
    dphi = phi[:, None] - phi[None, :]
    vv = np.outer(vm, vm)
    h = vv * (g * np.sin(dphi) - b * np.cos(dphi))
    m = vv * (g * np.cos(dphi) + b * np.sin(dphi))
    j11, j12, j21, j22 = h.copy(), m.copy(), -m, h.copy()
    dg = np.diag_indices(len(v))
    j11[dg] = -s.imag - b.diagonal() * vm**2
    j12[dg] = s.real + g.diagonal() * vm**2
    j21[dg] = s.real - g.diagonal() * vm**2
    j22[dg] = s.imag - b.diagonal() * vm**2
    return np.block([[j11, j12], [j21, j22]])


def test_jacobian_matches_trigonometric_form(ieee9, ieee9_op):
    """The complex-form J_LF against the trigonometric one, frozen S included.

    In the frozen-operating-point lossless evaluation the supplied S is not
    the network's own V conj(Y V), so the diagonal must come from S.
    """
    rng = np.random.default_rng(23)
    lossless = derive_variant(ieee9, VariantFlags(lossless=True))
    inputs = [(ieee9, ieee9_op, True)]
    inputs += [(*random_solved_case(rng), True) for _ in range(2)]
    inputs += [(lossless, ieee9_op, False)]
    for case, op, check in inputs:
        y, v, s = build_ybus(case), op.voltage_phasor(), op.p + 1j * op.q
        want = _trig_jacobian(y, v, s)
        got = build_jlf_analytic(case, op, check_operating_point=check).d
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.linalg.norm(want, 2))
    # The frozen case, last above, supplies an S that the network does not produce.
    assert np.max(np.abs(v * np.conj(y @ v) - s)) > 1e-3


def test_jlf_is_static_model_with_j_of_s_ports(ieee9, ieee9_op):
    """N(s) = J_LF is a zero-state StateSpace with the ports of J(s)."""
    rng = np.random.default_rng(24)
    for case, op in [(ieee9, ieee9_op)] + [random_solved_case(rng) for _ in range(2)]:
        jlf = build_jlf_analytic(case, op)
        j = build_j_of_s(assemble_ydq(case), op)
        assert jlf.n_states == 0 and jlf.state_meta == ()
        assert jlf.d.shape == (2 * case.n_bus, 2 * case.n_bus)
        assert jlf.input_labels == j.input_labels
        assert jlf.output_labels == j.output_labels
        assert jlf.bus_ids == j.bus_ids == case.bus_ids


def test_lossless_jacobian_symmetry(ieee9):
    lossless = derive_variant(ieee9, VariantFlags(lossless=True))
    op = solve_powerflow(lossless)
    j = build_jlf_analytic(lossless, op)
    assert np.max(np.abs(j.d[:9, :9] - j.d[:9, :9].T)) < 1e-10
    assert np.max(np.abs(j.d - j.d.T)) < 1e-10


def test_consistency_check(ieee9, ieee9_op):
    lossless = derive_variant(ieee9, VariantFlags(lossless=True))
    with pytest.raises(ConsistencyError, match="frozen"):
        build_jlf_analytic(lossless, ieee9_op)
    # The frozen-operating-point evaluation is available explicitly.
    j = build_jlf_analytic(lossless, ieee9_op, check_operating_point=False)
    assert j.d.shape == (18, 18)


def test_decouple(ieee9, ieee9_op):
    j = build_jlf_analytic(ieee9, ieee9_op)
    d = decouple(j)
    assert np.linalg.norm(d.d[:9, 9:]) == 0.0
    assert np.linalg.norm(d.d[9:, :9]) == 0.0
    assert np.array_equal(d.d[:9, :9], j.d[:9, :9])
    d2 = decouple(d)
    assert np.array_equal(d2.d, d.d)


def test_decoupled_lossless_nob_is_psd(ieee9):
    flags = VariantFlags(lossless=True, no_shunt_b=True)
    variant = derive_variant(ieee9, flags)
    op = solve_powerflow(variant)
    j = decouple(build_jlf_analytic(variant, op))
    full = j.d
    assert np.max(np.abs(full - full.T)) < 1e-10
    assert np.min(np.linalg.eigvalsh(full + full.T)) > -1e-9


def test_jlf_rejects_foreign_operating_point(ieee9):
    op = solve_powerflow(two_bus_case())
    with pytest.raises(ConsistencyError, match="operating point bus set does not match the case"):
        build_jlf_analytic(ieee9, op)
    with pytest.raises(ConsistencyError, match="bus set"):
        build_jlf_analytic(ieee9, op, check_operating_point=False)


def test_singular_newton_matrix_raises(ieee9, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(PowerFlowError, match="singular power-flow Jacobian") as info:
        solve_powerflow(ieee9)
    assert math.isfinite(info.value.mismatch) and info.value.mismatch > 0
