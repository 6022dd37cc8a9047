"""Interface-variable realizations and the low-frequency models built on J_LF."""

from dataclasses import replace

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    Injection,
    NetworkCase,
    SingularFrequencyError,
    SystemParams,
    VariantFlags,
    assemble_ydq,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_jlf_analytic,
    build_polar_model,
    check_poles,
    check_residue_psd_hermitian,
    decouple,
    derive_variant,
    eval_tf,
    interface_matrices,
    solve_powerflow,
)
from conftest import random_solved_case

TAU = 0.01


def n_p(jlf, tau):
    """N_p(s): J_LF with the (1 + s tau)/s filter on the angle channels."""
    return build_jdp(jlf, tau)


def n_df(jlf, tau):
    """N_df(s): J_LF with the (1 + s tau)/s filter on every channel."""
    return build_jdf(jlf, tau)


def origin_residue(model):
    """Residue of the model's single (origin) imaginary-axis pole cluster."""
    (pole,) = check_poles(model).imaginary_axis
    assert pole.omega == 0.0 and pole.semisimple
    return pole.residue


@pytest.fixture(scope="module")
def ieee9_models(ieee9, ieee9_op):
    ydq = assemble_ydq(ieee9)
    j2 = build_j_of_s(ydq, ieee9_op)
    return ydq, j2


def test_interface_matrices_structure(ieee9_op):
    e, c, f = interface_matrices(ieee9_op)
    n = ieee9_op.n_bus
    assert np.array_equal(np.diag(e[:n, :n]), ieee9_op.v_d)
    assert np.array_equal(np.diag(e[:n, n:]), ieee9_op.v_q)
    assert np.array_equal(np.diag(c[n:, :n]), ieee9_op.i_q)
    assert np.array_equal(np.diag(f[:n, :n]), ieee9_op.v_q)
    # Bus-block determinant v_D^2 + v_Q^2 > 0 keeps E and F invertible.
    for mat in (e, f):
        assert abs(np.linalg.det(mat)) > 0


def test_trace_d2_zero(ieee9_models):
    _, j2 = ieee9_models
    assert abs(np.trace(j2.d + j2.d.T)) < 1e-10


def test_j_of_s_matches_formula(ieee9_models, ieee9_op):
    ydq, j2 = ieee9_models
    e, c, f = interface_matrices(ieee9_op)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = complex(1.0, rng.uniform(-5e3, 5e3))
        direct = (e @ eval_tf(ydq, s) + c) @ f
        got = eval_tf(j2, s)
        assert np.linalg.norm(got - direct) <= 1e-9 * np.linalg.norm(direct)


def test_j_of_s_shares_the_admittance_state_matrix(ieee9_models):
    # The power-polar ports change B, C and D only; no builder writes into A.
    ydq, j2 = ieee9_models
    assert j2.a is ydq.a


def test_j_at_zero_equals_analytic_jacobian(ieee9, ieee9_op, ieee9_models):
    _, j2 = ieee9_models
    jlf = build_jlf_analytic(ieee9, ieee9_op).d
    got = eval_tf(j2, 0.0)
    assert np.linalg.norm(got - jlf) <= 1e-6 * np.linalg.norm(jlf)


def test_zero_injection_flat_operating_point():
    # i = 0 everywhere, v_D = 0, v_Q = 1: C = 0, F = I, D2 = E D_y F.
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=0.02, x=0.1),),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )
    op = solve_powerflow(case)
    assert np.array_equal(op.v_d, np.zeros(2))
    assert np.array_equal(op.v_q, np.ones(2))
    e, c, f = interface_matrices(op)
    assert np.linalg.norm(c) == 0.0
    assert np.array_equal(f, np.eye(4))
    ydq = assemble_ydq(case)
    j2 = build_j_of_s(ydq, op)
    assert np.array_equal(j2.d, e @ ydq.d @ f)


def test_jdp_realization(ieee9_models):
    _, j2 = ieee9_models
    j3 = build_jdp(j2, TAU)
    n = len(j2.bus_ids)
    # Feedthrough D3 = D2 diag(tau I, I)
    expected_d = j2.d.copy()
    expected_d[:, :n] *= TAU
    assert np.array_equal(j3.d, expected_d)
    # n integrators appended to the base spectrum
    base = np.sort_complex(j2.poles)
    got = np.sort_complex(j3.poles)
    added = np.sort_complex(np.concatenate([base, np.zeros(n, dtype=complex)]))
    assert np.allclose(got, added, atol=1e-8)
    # Definition at s = 1: J(1) diag((1+tau) I, I)
    scale = np.ones(2 * n)
    scale[:n] = 1.0 + TAU
    assert np.allclose(eval_tf(j3, 1.0), eval_tf(j2, 1.0) * scale[None, :], rtol=1e-12)


def test_jdp_rational_identity(ieee9_models):
    _, j2 = ieee9_models
    j3 = build_jdp(j2, TAU)
    n = len(j2.bus_ids)
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = complex(1.0, rng.uniform(-5e3, 5e3))
        gain = np.ones(2 * n, dtype=complex)
        gain[:n] = (1.0 + s * TAU) / s
        direct = eval_tf(j2, s) * gain[None, :]
        got = eval_tf(j3, s)
        assert np.linalg.norm(got - direct) <= 1e-9 * np.linalg.norm(direct)


def test_jdf_realization(ieee9_models):
    _, j2 = ieee9_models
    j4 = build_jdf(j2, TAU)
    n = len(j2.bus_ids)
    assert np.array_equal(j4.d, TAU * j2.d)
    assert abs(np.trace(j4.d + j4.d.T)) < 1e-10
    base = np.sort_complex(j2.poles)
    got = np.sort_complex(j4.poles)
    added = np.sort_complex(np.concatenate([base, np.zeros(2 * n, dtype=complex)]))
    assert np.allclose(got, added, atol=1e-8)
    w = 10.0
    direct = eval_tf(j2, 1j * w) * (1.0 + 1j * w * TAU) / (1j * w)
    got_w = eval_tf(j4, 1j * w)
    assert np.linalg.norm(got_w - direct) <= 1e-9 * np.linalg.norm(direct)
    rng = np.random.default_rng(15)
    for _ in range(20):
        s = complex(1.0, rng.uniform(-5e3, 5e3))
        direct = eval_tf(j2, s) * (1.0 + s * TAU) / s
        assert np.linalg.norm(eval_tf(j4, s) - direct) <= 1e-9 * np.linalg.norm(direct)


def test_negative_tau_rejected(ieee9_models):
    _, j2 = ieee9_models
    for tau in (0.0, -0.1):
        with pytest.raises(ValueError):
            build_jdp(j2, tau)
        with pytest.raises(ValueError):
            build_jdf(j2, tau)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
def test_non_finite_tau_rejected(ieee9_models, tau):
    _, j2 = ieee9_models
    for build in (build_jdp, build_jdf):
        with pytest.raises(ValueError, match="tau"):
            build(j2, tau)


def test_degenerate_operating_point_rejected(ieee9_op):
    from dataclasses import replace

    from dqpassivity import DegenerateOperatingPointError

    vm = ieee9_op.vm.copy()
    vm[0] = 0.0
    broken = replace(ieee9_op, vm=vm)
    with pytest.raises(DegenerateOperatingPointError):
        interface_matrices(broken)


def test_degenerate_operating_point_names_buses(ieee9_op):
    from dataclasses import replace

    from dqpassivity import DegenerateOperatingPointError

    vm = ieee9_op.vm.copy()
    vm[[2, 6]] = [0.0, -1.0]
    with pytest.raises(DegenerateOperatingPointError, match=r"\|V\| <= 0 at bus 3, 7$"):
        interface_matrices(replace(ieee9_op, vm=vm))


def test_jdp_diag_sign_follows_reactive_injection(ieee9_models, ieee9_op):
    # omega-channel diagonal of D3 + D3^T is exactly -2 tau Q_o per bus.
    _, j2 = ieee9_models
    j3 = build_jdp(j2, TAU)
    n = len(j2.bus_ids)
    diag = np.diag(j3.d + j3.d.T)[:n]
    assert np.allclose(diag, -2 * TAU * ieee9_op.q, atol=1e-12)
    assert np.min(diag) < 0  # Q_o != 0 somewhere


def test_jdp_zero_q_operating_point():
    # A purely resistive transfer carries zero reactive power everywhere,
    # so the omega-channel diagonal entries vanish.
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=0.1, x=0.0),),
        injections=(
            Injection(bus=1, kind="slack", vset=1.0),
            Injection(bus=2, kind="pq", p=-0.4, q=0.0),
        ),
    )
    op = solve_powerflow(case)
    cross = op.i_d * op.v_q - op.i_q * op.v_d
    assert np.allclose(cross, 0.0, atol=1e-12)
    j2 = build_j_of_s(assemble_ydq(case), op)
    j3 = build_jdp(j2, TAU)
    assert np.allclose(np.diag(j3.d + j3.d.T)[:2], 0.0, atol=1e-12)


def test_rational_lf_basics(ieee9, ieee9_op):
    jlf = build_jlf_analytic(ieee9, ieee9_op)
    np_model = n_p(jlf, TAU)
    ndf = n_df(jlf, TAU)
    full = jlf.d
    n = len(jlf.bus_ids)
    # N_df(s) * s/(1+s tau) = J_LF at any s != 0
    for s in (1.0, -2.0, complex(0.5, 3.0)):
        back = eval_tf(ndf, s) * s / (1.0 + s * TAU)
        assert np.allclose(back, full, rtol=1e-12, atol=1e-12)
    # N_p(1) = J_LF diag(1.01 I, I)
    scale = np.ones(2 * n)
    scale[:n] = 1.0 + TAU
    assert np.allclose(eval_tf(np_model, 1.0), full * scale[None, :], rtol=1e-12)
    with pytest.raises(SingularFrequencyError):
        eval_tf(np_model, 0.0)
    with pytest.raises(ValueError):
        n_p(jlf, 0.0)


def test_np_hermitian_part_decoupled_lossless(ieee9):
    # Exact algebra: N_p(jw) + N_p^H(jw) = diag(2 tau J11, J22 + J22^T);
    # the angle block melts away as tau -> 0.
    variant = derive_variant(ieee9, VariantFlags(lossless=True))
    op = solve_powerflow(variant)
    jlf = decouple(build_jlf_analytic(variant, op))
    for w in (0.5, 20.0, 800.0):
        for tau in (TAU, 1e-8):
            model = n_p(jlf, tau)
            h = eval_tf(model, 1j * w)
            herm = h + h.conj().T
            expected = np.zeros_like(herm)
            n = len(jlf.bus_ids)
            expected[:n, :n] = 2 * tau * jlf.d[:n, :n]
            expected[n:, n:] = jlf.d[n:, n:] + jlf.d[n:, n:].T
            assert np.allclose(herm, expected, atol=1e-10)
        small = eval_tf(n_p(jlf, 1e-8), 1j * w)
        herm_small = small + small.conj().T
        assert np.max(np.abs(herm_small[: len(jlf.bus_ids), : len(jlf.bus_ids)])) < 1e-6


def test_residue_at_origin(ieee9, ieee9_op):
    jlf = build_jlf_analytic(ieee9, ieee9_op)
    n = len(jlf.bus_ids)
    s_dp = origin_residue(n_p(jlf, TAU))
    assert np.array_equal(s_dp[:n, :n], jlf.d[:n, :n])
    assert np.array_equal(s_dp[n:, :n], jlf.d[n:, :n])
    assert np.linalg.norm(s_dp[:, n:]) == 0.0
    # Coupled network: the residue fails the Hermitian test.
    assert not check_residue_psd_hermitian(s_dp).passed
    # Lossy network: residue of N_df is J_LF, not symmetric.
    assert not check_residue_psd_hermitian(origin_residue(n_df(jlf, TAU))).passed


def test_residue_decoupled_tracks_j11(ieee9, ieee9_op):
    lossless = derive_variant(ieee9, VariantFlags(lossless=True))
    op = solve_powerflow(lossless)
    j_dec = decouple(build_jlf_analytic(lossless, op))
    s_dp = origin_residue(n_p(j_dec, TAU))
    assert check_residue_psd_hermitian(s_dp).passed  # J11 symmetric PSD

    lossy_dec = decouple(build_jlf_analytic(ieee9, ieee9_op))
    s_dp_lossy = origin_residue(n_p(lossy_dec, TAU))
    assert not check_residue_psd_hermitian(s_dp_lossy).passed  # J11 not symmetric


def test_realizations_on_random_case():
    rng = np.random.default_rng(33)
    case, op = random_solved_case(rng)
    ydq = assemble_ydq(case)
    j2 = build_j_of_s(ydq, op)
    assert abs(np.trace(j2.d + j2.d.T)) < 1e-10
    jlf = build_jlf_analytic(case, op).d
    got = eval_tf(j2, 0.0)
    assert np.linalg.norm(got - jlf) <= 1e-6 * np.linalg.norm(jlf)


def test_j_of_s_rejects_mismatched_bus_orders(ieee9_models, ieee9_op):
    ydq, _ = ieee9_models
    reordered = ydq.bus_ids[1:] + ydq.bus_ids[:1]
    with pytest.raises(ValueError, match="bus orders differ"):
        build_j_of_s(ydq, replace(ieee9_op, bus_ids=reordered))


def test_build_polar_model_rejects_unknown_name(ieee9_models):
    with pytest.raises(ValueError, match="no polar model 'V'; choose II, III or IV"):
        build_polar_model("V", ieee9_models[1], TAU)
