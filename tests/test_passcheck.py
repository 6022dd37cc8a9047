"""Passivity condition checks, dissipation simulation and classification."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    Injection,
    NetworkCase,
    ParasiticConfig,
    RegulationSet,
    SimulationUnstableError,
    StateMeta,
    StateSpace,
    SweepGrid,
    SystemParams,
    VariantFlags,
    apply_qv_contribution,
    assemble_ydq,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_jlf_analytic,
    build_lf_model,
    build_polar_model,
    check_feedthrough,
    check_poles,
    check_residue_psd_hermitian,
    classify_model,
    decouple,
    derive_variant,
    eval_tf,
    hermitian_min_eig,
    random_multisine,
    simulate_dissipation,
    solve_powerflow,
    sweep_psd,
)
from dqpassivity.passcheck import VARIANT_COLUMNS
from conftest import random_solved_case

TAU = 0.01


@pytest.fixture(scope="module")
def ieee9_j2(ieee9, ieee9_op):
    return build_j_of_s(assemble_ydq(ieee9), ieee9_op)


def negative_resistance_case():
    return NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=-0.05, x=0.1),),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )


# -- Hermitian minimum eigenvalue ---------------------------------------------


def test_hermitian_embedding_matches_direct():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = m + m.conj().T
        direct = np.linalg.eigvalsh(h)
        assert hermitian_min_eig(h) == pytest.approx(direct[0], rel=1e-12, abs=1e-12)


# -- Poles and residues --------------------------------------------------------


def test_poles_positive_r_random_case():
    rng = np.random.default_rng(8)
    case, _ = random_solved_case(rng)
    rep = check_poles(assemble_ydq(case))
    assert rep.passed
    assert rep.imaginary_axis == ()


def test_poles_ieee9_transformer_resonances(ieee9):
    # The zero-resistance step-up transformers put semisimple pole groups
    # at +/- omega0; their residues are PSD Hermitian.
    rep = check_poles(assemble_ydq(ieee9))
    assert rep.passed
    omegas = sorted(p.omega for p in rep.imaginary_axis)
    w0 = ieee9.system.omega0
    assert omegas == pytest.approx([-w0, w0])
    for p in rep.imaginary_axis:
        assert p.multiplicity == 3
        assert p.semisimple
        assert check_residue_psd_hermitian(p.residue, omega=p.omega).passed


def test_jdp_origin_poles(ieee9_j2):
    j3 = build_jdp(ieee9_j2, TAU)
    rep = check_poles(j3)
    at_zero = [p for p in rep.imaginary_axis if abs(p.omega) < 1e-9]
    assert len(at_zero) == 1
    assert at_zero[0].multiplicity == 9
    assert at_zero[0].semisimple


def test_double_integrator_defective():
    ss = StateSpace(
        a=np.array([[0.0, 1.0], [0.0, 0.0]]),
        b=np.array([[0.0], [1.0]]),
        c=np.array([[1.0, 0.0]]),
        d=np.zeros((1, 1)),
        input_labels=("u",),
        output_labels=("y",),
        state_meta=(StateMeta("integrator", 0.0, "x1"), StateMeta("integrator", 0.0, "x2")),
    )
    rep = check_poles(ss)
    pole = rep.imaginary_axis[0]
    assert pole.multiplicity == 2
    assert pole.geometric_multiplicity == 1
    assert not pole.semisimple
    assert pole.residue is None


def test_structural_residues(ieee9, ieee9_op, ieee9_j2):
    jlf = build_jlf_analytic(ieee9, ieee9_op)
    j4 = build_jdf(ieee9_j2, TAU)
    rep = check_poles(j4)
    residue = next(p.residue for p in rep.imaginary_axis if abs(p.omega) < 1e-9)
    assert np.linalg.norm(residue.imag) < 1e-12
    assert np.linalg.norm(residue.real - jlf.full()) <= 1e-6 * np.linalg.norm(jlf.full())

    j3 = build_jdp(ieee9_j2, TAU)
    s_dp = next(
        p.residue for p in check_poles(j3).imaginary_axis if abs(p.omega) < 1e-9
    ).real
    n = 9
    assert np.linalg.norm(s_dp[:, n:]) < 1e-12
    assert np.linalg.norm(s_dp[:n, :n] - jlf.j11) <= 1e-6 * np.linalg.norm(jlf.j11)


# -- Frequency sweep -----------------------------------------------------------


def test_sweep_resistor_network():
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1, g_shunt=0.8),),
        branches=(),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )
    ss = assemble_ydq(case)
    rep = sweep_psd(ss, SweepGrid(points_per_decade=3))
    assert rep.passed
    assert rep.min_eig == pytest.approx(2 * 0.8, rel=1e-12)
    feed = check_feedthrough(ss)
    assert feed.psd
    assert feed.min_eig == pytest.approx(2 * 0.8, rel=1e-12)


def test_sweep_ydq_passes_and_j_fails(ieee9, ieee9_j2):
    ydq = assemble_ydq(ieee9)
    poles = [p.omega for p in check_poles(ydq).imaginary_axis]
    assert sweep_psd(ydq, SweepGrid(), poles=poles).passed
    rep = sweep_psd(ieee9_j2, SweepGrid())
    assert not rep.passed
    assert rep.min_eig < -1e-3
    assert rep.worst_omega is not None


def test_sweep_conjugate_symmetry(ieee9_j2):
    for w in (0.1, 3.0, 55.0, 900.0, 2.4e4):
        plus = eval_tf(ieee9_j2, 1j * w)
        minus = eval_tf(ieee9_j2, -1j * w)
        lam_p = hermitian_min_eig(plus + plus.conj().T)
        lam_m = hermitian_min_eig(minus + minus.conj().T)
        assert lam_p == pytest.approx(lam_m, rel=1e-9, abs=1e-12)


def test_indefinite_feedthrough_forces_high_frequency_failure(ieee9_j2):
    # trace 0 with a nonzero matrix is indefinite, so the sweep must fail
    # once the response flattens onto the feedthrough.
    for ss in (ieee9_j2, build_jdf(ieee9_j2, TAU)):
        feed = check_feedthrough(ss)
        assert abs(feed.trace) < 1e-10
        assert not feed.psd
        h = eval_tf(ss, 1j * 1e5)
        assert hermitian_min_eig(h + h.conj().T) < -1e-6


def test_sweep_singularity_names_frequency(ieee9_j2):
    j3 = build_jdp(ieee9_j2, TAU)
    bad = SweepGrid(omega_min=1e-12, omega_max=1e-10, points_per_decade=1, pole_exclusion=0)
    # Grid points collide with the origin pole within eval tolerance.
    with pytest.raises(ValueError, match="omega"):
        sweep_psd(j3, bad)


def test_sweep_rejects_grid_emptied_by_pole_exclusion(ieee9, ieee9_op, ieee9_j2):
    lf3 = build_jdp(build_lf_model(build_jlf_analytic(ieee9, ieee9_op)), TAU)
    for ss in (build_jdp(ieee9_j2, TAU), lf3):
        with pytest.raises(ValueError, match="no point left"):
            sweep_psd(ss, SweepGrid(1e-8, 5e-7, 2), poles=[0.0])
    # One point left: an integrator-only model sweeps just that point.
    rep = sweep_psd(lf3, SweepGrid(1e-7, 1e-5, 1), poles=[0.0])
    assert rep.n_points == 1 and rep.worst_omega == pytest.approx(1e-5)


def full_grid_min_eig(ss):
    """Plain-numpy minimum of eig(G + G^H) over every default grid point."""
    lam = math.inf
    for w in SweepGrid().points(exclude=[0.0]):
        g = ss.c @ np.linalg.solve(1j * w * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
        lam = min(lam, float(np.linalg.eigvalsh(g + g.conj().T)[0]))
    return lam


def check_endpoint_sweep(rep, ss):
    assert rep.n_points == 2 and len(rep.samples) == 2
    assert [w for w, _ in rep.samples] == pytest.approx([1e-2, 1e5])
    want = full_grid_min_eig(ss)
    assert abs(rep.min_eig - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("model", ["III", "IV"])
@pytest.mark.parametrize("column", [name for name, _ in VARIANT_COLUMNS])
@pytest.mark.parametrize("decoupled", [False, True])
def test_integrator_only_sweep_endpoints_give_grid_minimum(ieee9, model, column, decoupled):
    # A = 0: lambda_min(G + G^H) is concave in 1/omega, so the two end
    # points of the grid carry the minimum over the whole grid.
    flags = replace(dict(VARIANT_COLUMNS)[column], decoupled=decoupled)
    variant = derive_variant(ieee9, flags)
    jlf = build_jlf_analytic(variant, solve_powerflow(variant))
    jlf = decouple(jlf) if decoupled else jlf
    v = classify_model(ieee9, flags, model, "lowfreq", TAU, regulation=REG)
    check_endpoint_sweep(v.cond2, build_polar_model(model, build_lf_model(jlf), TAU))
    if v.regulated is not None:
        jr = apply_qv_contribution(jlf, REG)
        check_endpoint_sweep(v.regulated.sweep, build_polar_model(model, build_lf_model(jr), TAU))


def test_integrator_only_sweep_endpoints_random_model():
    rng = np.random.default_rng(8)
    m, k = 6, 4
    ss = StateSpace(
        a=np.zeros((k, k)),
        b=rng.normal(size=(k, m)),
        c=rng.normal(size=(m, k)),
        d=rng.normal(size=(m, m)) + 3.0 * np.eye(m),
        input_labels=tuple(f"u{i}" for i in range(m)),
        output_labels=tuple(f"y{i}" for i in range(m)),
        state_meta=tuple(StateMeta("integrator", 0.0, f"int:{i}") for i in range(k)),
    )
    check_endpoint_sweep(sweep_psd(ss, SweepGrid(), poles=[0.0]), ss)


# -- Feedthrough and residue predicates ---------------------------------------


def test_feedthrough_reports(ieee9, ieee9_op, ieee9_j2):
    rep = check_feedthrough(ieee9_j2)
    assert rep.trace == pytest.approx(0.0, abs=1e-10)
    assert rep.min_eig < 0
    j3 = build_jdp(ieee9_j2, TAU)
    rep3 = check_feedthrough(j3, op=ieee9_op)
    assert rep3.cross_per_bus == pytest.approx(tuple(-ieee9_op.q), abs=1e-12)
    assert min(rep3.diagonal) < 0
    ydq = assemble_ydq(ieee9)
    assert check_feedthrough(ydq).psd


def test_residue_check_identity_and_tolerances():
    assert check_residue_psd_hermitian(np.eye(4)).passed
    skew = np.eye(3)
    skew[0, 1] = 1e-3
    assert not check_residue_psd_hermitian(skew).passed
    neg = np.diag([1.0, -1e-6])
    rep = check_residue_psd_hermitian(neg)
    assert not rep.passed
    assert rep.min_eig == pytest.approx(-1e-6)


def test_residue_lossless_nob_decoupled_jlf_passes(ieee9):
    # The derivative model's origin residue for the fully simplified
    # network is the decoupled lossless no-B Jacobian: PSD Hermitian.
    from dqpassivity import build_lf_model, decouple, derive_variant, solve_powerflow

    variant = derive_variant(ieee9, VariantFlags(lossless=True, no_shunt_b=True))
    op = solve_powerflow(variant)
    jlf = decouple(build_jlf_analytic(variant, op))
    (origin,) = check_poles(build_jdf(build_lf_model(jlf), TAU)).imaginary_axis
    assert origin.omega == 0.0
    assert check_residue_psd_hermitian(origin.residue).passed


# -- Dissipation simulation ----------------------------------------------------


@pytest.fixture(scope="module")
def ieee9_sim(ieee9):
    # Softer parasitic keeps the capacitor poles inside the fixed-step
    # stability region at dt = 2e-5.
    return assemble_ydq(ieee9, ParasiticConfig(r_series_cap=0.05))


def test_dissipation_zero_input(ieee9_sim):
    rng = np.random.default_rng(9)
    x0 = 0.5 * rng.normal(size=ieee9_sim.n_states)
    rep = simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.05, dt=2e-5, x0=x0)
    # With u = 0 the margin is -(S - S0) >= 0: energy only dissipates.
    assert rep.min_margin >= -1e-12
    assert rep.supplied == 0.0


def test_dissipation_multisine_and_step_oracle(ieee9_sim):
    rng = np.random.default_rng(10)
    u = random_multisine(rng, ieee9_sim.n_inputs)
    rep = simulate_dissipation(ieee9_sim, u, t_end=0.1, dt=2e-5)
    assert rep.min_margin >= -1e-6
    half = simulate_dissipation(ieee9_sim, u, t_end=0.1, dt=1e-5)
    assert half.min_margin >= -1e-6
    assert rep.supplied == pytest.approx(half.supplied, abs=1e-7)


def test_dissipation_detects_negative_resistance():
    ss = assemble_ydq(negative_resistance_case())
    rng = np.random.default_rng(14)
    x0 = 0.1 * rng.normal(size=ss.n_states)
    rep = simulate_dissipation(ss, lambda t: np.zeros(4), t_end=0.05, dt=1e-5, x0=x0)
    assert rep.min_margin < -1e-6


def test_dissipation_step_guard(ieee9_sim):
    with pytest.raises(SimulationUnstableError, match="reduce"):
        simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.01, dt=5e-4)


def test_dissipation_requires_physical_meta(ieee9_j2):
    j3 = build_jdp(ieee9_j2, TAU)
    with pytest.raises(ValueError, match="physical"):
        simulate_dissipation(j3, lambda t: np.zeros(18), t_end=0.01, dt=1e-5)


def per_step_rk4_dissipation(ss, u, t_end, dt, x0):
    """Reference: explicit RK4 per step, inputs and supply evaluated stage by stage."""
    a, b, c, d = ss.a, ss.b, ss.c, ss.d
    storage = np.array([m.storage for m in ss.state_meta])
    x = np.asarray(x0, dtype=float).copy()

    def output(xv, uv):
        return c @ xv + d @ uv

    def energy(xv):
        return 0.5 * float(np.dot(storage, xv * xv))

    e0 = energy(x)
    supplied = 0.0
    min_margin = np.inf
    t_at_min = 0.0
    t = 0.0
    for _ in range(int(round(t_end / dt))):
        u1 = u(t)
        u2 = u(t + 0.5 * dt)
        u3 = u(t + dt)
        k1x = a @ x + b @ u1
        k1w = float(u1 @ output(x, u1))
        x2 = x + 0.5 * dt * k1x
        k2x = a @ x2 + b @ u2
        k2w = float(u2 @ output(x2, u2))
        x3 = x + 0.5 * dt * k2x
        k3x = a @ x3 + b @ u2
        k3w = float(u2 @ output(x3, u2))
        x4 = x + dt * k3x
        k4x = a @ x4 + b @ u3
        k4w = float(u3 @ output(x4, u3))
        x = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        supplied += dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        t += dt
        margin = supplied - (energy(x) - e0)
        if margin < min_margin:
            min_margin = margin
            t_at_min = t
    return min_margin, t_at_min, supplied, energy(x) - e0


@pytest.mark.parametrize("network", ["ieee9_sim", "negative_resistance"])
def test_dissipation_matches_per_step_rk4_reference(ieee9_sim, network):
    ss = ieee9_sim if network == "ieee9_sim" else assemble_ydq(negative_resistance_case())
    rng = np.random.default_rng(21)
    u = random_multisine(rng, ss.n_inputs)
    x0 = 0.2 * rng.normal(size=ss.n_states)
    # 1030 steps: not a whole number of integrator chunks.
    t_end, dt = 0.0206, 2e-5
    rep = simulate_dissipation(ss, u, t_end=t_end, dt=dt, x0=x0)
    min_margin, t_at_min, supplied, stored_delta = per_step_rk4_dissipation(ss, u, t_end, dt, x0)
    assert rep.n_steps == 1030
    assert rep.t_at_min == t_at_min
    for got, want in (
        (rep.min_margin, min_margin),
        (rep.supplied, supplied),
        (rep.stored_delta, stored_delta),
    ):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dissipation_reports_state_overflow():
    case = negative_resistance_case()
    case = replace(case, branches=(replace(case.branches[0], r=-50.0),))
    ss = assemble_ydq(case)
    x0 = 0.1 * np.random.default_rng(15).normal(size=ss.n_states)
    t_end = 0.01
    with pytest.raises(SimulationUnstableError, match="state overflow") as err:
        simulate_dissipation(ss, lambda t: np.zeros(4), t_end=t_end, dt=1e-5, x0=x0)
    t_fail = float(re.search(r"t=([0-9.eE+-]+)s", str(err.value)).group(1))
    assert 0.0 < t_fail <= t_end


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dissipation_reports_energy_overflow_before_state_overflow():
    # On this horizon the states stay finite but their stored energy
    # overflows; that must not come back as min_margin = -inf.
    case = negative_resistance_case()
    case = replace(case, branches=(replace(case.branches[0], r=-50.0),))
    ss = assemble_ydq(case)
    x0 = 0.1 * np.random.default_rng(15).normal(size=ss.n_states)
    with pytest.raises(SimulationUnstableError, match="state overflow"):
        simulate_dissipation(ss, lambda t: np.zeros(4), t_end=0.003, dt=1e-5, x0=x0)


def test_dissipation_rejects_bad_x0_and_input_shape(ieee9_sim):
    with pytest.raises(ValueError, match="x0"):
        simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.01, dt=2e-5, x0=np.zeros(3))
    for bad in (lambda t: np.zeros(5), lambda t: np.zeros((3, 18))):
        with pytest.raises(ValueError, match="broadcast"):
            simulate_dissipation(ieee9_sim, bad, t_end=0.01, dt=2e-5)


def test_multisine_vectorized_over_times():
    u = random_multisine(np.random.default_rng(4), 6)
    ts = np.linspace(0.0, 0.05, 37)
    assert u(0.3).shape == (6,)
    batch = u(ts)
    assert batch.shape == (37, 6)
    assert np.max(np.abs(batch - np.stack([u(t) for t in ts]))) <= 1e-15


# -- Classification ------------------------------------------------------------


REG = RegulationSet.uniform((1, 2, 3, 5, 6, 8), 0.65)


def test_classify_model_i_wideband(ieee9):
    v = classify_model(ieee9, model="I", analysis="wideband")
    assert v.overall == "passive"
    assert v.cond1.passed and v.cond2.passed and v.feedthrough.psd
    assert all(r.passed for r in v.cond3)


def test_classify_model_ii_lowfreq_regulation_flip(ieee9):
    base = classify_model(ieee9, model="II", analysis="lowfreq")
    assert base.overall == "non-passive"
    assert base.cond2.min_eig == pytest.approx(-0.84, abs=0.05)
    reg = classify_model(ieee9, model="II", analysis="lowfreq", regulation=REG)
    assert reg.overall == "passive-after-regulation"
    assert reg.regulated.flipped
    assert reg.regulated.min_eig_excluding_structural >= -1e-9


def test_classify_model_iii_coupled_unfixable(ieee9):
    v = classify_model(ieee9, model="III", analysis="lowfreq", regulation=REG)
    assert v.overall == "non-passive"
    assert v.regulated is not None and not v.regulated.flipped
    assert not v.cond3[0].passed  # residue not Hermitian


@pytest.mark.parametrize("model, n_integrators", [("III", 9), ("IV", 18)])
def test_classify_lowfreq_filtered_models_full_pipeline(ieee9, ieee9_op, model, n_integrators):
    # Low-frequency III/IV are J_LF behind (1 + s tau)/s filters: the same
    # pole, sweep, residue and feedthrough checks as a wideband model.
    v = classify_model(ieee9, model=model, analysis="lowfreq")
    (origin,) = v.cond1.imaginary_axis
    assert v.cond1.passed and origin.omega == 0.0 and origin.semisimple
    assert origin.multiplicity == n_integrators
    assert v.feedthrough is not None
    w = v.cond2.worst_omega
    gain = (1.0 + 1j * w * TAU) / (1j * w)
    g = build_jlf_analytic(ieee9, ieee9_op).full().astype(complex)
    g[:, :n_integrators] *= gain
    lam = np.linalg.eigvalsh(g + g.conj().T)
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert abs(v.cond2.min_eig - lam[0]) <= 1e-9 * scale


@pytest.mark.parametrize("model", ["I", "II"])
def test_classify_lowfreq_static_models_zero_state_pipeline(ieee9, ieee9_op, model):
    # Low-frequency I and II are zero-state models with D = Y_DQ(0) or J_LF:
    # no pole check, one static sweep point and a matching feedthrough block.
    v = classify_model(ieee9, model=model, analysis="lowfreq")
    assert v.cond1 is None
    assert v.cond2.n_points == 1 and v.cond2.worst_omega is None
    assert v.feedthrough.min_eig == v.cond2.min_eig
    if model == "I":
        k = eval_tf(assemble_ydq(ieee9), 0.0)
    else:
        k = build_jlf_analytic(ieee9, ieee9_op).full()
    assert v.cond2.min_eig == pytest.approx(np.linalg.eigvalsh(k + k.T)[0], abs=1e-12)


def test_classify_wideband_certificates(ieee9):
    for model in ("II", "III", "IV"):
        v = classify_model(ieee9, model=model, analysis="wideband")
        assert v.overall == "non-passive"
        assert not v.feedthrough.psd


def test_classify_invalid_combinations(ieee9):
    with pytest.raises(ValueError):
        classify_model(ieee9, VariantFlags(decoupled=True), model="II", analysis="wideband")
    with pytest.raises(ValueError):
        classify_model(ieee9, VariantFlags(decoupled=True), model="I", analysis="lowfreq")
    with pytest.raises(ValueError):
        classify_model(ieee9, model="II", analysis="wideband", regulation=REG)


def test_verdict_serializes(ieee9):
    v = classify_model(ieee9, model="II", analysis="lowfreq", regulation=REG)
    doc = json.dumps(v.to_dict())
    assert "passive-after-regulation" in doc
