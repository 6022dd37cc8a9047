"""Passivity condition checks, dissipation simulation and classification."""

import importlib.util
import json
import math
import re
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    DissipationReport,
    Injection,
    NetworkCase,
    ParasiticConfig,
    PowerFlowError,
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
    build_polar_model,
    check_feedthrough,
    check_poles,
    check_residue_psd_hermitian,
    classify_model,
    decouple,
    derive_variant,
    eval_tf,
    export_matrices,
    hermitian_min_eig,
    random_multisine,
    simulate_dissipation,
    solve_powerflow,
    sweep_psd,
)
from dqpassivity import passcheck
from dqpassivity.passcheck import MODELS, VARIANT_COLUMNS
from conftest import random_case, random_solved_case, two_bus_case
from test_cli import DATA, _compare_tree

TAU = 0.01
BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def test_cluster_residue_sums_every_chained_member():
    # Eigenvalues 0, +/-jw, ..., +/-Kjw chain into one cluster (gaps w <= 1e-6)
    # that is wider than 1e-6 about its mean; each member's residue counts.
    # At K = 12 the outer members lie 1e-5 from the mean, outside the rank
    # cutoff of A - jwI, yet A is diagonalizable with kappa_1(V) = 2.
    w = 0.9e-6
    for k_max in (2, 12):
        n = 2 * k_max + 1
        a = np.zeros((n, n))
        for k in range(1, k_max + 1):
            a[2 * k - 1, 2 * k], a[2 * k, 2 * k - 1] = k * w, -k * w
        ss = StateSpace(
            a=a,
            b=np.eye(n),
            c=np.eye(n),
            d=np.zeros((n, n)),
            input_labels=tuple(f"u{i}" for i in range(n)),
            output_labels=tuple(f"y{i}" for i in range(n)),
            state_meta=tuple(StateMeta("integrator", 0.0, f"x{i}") for i in range(n)),
        )
        (pole,) = check_poles(ss).imaginary_axis
        assert pole.multiplicity == n
        assert pole.geometric_multiplicity == n
        assert pole.semisimple
        assert np.allclose(pole.residue, np.eye(n), atol=1e-12)


def test_structural_residues(ieee9, ieee9_op, ieee9_j2):
    jlf = build_jlf_analytic(ieee9, ieee9_op)
    j4 = build_jdf(ieee9_j2, TAU)
    rep = check_poles(j4)
    residue = next(p.residue for p in rep.imaginary_axis if abs(p.omega) < 1e-9)
    assert np.linalg.norm(residue.imag) < 1e-12
    assert np.linalg.norm(residue.real - jlf.d) <= 1e-6 * np.linalg.norm(jlf.d)

    j3 = build_jdp(ieee9_j2, TAU)
    s_dp = next(
        p.residue for p in check_poles(j3).imaginary_axis if abs(p.omega) < 1e-9
    ).real
    n = 9
    assert np.linalg.norm(s_dp[:, n:]) < 1e-12
    assert np.linalg.norm(s_dp[:n, :n] - jlf.d[:n, :n]) <= 1e-6 * np.linalg.norm(jlf.d[:n, :n])


def structural_residue_at_zero(ss, n_integrators):
    """Closed-form origin residue of A = [[Ax, Axz], [0, 0]], z the last states.

    With z the integrators driven directly by the inputs, the spectral
    projector onto the zero eigenspace gives (Cz - Cx Ax^-1 Axz) Bz.
    """
    k = ss.n_states - n_integrators
    axz = np.linalg.solve(ss.a[:k, :k], ss.a[:k, k:])
    return (ss.c[:, k:] - ss.c[:, :k] @ axz) @ ss.b[k:, :]


def projection_residue(ss, center):
    """Residue of the cluster at `center` from a fresh eig and inv of A."""
    eigvals, eigvecs = np.linalg.eig(ss.a)
    sel = np.abs(eigvals - center) <= 1e-6
    return ss.c @ eigvecs[:, sel] @ np.linalg.inv(eigvecs)[sel, :] @ ss.b


def _assert_residue(ss, omega, want):
    (got,) = [p.residue for p in check_poles(ss).imaginary_axis if abs(p.omega - omega) <= 1e-6]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("model, n_integrators", [("III", 9), ("IV", 18)])
def test_origin_residue_matches_structural_formula(ieee9, ieee9_op, ieee9_j2, model, n_integrators):
    lf = build_jlf_analytic(ieee9, ieee9_op)
    for base in (ieee9_j2, lf):
        ss = build_polar_model(model, base, TAU)
        _assert_residue(ss, 0.0, structural_residue_at_zero(ss, n_integrators))


def test_axis_residues_match_projection(ieee9):
    # The zero-resistance transformer branches put poles at +/- j omega0.
    ydq = assemble_ydq(ieee9)
    omegas = [p.omega for p in check_poles(ydq).imaginary_axis]
    assert omegas == pytest.approx([-ieee9.system.omega0, ieee9.system.omega0])
    for omega in omegas:
        _assert_residue(ydq, omega, projection_residue(ydq, 1j * omega))


def test_singular_eigenvectors_block_residues_not_evaluation(ieee9_j2, monkeypatch):
    # With V singular the modal factors carry no V^-1 B: eval_tf falls back
    # to the dense solve and a residue on the axis cannot be formed.
    ss = build_jdp(ieee9_j2, TAU)

    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "inv", singular)
        _, _, vib, kappa = ss.modes
    assert vib is None and kappa == math.inf
    s = 1j * 20.0
    dense = ss.c @ np.linalg.solve(s * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
    np.testing.assert_array_equal(eval_tf(ss, s), dense)
    with pytest.raises(np.linalg.LinAlgError):
        check_poles(ss)


def test_ieee9_realizations_use_modal_evaluation(ieee9):
    # kappa_1(V) far below the dense-fallback threshold for every model the
    # package builds on the nine-bus case, so the modal path is what runs.
    for _, flags in VARIANT_COLUMNS:
        variant = derive_variant(ieee9, flags)
        op = solve_powerflow(variant)
        ydq = assemble_ydq(variant)
        j = build_j_of_s(ydq, op)
        jlf = build_jlf_analytic(variant, op)
        models = [ydq] + [build_polar_model(m, j, TAU) for m in MODELS[1:]]
        for jl in (jlf, decouple(jlf)):
            for jr in (jl, apply_qv_contribution(jl, REG)):
                models += [build_polar_model(m, jr, TAU) for m in MODELS[1:]]
        for ss in models:
            assert ss.modes[3] <= 1e3


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
    assert sweep_psd(ydq, SweepGrid()).passed
    rep = sweep_psd(ieee9_j2, SweepGrid())
    assert not rep.passed
    assert rep.min_eig < -1e-3
    assert rep.worst_omega is not None


def _sequence_case(branches, buses=(Bus(id=1), Bus(id=2))):
    return NetworkCase(
        system=SystemParams(),
        buses=buses,
        branches=branches,
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )


W0 = SystemParams().omega0
# omega0 is the first point: frequency 0 of the negative sequence.
GRID_AT_W0 = SweepGrid(W0, 1e5, 10)
SEQUENCE_CASES = {
    "ieee9": lambda c: (c, None),
    "ieee9-lossless": lambda c: (derive_variant(c, VariantFlags(lossless=True)), None),
    "ieee9-lossless-grid-at-omega0": lambda c: (derive_variant(c, VariantFlags(lossless=True)), GRID_AT_W0),
    "ieee9-no-shunt-b": lambda c: (derive_variant(c, VariantFlags(no_shunt_b=True)), None),
    "random-0": lambda c: (random_solved_case(np.random.default_rng(0))[0], None),
    "random-1": lambda c: (random_solved_case(np.random.default_rng(1))[0], None),
    "random-2": lambda c: (random_solved_case(np.random.default_rng(2))[0], None),
    "random-0-grid-at-omega0": lambda c: (random_solved_case(np.random.default_rng(0))[0], GRID_AT_W0),
    "ratio": lambda c: (_sequence_case((Branch(1, 2, r=0.01, x=0.1, b_line=0.3, ratio=1.05),)), None),
    "static-branch-and-g-shunt": lambda c: (
        _sequence_case(
            (Branch(1, 2, r=0.02, x=0.1, b_line=0.2), Branch(2, 3, r=0.5, x=0.0, ratio=1.05)),
            (Bus(id=1), Bus(id=2, b_shunt=0.1), Bus(id=3, g_shunt=0.8)),
        ),
        None,
    ),
    "negative-resistance": lambda c: (negative_resistance_case(), None),
}


@pytest.mark.parametrize("name", SEQUENCE_CASES)
def test_sequence_sweep_matches_modal_sweep(ieee9, name):
    # The admittance of assemble_ydq sweeps in the sequence domain; a copy
    # without its element table takes the per-point modal route.
    case, grid = SEQUENCE_CASES[name](ieee9)
    ydq = assemble_ydq(case)
    modal_copy = replace(ydq)
    assert ydq._elements is not None and modal_copy._elements is None
    seq, modal = sweep_psd(ydq, grid), sweep_psd(modal_copy, grid)
    assert seq.n_points == modal.n_points
    assert [w for w, _ in seq.samples] == [w for w, _ in modal.samples]
    for (w, lam_seq), (_, lam_modal) in zip(seq.samples, modal.samples):
        g = eval_tf(ydq, 1j * w)
        scale = max(1.0, float(np.linalg.norm(g + g.conj().T, 2)))
        assert abs(lam_seq - lam_modal) <= 1e-9 * scale, w
    assert seq.passed == modal.passed == (name != "negative-resistance")
    if grid is not None:
        # omega0 is swept unless a lossless branch has its poles at +/- j omega0.
        assert (seq.samples[0][0] == W0) == all(br.r > 0 for br in case.branches)


def test_derived_models_carry_no_element_table(ieee9, ieee9_op):
    ydq = assemble_ydq(ieee9)
    j = build_j_of_s(ydq, ieee9_op)
    lowfreq_i = passcheck._realize(ieee9, VariantFlags(), "I", "lowfreq", TAU)[0]
    derived = (j, build_jdp(j, TAU), build_jdf(j, TAU), replace(ydq, d=2.0 * ydq.d), lowfreq_i)
    assert ydq._elements is not None
    assert all(ss._elements is None for ss in derived)
    assert export_matrices(ydq) == export_matrices(replace(ydq))


IDENTITY_CASES = {
    "ieee9": lambda c: c,
    "ratio": lambda c: SEQUENCE_CASES["ratio"](c)[0],
    "static-branch-and-g-shunt": lambda c: SEQUENCE_CASES["static-branch-and-g-shunt"](c)[0],
    "random-0": lambda c: random_case(np.random.default_rng(0)),
    "random-1": lambda c: random_case(np.random.default_rng(1)),
    "random-2": lambda c: random_case(np.random.default_rng(2)),
}


@pytest.mark.parametrize("name", IDENTITY_CASES)
def test_ydq_is_the_sequence_transform_of_the_element_table(ieee9, name):
    # Y_DQ(jw) = U diag(Y(j(w - w0)), Y(j(w + w0))) U^H entry by entry, so a
    # sign slip in any B or C block shows even where lambda_min does not move.
    ydq = assemble_ydq(IDENTITY_CASES[name](ieee9))
    eye = np.eye(len(ydq.bus_ids))
    u = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    zero = np.zeros_like(eye)
    for w in (10.0, 200.0, 1000.0, 5e4):
        y_neg, y_pos = ydq._elements.admittance(1j * np.array([w - W0, w + W0]))
        want = u @ np.block([[y_neg, zero], [zero, y_pos]]) @ u.conj().T
        got = eval_tf(ydq, 1j * w)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), w


def _synthcase():
    spec = importlib.util.spec_from_file_location("synthcase", BENCH / "synthcase.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sequence_sweep_passes_stiff_passive_mesh():
    # A passive R-L-C mesh with a stiff capacitor parasitic: the modal route
    # rounds the minimum to -1.1e-9 and fails the absolute tolerance.
    case = _synthcase().mesh_case(120, 1)
    rep = sweep_psd(assemble_ydq(case, ParasiticConfig(r_series_cap=1e-7)))
    assert rep.passed and rep.n_points == SweepGrid().points().size


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
    bad = SweepGrid(omega_min=1e-12, omega_max=1e-10, points_per_decade=1)
    # Grid points collide with the origin pole within eval tolerance.
    with pytest.raises(ValueError, match="omega"):
        sweep_psd(j3, bad)


def test_sweep_rejects_grid_emptied_by_pole_exclusion(ieee9, ieee9_op, ieee9_j2):
    lf3 = build_jdp(build_jlf_analytic(ieee9, ieee9_op), TAU)
    for ss in (build_jdp(ieee9_j2, TAU), lf3):
        with pytest.raises(ValueError, match="no point left"):
            sweep_psd(ss, SweepGrid(1e-8, 5e-7, 2))
    # One point left: an integrator-only model sweeps just that point.
    rep = sweep_psd(lf3, SweepGrid(1e-7, 1e-5, 1))
    assert rep.n_points == 1 and rep.worst_omega == pytest.approx(1e-5)


def test_sweep_grid_ends_exactly_where_asked(ieee9, ieee9_op):
    grid = SweepGrid(1e-7, 1e-5, 1)
    assert grid.points()[0] == 1e-7 and grid.points()[-1] == 1e-5
    lf3 = build_jdp(build_jlf_analytic(ieee9, ieee9_op), TAU)
    rep = sweep_psd(lf3, grid)
    assert rep.n_points == 1 and rep.worst_omega == 1e-5


@pytest.mark.parametrize(
    "bounds",
    [(1e-2, math.inf), (math.nan, 1e5), (1e-2, math.nan), (-math.inf, 1e5), (math.inf, math.inf)],
)
def test_sweep_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="omega_min.*omega_max"):
        SweepGrid(*bounds)


def full_grid_min_eig(ss):
    """Plain-numpy minimum of eig(G + G^H) over every default grid point."""
    lam = math.inf
    for w in SweepGrid().points():
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
    check_endpoint_sweep(v.cond2, build_polar_model(model, jlf, TAU))
    if v.regulated is not None:
        jr = apply_qv_contribution(jlf, REG)
        check_endpoint_sweep(v.regulated.sweep, build_polar_model(model, jr, TAU))


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
    check_endpoint_sweep(sweep_psd(ss, SweepGrid()), ss)


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
    from dqpassivity import decouple, derive_variant, solve_powerflow

    variant = derive_variant(ieee9, VariantFlags(lossless=True, no_shunt_b=True))
    op = solve_powerflow(variant)
    jlf = decouple(build_jlf_analytic(variant, op))
    (origin,) = check_poles(build_jdf(jlf, TAU)).imaginary_axis
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dissipation_reports_overflow_of_the_step_powers():
    # One RK4 step multiplies the state by about 4e30, so phi^s overflows
    # when the anchored recurrence forms it.
    ss = StateSpace(
        a=np.array([[1e7]]), b=np.ones((1, 1)), c=np.ones((1, 1)), d=np.zeros((1, 1)),
        input_labels=("u",), output_labels=("y",), state_meta=(StateMeta("inductor", 1.0, "i"),),
    )
    t_end = 200.0
    with pytest.raises(SimulationUnstableError, match="state overflow") as err:
        simulate_dissipation(ss, lambda t: np.zeros(1), t_end=t_end, dt=10.0, x0=np.ones(1))
    t_fail = float(re.search(r"t=([0-9.eE+-]+)s", str(err.value)).group(1))
    assert 0.0 < t_fail <= t_end


@pytest.mark.parametrize("network", ["ieee9_sim", "negative_resistance"])
def test_anchored_recurrence_matches_per_step_loop(ieee9_sim, network):
    if network == "ieee9_sim":
        ss, dt = ieee9_sim, 2e-5
    else:
        ss, dt = assemble_ydq(negative_resistance_case()), 1e-5
    phi = passcheck._rk4_step_map(ss, dt)[0]
    s = math.isqrt(passcheck._CHUNK_STEPS)
    powers = np.array([np.linalg.matrix_power(phi, j) for j in range(s + 1)])
    rng = np.random.default_rng(22)
    # 1030 steps end on a short chunk of 1030 % 128 = 6 steps; 100 ends on
    # a partial block after several anchors.
    for k in (1, s - 1, s, s + 1, passcheck._CHUNK_STEPS, 1030 % passcheck._CHUNK_STEPS, 100):
        x0 = rng.normal(size=ss.n_states)
        f = 0.01 * rng.normal(size=(k, ss.n_states))
        want = [x0]
        for fj in f:
            want.append(phi @ want[-1] + fj)
        want = np.array(want)
        got = passcheck._advance(powers, x0, f)
        assert got.shape == (k + 1, ss.n_states)
        # Relative to each state vector's largest entry.
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1)), k


def test_dissipation_step_guard_covers_imaginary_axis_poles(ieee9):
    # The lossless, shunt-free network has only +-j omega0 poles (real part
    # -0.0); RK4 at dt = 1e-2 amplifies them, and the run must say so.
    ss = assemble_ydq(derive_variant(ieee9, VariantFlags(lossless=True, no_shunt_b=True)))
    assert np.all(ss.poles.real == 0.0)
    u = random_multisine(np.random.default_rng(23), ss.n_inputs)
    with pytest.raises(SimulationUnstableError, match=r"reduce the step below 6\.631e-03 s"):
        simulate_dissipation(ss, u, t_end=0.2, dt=1e-2)


def test_dissipation_rejects_bad_x0_and_input_shape(ieee9_sim):
    with pytest.raises(ValueError, match="x0"):
        simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.01, dt=2e-5, x0=np.zeros(3))
    for bad in (lambda t: np.zeros(5), lambda t: np.zeros((3, 18))):
        with pytest.raises(ValueError, match="broadcast"):
            simulate_dissipation(ieee9_sim, bad, t_end=0.01, dt=2e-5)


def test_dissipation_rejects_non_finite_x0_and_input(ieee9_sim):
    # A NaN supplied by the caller is not an integration-step overflow.
    x0 = np.zeros(ieee9_sim.n_states)
    x0[3] = np.nan
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.01, dt=2e-5, x0=x0)
    with pytest.raises(ValueError, match=r"u is not finite at t=0s"):
        simulate_dissipation(ieee9_sim, lambda t: np.full(18, np.nan), t_end=0.01, dt=2e-5)
    # Goes non-finite in the second chunk of steps.
    def late(t):
        return np.where(np.asarray(t)[:, None] >= 0.004, np.inf, np.zeros(18))

    with pytest.raises(ValueError, match="u is not finite") as err:
        simulate_dissipation(ieee9_sim, late, t_end=0.01, dt=2e-5)
    t_fail = float(re.search(r"t=([0-9.eE+-]+)s", str(err.value)).group(1))
    assert abs(t_fail - 0.004) <= 1e-5


def test_dissipation_report_verdict_and_document(ieee9_sim):
    rng = np.random.default_rng(14)
    ss = assemble_ydq(negative_resistance_case())
    lossy = simulate_dissipation(ss, lambda t: np.zeros(4), t_end=0.05, dt=1e-5, x0=0.1 * rng.normal(size=ss.n_states))
    assert not lossy.passed
    rest = simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=0.01, dt=2e-5)
    assert rest.passed and rest.min_margin == 0.0
    assert rest.to_dict() == {
        "min_margin": 0.0, "t_at_min": rest.t_at_min, "supplied": 0.0,
        "stored_delta": 0.0, "n_steps": 500, "dt": 2e-5,
    }
    assert DissipationReport(**rest.to_dict()) == rest
    json.dumps(lossy.to_dict())


@pytest.mark.parametrize(
    "t_end, dt",
    [(0.1, -1e-5), (0.1, 0.0), (1e-6, 1e-5), (0.1, math.nan), (0.1, math.inf), (math.inf, 1e-5), (-0.1, 1e-5)],
    ids=["negative-dt", "zero-dt", "no-step", "nan-dt", "inf-dt", "inf-t_end", "negative-t_end"],
)
def test_dissipation_rejects_runs_without_steps(ieee9_sim, t_end, dt):
    with pytest.raises(ValueError, match=re.escape(f"dt={dt}, t_end={t_end}")):
        simulate_dissipation(ieee9_sim, lambda t: np.zeros(18), t_end=t_end, dt=dt)


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
    g = build_jlf_analytic(ieee9, ieee9_op).d.astype(complex)
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
        k = build_jlf_analytic(ieee9, ieee9_op).d
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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(model="V"), "unknown model 'V'"),
        (dict(model="II", analysis="dc"), "unknown analysis 'dc'"),
        (dict(model="I", analysis="lowfreq", regulation=REG), "needs no regulation"),
    ],
    ids=["unknown-model", "unknown-analysis", "regulated-model-i"],
)
def test_classify_rejects_bad_arguments(ieee9, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        classify_model(ieee9, **kwargs)


def test_sweep_grid_rejects_zero_points_per_decade():
    with pytest.raises(ValueError, match="points_per_decade"):
        SweepGrid(points_per_decade=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_sweep_grid_rejects_non_finite_points_per_decade(value):
    with pytest.raises(ValueError, match=f"points_per_decade must be finite.*{value}"):
        SweepGrid(points_per_decade=value)


@pytest.mark.parametrize("analysis", ["wideband", "lowfreq"])
def test_empty_regulation_set_is_no_regulation(ieee9, analysis):
    # Model I takes no regulation; an empty set is no regulation, not an error.
    cell = dict(model="I", analysis=analysis)
    empty = classify_model(ieee9, regulation=RegulationSet(()), **cell)
    assert empty.to_dict() == classify_model(ieee9, **cell).to_dict()


def test_verdict_carries_its_variant_flags(ieee9):
    flags = VariantFlags(lossless=True, no_shunt_b=True, decoupled=True)
    v = classify_model(ieee9, flags, model="III", analysis="lowfreq")
    assert v.variant is flags
    assert v.to_dict()["variant"] == {"lossless": True, "no_shunt_b": True, "decoupled": True}


def test_reports_write_no_document_of_their_own():
    # Every report's to_dict() is derived from its fields by one rule.
    reports = [c for c in vars(passcheck).values() if is_dataclass(c) and hasattr(c, "to_dict")]
    assert len(reports) >= 8
    for cls in reports:
        assert "to_dict" not in vars(cls), cls.__name__


@pytest.mark.parametrize("analysis", ["wideband", "lowfreq"])
def test_model_i_needs_no_operating_point(analysis):
    # The rectangular model is the network alone: a loading with no power-flow
    # solution still has a model-I verdict, while the polar models need one.
    case = two_bus_case(load_p=-100)
    assert classify_model(case, model="I", analysis=analysis).overall == "passive"
    with pytest.raises(PowerFlowError):
        classify_model(case, model="II", analysis=analysis)


def test_verdict_serializes(ieee9):
    v = classify_model(ieee9, model="II", analysis="lowfreq", regulation=REG)
    doc = json.dumps(v.to_dict())
    assert "passive-after-regulation" in doc


def ieee9_cells():
    """The 56 nine-bus verdict cells as (key, classify_model keyword arguments)."""
    for model in MODELS:
        yield f"{model}/wideband", dict(model=model, analysis="wideband")
    for name, flags in VARIANT_COLUMNS:
        yield f"I/lowfreq/{name}", dict(flags=flags, model="I", analysis="lowfreq")
    for model in MODELS[1:]:
        for name, flags in VARIANT_COLUMNS:
            for coupling, dec in (("coupled", False), ("decoupled", True)):
                for reg_name, reg in (("unregulated", None), ("regulated", REG)):
                    kwargs = dict(flags=replace(flags, decoupled=dec), model=model, analysis="lowfreq")
                    yield f"{model}/lowfreq/{name}/{coupling}/{reg_name}", dict(kwargs, regulation=reg)


def _drop_zero_minimum_locations(got, expected):
    """Remove worst_omega from both trees wherever the expected |min_eig| <= 1e-9."""
    if not isinstance(expected, dict):
        return
    min_eig = expected.get("min_eig")
    if "worst_omega" in expected and isinstance(min_eig, float) and abs(min_eig) <= 1e-9:
        got.pop("worst_omega")
        expected.pop("worst_omega")
    for key, value in expected.items():
        if isinstance(got, dict) and key in got:
            _drop_zero_minimum_locations(got[key], value)


def test_ieee9_verdict_documents(ieee9):
    """Every nine-bus cell's to_dict() against tests/data/verdicts_ieee9.json.

    The 56 cells are 4 wideband, 4 low-frequency I, and low-frequency II-IV
    in the 4 variant columns, coupled and decoupled, without and with the
    tables' regulation set (48). The file was written by the dense-resolvent
    implementation that preceded the modal one. Floats are compared with the
    golden-document tolerances (rel = abs = 1e-6), keys, verdicts, flags and
    counts exactly. One exception: a sweep whose minimum has |min_eig| <= 1e-9
    is numerically zero and has no defined location, so its worst_omega is
    not compared.
    """
    expected = json.loads((DATA / "verdicts_ieee9.json").read_text())
    got = {key: classify_model(ieee9, **kwargs).to_dict() for key, kwargs in ieee9_cells()}
    assert list(got) == list(expected)
    for key in expected:
        _drop_zero_minimum_locations(got[key], expected[key])
        _compare_tree(got[key], expected[key], key)


def _key_orders(tree, path=""):
    """(path, key list) of every dict level in a JSON tree."""
    if isinstance(tree, dict):
        yield path, list(tree)
        for key, value in tree.items():
            yield from _key_orders(value, f"{path}/{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _key_orders(value, f"{path}[{i}]")


def test_ieee9_verdict_documents_keep_key_order(ieee9):
    """Every dict level of the 56 documents lists its keys in the golden order."""
    expected = json.loads((DATA / "verdicts_ieee9.json").read_text())
    got = {key: classify_model(ieee9, **kwargs).to_dict() for key, kwargs in ieee9_cells()}
    assert list(_key_orders(got)) == list(_key_orders(expected))
