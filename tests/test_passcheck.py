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
    CaseValidationError,
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
    classify_grid,
    classify_model,
    decouple,
    derive_variant,
    eval_tf,
    export_matrices,
    hermitian_min_eig,
    min_uniform_kqv,
    random_multisine,
    simulate_dissipation,
    solve_powerflow,
    sweep_psd,
    sweep_samples,
)
from dqpassivity import dqstamp, passcheck
from dqpassivity.dqstamp import _Network
from dqpassivity.passcheck import MODELS, VARIANT_COLUMNS
from dqpassivity.reference import EXPECTED_GRID
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
    # One matrix gives a float; a stack (..., m, m) gives each matrix's
    # minimum bit for bit, in the stack's shape.
    rng = np.random.default_rng(7)
    m = rng.normal(size=(2, 5, 6, 6)) + 1j * rng.normal(size=(2, 5, 6, 6))
    h = m + m.conj().swapaxes(-1, -2)
    lams = hermitian_min_eig(h)
    assert lams.shape == (2, 5)
    for row, lam_row in zip(h, lams):
        for x, lam in zip(row, lam_row):
            single = hermitian_min_eig(x)
            assert type(single) is float and single == lam
            assert single == pytest.approx(np.linalg.eigvalsh(x)[0], rel=1e-12, abs=1e-12)
    real = h.real[0]
    assert hermitian_min_eig(real).tolist() == [hermitian_min_eig(x) for x in real]


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
    # A defective cluster has no residue and fails condition 3 outright.
    _, _, residues, _, ok = passcheck._state_space_checks(ss, None, None)
    failed = passcheck.ResidueReport(passed=False, hermitian_deviation=math.inf, min_eig=-math.inf, omega=0.0)
    assert residues == (failed,)
    assert ok is False


def test_cluster_rank_test_follows_the_eval_tf_kappa_bound(ieee9, monkeypatch):
    # Above dqstamp._MODAL_KAPPA_MAX, eval_tf leaves the modal factors and
    # check_poles looks for a defect by the rank of A - jwI, with the same bound.
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    want = check_poles(replace(assemble_ydq(ieee9)))
    assert calls == []
    monkeypatch.setattr(dqstamp, "_MODAL_KAPPA_MAX", -1.0)
    got = check_poles(replace(assemble_ydq(ieee9)))
    assert len(calls) == len(got.imaginary_axis) == 2
    for g, w in zip(got.imaginary_axis, want.imaginary_axis):
        assert (g.omega, g.multiplicity, g.geometric_multiplicity) == (w.omega, 3, 3)
        assert g.semisimple and abs(abs(g.omega) - 376.99) < 0.01
        np.testing.assert_array_equal(g.residue, w.residue)


def test_variant_must_match_its_flags(ieee9):
    lossless = passcheck._Variant(ieee9, VariantFlags(lossless=True))
    with pytest.raises(ValueError, match="built for"):
        classify_model(lossless, VariantFlags(decoupled=True), "III", "lowfreq", TAU, REG)
    with pytest.raises(ValueError, match="lossy_b"):
        classify_grid(lossless, TAU, REG)
    # The decoupled flag acts on the cell alone, so any setting of it matches.
    v = classify_model(lossless, VariantFlags(lossless=True, decoupled=True), "III", "lowfreq", TAU, REG)
    assert v.overall == EXPECTED_GRID["III"]["lossless_b/decoupled"]


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
    # to the dense solve and a residue on the axis cannot be formed. The
    # model with its network record never needs V^-1 to be evaluated.
    built = build_jdp(ieee9_j2, TAU)
    ss = replace(built)

    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "inv", singular)
        _, _, vib, kappa = ss.modes
        s = 1j * 20.0
        got = eval_tf(built, s)
    assert vib is None and kappa == math.inf and "modes" not in vars(built)
    dense = ss.c @ np.linalg.solve(s * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
    np.testing.assert_array_equal(eval_tf(ss, s), dense)
    assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()
    with pytest.raises(np.linalg.LinAlgError):
        check_poles(ss)


def test_ieee9_realizations_use_modal_evaluation(ieee9):
    # kappa_1(V) far below the dense-fallback threshold for every model the
    # package builds on the nine-bus case. Low-frequency III/IV evaluate on
    # the modal path; the wideband rows check that the modal reference, used
    # by the record-route tests and by `replace` copies, is well-conditioned.
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


def _mesh(seed):
    return lambda c: (_synthcase().mesh_case(40, seed), None)


ROUTE_CASES = {**SEQUENCE_CASES, **{f"mesh-40-{seed}": _mesh(seed) for seed in range(4)}}
# Model I keeps the bare case name as its id; II-IV add the model.
ROUTE_ROWS = [pytest.param(name, "I", id=name) for name in SEQUENCE_CASES] + [
    pytest.param(name, model, id=f"{name}-{model}") for name in ROUTE_CASES for model in MODELS[1:]
]


@pytest.mark.parametrize("name, model", ROUTE_ROWS)
def test_sequence_sweep_matches_modal_sweep(ieee9, name, model):
    # The models the package builds sweep from their element table: model I
    # in the sequence domain, II-IV through the network route of eval_tf. A
    # copy carries no table and takes the modal route.
    case, grid = ROUTE_CASES[name](ieee9)
    ss = assemble_ydq(case)
    if model != "I":
        ss = build_polar_model(model, build_j_of_s(ss, solve_powerflow(case)), TAU)
    modal_copy = replace(ss)
    assert ss._network is not None and modal_copy._network is None
    seq, modal = sweep_psd(ss, grid), sweep_psd(modal_copy, grid)
    seq_samples, modal_samples = sweep_samples(ss, grid), sweep_samples(modal_copy, grid)
    assert seq.n_points == modal.n_points
    assert [w for w, _ in seq_samples] == [w for w, _ in modal_samples]
    g = eval_tf(modal_copy, 1j * np.array([w for w, _ in modal_samples]))
    # ||H||_F / sqrt(m) <= ||H||_2 for H = G + G^H, so this is no looser.
    scales = np.linalg.norm(g + g.conj().swapaxes(-1, -2), axis=(-2, -1)) / math.sqrt(g.shape[-1])
    for (w, lam_seq), (_, lam_modal), scale in zip(seq_samples, modal_samples, scales):
        assert abs(lam_seq - lam_modal) <= 1e-9 * max(1.0, scale), w
    assert seq.passed == modal.passed == (model == "I" and name != "negative-resistance")
    if grid is not None:
        # omega0 is swept unless a lossless branch has its poles at +/- j omega0.
        assert (seq_samples[0][0] == W0) == all(br.r > 0 for br in case.branches)


@pytest.mark.parametrize(
    "name, model", ROUTE_ROWS + [pytest.param(f"mesh-40-{seed}", "I", id=f"mesh-40-{seed}") for seed in range(4)]
)
def test_record_poles_and_residues_match_modal(ieee9, name, model):
    # A package-built model reads its poles and imaginary-axis residues in
    # closed form from its network record; a copy eigendecomposes A.
    case, _ = ROUTE_CASES[name](ieee9)
    ss = assemble_ydq(case)
    if model != "I":
        ss = build_polar_model(model, build_j_of_s(ss, solve_powerflow(case)), TAU)
    modal_copy = replace(ss)
    got, want = check_poles(ss), check_poles(modal_copy)
    assert "modes" not in vars(ss)
    left = list(modal_copy.poles)
    tol = 1e-9 * np.abs(modal_copy.poles).max()
    for p in ss.poles:
        k = int(np.argmin(np.abs(np.array(left) - p)))
        assert abs(left.pop(k) - p) <= tol, p
    assert got.unstable == want.unstable
    assert len(got.imaginary_axis) == len(want.imaginary_axis)
    for g, w in zip(got.imaginary_axis, want.imaginary_axis):
        keys = ("omega", "multiplicity", "geometric_multiplicity", "semisimple")
        assert [getattr(g, k) for k in keys] == [getattr(w, k) for k in keys]
        assert np.linalg.norm(g.residue - w.residue) <= 1e-12 * np.linalg.norm(w.residue), g.omega


@pytest.mark.parametrize("case_name", ["ieee9", "mesh-40-0"])
def test_wideband_verdicts_need_no_eigendecomposition(ieee9, monkeypatch, case_name):
    case = ieee9 if case_name == "ieee9" else _synthcase().mesh_case(40, 0)

    def refuse(*_):
        raise AssertionError("eigendecomposition on the package's own path")

    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    got = [classify_model(case, model=m, analysis="wideband", tau=TAU).overall for m in MODELS]
    assert got == [EXPECTED_GRID[m]["wideband"] for m in MODELS] == ["passive"] + ["non-passive"] * 3
    if case_name == "ieee9":
        # Low-frequency III/IV have A = 0, whose modes need no eigendecomposition either.
        assert classify_grid(case, TAU, REG) == EXPECTED_GRID


def test_builders_carry_the_network_record(ieee9, ieee9_op):
    # assemble_ydq and the polar builders carry the record; any replace copy,
    # the zero-state low-frequency model I and J_LF behind its filters do not.
    ydq = assemble_ydq(ieee9)
    j = build_j_of_s(ydq, ieee9_op)
    built = (ydq, j, build_jdp(j, TAU), build_jdf(j, TAU))
    assert all(ss._network is not None for ss in built)
    assert [ss._network.filtered for ss in built] == [0, 0, ieee9.n_bus, 2 * ieee9.n_bus]
    assert ydq._network.v is None and j._network.v is not None
    jlf = build_jlf_analytic(ieee9, ieee9_op)
    lowfreq = (
        passcheck._Variant(ieee9, VariantFlags()).realize("I", "lowfreq", False, TAU),
        *(build_polar_model(model, jlf, TAU) for model in MODELS[1:]),
    )
    copies = (replace(ydq, d=2.0 * ydq.d), *(replace(ss) for ss in built))
    assert all(ss._network is None for ss in lowfreq + copies)
    assert export_matrices(ydq) == export_matrices(replace(ydq))


def test_record_copies_share_the_element_caches(ieee9, ieee9_op):
    # The polar builders' records share the scatter pattern and the element
    # poles of the Y_DQ record: one computation per assemble_ydq.
    ydq = assemble_ydq(ieee9)
    j = build_j_of_s(ydq, ieee9_op)
    for ss in (j, build_jdp(j, TAU), build_jdf(j, TAU)):
        for table in ("_scatter", "_kinds", "_rows", "_dynamic"):
            assert getattr(ss._network, table) is getattr(ydq._network, table), table


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
    # The copy takes the modal route, so the realization itself is compared.
    ydq = assemble_ydq(IDENTITY_CASES[name](ieee9))
    eye = np.eye(len(ydq.bus_ids))
    u = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    zero = np.zeros_like(eye)
    for w in (10.0, 200.0, 1000.0, 5e4):
        y_neg, y_pos = ydq._network.admittance(1j * np.array([w - W0, w + W0]))
        want = u @ np.block([[y_neg, zero], [zero, y_pos]]) @ u.conj().T
        got = eval_tf(replace(ydq), 1j * w)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), w


# The network record's scattered sequence blocks against the dense product
# K diag(y_e) K^T: bare for model I, rotated by the bus voltages for J(s).
RECORD_CASES = {
    "ieee9": lambda c: c,
    "ratio": IDENTITY_CASES["ratio"],
    "static-branch-and-g-shunt": IDENTITY_CASES["static-branch-and-g-shunt"],
    "mesh-40-0": lambda c: _synthcase().mesh_case(40, 0),
}


@pytest.mark.parametrize("name", RECORD_CASES)
def test_sequence_blocks_equal_the_dense_admittance(ieee9, name):
    case = RECORD_CASES[name](ieee9)
    ydq = assemble_ydq(case)
    polar = build_j_of_s(ydq, solve_powerflow(case))._network
    rotation = -1j * np.outer(polar.v.conj(), polar.v)
    s = 1j * np.array([0.5, 10.0, 200.0, 1e3, 5e4])
    for net, rot in ((ydq._network, np.ones_like(rotation)), (polar, rotation)):
        w0 = net.omega0
        want = np.stack([net.admittance(s - 1j * w0) * rot, net.admittance(s + 1j * w0) * rot.conj()])
        err = np.abs(net.sequence_blocks(s) - want).max(axis=(-2, -1))
        assert (err <= 1e-12 * np.abs(want).max(axis=(-2, -1))).all(), name


@pytest.mark.parametrize("analysis", ["lowfreq", "wideband"])
def test_empty_case_is_rejected_before_the_sweep(analysis):
    # Unchecked, it would be a 0-port model with no eigenvalue for the sweep to take.
    empty = NetworkCase(SystemParams(), (), (), ())
    with pytest.raises(CaseValidationError, match="case has no buses"):
        classify_model(empty, model="I", analysis=analysis)


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


def assert_sweep_is_full_minimum(rep, ss, grid=None):
    # The sweep reports np.argmin over every point's eigensolve.
    samples = sweep_samples(ss, grid)
    if not samples:
        assert rep.worst_omega is None and rep.n_points == 1
        return
    lams = [lam for _, lam in samples]
    k = int(np.argmin(lams))
    assert (rep.min_eig, rep.worst_omega, rep.n_points) == (lams[k], samples[k][0], len(samples))


def _grid_cells():
    """The (flags, model, analysis) cells of `classify_grid`."""
    for model in MODELS:
        yield VariantFlags(), model, "wideband"
        for _, flags in VARIANT_COLUMNS:
            for decoupled in (False,) if model == "I" else (False, True):
                yield replace(flags, decoupled=decoupled), model, "lowfreq"


@pytest.mark.parametrize("regulated", [False, True])
def test_screened_sweep_equals_full_sweep_on_ieee9_grid(ieee9, regulated):
    regulated_sweeps = 0
    for flags, model, analysis in _grid_cells():
        reg = REG if regulated and analysis == "lowfreq" and model != "I" else None
        v = classify_model(ieee9, flags, model, analysis, TAU, reg)
        work = passcheck._Variant(ieee9, flags)
        ss = work.realize(model, analysis, flags.decoupled, TAU)
        assert_sweep_is_full_minimum(v.cond2, ss)
        if v.regulated is not None and v.regulated.sweep is not None:
            jlf = apply_qv_contribution(work.realize("II", "lowfreq", flags.decoupled, TAU), reg)
            assert_sweep_is_full_minimum(v.regulated.sweep, build_polar_model(model, jlf, TAU))
            regulated_sweeps += 1
    assert (regulated_sweeps > 0) == regulated


@pytest.mark.parametrize("seed", range(4))
def test_screened_sweep_equals_full_sweep_on_mesh(seed):
    case = _synthcase().mesh_case(40, seed)
    j = build_j_of_s(assemble_ydq(case), solve_powerflow(case))
    for model in ("II", "III", "IV"):
        ss = build_polar_model(model, j, TAU)
        assert_sweep_is_full_minimum(sweep_psd(ss), ss)


def test_screened_sweep_equals_full_sweep_at_large_scale(ieee9):
    # The stiff capacitor parasitic puts ||D|| near 1e7. A copy carries no
    # record, so every point is eigensolved, whatever the scale.
    ss = replace(assemble_ydq(ieee9, ParasiticConfig(r_series_cap=1e-7)))
    assert np.linalg.norm(ss.d) > 1e6
    assert_sweep_is_full_minimum(sweep_psd(ss), ss)


def _user_model(a, b, c, d):
    m, k = d.shape[0], a.shape[0]
    return StateSpace(
        a=a, b=b, c=c, d=d,
        input_labels=tuple(f"u{i}" for i in range(m)),
        output_labels=tuple(f"y{i}" for i in range(m)),
        state_meta=tuple(StateMeta("integrator", 0.0, f"x{i}") for i in range(k)),
    )


def test_sweep_rejects_a_complex_model():
    # G(s) = j/(s + 1 + 10j) has G + G^H = -1 at omega = -11, which a sweep
    # over omega >= 0 never sees: only a real model has G^T(-jw) = G^H(jw).
    with pytest.raises(ValueError, match="A must be real"):
        sweep_psd(_user_model(np.array([[-1.0 - 10.0j]]), np.ones((1, 1)), np.array([[1j]]), np.zeros((1, 1))))


def test_screened_sweep_constant_response_reports_first_point():
    # C = 0 makes G = D at every point, so every lambda ties, and the sweep
    # reports the grid's first point, as np.argmin does.
    rng = np.random.default_rng(3)
    ss = _user_model(-np.eye(2), rng.normal(size=(2, 3)), np.zeros((3, 2)), rng.normal(size=(3, 3)))
    samples = sweep_samples(ss)
    assert len(samples) == 141 and len({lam for _, lam in samples}) == 1
    rep = sweep_psd(ss)
    assert rep.worst_omega == SweepGrid().points()[0]
    assert_sweep_is_full_minimum(rep, ss)


def test_screened_sweep_finds_lightly_damped_interior_minimum():
    # A resonance on an interior grid point, damping ratio 1e-3, with
    # C = -B^T: G + G^H dips far below its value at both grid ends.
    wn, zeta = SweepGrid().points()[90], 1e-3
    a = np.array([[-zeta * wn, wn], [-wn, -zeta * wn]])
    b = np.random.default_rng(4).normal(size=(2, 2))
    ss = _user_model(a, b, -b.T, np.eye(2))
    rep = sweep_psd(ss)
    assert rep.min_eig < -1.0 and rep.worst_omega == wn
    assert_sweep_is_full_minimum(rep, ss)


def _logged(monkeypatch, name):
    """Wrap passcheck.<name>; return the list of each call's arguments."""
    func, log = getattr(passcheck, name), []

    def logged(*args):
        log.append(args)
        return func(*args)

    monkeypatch.setattr(passcheck, name, logged)
    return log


def _eigensolved(evals):
    """The frequencies of the _min_eigs calls logged by `_logged`, in call order."""
    return np.concatenate([omegas for _, omegas in evals])


def _matrices(calls):
    """The number of matrices the `hermitian_min_eig` calls logged by `_logged` eigensolved."""
    return sum(math.prod(h.shape[:-2]) for (h,) in calls)


@pytest.mark.parametrize("model", ["II", "III", "IV"])
def test_screened_sweep_eigensolves_few_points(ieee9_j2, model, monkeypatch):
    calls, evals = _logged(monkeypatch, "hermitian_min_eig"), _logged(monkeypatch, "eval_tf")
    ss = build_polar_model(model, ieee9_j2, TAU)
    assert sweep_psd(ss).n_points == 141 and _matrices(calls) <= 5
    # The lowest-bound point alone, then the points its eigenvalue leaves, in chunks.
    assert len(evals) <= math.ceil(140 / passcheck._CHUNK_POINTS) + 1
    calls.clear()
    assert len(sweep_samples(ss)) == 141 and _matrices(calls) == 141


def test_model_one_sweep_eigensolves_through_hermitian_min_eig(ieee9, monkeypatch):
    # Model I's sweep takes both sequence blocks of every point, one chunk per call.
    calls = _logged(monkeypatch, "hermitian_min_eig")
    ss = assemble_ydq(ieee9)
    assert len(sweep_samples(ss)) == 141
    assert _matrices(calls) == 2 * 141
    assert len(calls) == math.ceil(141 / passcheck._CHUNK_POINTS)


BOUND_CASES = {
    "ieee9": SEQUENCE_CASES["ieee9"],
    **{f"mesh-40-{seed}": _mesh(seed) for seed in range(4)},
    # Each off-diagonal target sums two parallel branches, one off-nominal.
    "parallel-branches": lambda c: (
        _sequence_case(
            (
                Branch(1, 2, r=0.01, x=0.1, b_line=0.2),
                Branch(1, 2, r=0.02, x=0.15, ratio=1.05),
                Branch(2, 3, r=0.0, x=0.08, ratio=0.98),
            ),
            (Bus(id=1), Bus(id=2), Bus(id=3, g_shunt=0.5)),
        ),
        None,
    ),
    # The only row has no off-diagonal target.
    "one-bus-shunts": lambda c: (_sequence_case((), (Bus(id=1, g_shunt=0.3, b_shunt=0.2),)), None),
}


@pytest.mark.parametrize("name", BOUND_CASES)
def test_scatter_table_is_the_pairwise_one(ieee9, name):
    # `_scatter` pairs each incidence with those of its element in linear
    # time; here every pair of incidences is compared, as a reference.
    net = assemble_ydq(BOUND_CASES[name](ieee9)[0])._network
    elem, bus = np.nonzero(net.k.T)
    i, j = np.nonzero(elem[:, None] == elem)
    flat = bus[i] * net.k.shape[0] + bus[j]
    order = np.argsort(flat, kind="stable")
    i, j, flat = i[order], j[order], flat[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    want = (flat[starts], elem[i], net.k[bus[i], elem[i]] * net.k[bus[j], elem[i]], starts)
    assert all(got.dtype == ref.dtype and np.array_equal(got, ref) for got, ref in zip(net._scatter, want))
    # The column order of the off-diagonal targets sorts their columns into their rows.
    row, col, _, off, by_col, _ = net._rows
    assert np.array_equal(col[off][by_col], row[off])


@pytest.mark.parametrize("name", [*BOUND_CASES, "static-branch-and-g-shunt"])
def test_element_admittances_are_the_masked_formula(ieee9, name):
    # Each kind evaluated on its own index set gives the values of one
    # formula over every element, bit for bit: eval_tf, build_ybus and the
    # record bound share them.
    net = assemble_ydq({**BOUND_CASES, **SEQUENCE_CASES}[name](ieee9)[0])._network
    s = 1j * np.array([0.5, 10.0, 200.0, 1e3, 5e4])
    s = np.stack([s - 1j * net.omega0, s + 1j * net.omega0])[..., None]
    z = net.r + s * net.l
    want = net.g + s * net.c / (1.0 + s * net.r * net.c)
    want += np.divide(1.0, z, out=np.zeros_like(z), where=net.l > 0)
    assert np.array_equal(net.element_admittances(s[..., 0]), want)


def _record_models(case, parasitics=None):
    """Every model that carries a network record: Y_DQ(s) (model I) and it
    behind the angle and all-channel filters, then II-IV."""
    ydq = assemble_ydq(case, parasitics)
    j = build_j_of_s(ydq, solve_powerflow(case))
    return [ydq, build_jdp(ydq, TAU), build_jdf(ydq, TAU)] + [build_polar_model(model, j, TAU) for model in MODELS[1:]]


@pytest.mark.parametrize("name", BOUND_CASES)
def test_record_bound_is_dense_gershgorin_and_never_clears_the_minimum(ieee9, monkeypatch, name):
    # The record's bound is Gershgorin's on U^H H U, with H = G + G^H formed
    # densely, and lies below every point's lambda_min within the sweep's
    # rounding margin delta. The sweep eigensolves exactly the points it
    # leaves, and the grid minimum is always among them.
    case, _ = BOUND_CASES[name](ieee9)
    eye = np.eye(case.n_bus)
    u = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / math.sqrt(2.0)
    evals = _logged(monkeypatch, "_min_eigs")
    for ss in _record_models(case):
        samples = sweep_samples(ss)
        omegas, lams = np.array(samples).T
        lower, scale = ss._network.gershgorin(1j * omegas)
        g = eval_tf(ss, 1j * omegas)
        h = u.conj().T @ (g + g.conj().swapaxes(-1, -2)) @ u
        centers = np.diagonal(h, axis1=-2, axis2=-1)
        dense = (centers.real + np.abs(centers) - np.abs(h).sum(axis=-1)).min(axis=-1)
        norms = np.linalg.norm(h, axis=(-2, -1))
        assert (np.abs(lower - dense) <= 1e-14 * norms).all()
        assert (scale >= norms).all()
        first = int(np.argmin(lower))
        delta = passcheck._SCREEN_C * np.finfo(float).eps * (scale + abs(lams[first]))
        assert (lower <= lams + delta).all()
        evals.clear()
        rep = sweep_psd(ss)
        k = int(np.argmin(lams))
        assert (rep.min_eig, rep.worst_omega) == (lams[k], omegas[k])
        evaluated = _eigensolved(evals)
        assert evaluated[0] == omegas[first]
        assert set(evaluated) == set(omegas[(lower <= lams[first] + delta) | (omegas == omegas[first])])
        assert omegas[k] in evaluated


def test_sweep_without_the_record_bound_is_unchanged(ieee9, monkeypatch):
    # A bound that clears nothing sends every point to the eigensolve.
    def nothing(self, s):
        return np.full(s.shape, -np.inf), np.zeros(s.shape)

    with_bound = [sweep_psd(ss) for ss in _record_models(ieee9)]
    monkeypatch.setattr(_Network, "gershgorin", nothing)
    for ss, rep in zip(_record_models(ieee9), with_bound):
        assert sweep_psd(ss) == rep
        assert_sweep_is_full_minimum(rep, ss)


def test_record_bound_on_a_stiff_network(ieee9, monkeypatch):
    # r_series_cap = 1e-7 puts ||D|| of J(s) near 4e7, and the bound's margin
    # scales with it; it must still rule out most points, except for model I,
    # whose bound on ieee9 ties its structural zero at every point.
    evals = _logged(monkeypatch, "_min_eigs")
    models = _record_models(ieee9, ParasiticConfig(r_series_cap=1e-7))
    assert np.linalg.norm(models[-3].d) > 1e7
    for ss in models:
        evals.clear()
        rep = sweep_psd(ss)
        assert ss is models[0] or _eigensolved(evals).size <= rep.n_points // 2
        assert_sweep_is_full_minimum(rep, ss)


def test_record_bound_leaves_few_dense_evaluations(ieee9, monkeypatch):
    # Every record model eigensolves the lowest-bound point and the few
    # points whose bound its eigenvalue does not clear, each once: at most 4
    # for II-IV and 8 for the others. On ieee9 the bound of model I rules out
    # nothing: the generator buses sit behind lossless transformers, so their
    # rows of 2 Re Y are zero and every bound ties the structural zero. The
    # small row-shape cases of BOUND_CASES make no such claim.
    evals = _logged(monkeypatch, "_min_eigs")
    for name in ("ieee9", *(f"mesh-40-{seed}" for seed in range(4))):
        models = _record_models(BOUND_CASES[name](ieee9)[0])
        for ss, most in zip(models, (8, 8, 8, 4, 4, 4)):
            evals.clear()
            assert sweep_psd(ss).n_points == 141
            evaluated = _eigensolved(evals)
            if name == "ieee9" and ss is models[0]:
                assert evaluated.size == 141
                continue
            assert evaluated.size <= most and np.unique(evaluated).size == evaluated.size, name


def test_screen_margin_keeps_the_grid_minimum(ieee9, monkeypatch):
    # Wideband model I touches zero near omega0, where its bound and its
    # eigenvalue are both rounding: the margin delta (`_SCREEN_C`) is what
    # keeps the point the eigensolve would rank lowest from being ruled out.
    no_b = VariantFlags(no_shunt_b=True)
    cases = (ieee9, derive_variant(ieee9, no_b), derive_variant(_synthcase().mesh_case(40, 0), no_b))
    models = [assemble_ydq(case) for case in cases]
    reports = [sweep_psd(ss) for ss in models]
    for rep, ss in zip(reports, models):
        assert_sweep_is_full_minimum(rep, ss)
    monkeypatch.setattr(passcheck, "_SCREEN_C", 0.0)
    assert [sweep_psd(ss).min_eig for ss in models] != [rep.min_eig for rep in reports]


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
    samples = sweep_samples(ss)
    assert rep.n_points == 2 and len(samples) == 2
    assert [w for w, _ in samples] == pytest.approx([1e-2, 1e5])
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


def test_verdict_document_writes_complex_poles_as_pairs():
    # The branch -r/l = omega0/2 puts a right-half-plane pair at omega0/2 +/- j omega0.
    v = classify_model(negative_resistance_case(), model="I", analysis="wideband")
    poles = json.loads(json.dumps(v.to_dict()))["cond1_rhp_poles"]["unstable_poles"]
    assert all(isinstance(p, list) and len(p) == 2 for p in poles)
    w0 = SystemParams().omega0
    assert np.allclose(poles, [[w0 / 2, w0], [w0 / 2, -w0]], rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_mesh_grid_matches_ieee9_under_uniform_regulation(seed):
    # The nine-bus grid is not peculiar to ieee9: a seeded 30-bus mesh gives
    # the same 32 verdicts with every bus regulated at 1.05x its minimum k_qv.
    case = _synthcase().mesh_case(30, seed)
    k = min_uniform_kqv(build_jlf_analytic(case, solve_powerflow(case)), case.bus_ids)
    regulation = RegulationSet.uniform(case.bus_ids, 1.05 * k)
    assert classify_grid(case, regulation=regulation) == EXPECTED_GRID


def test_classify_grid_builds_each_variant_once(ieee9, monkeypatch):
    # One case, power flow, Y_DQ, J_LF and decoupled J_LF per variant column;
    # one J(s), for the wideband row.
    names = ("derive_variant", "solve_powerflow", "build_jlf_analytic", "decouple", "assemble_ydq", "build_j_of_s")
    calls = dict.fromkeys(names, 0)
    for name in calls:

        def counted(*args, _name=name, _f=getattr(passcheck, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(passcheck, name, counted)
    assert classify_grid(ieee9, regulation=REG) == EXPECTED_GRID
    assert list(calls.values()) == [4, 4, 4, 4, 4, 1]
    # A loading with no power-flow solution still fails the grid at its first polar cell.
    with pytest.raises(PowerFlowError):
        classify_grid(two_bus_case(load_p=-100))


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
