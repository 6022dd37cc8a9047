"""D-Q admittance assembly, evaluation and energy accounting."""

from dataclasses import replace

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    Injection,
    NetworkCase,
    ParasiticConfig,
    ProprietyError,
    SingularFrequencyError,
    StateMeta,
    StateSpace,
    SweepGrid,
    SystemParams,
    VariantFlags,
    assemble_ydq,
    build_j_of_s,
    build_jdf,
    build_jdp,
    build_jlf_analytic,
    build_polar_model,
    derive_variant,
    eval_tf,
    solve_powerflow,
    storage_energy,
    sweep_psd,
    sweep_samples,
)
from dqpassivity import dqstamp, passcheck
from dqpassivity.dqstamp import _MODAL_KAPPA_MAX, _POLE_TOL
from dqpassivity.polarmodels import interface_matrices
from conftest import dense_incidence, random_case, random_solved_case
from test_passcheck import TAU, _synthcase

W0 = SystemParams().omega0


def _single_branch_case(r=0.02, x=0.1):
    return NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=r, x=x),),
        injections=(Injection(bus=1, kind="slack", vset=1.0), Injection(bus=2, kind="pq", p=0.0, q=0.0)),
    )


def test_single_branch_pole_pair():
    # D-Q shift of the scalar R-L branch: eigenvalues -R/L +/- j omega0.
    case = _single_branch_case(r=0.02, x=0.1)
    ss = assemble_ydq(case)
    ind = 0.1 / W0
    expected = np.array([-0.02 / ind + 1j * W0, -0.02 / ind - 1j * W0])
    got = np.sort_complex(ss.poles)
    assert np.allclose(np.sort_complex(expected), got, rtol=1e-12)


def test_resistor_only_network_is_static():
    # Single bus with a shunt conductance: no dynamics, D = diag(G, G).
    case = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1, g_shunt=2.5),),
        branches=(),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )
    ss = assemble_ydq(case)
    assert ss.n_states == 0
    assert np.array_equal(ss.d, np.diag([2.5, 2.5]))
    assert np.array_equal(eval_tf(ss, 3.7), ss.d)

    # Multi-bus resistive network via directly-built zero-X branches.
    rcase = NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=0.5, x=0.0),),
        injections=(Injection(bus=1, kind="slack", vset=1.0),),
    )
    rss = assemble_ydq(rcase)
    g = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert rss.n_states == 0
    assert np.allclose(rss.d[:2, :2], g)
    assert np.allclose(rss.d[2:, 2:], g)
    assert np.all(rss.d[:2, 2:] == 0)


def test_feedthrough_block_structure(ieee9):
    ss = assemble_ydq(ieee9)
    n = ieee9.n_bus
    d1 = ss.d[:n, :n]
    assert np.linalg.norm(ss.d[:n, n:]) == 0.0
    assert np.linalg.norm(ss.d[n:, :n]) == 0.0
    assert np.allclose(ss.d[n:, n:], d1)
    assert np.max(np.abs(d1 - d1.T)) < 1e-12


@pytest.mark.parametrize("name", ["ieee9", "ieee9-lossless", "mesh-40-0"])
def test_feedthrough_is_the_dense_product_without_negative_zeros(ieee9, name):
    # D = K diag(delta) K^T on both axes, delta = g + 1/r_c on capacitors; the
    # scatter writes -0.0 where a lossless branch has delta_e = 0, which D
    # (and `dump-model`) must not hold.
    cases = {
        "ieee9": lambda: ieee9,
        "ieee9-lossless": lambda: derive_variant(ieee9, VariantFlags(lossless=True)),
        "mesh-40-0": lambda: _synthcase().mesh_case(40, 0),
    }
    ss = assemble_ydq(cases[name]())
    net, n = ss._network, len(ss.bus_ids)
    delta = net.g.copy()
    cap = net.c > 0
    delta[cap] += 1.0 / net.r[cap]
    k = dense_incidence(net)
    want = (k * delta) @ k.T
    assert np.array_equal(ss.d[:n, :n], want) and np.array_equal(ss.d[n:, n:], want)
    assert not ss.d[:n, n:].any() and not ss.d[n:, :n].any()
    assert not np.signbit(ss.d[ss.d == 0.0]).any()


def _defined_realizations(case: NetworkCase, tau: float) -> dict[str, tuple]:
    """(A, B, C, state_meta) of wideband I-IV by their definitions, element by
    element from the dense K: per dynamic element tau x' = K_e^T v - rho x in
    both axes with the +/- omega0 coupling, injecting K_e gamma x; then
    J(s) = (A, B F, E C) and the (1 + s tau)/s integrators on its inputs."""
    net = assemble_ydq(case)._network
    k, n, w0 = dense_incidence(net), net.n, net.omega0
    dyn, taus, rate, _ = net._dynamic
    a, b, c = np.zeros((2 * dyn.size,) * 2), np.zeros((2 * dyn.size, 2 * n)), np.zeros((2 * n, 2 * dyn.size))
    meta = []
    for q, e in enumerate(dyn):
        inductor = net.l[e] > 0
        gamma = 1.0 if inductor else -1.0 / net.r[e]
        a[2 * q : 2 * q + 2, 2 * q : 2 * q + 2] = [[rate[q], -w0], [w0, rate[q]]]
        b[2 * q, :n] = b[2 * q + 1, n:] = k[:, e] / taus[q]
        c[:n, 2 * q] = c[n:, 2 * q + 1] = k[:, e] * gamma
        if inductor:
            br = case.branches[e]
            meta += [StateMeta("inductor", net.l[e], f"i_{axis}:{br.from_bus}-{br.to_bus}") for axis in "DQ"]
        else:
            bus = case.bus_ids[net.head[e]]
            meta += [StateMeta("capacitor", net.c[e], f"v_{axis}:{bus}") for axis in "DQ"]
    e_op, c_op, f_op = interface_matrices(solve_powerflow(case))
    j = (a, b @ f_op, e_op @ c, tuple(meta), (e_op @ assemble_ydq(case).d + c_op) @ f_op)
    out = {"I": (a, b, c, tuple(meta)), "II": j[:4]}
    for model, k_in, tag in (("III", n, "omega"), ("IV", 2 * n, "all")):
        nx = j[0].shape[0]
        a_i = np.block([[j[0], j[1][:, :k_in]], [np.zeros((k_in, nx + k_in))]])
        b_i = np.vstack([np.hstack([tau * j[1][:, :k_in], j[1][:, k_in:]]), np.eye(k_in, 2 * n)])
        c_i = np.hstack([j[2], j[4][:, :k_in]])
        out[model] = (a_i, b_i, c_i, j[3] + tuple(StateMeta("integrator", 0.0, f"int:{tag}:{i}") for i in range(k_in)))
    return out


REALIZATION_CASES = {
    **{f"ieee9-{column}": lambda c, f=flags: derive_variant(c, f) for column, flags in passcheck.VARIANT_COLUMNS},
    **{f"mesh-40-{seed}": lambda c, k=seed: _synthcase().mesh_case(40, k) for seed in range(4)},
}


@pytest.mark.parametrize("name", REALIZATION_CASES)
def test_realization_formed_on_read_is_the_defined_one(ieee9, name):
    # A record model forms A, B, C and state_meta only when read; what it forms
    # is each model's definition, entry for entry, and the state count it
    # reports before is the one formed.
    case = REALIZATION_CASES[name](ieee9)
    variant = passcheck._Variant(case, VariantFlags())
    want = _defined_realizations(variant.case, TAU)
    for model in passcheck.MODELS:
        ss = variant.realize(model, "wideband", False, TAU)
        assert "a" not in vars(ss) and ss._network is not None
        n_states = ss.n_states
        for got, ref in zip((ss.a, ss.b, ss.c), want[model]):
            assert np.array_equal(got, ref), model
        assert ss.state_meta == want[model][3] and ss.a.shape[0] == n_states, model


@pytest.mark.parametrize("r, message", [(0.0, "B must be finite"), (0.01, "A must be finite")])
def test_overflowing_element_value_fails_at_assembly_by_name(r, message):
    # x = 1e-320 leaves L = x/omega0 subnormal, so 1/L overflows: the record's
    # derived values are checked by name, with no RuntimeWarning on the way.
    with pytest.raises(ValueError, match=message):
        assemble_ydq(_single_branch_case(r=r, x=1e-320))


def test_propriety_error_with_capacitors(ieee9):
    with pytest.raises(ProprietyError, match="proper"):
        assemble_ydq(ieee9, ParasiticConfig(r_series_cap=0.0))
    # Without capacitance no parasitic is required.
    case = _single_branch_case()
    assemble_ydq(case, ParasiticConfig(r_series_cap=0.0))


def test_eval_conjugate_symmetry(ieee9):
    ss = assemble_ydq(ieee9)
    for w in (0.3, 12.0, 377.5, 9e3):
        plus = eval_tf(ss, 1j * w)
        minus = eval_tf(ss, -1j * w)
        assert np.allclose(plus, np.conj(minus), rtol=1e-12, atol=1e-12)


def test_eval_real_frequency_is_real(ieee9):
    out = eval_tf(assemble_ydq(ieee9), 2.0)
    assert np.isrealobj(out)


def test_eval_at_pole_raises(ieee9):
    ss = assemble_ydq(ieee9)
    pole = ss.poles[0]
    with pytest.raises(SingularFrequencyError) as err:
        eval_tf(ss, complex(pole))
    assert abs(err.value.pole - pole) < 1e-6


def test_storage_energy_values():
    meta = (StateMeta("inductor", 0.1, "i_D:x"), StateMeta("inductor", 0.1, "i_Q:x"))
    assert storage_energy(np.zeros(2), meta) == 0.0
    assert storage_energy(np.array([1.0, 0.0]), meta) == pytest.approx(0.05)
    with pytest.raises(ValueError, match="length"):
        storage_energy(np.zeros(3), meta)
    bad = (StateMeta("integrator", 0.0, "int:0"),)
    with pytest.raises(ValueError, match="physical"):
        storage_energy(np.zeros(1), bad)


def test_storage_energy_one_value_per_row():
    meta = (StateMeta("inductor", 0.1, "i_D:x"), StateMeta("capacitor", 0.4, "v_D:y"))
    rows = np.random.default_rng(5).normal(size=(3, 4, 2))
    energies = storage_energy(rows, meta)
    assert energies.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert energies[idx] == pytest.approx(storage_energy(rows[idx], meta), rel=1e-15)
    with pytest.raises(ValueError, match="length"):
        storage_energy(np.zeros((4, 3)), meta)


def test_zero_input_energy_monotone(ieee9):
    # With the ports shorted the stored energy can only dissipate.
    ss = assemble_ydq(ieee9, ParasiticConfig(r_series_cap=0.05))
    storage = np.array([m.storage for m in ss.state_meta])
    rng = np.random.default_rng(3)
    x = rng.normal(size=ss.n_states)
    dt = 2e-5
    energies = [0.5 * float(storage @ (x * x))]
    for _ in range(2000):
        k1 = ss.a @ x
        k2 = ss.a @ (x + 0.5 * dt * k1)
        k3 = ss.a @ (x + 0.5 * dt * k2)
        k4 = ss.a @ (x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        energies.append(0.5 * float(storage @ (x * x)))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)


def test_positive_r_cases_are_hurwitz():
    rng = np.random.default_rng(11)
    for _ in range(5):
        case = random_case(rng)
        ss = assemble_ydq(case)
        assert np.all(ss.poles.real < 0)


def test_random_cases_sweep_psd_spot():
    from dqpassivity import SweepGrid, sweep_psd

    rng = np.random.default_rng(12)
    for _ in range(5):
        case = random_case(rng)
        ss = assemble_ydq(case)
        rep = sweep_psd(ss, SweepGrid(points_per_decade=5))
        assert rep.min_eig >= -1e-9


def test_state_ordering_and_meta(ieee9):
    ss = assemble_ydq(ieee9)
    kinds = [m.kind for m in ss.state_meta]
    n_branch_states = 2 * len(ieee9.branches)
    assert kinds[:n_branch_states] == ["inductor"] * n_branch_states
    assert set(kinds[n_branch_states:]) == {"capacitor"}
    # D before Q inside a pair
    assert ss.state_meta[0].label.startswith("i_D")
    assert ss.state_meta[1].label.startswith("i_Q")
    assert len(ss.state_meta) == ss.n_states


# -- Modal evaluation against the dense resolvent ------------------------------


def dense_tf(ss, s):
    """Plain C (sI - A)^-1 B + D by one dense solve: the oracle for eval_tf."""
    s = complex(s)
    g = ss.c @ np.linalg.solve(s * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
    return g.real if s.imag == 0.0 else g


def _assert_matches_dense(ss, points):
    for s in points:
        want = dense_tf(ss, s)
        got = eval_tf(ss, s)
        assert np.isrealobj(got) == np.isrealobj(want)
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale, f"s = {s}"


def test_eval_tf_modal_matches_dense_resolvent(ieee9, ieee9_op):
    # Every realization kind the package sweeps: Y_DQ, J(s), wideband and
    # low-frequency III/IV, and random admittances. s = 0 is a pole of the
    # models behind integrators, so it is sampled only on the others.
    axis = [1j * w for w in SweepGrid().points()]
    ydq = assemble_ydq(ieee9)
    j = build_j_of_s(ydq, ieee9_op)
    lf = build_jlf_analytic(ieee9, ieee9_op)
    rng = np.random.default_rng(31)
    no_origin_pole = [ydq, j] + [assemble_ydq(random_solved_case(rng)[0]) for _ in range(3)]
    for ss in no_origin_pole:
        _assert_matches_dense(ss, axis + [0.0, 50.0])
    for model in ("III", "IV"):
        for base in (j, lf):
            _assert_matches_dense(build_polar_model(model, base, 0.01), axis + [50.0])


def _jordan_model(n):
    rng = np.random.default_rng(n)
    return StateSpace(
        a=-np.eye(n) + np.eye(n, k=1),  # one stable Jordan block at s = -1
        b=rng.normal(size=(n, 2)),
        c=rng.normal(size=(2, n)),
        d=2.0 * np.eye(2),
        input_labels=("u1", "u2"),
        output_labels=("y1", "y2"),
        state_meta=tuple(StateMeta("integrator", 0.0, f"x{i}") for i in range(n)),
    )


@pytest.mark.parametrize("n", [2, 3])
def test_defective_a_takes_dense_fallback(n):
    # The eigenvectors of a Jordan block are numerically parallel, so the
    # modal factors are useless and eval_tf must solve densely instead.
    ss = _jordan_model(n)
    assert ss.modes[3] > _MODAL_KAPPA_MAX
    grid = SweepGrid(points_per_decade=5)
    for s in [1j * w for w in grid.points()] + [0.0, 2.5]:
        np.testing.assert_array_equal(eval_tf(ss, s), dense_tf(ss, s))
    for w, lam in sweep_samples(ss, grid):
        g = dense_tf(ss, 1j * w)
        assert lam == np.linalg.eigvalsh(g + g.conj().T)[0]


def _route_models(route, ieee9, ieee9_op):
    """Models that `eval_tf` evaluates by `route` (the dense one is forced by the caller)."""
    ydq = assemble_ydq(ieee9)
    j = build_j_of_s(ydq, ieee9_op)
    if route == "network":
        return [ydq, j, build_jdp(j, 0.01), build_jdf(j, 0.01)]
    if route == "zero-state":
        return [build_jlf_analytic(ieee9, ieee9_op)]
    copies = [replace(ydq), replace(build_jdp(j, 0.01))]
    return copies if route == "modal" else copies + [_jordan_model(3)]


@pytest.mark.parametrize("route", ["network", "modal", "dense", "zero-state"])
def test_eval_tf_batch_equals_stacked_scalar_calls(ieee9, ieee9_op, route, monkeypatch):
    if route == "dense":
        monkeypatch.setattr(dqstamp, "_MODAL_KAPPA_MAX", -1.0)
    s = np.array([[1j * 0.3, 1j * 377.0, 2.0 + 50j], [-1j * 9e3, 1j * 2e4, 0.5 - 3j]])
    real_s = np.array([0.5, 2.0, 50.0])
    for ss in _route_models(route, ieee9, ieee9_op):
        assert (ss._network is not None) == (route == "network")
        if route == "modal":
            assert ss.modes[3] <= _MODAL_KAPPA_MAX
        got = eval_tf(ss, s)
        assert got.shape == s.shape + (ss.n_outputs, ss.n_inputs)
        want = np.array([[eval_tf(ss, x) for x in row] for row in s])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        got_real = eval_tf(ss, real_s)
        assert np.isrealobj(got_real)
        want_real = np.array([eval_tf(ss, x) for x in real_s])
        assert np.abs(got_real - want_real).max() <= 1e-12 * np.abs(want_real).max()
        for pole in ss.poles[[0, -1]] if ss.n_states else ():
            near = pole + 0.5 * _POLE_TOL
            with pytest.raises(SingularFrequencyError) as err:
                eval_tf(ss, np.array([1j * 0.3, near, 1j * 2e4]))
            assert err.value.s == near


def _state_space(**overrides):
    parts = dict(
        a=np.zeros((1, 1)), b=np.zeros((1, 2)), c=np.zeros((2, 1)), d=np.zeros((2, 2)),
        input_labels=("u0", "u1"), output_labels=("y0", "y1"),
        state_meta=(StateMeta("inductor", 1.0, "x0"),),
    )
    return StateSpace(**{**parts, **overrides})


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(a=np.zeros((1, 2))), "A must be square"),
        (dict(b=np.zeros((2, 2))), "B/C dimensions inconsistent with A"),
        (dict(c=np.zeros((2, 2))), "B/C dimensions inconsistent with A"),
        (dict(d=np.zeros((2, 3))), "D dimensions inconsistent with B/C"),
        (dict(input_labels=("u0",)), "port label count inconsistent with B/C/D"),
        (dict(output_labels=("y0", "y1", "y2")), "port label count inconsistent with B/C/D"),
        (dict(state_meta=()), "every state needs exactly one meta entry"),
        (dict(a=np.array([[np.inf]])), "A must be finite"),
        (dict(b=np.array([[0.0, np.nan]])), "B must be finite"),
        (dict(c=np.array([[np.nan], [0.0]])), "C must be finite"),
        (dict(d=np.array([[np.inf, 0.0], [0.0, 0.0]])), "D must be finite"),
        (dict(d=np.array([[0.0, 0.0], [0.0, np.nan]])), "D must be finite"),
        (dict(a=np.array([[-1.0 - 10.0j]])), "A must be real"),
        (dict(c=np.array([[1j], [0.0]])), "C must be real"),
        (dict(c=np.zeros((1, 1)), d=np.zeros((1, 2)), output_labels=("y0",)), "D must be square"),
        (
            dict(b=np.zeros((1, 0)), c=np.zeros((0, 1)), d=np.zeros((0, 0)), input_labels=(), output_labels=()),
            "D must be square, with at least one port",
        ),
    ],
)
def test_state_space_rejects_inconsistent_shapes(overrides, message):
    _state_space()  # the base parts are consistent
    with pytest.raises(ValueError, match=message):
        _state_space(**overrides)


def test_parasitics_reject_negative_series_resistance():
    with pytest.raises(ValueError, match="r_series_cap must be >= 0"):
        ParasiticConfig(r_series_cap=-1)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_parasitics_reject_non_finite_series_resistance(value):
    # An infinite resistance would silently disconnect every shunt capacitor.
    with pytest.raises(ValueError, match=f"r_series_cap must be >= 0 and finite, got {value}"):
        ParasiticConfig(r_series_cap=value)
