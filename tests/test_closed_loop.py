"""Closed-loop oracle for the verdicts.

A passive network in negative feedback with any strictly passive device is
stable, and a network that is not passive is destabilized by some passive
device (Colgate & Hogan, Int. J. Control 48(1), 1988). The devices are
random port-Hamiltonian models, A = J - R with J skew and R > 0, B = C^T and
D + D^T > 0 (van der Schaft, L2-Gain and Passivity Techniques in Nonlinear
Control, 3rd ed., 2017), closed around each cell's own realization with
u_network = -y_device and u_device = y_network.
"""

import numpy as np
import pytest

from dqpassivity import StateMeta, StateSpace, VariantFlags, classify_model
from dqpassivity import passcheck
from dqpassivity.passcheck import VARIANT_COLUMNS
from test_passcheck import _synthcase

TAU = 0.01
DEVICES = 10
DEVICE_STATES = 4


def passive_device(rng: np.random.Generator, m: int) -> StateSpace:
    """A strictly passive m-port with storage x^T x / 2, D scaled by 10^U(-3, 3)."""
    k = DEVICE_STATES
    j = rng.normal(size=(k, k))
    r = rng.normal(size=(k, k))
    b = rng.normal(size=(k, m))
    p = rng.normal(size=(m, m))
    s = rng.normal(size=(m, m))
    d = (p @ p.T / m + 0.1 * np.eye(m) + s - s.T) * 10.0 ** rng.uniform(-3.0, 3.0)
    return StateSpace(
        a=(j - j.T) - (r @ r.T + 0.1 * np.eye(k)),
        b=b,
        c=b.T,
        d=d,
        input_labels=tuple(f"u{i}" for i in range(m)),
        output_labels=tuple(f"y{i}" for i in range(m)),
        state_meta=tuple(StateMeta("integrator", 0.0, f"x{i}") for i in range(k)),
    )


def _blockdiag(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.block([[p, np.zeros((p.shape[0], q.shape[1]))], [np.zeros((q.shape[0], p.shape[1])), q]])


def feedback(ss: StateSpace, device: StateSpace) -> np.ndarray:
    """A of the loop u1 = -y2, u2 = y1 around two models with the same port count."""
    m = ss.n_inputs
    eye = np.eye(m)
    # y1 = C1 x1 - D1 y2 and y2 = C2 x2 + D2 y1, solved for y = [y1; y2].
    y = np.linalg.solve(np.block([[eye, ss.d], [-device.d, eye]]), _blockdiag(ss.c, device.c))
    return _blockdiag(ss.a, device.a) + _blockdiag(ss.b, device.b) @ np.vstack([-y[m:], y[:m]])


def stability_margin(a_cl: np.ndarray) -> float:
    """max Re p of the loop's poles over its rounding scale, 100 n eps ||A_cl||_2;
    the loop counts as stable when this is at most 1."""
    scale = 100.0 * a_cl.shape[0] * np.finfo(float).eps * np.linalg.norm(a_cl, 2)
    return float(np.linalg.eigvals(a_cl).real.max()) / scale


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["ieee9", "mesh-30-0", "mesh-30-1"])
def test_passive_model_one_stays_stable_with_passive_devices(ieee9, seed):
    case = ieee9 if seed is None else _synthcase().mesh_case(30, seed)
    rng = np.random.default_rng(5)
    cells = [(VariantFlags(), "wideband")] + [(flags, "lowfreq") for _, flags in VARIANT_COLUMNS]
    for flags, analysis in cells:
        assert classify_model(case, flags, "I", analysis, TAU).overall == "passive"
        ss = passcheck._Variant(case, flags).realize("I", analysis, False, TAU)
        for _ in range(DEVICES):
            margin = stability_margin(feedback(ss, passive_device(rng, ss.n_inputs)))
            assert margin <= 1.0, (flags, analysis, margin)


def test_non_passive_wideband_two_is_destabilized_by_a_passive_device(ieee9):
    assert classify_model(ieee9, model="II", analysis="wideband", tau=TAU).overall == "non-passive"
    ss = passcheck._Variant(ieee9, VariantFlags()).realize("II", "wideband", False, TAU)
    rng = np.random.default_rng(5)
    margins = [stability_margin(feedback(ss, passive_device(rng, ss.n_inputs))) for _ in range(DEVICES)]
    assert max(margins) > 1.0
