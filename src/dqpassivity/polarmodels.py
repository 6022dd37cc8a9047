"""Interface-variable models built on top of the D-Q admittance.

The rectangular admittance maps bus voltage deviations to current
injections. Replacing the interface variables with polar quantities turns
it into, successively:

* ``J(s)``   -- (phi, V_n) in, (P, Q) out, via the operating-point
  interface matrices E, C, F;
* ``J_dp(s)`` -- bus frequency deviation instead of phase angle on the
  angle channels, realized by appending one integrator per bus;
* ``J_df(s)`` -- frequency deviation and normalized-magnitude derivative
  on all channels, appending 2n integrators.

At low frequency the network is replaced by its load-flow Jacobian: the
zero-state model ``N(s) = J_LF`` that `powerflow.build_jlf_analytic`
returns has the same (phi, V_n) to (P, Q) ports as J(s), so the same two
builders turn it into the low-frequency models N_p(s) = `build_jdp` and
N_df(s) = `build_jdf`, each with its simple pole at the origin carried by
the appended integrators.
`build_polar_model` maps the model names II, III and IV to these builders.
"""

from __future__ import annotations

import numpy as np

from .dqstamp import StateMeta, StateSpace, _bare_admittance
from .powerflow import OperatingPoint, _power_polar_ports

__all__ = [
    "DegenerateOperatingPointError",
    "interface_matrices",
    "build_j_of_s",
    "build_jdp",
    "build_jdf",
    "build_polar_model",
]


class DegenerateOperatingPointError(ValueError):
    """Some quiescent |V| is zero, so the interface map is singular."""


def interface_matrices(op: OperatingPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Operating-point matrices (E, C, F) linking rectangular and polar ports.

    E maps current deviations to power deviations, C carries the operating
    injections into the feedthrough, and F maps (phi, V_n) deviations to
    (v_D, v_Q) deviations. Each is 2n x 2n, built from per-bus diagonals.
    """
    bad = np.asarray(op.bus_ids)[op.vm <= 0.0]
    if bad.size:
        buses = ", ".join(map(str, bad))
        raise DegenerateOperatingPointError(f"operating point has |V| <= 0 at bus {buses}")
    vd = np.diag(op.v_d)
    vq = np.diag(op.v_q)
    idm = np.diag(op.i_d)
    iqm = np.diag(op.i_q)
    e = np.block([[vd, vq], [-vq, vd]])
    c = np.block([[idm, iqm], [iqm, -idm]])
    f = np.block([[vq, vd], [-vd, vq]])
    return e, c, f


def build_j_of_s(ydq: StateSpace, op: OperatingPoint) -> StateSpace:
    """Power-polar model J(s): inputs (phi, V_n), outputs (P, Q)."""
    if ydq.bus_ids != op.bus_ids:
        raise ValueError("admittance model and operating point bus orders differ")
    e, c, f = interface_matrices(op)
    j = StateSpace(
        a=ydq.a,
        b=ydq.b @ f,
        c=e @ ydq.c,
        d=(e @ ydq.d + c) @ f,
        **_power_polar_ports(op.bus_ids),
        state_meta=ydq.state_meta,
    )
    if _bare_admittance(ydq) is not None:
        j._network = ydq._network._derive(v=op.v_d + 1j * op.v_q, i=op.i_d + 1j * op.i_q)
    return j


def _check_tau(tau: float) -> None:
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 0, got tau={tau}")


def _append_integrators(
    j: StateSpace, tau: float, k: int, input_labels: tuple[str, ...], channel_tag: str
) -> StateSpace:
    """Realize J(s) with (1 + s tau)/s inserted on its first k input channels.

    Each filtered channel input u becomes x_int + tau*u where x_int
    integrates u, which appends k exact zero poles.
    """
    _check_tau(tau)
    nx = j.n_states
    b_f = j.b[:, :k]
    d_f = j.d[:, :k]
    a = np.zeros((nx + k, nx + k))
    a[:nx, :nx] = j.a
    a[:nx, nx:] = b_f
    b = np.zeros((nx + k, j.n_inputs))
    b[:nx, :] = j.b
    b[:nx, :k] = tau * b_f
    b[nx:, :k] = np.eye(k)
    d = j.d.copy()
    d[:, :k] = tau * d_f
    out = StateSpace(
        a=a,
        b=b,
        c=np.hstack([j.c, d_f]),
        d=d,
        input_labels=input_labels,
        output_labels=j.output_labels,
        state_meta=j.state_meta
        + tuple(StateMeta("integrator", 0.0, f"int:{channel_tag}:{i}") for i in range(k)),
        bus_ids=j.bus_ids,
    )
    if j._network is not None and not j._network.filtered:
        out._network = j._network._derive(filtered=k, tau=tau)
    return out


def build_jdp(j: StateSpace, tau: float) -> StateSpace:
    """Frequency-deviation model J_dp(s) = J(s) diag(((1+s tau)/s) I, I)."""
    n = j.n_inputs // 2
    labels_in = tuple(f"omega:{i}" for i in j.bus_ids) + j.input_labels[n:]
    return _append_integrators(j, tau, n, labels_in, "omega")


def build_jdf(j: StateSpace, tau: float) -> StateSpace:
    """Derivative model J_df(s) = J(s) (1+s tau)/s on all channels."""
    labels_in = tuple(f"omega:{i}" for i in j.bus_ids) + tuple(f"dVn:{i}" for i in j.bus_ids)
    return _append_integrators(j, tau, j.n_inputs, labels_in, "all")


def build_polar_model(model: str, j: StateSpace, tau: float) -> StateSpace:
    """Model II, III or IV from the power-polar J(s) or its static N(s) = J_LF."""
    if model == "II":
        return j
    if model == "III":
        return build_jdp(j, tau)
    if model == "IV":
        return build_jdf(j, tau)
    raise ValueError(f"no polar model {model!r}; choose II, III or IV")
