"""AC power flow and the unreduced low-frequency Jacobian J_LF.

Conventions: the synchronous frame is aligned so that v_D = |V| sin(phi)
and v_Q = |V| cos(phi); complex phasors are carried as v_Q + j v_D so the
usual phasor algebra applies with the bus angle phi. Currents are
injections into the network (i = Y_bus v). J_LF is the full 2n x 2n
sensitivity of every bus (P, Q) to every bus (phi, V_n), with no slack
rows or columns removed; V_n is the voltage magnitude normalized by its
quiescent value, so the magnitude columns of the textbook polar Jacobian
are scaled by |V|_o. It is carried as the static model N(s) = J_LF, a
zero-state StateSpace with D = J_LF and the port labels of J(s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dqstamp import StateSpace, _network_elements
from .netcase import NetworkCase, _check_injections

__all__ = [
    "OperatingPoint",
    "PowerFlowError",
    "ConsistencyError",
    "build_ybus",
    "solve_powerflow",
    "build_jlf_analytic",
    "decouple",
    "symmetric_part_eigenvalues",
]

# Newton stops below this max |P, Q| mismatch, after at most _MAX_ITER steps.
_NEWTON_TOL = 1e-10
_MAX_ITER = 50
# Largest |S| mismatch (pu) at which an operating point solves a case.
_MISMATCH_TOL = 1e-6
# Symmetric-part eigenvalues below this magnitude print as 0.
_SNAP = 1e-9


class PowerFlowError(RuntimeError):
    """Newton iteration failed; carries the final mismatch."""

    def __init__(self, message: str, mismatch: float):
        super().__init__(f"{message} (final max mismatch {mismatch:.3e} pu)")
        self.mismatch = mismatch


class ConsistencyError(ValueError):
    """Operating point does not solve the case it was paired with."""


@dataclass(frozen=True)
class OperatingPoint:
    """Per-bus quiescent voltages, network-injected currents and powers."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray  # |V|_o
    phi: np.ndarray  # rad
    v_d: np.ndarray
    v_q: np.ndarray
    i_d: np.ndarray
    i_q: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @property
    def n_bus(self) -> int:
        return len(self.bus_ids)

    def voltage_phasor(self) -> np.ndarray:
        """Complex V as v_Q + j v_D."""
        return self.v_q + 1j * self.v_d


def build_ybus(case: NetworkCase) -> np.ndarray:
    """Complex nodal admittance matrix at nominal frequency, shunts included.

    The dense Y(j omega0) of the network record `assemble_ydq` builds, with
    no capacitor parasitic, so each bus capacitor adds j omega0 C = j b.
    Raises ValueError on the elements the record rejects.
    """
    return _network_elements(case, 0.0)[0].admittance(1j * case.system.omega0)


def solve_powerflow(case: NetworkCase) -> OperatingPoint:
    """Newton-Raphson power flow from a flat start.

    Returns once max|mismatch| < `_NEWTON_TOL` (below the 1e-8 contract);
    raises PowerFlowError if `_MAX_ITER` steps do not get there or an
    iteration matrix is singular. The iteration matrix is the principal
    submatrix of `_jacobian` on the non-slack angle and PQ magnitude rows.
    Raises CaseError on what `netcase._check_injections` rejects.
    """
    n = case.n_bus
    y = build_ybus(case)
    _check_injections(case)
    # Kind None is a bus with no entry: a zero-injection PQ bus. Any |V|
    # setpoint is the flat start; a slack's P and a PV bus's Q are solved for.
    p_sched = np.zeros(n)
    q_sched = np.zeros(n)
    vm = np.ones(n)
    kinds: list[str | None] = [None] * n
    for inj in case.injections:
        k = case.bus_index(inj.bus)
        kinds[k] = inj.kind
        if inj.kind != "slack":
            p_sched[k] = inj.p
        if inj.kind == "pq":
            q_sched[k] = inj.q
        if inj.vset is not None:
            vm[k] = inj.vset
    phi = np.zeros(n)
    ang_idx = [k for k in range(n) if kinds[k] != "slack"]
    pq = [k for k in range(n) if kinds[k] not in ("slack", "pv")]
    idx = ang_idx + [n + k for k in pq]
    mismatch = np.inf
    for _ in range(_MAX_ITER):
        v = vm * np.exp(1j * phi)
        s = v * np.conj(y @ v)
        rhs = np.concatenate([p_sched - s.real, q_sched - s.imag])[idx]
        mismatch = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        if mismatch < _NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(_jacobian(y, v, s)[np.ix_(idx, idx)], rhs)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular power-flow Jacobian: {exc}", mismatch) from exc
        phi[ang_idx] += step[: len(ang_idx)]
        # Magnitude corrections are in normalized V_n, so they scale |V|.
        vm[pq] *= 1.0 + step[len(ang_idx):]
    else:
        raise PowerFlowError(f"no convergence after {_MAX_ITER} iterations", mismatch)

    v = vm * np.exp(1j * phi)
    i = y @ v
    # Zero-injection buses carry exactly zero device current.
    i[[k for k in range(n) if kinds[k] is None]] = 0.0
    s = v * np.conj(i)
    return OperatingPoint(
        bus_ids=case.bus_ids,
        vm=vm,
        phi=phi,
        v_d=v.imag.copy(),
        v_q=v.real.copy(),
        i_d=i.imag.copy(),
        i_q=i.real.copy(),
        p=s.real.copy(),
        q=s.imag.copy(),
    )


def _jacobian(y: np.ndarray, v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Polar Jacobian d(P, Q)/d(phi, V_n) as one 2n x 2n matrix, diagonal from the given S.

    With M = diag(V) conj(Y) diag(conj V), the complex-matrix form is
    dS/dphi = j (diag S - M) and dS/dV_n = M + diag S (Zimmerman, MATPOWER
    Technical Note 2, 2010); the rows are [Re; Im] of [dS/dphi, dS/dV_n].
    S is the supplied injections rather than V conj(Y V), so the diagonal
    carries the operating point's own (P, Q), which is exactly what the
    interface-matrix route (E Y(0) + C) F produces at s = 0.
    """
    m = v[:, None] * np.conj(y) * np.conj(v)
    ds = np.diag(s)
    d = np.hstack((1j * (ds - m), m + ds))
    return np.vstack((d.real, d.imag))


def build_jlf_analytic(
    case: NetworkCase, op: OperatingPoint, check_operating_point: bool = True
) -> StateSpace:
    """Static model N(s) = J_LF of `case` at the operating point `op`.

    A zero-state StateSpace with D = J_LF and J(s)'s (phi, V_n) -> (P, Q)
    ports. All 2n rows and columns are kept (no slack deletion), V_n
    columns are the d/d|V| columns scaled by |V|_o, and shunt/line-charging
    susceptance is included. The diagonal terms use the operating point's own P_o, Q_o,
    so the matrix equals the s = 0 evaluation of the interface-variable
    model built from the same operating point even when `op` was solved on
    a different (unsimplified) network; pass check_operating_point=False
    for that frozen-operating-point usage, otherwise an inconsistent pair
    raises ConsistencyError.
    """
    if op.bus_ids != case.bus_ids:
        raise ConsistencyError("operating point bus set does not match the case")
    y = build_ybus(case)
    v = op.voltage_phasor()
    if check_operating_point:
        worst = float(np.max(np.abs(v * np.conj(y @ v) - (op.p + 1j * op.q))))
        # Written so that a NaN mismatch fails too.
        if not worst <= _MISMATCH_TOL:
            raise ConsistencyError(
                f"operating point does not solve this case (power mismatch {worst:.3e} pu); "
                "pass check_operating_point=False to evaluate a simplified network at a "
                "frozen operating point"
            )
    m = 2 * case.n_bus
    return StateSpace(
        a=np.zeros((0, 0)),
        b=np.zeros((0, m)),
        c=np.zeros((m, 0)),
        d=_jacobian(y, v, op.p + 1j * op.q),
        **_power_polar_ports(case.bus_ids),
        state_meta=(),
    )


def _power_polar_ports(bus_ids: tuple[int, ...]) -> dict:
    return dict(
        input_labels=tuple(f"phi:{i}" for i in bus_ids) + tuple(f"Vn:{i}" for i in bus_ids),
        output_labels=tuple(f"P:{i}" for i in bus_ids) + tuple(f"Q:{i}" for i in bus_ids),
        bus_ids=bus_ids,
    )


def decouple(j: StateSpace) -> StateSpace:
    """Copy of J_LF with the off-diagonal blocks zeroed (the decoupled load flow)."""
    n = len(j.bus_ids)
    if j.d.shape != (2 * n, 2 * n):
        raise ValueError(f"decouple needs D of shape 2n x 2n for the n = {n} bus_ids, got {j.d.shape}")
    d = j.d.copy()
    d[:n, n:] = 0.0
    d[n:, :n] = 0.0
    return replace(j, d=d)


def symmetric_part_eigenvalues(j: StateSpace) -> np.ndarray:
    """Sorted eigenvalues of J_LF + J_LF^T, values below `_SNAP` set to 0 for display."""
    eigs = np.sort(np.linalg.eigvalsh(j.d + j.d.T))
    eigs[np.abs(eigs) < _SNAP] = 0.0
    return eigs
