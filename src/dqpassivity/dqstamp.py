"""Wide-band D-Q admittance state-space model of an R-L-C network.

Every series R-L branch contributes one (i_D, i_Q) state pair with the
synchronous-frame cross-coupling +/- omega0; every shunt capacitor (behind
a small series parasitic resistance) contributes a (v_D, v_Q) pair. Inputs
are the bus voltage deviations (all D components stacked, then all Q),
outputs the current injections into the network in the same ordering, so
the assembled model is the multi-port admittance Y_DQ(s).

State metadata carries the physical storage parameter (L or C in pu-s) of
each state so the stored electromagnetic energy is a diagonal quadratic
form, which is what the dissipation checks integrate against.

The same stamping loop fills a private element table, attached to the
model `assemble_ydq` returns. The network is balanced and has real
coefficients, so in complex-vector form (Harnefors 2007)
Y_DQ(s) = U diag(Y(s - j omega0), Y(s + j omega0)) U^H with U unitary and
Y(s) = K diag(y_e(s)) K^T the n x n nodal admittance of the elements.
`sweep_psd` reads Y_DQ(jw) + Y_DQ^H(jw) from the table as two real
symmetric blocks 2 Re Y(j(w -/+ omega0)). A model derived from this one
(by `dataclasses.replace` or a builder) carries no table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .netcase import NetworkCase

__all__ = [
    "StateMeta",
    "StateSpace",
    "ParasiticConfig",
    "ProprietyError",
    "SingularFrequencyError",
    "assemble_ydq",
    "eval_tf",
    "storage_energy",
    "export_matrices",
]

# `eval_tf` raises SingularFrequencyError within _POLE_TOL of a pole, and
# falls back to the dense resolvent solve when the eigenvector matrix V has
# kappa_1(V) above _MODAL_KAPPA_MAX. Every realization built from ieee9 and a
# seeded 40-bus mesh (all four variants; models I-IV wideband, low-frequency
# III/IV) has kappa_1(V) between 1 and 345; a Jordan block gives 9e15 or more.
_POLE_TOL = 1e-9
_MODAL_KAPPA_MAX = 1e6


class ProprietyError(ValueError):
    """Shunt capacitance with no series parasitic: admittance would be improper."""


class SingularFrequencyError(ValueError):
    """Transfer-function evaluation requested at (or too close to) a pole."""

    def __init__(self, s: complex, pole: complex):
        super().__init__(f"s = {s} is within tolerance of the pole {pole}")
        self.s = s
        self.pole = pole


@dataclass(frozen=True)
class StateMeta:
    kind: str  # "inductor" | "capacitor" | "integrator"
    storage: float  # L or C in pu-seconds (0 for integrators)
    label: str


@dataclass(frozen=True, eq=False)
class _Elements:
    """The R-L-C elements of a network: Y(s) = K diag(y_e(s)) K^T.

    Column e of K is element e's incidence, 1/ratio on a branch's from side.
    Exactly one of l, c, g is nonzero per element: y_e(s) = 1/(r + s l) for
    a dynamic branch, s c/(1 + s r c) for a capacitor behind its series
    parasitic r, and g for a static branch or bus shunt conductance.
    """

    k: np.ndarray  # (n, m)
    r: np.ndarray  # (m,)
    l: np.ndarray  # (m,)
    c: np.ndarray  # (m,)
    g: np.ndarray  # (m,)
    omega0: float

    def sequence_hermitian_parts(self, omegas: np.ndarray) -> np.ndarray:
        """The blocks 2 Re Y(j(w - omega0)) and 2 Re Y(j(w + omega0)) per w.

        Shape (2, len(omegas), n, n); together they are unitarily similar to
        Y_DQ(jw) + Y_DQ^H(jw), since Y is complex symmetric. The capacitor
        form is finite at zero frequency, so w = omega0 needs no care unless
        a lossless branch makes it a pole.
        """
        s = 1j * (np.asarray(omegas, dtype=float) + np.array([[-self.omega0], [self.omega0]]))[..., None]
        rl, rc = self.l > 0, self.c > 0
        y = np.zeros(s.shape[:2] + self.g.shape, dtype=complex) + self.g
        y[..., rl] += 1.0 / (self.r[rl] + s * self.l[rl])
        y[..., rc] += s * self.c[rc] / (1.0 + s * self.r[rc] * self.c[rc])
        return (self.k * (2.0 * y.real)[..., None, :]) @ self.k.T


@dataclass(eq=False)
class StateSpace:
    """Real (A, B, C, D) with port labels and per-state physical metadata."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    state_meta: tuple[StateMeta, ...]
    bus_ids: tuple[int, ...] = field(default=())
    # Set by `assemble_ydq` only; `dataclasses.replace` leaves it None.
    _elements: _Elements | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        nx = self.a.shape[0]
        if self.a.shape != (nx, nx):
            raise ValueError("A must be square")
        if self.b.shape[0] != nx or self.c.shape[1] != nx:
            raise ValueError("B/C dimensions inconsistent with A")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise ValueError("D dimensions inconsistent with B/C")
        if len(self.input_labels) != self.n_inputs or len(self.output_labels) != self.n_outputs:
            raise ValueError("port label count inconsistent with B/C/D")
        if len(self.state_meta) != nx:
            raise ValueError("every state needs exactly one meta entry")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float]:
        """Modal factors (p, C V, V^-1 B, kappa_1(V)) of A = V diag(p) V^-1.

        The one eigendecomposition behind the poles, the imaginary-axis
        residues and `eval_tf`. A singular V gives V^-1 B = None, kappa = inf.
        """
        poles, v = np.linalg.eig(self.a)
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return poles, self.c @ v, None, np.inf
        kappa = float(np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1))
        return poles, self.c @ v, v_inv @ self.b, kappa

    @property
    def poles(self) -> np.ndarray:
        return self.modes[0]


@dataclass(frozen=True)
class ParasiticConfig:
    """Parasitics that keep the assembled admittance bi-proper."""

    r_series_cap: float = 1e-4

    def __post_init__(self) -> None:
        if not 0 <= self.r_series_cap < np.inf:
            raise ValueError(f"r_series_cap must be >= 0 and finite, got {self.r_series_cap}")


def assemble_ydq(case: NetworkCase, parasitics: ParasiticConfig | None = None) -> StateSpace:
    """Stamp the network into the D-Q admittance model Y_DQ(s).

    Inputs (over bus order): Delta v_D then Delta v_Q; outputs: the matching
    current injections into the network. Branch inductor pairs come first in
    the state vector (case branch order), capacitor pairs second (bus order),
    D before Q inside a pair.
    """
    par = parasitics if parasitics is not None else ParasiticConfig()
    n = case.n_bus
    w0 = case.system.omega0
    idx = {bus_id: i for i, bus_id in enumerate(case.bus_ids)}
    b_shunt = case.shunt_susceptance()

    if any(b < 0 for b in b_shunt):
        raise ValueError("negative shunt susceptance is not supported")
    has_caps = any(b > 0 for b in b_shunt)
    if has_caps and par.r_series_cap <= 0:
        raise ProprietyError(
            "shunt capacitance present with r_series_cap = 0: a capacitor directly "
            "across a voltage port differentiates its input and the admittance is "
            "not proper; configure a positive series parasitic resistance"
        )

    dyn_branches = [br for br in case.branches if br.x > 0]
    cap_buses = [i for i in range(n) if b_shunt[i] > 0]
    nx = 2 * len(dyn_branches) + 2 * len(cap_buses)

    a = np.zeros((nx, nx))
    b = np.zeros((nx, 2 * n))
    c = np.zeros((2 * n, nx))
    d = np.zeros((2 * n, 2 * n))
    meta: list[StateMeta] = []
    # Element table: incidence columns and (r, l, c, g) per element.
    cols: list[np.ndarray] = []
    params: list[tuple[float, float, float, float]] = []

    def element(incidence: tuple[tuple[int, float], ...], r: float, l: float, c: float, g: float) -> None:
        col = np.zeros(n)
        for i, v in incidence:
            col[i] += v
        cols.append(col)
        params.append((r, l, c, g))

    def stamp_conductance(i: int, j: int, g: float) -> None:
        d[i, j] += g
        d[n + i, n + j] += g

    row = 0
    for br in case.branches:
        k, m = idx[br.from_bus], idx[br.to_bus]
        ends = ((k, 1.0 / br.ratio), (m, -1.0))
        if br.x <= 0:
            # Static resistive branch: pure feedthrough stamp.
            g = 1.0 / br.r
            stamp_conductance(k, k, g / br.ratio**2)
            stamp_conductance(m, m, g)
            stamp_conductance(k, m, -g / br.ratio)
            stamp_conductance(m, k, -g / br.ratio)
            element(ends, br.r, 0.0, 0.0, g)
            continue
        ind = br.x / w0
        rd, rq = row, row + 1
        a[rd, rd] = a[rq, rq] = -br.r / ind
        a[rd, rq] = -w0
        a[rq, rd] = w0
        # v_from enters through the off-nominal ratio on the from side.
        b[rd, k] += 1.0 / (br.ratio * ind)
        b[rd, m] -= 1.0 / ind
        b[rq, n + k] += 1.0 / (br.ratio * ind)
        b[rq, n + m] -= 1.0 / ind
        c[k, rd] += 1.0 / br.ratio
        c[m, rd] -= 1.0
        c[n + k, rq] += 1.0 / br.ratio
        c[n + m, rq] -= 1.0
        tag = f"{br.from_bus}-{br.to_bus}"
        meta.append(StateMeta("inductor", ind, f"i_D:{tag}"))
        meta.append(StateMeta("inductor", ind, f"i_Q:{tag}"))
        element(ends, br.r, ind, 0.0, 0.0)
        row += 2

    for i in cap_buses:
        cap = b_shunt[i] / w0
        r = par.r_series_cap
        rd, rq = row, row + 1
        a[rd, rd] = a[rq, rq] = -1.0 / (r * cap)
        a[rd, rq] = -w0
        a[rq, rd] = w0
        b[rd, i] = 1.0 / (r * cap)
        b[rq, n + i] = 1.0 / (r * cap)
        c[i, rd] = -1.0 / r
        c[n + i, rq] = -1.0 / r
        d[i, i] += 1.0 / r
        d[n + i, n + i] += 1.0 / r
        bus_id = case.bus_ids[i]
        meta.append(StateMeta("capacitor", cap, f"v_D:{bus_id}"))
        meta.append(StateMeta("capacitor", cap, f"v_Q:{bus_id}"))
        element(((i, 1.0),), r, 0.0, cap, 0.0)
        row += 2

    for i, bus in enumerate(case.buses):
        if bus.g_shunt != 0.0:
            stamp_conductance(i, i, bus.g_shunt)
            element(((i, 1.0),), 0.0, 0.0, 0.0, bus.g_shunt)

    labels_in = tuple(f"v_D:{i}" for i in case.bus_ids) + tuple(f"v_Q:{i}" for i in case.bus_ids)
    labels_out = tuple(f"i_D:{i}" for i in case.bus_ids) + tuple(f"i_Q:{i}" for i in case.bus_ids)
    ss = StateSpace(
        a=a,
        b=b,
        c=c,
        d=d,
        input_labels=labels_in,
        output_labels=labels_out,
        state_meta=tuple(meta),
        bus_ids=case.bus_ids,
    )
    r_e, l_e, c_e, g_e = np.array(params, dtype=float).reshape(-1, 4).T
    ss._elements = _Elements(np.array(cols).reshape(-1, n).T, r_e, l_e, c_e, g_e, w0)
    return ss


def eval_tf(ss: StateSpace, s: complex) -> np.ndarray:
    """Evaluate C (sI - A)^-1 B + D at the complex frequency s.

    G(s) = (C V) diag(1/(s - p)) (V^-1 B) + D from the cached modal factors;
    a dense resolvent solve when V is too ill-conditioned for them, as for a
    defective A.
    """
    s = complex(s)
    poles, cv, vib, kappa = ss.modes
    dist = np.abs(poles - s)
    if dist.size and dist.min() <= _POLE_TOL:
        raise SingularFrequencyError(s, complex(poles[np.argmin(dist)]))
    if kappa <= _MODAL_KAPPA_MAX:
        out = (cv / (s - poles)) @ vib + ss.d
    else:
        out = ss.c @ np.linalg.solve(s * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
    if s.imag == 0.0:
        return out.real
    return out


def storage_energy(x: np.ndarray, meta: tuple[StateMeta, ...]) -> float | np.ndarray:
    """Stored electromagnetic energy 0.5*sum(L i^2) + 0.5*sum(C v^2), in pu-s.

    `x` has shape (..., n_states); the result has one energy per state
    vector, so shape (...,) (a scalar for a single state vector).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (len(meta),):
        raise ValueError(f"state vector length {x.shape} does not match {len(meta)} meta entries")
    for m in meta:
        if m.kind not in ("inductor", "capacitor"):
            raise ValueError(f"state {m.label}: no physical storage for kind {m.kind!r}")
    storage = np.array([m.storage for m in meta], dtype=float)
    return 0.5 * (x * x) @ storage


def export_matrices(ss: StateSpace) -> str:
    """Labeled row-major text dump of the model matrices for external cross-checks."""
    chunks = []
    for name, mat in (("A", ss.a), ("B", ss.b), ("C", ss.c), ("D", ss.d)):
        chunks.append(f"[{name}]  # {mat.shape[0]} x {mat.shape[1]}")
        for row in np.atleast_2d(mat):
            chunks.append("  ".join(f"{v: .16e}" for v in row))
        chunks.append("")
    chunks.append("[inputs]")
    chunks.append("  ".join(ss.input_labels))
    chunks.append("[outputs]")
    chunks.append("  ".join(ss.output_labels))
    chunks.append("[states]")
    for m in ss.state_meta:
        chunks.append(f"{m.label}  {m.kind}  {m.storage!r}")
    chunks.append("")
    return "\n".join(chunks)
