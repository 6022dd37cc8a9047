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

One private element table describes the network: an incidence column and
(r, L, C, g) per element. `assemble_ydq` derives A, B, C, D from it with
array assignments and attaches it to the model it returns, and
`powerflow.build_ybus` evaluates it at omega0. The network is balanced and
has real coefficients, so in complex-vector form (Harnefors 2007)
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
    parasitic r, and g for a static branch or bus shunt conductance. The
    A, B, C, D of `assemble_ydq` and `powerflow.build_ybus` derive from it.
    """

    k: np.ndarray  # (n, m)
    r: np.ndarray  # (m,)
    l: np.ndarray  # (m,)
    c: np.ndarray  # (m,)
    g: np.ndarray  # (m,)
    omega0: float

    def element_admittances(self, s: complex | np.ndarray) -> np.ndarray:
        """y_e(s) of every element at each s; shape s.shape + (m,)."""
        s = np.asarray(s, dtype=complex)[..., None]
        z = self.r + s * self.l
        y = self.g + s * self.c / (1.0 + s * self.r * self.c)
        y += np.divide(1.0, z, out=np.zeros_like(z), where=self.l > 0)
        return y

    def admittance(self, s: complex | np.ndarray) -> np.ndarray:
        """Y(s) = K diag(y_e(s)) K^T at each s; shape s.shape + (n, n)."""
        return (self.k * self.element_admittances(s)[..., None, :]) @ self.k.T

    def sequence_hermitian_parts(self, omegas: np.ndarray) -> np.ndarray:
        """The blocks 2 Re Y(j(w - omega0)) and 2 Re Y(j(w + omega0)) per w.

        Shape (2, len(omegas), n, n); together they are unitarily similar to
        Y_DQ(jw) + Y_DQ^H(jw), since Y is complex symmetric. The capacitor
        form is finite at zero frequency, so w = omega0 needs no care unless
        a lossless branch makes it a pole. K is real, so the blocks are one
        real product K diag(2 Re y_e) K^T, a quarter of the complex one.
        """
        shifts = np.asarray(omegas, dtype=float) + np.array([[-self.omega0], [self.omega0]])
        y = self.element_admittances(1j * shifts)
        return (self.k * (2.0 * y.real)[..., None, :]) @ self.k.T


def _network_elements(case: NetworkCase, r_series_cap: float) -> tuple[_Elements, tuple[str, ...]]:
    """The element table of `case`, and one label per element.

    Branches come first (case order), then one capacitor per bus with
    positive total shunt susceptance (bus order) behind `r_series_cap`,
    then the bus shunt conductances. A branch with x = 0 is the static
    conductance 1/r; x < 0, negative line charging or a negative bus shunt
    susceptance raises ValueError, as `netcase.validate_case` does, and so
    does r = x = 0, which has no admittance.
    """
    w0 = case.system.omega0
    b_shunt = case.shunt_susceptance()
    # One row per element: incidence head and its weight, then r, l, c, g.
    rows: list[tuple[float, ...]] = []
    tails, labels = [], []
    for br in case.branches:
        tag = f"{br.from_bus}-{br.to_bus}"
        if br.x < 0:
            raise ValueError(f"branch {tag}: series X must be >= 0")
        if br.b_line < 0:
            raise ValueError(f"branch {tag}: line charging must be >= 0")
        if br.x == 0 and br.r == 0:
            raise ValueError(f"branch {tag}: a branch with x = 0 is the static conductance 1/r and needs r != 0")
        # v_from enters through the off-nominal ratio on the from side.
        g = 0.0 if br.x > 0 else 1.0 / br.r
        rows.append((case.bus_index(br.from_bus), 1.0 / br.ratio, br.r, br.x / w0, 0.0, g))
        tails.append(case.bus_index(br.to_bus))
        labels.append(tag)
    for i, (bus, b) in enumerate(zip(case.buses, b_shunt)):
        if bus.b_shunt < 0:
            raise ValueError(f"bus {bus.id}: negative shunt susceptance is not supported")
        if b > 0:
            rows.append((i, 1.0, r_series_cap, 0.0, b / w0, 0.0))
            labels.append(str(bus.id))
    for i, bus in enumerate(case.buses):
        if bus.g_shunt != 0.0:
            rows.append((i, 1.0, 0.0, 0.0, 0.0, bus.g_shunt))
            labels.append(str(bus.id))
    heads, weights, r, l, c, g = np.array(rows, dtype=float).reshape(-1, 6).T
    k = np.zeros((case.n_bus, heads.size))
    k[heads.astype(int), np.arange(heads.size)] = weights
    k[tails, np.arange(len(tails))] -= 1.0
    return _Elements(k, r, l, c, g, w0), tuple(labels)


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
    """The D-Q admittance model Y_DQ(s) of the network's element table.

    Inputs (over bus order): Delta v_D then Delta v_Q; outputs: the matching
    current injections into the network. Each dynamic element holds one
    (D, Q) state pair, branch inductor currents first (case branch order),
    capacitor voltages second (bus order), D before Q inside a pair. Per
    axis, with u = K_e^T v the element voltage, an inductor obeys
    L i' = u - r i and injects K_e i, a capacitor obeys r C v' = u - v and
    injects K_e (u - v) / r; A adds the +/- omega0 coupling of the rotating
    frame, and D = K diag(delta) K^T on both axes.
    """
    par = parasitics if parasitics is not None else ParasiticConfig()
    n, w0 = case.n_bus, case.system.omega0
    el, labels = _network_elements(case, par.r_series_cap)
    is_cap = el.c > 0
    if is_cap.any() and par.r_series_cap <= 0:
        raise ProprietyError(
            "shunt capacitance present with r_series_cap = 0: a capacitor directly "
            "across a voltage port differentiates its input and the admittance is "
            "not proper; configure a positive series parasitic resistance"
        )
    dyn = np.flatnonzero((el.l > 0) | is_cap)
    ind, r = el.l[dyn] > 0, el.r[dyn]
    # Per axis tau x' = u - rho x and the element injects gamma x: tau = L,
    # rho = r, gamma = 1 for an inductor; tau = r C, rho = 1, gamma = -1/r
    # for a capacitor.
    tau = np.where(ind, el.l[dyn], r * el.c[dyn])
    gamma = np.ones(dyn.size)
    gamma[~ind] = -1.0 / r[~ind]
    delta = el.g.copy()
    delta[is_cap] += 1.0 / el.r[is_cap]

    nx = 2 * dyn.size
    rd = np.arange(0, nx, 2)
    a = np.zeros((nx, nx))
    a[rd, rd] = a[rd + 1, rd + 1] = -np.where(ind, r, 1.0) / tau
    a[rd, rd + 1] = -w0
    a[rd + 1, rd] = w0
    b = np.zeros((nx, 2 * n))
    b[0::2, :n] = b[1::2, n:] = el.k[:, dyn].T / tau[:, None]
    c = np.zeros((2 * n, nx))
    c[:n, 0::2] = c[n:, 1::2] = el.k[:, dyn] * gamma
    d = np.zeros((2 * n, 2 * n))
    d[:n, :n] = d[n:, n:] = (el.k * delta) @ el.k.T
    kinds = [("inductor", "i") if i else ("capacitor", "v") for i in ind.tolist()]
    storage = np.where(ind, el.l[dyn], el.c[dyn]).tolist()
    meta = tuple(
        StateMeta(kind, x, f"{var}_{axis}:{labels[e]}")
        for e, x, (kind, var) in zip(dyn.tolist(), storage, kinds)
        for axis in "DQ"
    )
    ss = StateSpace(
        a=a,
        b=b,
        c=c,
        d=d,
        input_labels=tuple(f"v_D:{i}" for i in case.bus_ids) + tuple(f"v_Q:{i}" for i in case.bus_ids),
        output_labels=tuple(f"i_D:{i}" for i in case.bus_ids) + tuple(f"i_Q:{i}" for i in case.bus_ids),
        state_meta=meta,
        bus_ids=case.bus_ids,
    )
    ss._elements = el
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
