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

One private network record (`_Network`) describes the network: an
incidence column and (r, L, C, g) per element. `assemble_ydq` derives A,
B, C, D from it with array assignments, and `powerflow.build_ybus`
evaluates it at omega0. The network is balanced and has real
coefficients, so in complex-vector form (Harnefors 2007)
Y_DQ(s) = U diag(Y(s - j omega0), Y(s + j omega0)) U^H with U unitary and
Y(s) = K diag(y_e(s)) K^T the n x n nodal admittance of the elements. The
record, attached by `assemble_ydq` and the polar builders, scatter-adds
both blocks at a stack of s: `eval_tf` forms G(s) of wideband I-IV from
them, and `_hermitian_blocks` gives condition 2 model I's Y_DQ + Y_DQ^H
as 2 Re of each, every other model's G + G^H from `eval_tf`. It bounds
lambda_min(G + G^H) of every model with a record from the same y_e, by a
real scatter (`_Network.gershgorin`). It also gives the model's poles,
p_e +/- j omega0 per dynamic element and a zero per channel integrator,
and each imaginary-axis residue in closed form (`StateSpace._axis_cluster`),
so a model with a record never eigendecomposes A. A `dataclasses.replace`
copy has no record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .netcase import NetworkCase, _check_elements

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

# `eval_tf` raises SingularFrequencyError within _POLE_TOL of a pole. A model
# without a network record (user-built, a `replace` copy, low-frequency
# III/IV) is evaluated from `StateSpace.modes`, and by the dense resolvent
# solve when the eigenvector matrix V has kappa_1(V) above _MODAL_KAPPA_MAX;
# above the same bound `StateSpace._axis_cluster` tests each imaginary-axis
# cluster for a defect. No package-built wideband model computes V.
# Low-frequency III/IV have A = 0 and take V = I; the `replace` copies of
# wideband I-IV built from ieee9 and the seeded 40-bus meshes 0-3 (all four
# variants) have kappa_1(V) between 2 and 345; a Jordan block, 9e15 or more.
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
class _Network:
    """A package-built model from its R-L-C elements: Y(s) = K diag(y_e(s)) K^T.

    Column e of K is element e's incidence, 1/ratio on a branch's from side.
    Exactly one of l, c, g is nonzero per element: y_e(s) = 1/(r + s l) for
    a dynamic branch, s c/(1 + s r c) for a capacitor behind its series
    parasitic r, and g for a static branch or bus shunt conductance. The
    model is Y_DQ(s), or with bus voltages v and currents i (D + jQ)
    J(s) = (E Y_DQ(s) + C) F, its first `filtered` inputs behind
    (1 + s tau)/s. In the sequence basis U the rotations E, F are
    diag(v*, v), diag(-jv, jv*) and the reflection C swaps sequences:
    U^H J U = [[-j v* Y(s - j w0) v, diag(j i v*)],
    [diag(-j i* v), j v Y(s + j w0) v*]].
    """

    k: np.ndarray  # (n, m)
    r: np.ndarray  # (m,)
    l: np.ndarray  # (m,)
    c: np.ndarray  # (m,)
    g: np.ndarray  # (m,)
    omega0: float
    v: np.ndarray | None = None
    i: np.ndarray | None = None
    filtered: int = 0
    tau: float = 0.0

    def element_admittances(self, s: complex | np.ndarray) -> np.ndarray:
        """y_e(s) of every element at each s, each kind on its `_kinds` set; shape s.shape + (m,)."""
        s = np.asarray(s, dtype=complex)[..., None]
        branch, cap = self._kinds
        y = np.full(s.shape[:-1] + self.g.shape, self.g, dtype=complex)
        y[..., branch] = 1.0 / (self.r[branch] + s * self.l[branch])
        y[..., cap] = s * self.c[cap] / (1.0 + s * self.r[cap] * self.c[cap])
        return y

    @cached_property
    def _kinds(self) -> tuple[np.ndarray, np.ndarray]:
        """The dynamic branches and the capacitors; every other element is static, y_e = g."""
        return np.flatnonzero(self.l > 0), np.flatnonzero(self.c > 0)

    def admittance(self, s: complex | np.ndarray) -> np.ndarray:
        """Y(s) = K diag(y_e(s)) K^T as one dense product; shape s.shape + (n, n).
        For the one-off s of `powerflow.build_ybus`: per ieee9 build, table
        included, 102 us against 210 us by `sequence_blocks` (2-vCPU Xeon)."""
        return (self.k * self.element_admittances(s)[..., None, :]) @ self.k.T

    def _derive(self, **changes) -> _Network:
        """`replace(self, **changes)` sharing the caches of the element table,
        so that a family of records computes each once."""
        out = replace(self, **changes)
        for name in ("_scatter", "_kinds", "_rows", "_dynamic"):
            vars(out)[name] = getattr(self, name)
        return out

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(targets, element, weight, starts) of the <= 4 entries of each K_e K_e^T."""
        elem, bus = np.nonzero(self.k.T)
        # Each incidence i with each j of its element, in row-major (i, j) order.
        first, last = np.searchsorted(elem, elem), np.searchsorted(elem, elem, side="right")
        i = np.repeat(np.arange(elem.size), last - first)
        j = np.repeat(last - np.cumsum(last - first), last - first) + np.arange(i.size)
        flat = bus[i] * self.k.shape[0] + bus[j]
        order = np.argsort(flat, kind="stable")
        i, j, flat = i[order], j[order], flat[order]
        starts = np.flatnonzero(np.diff(flat, prepend=-1))
        return flat[starts], elem[i], self.k[bus[i], elem[i]] * self.k[bus[j], elem[i]], starts

    @cached_property
    def _rows(self) -> tuple:
        """The row segments: (row, col) of the `_scatter` targets, sorted by row; the diagonal
        and the off-diagonal ones; the latter in column order, which sorts their columns into
        their rows as Y is symmetric; and (bus, element, |K|) of each nonzero of K, by bus."""
        n = self.k.shape[0]
        row, col = np.divmod(self._scatter[0], n)
        on, off = np.flatnonzero(row == col), np.flatnonzero(row != col)
        bus, elem = np.nonzero(self.k)
        return row, col, on, off, np.argsort(col[off] * n + row[off]), (bus, elem, np.abs(self.k[bus, elem]))

    def _scatter_values(self, y: np.ndarray) -> np.ndarray:
        """The entries of K diag(y) K^T at the `_scatter` targets, for each stacked (m,) row of y."""
        _, elem, weight, starts = self._scatter
        return np.add.reduceat(y[..., elem] * weight, starts, axis=-1)

    def _scatter_add(self, y: np.ndarray) -> np.ndarray:
        """K diag(y) K^T for each stacked (m,) row of element values y, real or
        complex as y is; shape y.shape[:-1] + (n, n). Scatter-added over
        `_scatter` (np.add.reduceat): O(n^2 + m) per row, not n^2 m."""
        n = self.k.shape[0]
        out = np.zeros(y.shape[:-1] + (n * n,), dtype=y.dtype)
        out[..., self._scatter[0]] = self._scatter_values(y)
        return out.reshape(y.shape[:-1] + (n, n))

    def sequence_admittances(self, s: np.ndarray) -> np.ndarray:
        """y_e(s - j w0) and y_e(s + j w0) at each s; shape (2,) + s.shape + (m,)."""
        s = np.asarray(s, dtype=complex)
        return self.element_admittances(np.stack([s - 1j * self.omega0, s + 1j * self.omega0]))

    def _rotated(self, blocks: np.ndarray) -> np.ndarray:
        """The (2,) + ... stack of sequence blocks times -j v* v^T and its conjugate, if v is set."""
        if self.v is not None:
            rotation = -1j * np.outer(self.v.conj(), self.v)
            blocks[0] *= rotation
            blocks[1] *= rotation.conj()
        return blocks

    def sequence_blocks(self, s: np.ndarray) -> np.ndarray:
        """Y(s - j w0) and Y(s + j w0) at each s, times -j v* v^T and its
        conjugate if v is set; shape (2,) + s.shape + (n, n)."""
        return self._rotated(self._scatter_add(self.sequence_admittances(s)))

    def _dq(self, neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """U diag(neg, pos) U^H for stacked n x n blocks; shape neg.shape[:-2] + (2n, 2n)."""
        n = neg.shape[-1]
        # U = [[I, I], [-jI, jI]] / sqrt(2).
        g = np.empty(neg.shape[:-2] + (2 * n, 2 * n), dtype=complex)
        g[..., :n, :n] = g[..., n:, n:] = 0.5 * (neg + pos)
        g[..., :n, n:] = 0.5j * (neg - pos)
        g[..., n:, :n] = -g[..., :n, n:]
        return g

    def _unfiltered(self, s: np.ndarray) -> np.ndarray:
        """(E Y_DQ(s) + C) F, or Y_DQ(s), at each s: the model without its channel filter."""
        g = self._dq(*self.sequence_blocks(s))
        if self.v is not None:  # C F = per-bus reflection [[Re q, Im q], [Im q, -Re q]]
            q = np.diag(1j * self.i * self.v.conj())
            g += np.block([[q.real, q.imag], [q.imag, -q.real]])
        return g

    def response(self, s: np.ndarray) -> np.ndarray:
        """G(s) at each complex s, by elementwise steps; shape s.shape + (2n, 2n)."""
        g = self._unfiltered(s)
        if self.filtered:
            g[..., : self.filtered] *= ((1.0 + s * self.tau) / s)[..., None, None]
        return g

    def gershgorin(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A lower bound of lambda_min(G + G^H) at each s, and the scale of its
        rounding; shape s.shape each.

        In the sequence basis U^H G U = S Phi with S = [[N, Q], [Q*, P]],
        N = rho Y(s - j w0) o W, P = rho* Y(s + j w0) o W* and
        Q = diag(j i v*), W = v* v^T (class docstring): rho = -j with the bus
        v and i of II-IV, and a record without them is read as v = 1, i = 0,
        rho = 1. Phi = [[a, b], [b, a]] / 2 is the channel filter, with
        f = (1 + s tau)/s on the angle channels (f_phi) if any are filtered and
        on the magnitude channels (f_V) if all are, 1 elsewhere:
        a = f_phi + f_V, b = f_phi - f_V. The blocks of H = S Phi + (S Phi)^H are
            H11 = Re(rho a Y(s - j w0)) o W + Re(b Q),
            H22 = Re(rho* a Y(s + j w0)) o W* + Re(b* Q),
            H12 = rho/2 (b Y(s - j w0) o W + (b Y(s + j w0) o W)*) + Re(a) Q,
        each on Y's pattern, so Gershgorin's bound (Varga 2004),
        lambda_min(H) >= min_i (H_ii - sum_{j != i} |H_ij|), costs O(nnz) per
        point: one real `_scatter_values` of Re(rho a y_e) gives H11 and H22,
        a complex one of b y_e gives H12 only if b != 0 (model III, `build_jdp`),
        and each row sum is one run of the sorted `_rows`. The scale is (2n + d)^2 mu, with d
        the most terms `_scatter` adds into one target, phi = max(|f_phi|, |f_V|),
        mu = phi max_i (2 |Q_ii| + |v_i| sum_j M_ij |v_j|) and
        M = |K| diag(|y_e(s - j w0)| + |y_e(s + j w0)|) |K|^T, whose row sums take
        O(m) per point through each element's <= 2 incidences: 4 mu bounds every
        row sum of an entrywise majorant of H in either basis. The margin
        `passcheck.sweep_psd` adds to the bound for rounding is derived at
        `passcheck._SCREEN_C`.
        """
        n = self.k.shape[0]
        v, i, rho = (self.v, self.i, -1j) if self.v is not None else (np.ones(n), np.zeros(n), 1.0)
        row, col, on, off, by_col, (bus, elem, abs_k) = self._rows
        w, abs_v = v.conj()[row] * v[col], np.abs(v)
        s = np.asarray(s, dtype=complex)
        y = self.sequence_admittances(s)
        f, one = (1.0 + s * self.tau) / s, np.ones(s.shape)
        f_phi, f_v = f if self.filtered else one, f if self.filtered == 2 * n else one
        a, b, phi = f_phi + f_v, f_phi - f_v, np.maximum(np.abs(f_phi), np.abs(f_v))
        q = 1j * i * v.conj()
        # H11 and H22 from one real scatter of Re(rho a y_e): centers less radii by row.
        h = a[..., None] * y
        h[0] *= rho
        h[1] *= np.conj(rho)
        h = self._scatter_values(h.real)
        lower = np.stack([(b[..., None] * q).real, (b.conj()[..., None] * q).real])
        lower[..., row[on]] += h[..., on] * np.abs(w[on])
        lower -= _segment_sums(np.abs(h[..., off]) * np.abs(w[off]), row[off], n)
        # H12 = Re(a) Q where b = 0. Its diagonal lies in row i of both halves, its
        # other moduli in the rows of H11 and, as H21 = H12^H, the columns of H22.
        h12_diag = a.real[..., None] * q
        if b.any():
            h12 = self._scatter_values(b[..., None] * y) * w
            h12 = h12[0] + h12[1].conj()
            h12_diag[..., row[on]] += 0.5 * rho * h12[..., on]
            h12 = 0.5 * np.abs(h12[..., off])
            lower -= _segment_sums(np.stack([h12, h12[..., by_col]]), row[off], n)
        lower = lower.min(axis=0) - np.abs(h12_diag)
        t = (np.abs(y[0]) + np.abs(y[1])) * np.bincount(elem, abs_k * abs_v[bus], y.shape[-1])
        majorant = _segment_sums(t[..., elem] * abs_k, bus, n) * abs_v + 2.0 * np.abs(q)
        depth = np.diff(self._scatter[3], append=self._scatter[1].size).max()
        return lower.min(axis=-1), (2 * n + depth) ** 2 * phi * majorant.max(axis=-1)

    @cached_property
    def _dynamic(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(element, tau, p_e, residue of y_e at p_e) of each dynamic element,
        in state order. Per axis tau x' = u - rho x: tau = L, rho = r for a
        branch, whose y_e = 1/(r + s L) has the residue 1/L at p_e = -rho/tau;
        tau = r C, rho = 1 for a capacitor, whose y_e = s C/(1 + s r C) has p_e/r."""
        dyn = np.flatnonzero((self.l > 0) | (self.c > 0))
        ind, r = self.l[dyn] > 0, self.r[dyn]
        tau = np.where(ind, self.l[dyn], r * self.c[dyn])
        rate = -np.where(ind, r, 1.0) / tau
        return dyn, tau, rate, np.where(ind, 1.0, rate) / np.where(ind, tau, r)

    @cached_property
    def poles(self) -> np.ndarray:
        """The model's poles in state order: p_e + j w0, p_e - j w0 per dynamic
        element (a lossless branch's real part is -0.0), then `filtered` zeros."""
        rate = self._dynamic[2]
        pairs = np.empty((rate.size, 2), dtype=complex)
        pairs.real = rate[:, None]
        pairs.imag = [self.omega0, -self.omega0]
        return np.concatenate([pairs.ravel(), np.zeros(self.filtered)])

    def residue(self, members: np.ndarray) -> np.ndarray:
        """lim (s - p) G(s) summed over the poles p = poles[members].

        y_e has the residue `_dynamic` gives at p_e, so p_e + j w0 is a pole of
        the negative-sequence block alone and p_e - j w0 of the positive one.
        That residue is scattered into its block, rotated like the response,
        and its filtered columns are scaled by (1 + p tau)/p; C F is static and
        has none. The integrators' poles at 0 give the unfiltered J(0) on the
        filtered columns.
        """
        dyn, _, _, res = self._dynamic
        members = np.asarray(members)
        q = members[members < 2 * dyn.size]
        f, n = self.filtered, self.k.shape[0]
        g = np.zeros((2 * n, 2 * n), dtype=complex)
        for p in np.unique(self.poles[q]):
            at = q[self.poles[q] == p]
            y = np.zeros((2, self.k.shape[1]), dtype=complex)
            np.add.at(y, (at % 2, dyn[at // 2]), res[at // 2])
            term = self._dq(*self._rotated(self._scatter_add(y)))
            term[:, :f] *= (1.0 + p * self.tau) / p
            g += term
        if q.size < members.size:
            g[:, :f] += self._unfiltered(np.zeros(()))[:, :f]
        return g


def _network_elements(case: NetworkCase, r_series_cap: float) -> tuple[_Network, tuple[str, ...]]:
    """The network record of `case` (its element table), and one label per element.

    Branches come first (case order), then one capacitor per bus with
    positive total shunt susceptance (bus order) behind `r_series_cap`,
    then the bus shunt conductances. A branch with x = 0 is the static
    conductance 1/r. `netcase._check_elements`, the one list of element
    rules, checks the case first.
    """
    _check_elements(case)
    w0 = case.system.omega0
    b_shunt = case.shunt_susceptance()
    # One row per element: incidence head and its weight, then r, l, c, g.
    rows: list[tuple[float, ...]] = []
    tails, labels = [], []
    for br in case.branches:
        # v_from enters through the off-nominal ratio on the from side.
        g = 0.0 if br.x > 0 else 1.0 / br.r
        rows.append((case.bus_index(br.from_bus), 1.0 / br.ratio, br.r, br.x / w0, 0.0, g))
        tails.append(case.bus_index(br.to_bus))
        labels.append(f"{br.from_bus}-{br.to_bus}")
    for i, (bus, b) in enumerate(zip(case.buses, b_shunt)):
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
    return _Network(k, r, l, c, g, w0), tuple(labels)


def _segment_sums(values: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """Sums of the last axis of `values` into n bins, entry k into bin bins[k] (sorted):
    one np.add.reduceat over the runs of bins, 0 in a bin with no run; shape values.shape[:-1] + (n,)."""
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    out = np.zeros(values.shape[:-1] + (n,))
    if starts.size:  # a one-bus record has no off-diagonal target to sum
        out[..., bins[starts]] = np.add.reduceat(values, starts, axis=-1)
    return out


def _bare_admittance(ss: StateSpace) -> _Network | None:
    """The network record of a model that is the `assemble_ydq` Y_DQ(s) itself."""
    net = ss._network
    return net if net is not None and net.v is None and not net.filtered else None


@dataclass(eq=False)
class StateSpace:
    """Finite real (A, B, C, D) of a square model with >= 1 port, its port labels and per-state physical metadata."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    input_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    state_meta: tuple[StateMeta, ...]
    bus_ids: tuple[int, ...] = field(default=())
    # Set by `assemble_ydq` and the polar builders; `dataclasses.replace` drops it.
    _network: _Network | None = field(default=None, init=False, repr=False)

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
        for name, m in zip("ABCD", (self.a, self.b, self.c, self.d)):
            if np.count_nonzero(np.isfinite(m)) != m.size:
                raise ValueError(f"{name} must be finite")
            if m.dtype.kind not in "biuf":
                raise ValueError(f"{name} must be real")
        if not self.n_outputs == self.n_inputs > 0:
            raise ValueError("D must be square, with at least one port")

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

        The poles, the imaginary-axis residues and `eval_tf` of a model
        without a network record: user-built, a `replace` copy or
        low-frequency III/IV. A model with one reads them from the record and
        never computes this. A singular V gives V^-1 B = None, kappa = inf.
        An A with no nonzero entry (low-frequency III/IV, zero-state models)
        is diag(0) with V = I, so it takes no eigendecomposition.
        """
        if not self.a.any():
            return np.zeros(self.n_states), self.c.astype(float, copy=False), self.b.astype(float, copy=False), 1.0
        poles, v = np.linalg.eig(self.a)
        try:
            v_inv = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            return poles, self.c @ v, None, np.inf
        kappa = float(np.linalg.norm(v, 1) * np.linalg.norm(v_inv, 1))
        return poles, self.c @ v, v_inv @ self.b, kappa

    @property
    def poles(self) -> np.ndarray:
        """From the network record if the model has one, else from `modes`."""
        return self._network.poles if self._network is not None else self.modes[0]

    def _axis_cluster(self, omega: float, members: np.ndarray, radius: float) -> tuple[int, np.ndarray | None]:
        """Geometric multiplicity and residue lim (s - j omega) G(s) (None when
        defective) of the imaginary-axis cluster poles[members] of `radius`.

        A model with a network record reads the residue in closed form
        (`_Network.residue`): its A is block diagonal with normal 2 x 2 blocks
        and the integrators sit above a nonsingular block, so every cluster is
        semisimple. Any other sums (C V)[:, k] (V^-1 B)[k, :] over the cluster
        from `modes`, and looks for a defect, by the numerical rank of
        A - j omega I, only when kappa_1(V) is above the _MODAL_KAPPA_MAX under
        which `eval_tf` trusts the modal factors; a singular V raises LinAlgError.
        """
        if self._network is not None:
            return members.size, self._network.residue(members)
        _, cv, vib, kappa = self.modes
        geo = members.size
        if kappa > _MODAL_KAPPA_MAX:
            sv = np.linalg.svd(self.a - 1j * omega * np.eye(self.n_states), compute_uv=False)
            # Null directions of the cluster: standard numerical-rank cutoff,
            # widened to the cluster radius so near-coincident eigenvalues count.
            geo = int(np.sum(sv <= max(10.0 * radius, float(sv[0]) * len(sv) * np.finfo(float).eps)))
        if geo < members.size:
            return geo, None
        if vib is None:
            raise np.linalg.LinAlgError("eigenvector matrix of A is singular")
        return geo, cv[:, members] @ vib[members, :]


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
    # Per axis tau x' = u - rho x, with -rho/tau the element's pole p_e
    # (`_Network._dynamic`), and the element injects gamma x: gamma = 1 for
    # an inductor and -1/r for a capacitor.
    dyn, tau, rate, _ = el._dynamic
    ind, r = el.l[dyn] > 0, el.r[dyn]
    gamma = np.ones(dyn.size)
    gamma[~ind] = -1.0 / r[~ind]
    delta = el.g.copy()
    delta[is_cap] += 1.0 / el.r[is_cap]

    nx = 2 * dyn.size
    rd = np.arange(0, nx, 2)
    a = np.zeros((nx, nx))
    a[rd, rd] = a[rd + 1, rd + 1] = rate
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
    ss._network = el
    return ss


def eval_tf(ss: StateSpace, s: complex | np.ndarray) -> np.ndarray:
    """Evaluate G(s) = C (sI - A)^-1 B + D at s, a scalar or an array.

    Shape s.shape + (p, m), real if every s is. A package-built model is
    formed from its network record (`_Network`); any other from the modal
    factors, G(s) = (C V) diag(1/(s - p)) (V^-1 B) + D, or by a dense solve
    when V is too ill-conditioned, as for a defective A. An s within
    _POLE_TOL of a pole raises SingularFrequencyError naming that s.
    """
    s = np.asarray(s, dtype=complex)
    poles = ss.poles
    dist = np.abs(s.reshape(-1, 1) - poles)
    if dist.size and dist.min() <= _POLE_TOL:
        k, p = np.unravel_index(np.argmin(dist), dist.shape)
        raise SingularFrequencyError(complex(s.flat[k]), complex(poles[p]))
    if ss._network is not None:
        out = ss._network.response(s)
    elif ss.modes[3] <= _MODAL_KAPPA_MAX:
        out = (ss.modes[1] / (s[..., None, None] - poles)) @ ss.modes[2] + ss.d
    else:
        out = ss.c @ np.linalg.solve(s[..., None, None] * np.eye(ss.n_states) - ss.a, ss.b) + ss.d
    return out if s.imag.any() else out.real


def _hermitian_blocks(ss: StateSpace, s: np.ndarray) -> np.ndarray:
    """A stack whose eigenvalues together are those of G(s) + G^H(s) at each s
    on the imaginary axis; shape (k,) + s.shape + (m, m), k = 2 or 1.

    For the bare admittance (Y = Y^T), Y_DQ(jw) + Y_DQ^H(jw) is unitarily
    similar to blockdiag(2 Re Y(j(w - w0)), 2 Re Y(j(w + w0))) with Y the
    real-coefficient n x n nodal admittance, so the stack is those two real
    symmetric blocks; for any other model it is G + G^H from `eval_tf`.
    """
    net = _bare_admittance(ss)
    if net is not None:
        return 2.0 * net.sequence_blocks(s).real
    g = eval_tf(ss, s)
    g += g.conj().swapaxes(-1, -2)
    return g[None]


def storage_energy(x: np.ndarray, meta: tuple[StateMeta, ...]) -> float | np.ndarray:
    """Stored electromagnetic energy 0.5*sum(L i^2) + 0.5*sum(C v^2), in pu-s.

    `x` has shape (..., n_states); the result has one energy per state
    vector, so shape (...,) (a scalar for a single state vector).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (len(meta),):
        raise ValueError(f"state vector length {x.shape} does not match {len(meta)} meta entries")
    return 0.5 * (x * x) @ _storage_diagonal(meta)


def _storage_diagonal(meta: tuple[StateMeta, ...]) -> np.ndarray:
    """Per-state L or C, so that the stored energy is 0.5 * (x * x) @ it."""
    for m in meta:
        if m.kind not in ("inductor", "capacitor"):
            raise ValueError(f"state {m.label}: no physical storage for kind {m.kind!r}")
    return np.array([m.storage for m in meta], dtype=float)


def _matrix_blocks(blocks: tuple[tuple[str, np.ndarray], ...]) -> list[str]:
    """Per (name, matrix): a `[name]  # r x c` header, one row per line, a blank line."""
    lines = []
    for name, mat in blocks:
        lines.append(f"[{name}]  # {mat.shape[0]} x {mat.shape[1]}")
        lines += ["  ".join(f"{v: .16e}" for v in row) for row in mat]
        lines.append("")
    return lines


def export_matrices(ss: StateSpace) -> str:
    """Labeled row-major text dump of the model matrices for external cross-checks."""
    lines = _matrix_blocks((("A", ss.a), ("B", ss.b), ("C", ss.c), ("D", ss.d)))
    lines += ["[inputs]", "  ".join(ss.input_labels), "[outputs]", "  ".join(ss.output_labels), "[states]"]
    lines += [f"{m.label}  {m.kind}  {m.storage!r}" for m in ss.state_meta]
    return "\n".join([*lines, ""])
