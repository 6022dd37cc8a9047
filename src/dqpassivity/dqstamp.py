"""Wide-band D-Q admittance state-space model of an R-L-C network.

Every series R-L branch contributes one (i_D, i_Q) state pair with the
synchronous-frame cross-coupling +/- omega0, every shunt capacitor (behind a
small series parasitic resistance) one (v_D, v_Q) pair. Inputs are the bus
voltage deviations (all D, then all Q), outputs the current injections in
the same order: the multi-port admittance Y_DQ(s). Each state's metadata
carries its L or C (pu-s), so the stored energy is a diagonal quadratic form.

One private network record (`_Network`, one table per case) holds each
element's endpoints, incidence weight and (r, L, C, g). The network is
balanced with real coefficients, so (Harnefors 2007) Y_DQ(s) =
U diag(Y(s - j omega0), Y(s + j omega0)) U^H, U unitary, Y(s) = K diag(y_e(s)) K^T.
The record, attached by `assemble_ydq` and the polar builders, scatter-adds
both blocks at a stack of s (`eval_tf`), bounds lambda_min(G + G^H) by a real
scatter (`_Network.gershgorin`) whose 2 Re y_e are model I's condition-2
blocks, and gives the poles and residues in closed form. So no check of a
model with a record reads A, B or C; they are formed only when read
(`StateSpace._of_record`). `powerflow.build_ybus` is its dense Y(j omega0).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

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
# without a record is evaluated from `StateSpace.modes`, or by the dense
# resolvent solve when kappa_1(V) of its eigenvectors exceeds _MODAL_KAPPA_MAX,
# above which `StateSpace._axis_cluster` also tests each cluster for a defect.
# The `replace` copies of wideband I-IV of ieee9 and the seeded 40-bus meshes
# have kappa_1(V) of 2 to 345, a Jordan block 9e15 or more.
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

    Column e of the n x m K is kept as its endpoints: `weight` (1/ratio on a
    branch's from side, 1 on a shunt) at bus `head`, -1 at bus `tail` (-1 if
    none). Exactly one of l, c, g is nonzero per element: y_e(s) = 1/(r + s l)
    for a dynamic branch, s c/(1 + s r c) for a capacitor behind its series
    parasitic r, g for a static branch or bus shunt conductance. The
    model is Y_DQ(s), or with bus voltages v and currents i (D + jQ)
    J(s) = (E Y_DQ(s) + C) F, its first `filtered` inputs behind
    (1 + s tau)/s. In the sequence basis U the rotations E, F are
    diag(v*, v), diag(-jv, jv*) and the reflection C swaps sequences:
    U^H J U = [[-j v* Y(s - j w0) v, diag(j i v*)],
    [diag(-j i* v), j v Y(s + j w0) v*]].
    """

    n: int
    head: np.ndarray  # (m,)
    tail: np.ndarray  # (m,)
    weight: np.ndarray  # (m,)
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

    def _incidence(self) -> np.ndarray:
        """The dense n x m K, for the one-off products of `admittance` and of a realization's B and C."""
        m = self.head.size
        k = np.zeros((self.n, m))
        k[self.head, np.arange(m)] = self.weight
        two = np.flatnonzero(self.tail >= 0)
        k[self.tail[two], two] -= 1.0
        return k

    def admittance(self, s: complex | np.ndarray) -> np.ndarray:
        """Y(s) = K diag(y_e(s)) K^T as one dense product, for the one-off s of
        `powerflow.build_ybus`; shape s.shape + (n, n)."""
        k = self._incidence()
        return (k * self.element_admittances(s)[..., None, :]) @ k.T

    def _derive(self, **changes) -> _Network:
        """`replace(self, **changes)` sharing the caches the changes leave valid: the pattern, the
        bound's `_rows` once built (a record never swept never builds them), the poles unless r changes."""
        out = replace(self, **changes)
        shared = ("_scatter", "_kinds", "_scatter_runs") + (() if "r" in changes else ("_dynamic",))
        for name in shared + (("_rows",) if "_rows" in vars(self) else ()):
            vars(out)[name] = getattr(self, name)
        return out

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(target = row n + col, element, weight) of the <= 4 entries of each K_e K_e^T, by target
        and element: (head, head) weight^2, (tail, tail) 1, -weight at (head, tail) and (tail, head)."""
        n, e = self.n, np.arange(self.head.size)
        two = e[self.tail >= 0]
        head, tail, w = self.head, self.tail[two], self.weight
        elem = np.concatenate([e, two, two, two])
        flat = np.concatenate([head * (n + 1), head[two] * n + tail, tail * n + head[two], tail * (n + 1)])
        weight = np.concatenate([w * w, -w[two], -w[two], np.ones(two.size)])
        order = np.argsort(flat * e.size + elem, kind="stable")
        return flat[order], elem[order], weight[order]

    @cached_property
    def _scatter_runs(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...], list[int]]:
        """The `_runs` of `_scatter`'s targets: each target, and the (element,
        weight) of each slot's terms and their count, for `_run_sums`."""
        flat, elem, weight = self._scatter
        targets, slots = _runs(flat)
        return targets, tuple((elem[j], weight[j]) for j in slots), [j.size for j in slots]

    @cached_property
    def _rows(self) -> tuple:
        """The row segments: (row, col) of each `_scatter_sums` entry; the diagonal and the
        off-diagonal ones, each by (row, col); the latter by (col, row), which sorts their
        columns into their rows as Y is symmetric; the `_runs` of their rows; and
        (bus, element, |K|) of each nonzero of K, by bus, with the `_runs` of its buses."""
        n, e = self.n, np.arange(self.head.size)
        targets = self._scatter_runs[0]
        row, col = np.divmod(targets, n)
        by_target = np.argsort(targets)
        on, off = by_target[row[by_target] == col[by_target]], by_target[row[by_target] != col[by_target]]
        two = e[self.tail >= 0]
        bus, elem = np.concatenate([self.head, self.tail[two]]), np.concatenate([e, two])
        by_bus = np.argsort(bus * e.size + elem, kind="stable")
        abs_k = np.concatenate([np.abs(self.weight), np.ones(two.size)])[by_bus]
        bus, elem = bus[by_bus], elem[by_bus]
        return row, col, on, off, np.argsort(col[off] * n + row[off]), _runs(row[off]), (bus, elem, abs_k, _runs(bus))

    def _scatter_sums(self, y: np.ndarray) -> np.ndarray:
        """The entries of K diag(y) K^T at the `_scatter_runs` targets, for each stacked (m,)
        row of y: each target's terms y_e weight, gathered slot by slot, summed by `_run_sums`."""
        _, slots, sizes = self._scatter_runs
        return _run_sums(lambda j: y[..., slots[j][0]] * slots[j][1], sizes)

    def _scatter_add(self, y: np.ndarray) -> np.ndarray:
        """K diag(y) K^T for each stacked (m,) row of element values y, real or
        complex as y is; shape y.shape[:-1] + (n, n). Scatter-added over
        `_scatter` (`_scatter_sums`): O(n^2 + m) per row, not n^2 m."""
        out = np.zeros(y.shape[:-1] + (self.n * self.n,), dtype=y.dtype)
        out[..., self._scatter_runs[0]] = self._scatter_sums(y)
        return out.reshape(y.shape[:-1] + (self.n, self.n))

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
        N = rho Y(s - j w0) o W, P = rho* Y(s + j w0) o W*, Q = diag(j i v*),
        W = v* v^T: rho = -j with the bus v and i of II-IV, else v = 1, i = 0,
        rho = 1. Phi = [[a, b], [b, a]] / 2 is the channel filter, with
        f = (1 + s tau)/s on the angle channels (f_phi) if any are filtered and
        on the magnitude channels (f_V) if all are, 1 elsewhere:
        a = f_phi + f_V, b = f_phi - f_V. The blocks of H = S Phi + (S Phi)^H are
            H11 = Re(rho a Y(s - j w0)) o W + Re(b Q),
            H22 = Re(rho* a Y(s + j w0)) o W* + Re(b* Q),
            H12 = rho/2 (b Y(s - j w0) o W + (b Y(s + j w0) o W)*) + Re(a) Q,
        each on Y's pattern, so Gershgorin's bound (Varga 2004),
        lambda_min(H) >= min_i (H_ii - sum_{j != i} |H_ij|), costs O(nnz) per
        point: H11 and H22 from one real `_scatter_sums` of Re(rho a y_e), H12
        from a complex one of b y_e only if b != 0 (model III). The scale is
        (2n + d)^2 mu, d the most terms of one target, phi = max(|f_phi|, |f_V|),
        mu = phi max_i (2 |Q_ii| + |v_i| sum_j M_ij |v_j|) and
        M = |K| diag(|y_e(s - j w0)| + |y_e(s + j w0)|) |K|^T: 4 mu bounds every
        row sum of an entrywise majorant of H in either basis (the margin is
        derived at `passcheck._SCREEN_C`).
        """
        n = self.n
        v, i, rho = (self.v, self.i, -1j) if self.v is not None else (np.ones(n), np.zeros(n), 1.0)
        row, col, on, off, by_col, off_rows, (bus, elem, abs_k, bus_runs) = self._rows
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
        h = self._scatter_sums(h.real)
        lower = np.stack([(b[..., None] * q).real, (b.conj()[..., None] * q).real])
        lower[..., row[on]] += h[..., on] * np.abs(w[on])
        lower -= _segment_sums(np.abs(h[..., off]) * np.abs(w[off]), off_rows, n)
        # H12 = Re(a) Q where b = 0. Its diagonal lies in row i of both halves, its
        # other moduli in the rows of H11 and, as H21 = H12^H, the columns of H22.
        h12_diag = a.real[..., None] * q
        if b.any():
            h12 = self._scatter_sums(b[..., None] * y) * w
            h12 = h12[0] + h12[1].conj()
            h12_diag[..., row[on]] += 0.5 * rho * h12[..., on]
            h12 = 0.5 * np.abs(h12[..., off])
            lower -= _segment_sums(np.stack([h12, h12[..., by_col]]), off_rows, n)
        lower = lower.min(axis=0) - np.abs(h12_diag)
        t = (np.abs(y[0]) + np.abs(y[1])) * np.bincount(elem, abs_k * abs_v[bus], y.shape[-1])
        majorant = _segment_sums(t[..., elem] * abs_k, bus_runs, n) * abs_v + 2.0 * np.abs(q)
        depth = len(self._scatter_runs[1])
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
        # A value that overflows is left for `assemble_ydq` to reject by name.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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

        p_e + j w0 is a pole of the negative-sequence block alone, p_e - j w0
        of the positive one: y_e's residue (`_dynamic`) is scattered into its
        block, rotated like the response and scaled by (1 + p tau)/p on the
        filtered columns. The integrators' poles at 0 give the unfiltered J(0)
        on the filtered columns.
        """
        dyn, _, _, res = self._dynamic
        members = np.asarray(members)
        q = members[members < 2 * dyn.size]
        f, n = self.filtered, self.n
        g = np.zeros((2 * n, 2 * n), dtype=complex)
        for p in np.unique(self.poles[q]):
            at = q[self.poles[q] == p]
            y = np.zeros((2, self.head.size), dtype=complex)
            np.add.at(y, (at % 2, dyn[at // 2]), res[at // 2])
            term = self._dq(*self._rotated(self._scatter_add(y)))
            term[:, :f] *= (1.0 + p * self.tau) / p
            g += term
        if q.size < members.size:
            g[:, :f] += self._unfiltered(np.zeros(()))[:, :f]
        return g


def _network_elements(case: NetworkCase) -> tuple[_Network, tuple[str, ...]]:
    """The network record of `case` (its element table), and one label per element.

    Branches come first (case order; x = 0 is the static conductance 1/r),
    then one capacitor per bus with positive total shunt susceptance (bus
    order), with r = 0 (`assemble_ydq` sets its parasitic), then the bus
    shunt conductances. `netcase._check_elements` checks the case first. The
    table is built once per case and kept on it, as `_positions` is, so the
    power flow, J_LF and Y_DQ of one variant read one table.
    """
    table = vars(case).get("_network_elements")
    if table is None:
        _check_elements(case)
        w0, buses, branches = case.system.omega0, case.buses, case.branches
        # Per element: endpoints, the weight of v_from (off-nominal ratio), r, l, c, g.
        rows = [
            (case.bus_index(br.from_bus), case.bus_index(br.to_bus), 1.0 / br.ratio, br.r, br.x / w0, 0.0,
             0.0 if br.x > 0 else 1.0 / br.r)
            for br in branches
        ]
        rows += [(i, -1, 1.0, 0.0, 0.0, b / w0, 0.0) for i, b in enumerate(case.shunt_susceptance()) if b > 0]
        rows += [(i, -1, 1.0, 0.0, 0.0, 0.0, bus.g_shunt) for i, bus in enumerate(buses) if bus.g_shunt != 0.0]
        head, tail, weight, r, l, c, g = np.array(rows, dtype=float).reshape(-1, 7).T
        head, tail = head.astype(np.intp), tail.astype(np.intp)
        labels = [f"{br.from_bus}-{br.to_bus}" for br in branches] + [str(buses[i].id) for i in head[len(branches) :]]
        table = _Network(case.n_bus, head, tail, weight, r, l, c, g, w0), tuple(labels)
        vars(case)["_network_elements"] = table
    return table


def _runs(keys: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The runs of equal entries of the sorted (non-negative) `keys`, set out for
    `_run_sums`: the key of each run, longest run first (stable), and per slot j
    the index of term j of every run longer than j, a prefix of those runs.
    There is at least one slot, an empty one if there is no run."""
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    lengths = np.diff(starts, append=keys.size)
    order = np.argsort(-lengths, kind="stable")
    first, lengths = starts[order], lengths[order]
    return keys[first], tuple(first[: np.count_nonzero(lengths > j)] + j for j in range(max(1, lengths.max(initial=0))))


def _run_sums(term: Callable[[int], np.ndarray], sizes: list[int]) -> np.ndarray:
    """The sum of each run, in `_runs`' order, from term(j): the sizes[j] terms of
    slot j, term j of every run longer than j, on the last axis. A run adds
    t0 + S(t1, ..., tk) as np.add.reduceat does (numpy's pairwise sum of up to
    128 doubles): S is a chain when k < w = 8 real (4 complex) terms, else w
    accumulators over its whole blocks of w, added as a balanced tree, then
    the remaining terms in turn; a few whole-array operations per slot.
    """
    out = term(0)
    width = 4 if out.dtype.kind == "c" else 8
    count = [*sizes, *[0] * 2 * width]  # count[i]: the runs with at least i terms after t0
    rest, acc = None, []
    for j in range(1, len(sizes)):
        terms, block = term(j), (j - 1) // width + 1
        blocked = count[width * block]  # the runs whose term j lies in their block `block`
        if rest is None:
            rest = terms
        else:
            rest[..., blocked : terms.shape[-1]] += terms[..., blocked:]
        if blocked and j <= width:
            acc.append(terms[..., :blocked].copy())
        elif blocked:
            acc[(j - 1) % width][..., :blocked] += terms[..., :blocked]
        if blocked and j % width == 0:  # the runs with no further block take their tree
            done = count[width * (block + 1)]
            tree = [a[..., done:blocked] for a in acc]
            while len(tree) > 1:
                tree = [tree[i] + tree[i + 1] for i in range(0, len(tree), 2)]
            rest[..., done:blocked] = tree[0]
    if rest is not None:
        out[..., : rest.shape[-1]] += rest
    return out


def _segment_sums(values: np.ndarray, runs: tuple[np.ndarray, tuple[np.ndarray, ...]], n: int) -> np.ndarray:
    """Sums of the last axis of `values` into n bins by the `_runs` of their sorted
    bins, 0 in a bin with no run; shape values.shape[:-1] + (n,)."""
    bins, slots = runs
    out = np.zeros(values.shape[:-1] + (n,))
    out[..., bins] = _run_sums(lambda j: values[..., slots[j]], [j.size for j in slots])
    return out


def _bare_admittance(ss: StateSpace) -> _Network | None:
    """The network record of a model that is the `assemble_ydq` Y_DQ(s) itself."""
    net = ss._network
    return net if net is not None and net.v is None and not net.filtered else None


@dataclass(eq=False)
class StateSpace:
    """Finite real (A, B, C, D) of a square model with >= 1 port, its port labels and per-state
    physical metadata. A model with a network record forms A, B, C and state_meta when first
    read (`_of_record`): by `export_matrices`, `simulate_dissipation`, `modes` or `replace`."""

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

    @classmethod
    def _of_record(cls, net: _Network | None, build: Callable[[], tuple], d: np.ndarray, **ports) -> StateSpace:
        """The model with D, `ports` (labels, bus_ids) and (A, B, C, state_meta) = build():
        at once without a record, else when first read (`_materialize`). Until then
        only D is checked here; the builder has checked the record's derived values."""
        if net is None:
            a, b, c, meta = build()
            return cls(a, b, c, d, state_meta=meta, **ports)
        if not np.isfinite(d).all():
            raise ValueError("D must be finite")
        ss = cls.__new__(cls)
        vars(ss).update(d=d, _network=net, _build=build, **ports)
        return ss

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: A, B, C or state_meta
        # of a model from `_of_record` that nothing has read yet.
        if name not in ("a", "b", "c", "state_meta") or "_build" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._materialize()
        return vars(self)[name]

    def _materialize(self) -> None:
        """Form A, B, C and state_meta by the builder `_of_record` kept, checked by `__post_init__` on a copy."""
        a, b, c, meta = vars(self).pop("_build")()
        vars(self).update(vars(replace(self, a=a, b=b, c=c, state_meta=meta)))

    @property
    def n_states(self) -> int:
        """From the record's poles if the model has one, so that A need not be formed."""
        return self._network.poles.size if self._network is not None else self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.d.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.d.shape[0]

    @property
    def _a_is_zero(self) -> bool:
        """Whether A = 0; with a record, whether no element is dynamic (each block holds +/- omega0)."""
        return not self._network._dynamic[0].size if self._network is not None else not self.a.any()

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float]:
        """Modal factors (p, C V, V^-1 B, kappa_1(V)) of A = V diag(p) V^-1:
        the poles, residues and `eval_tf` of a model without a network record.
        A singular V gives V^-1 B = None, kappa = inf. An A with no nonzero
        entry (low-frequency III/IV) is diag(0) with V = I: no eigendecomposition.
        """
        if self._a_is_zero:
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
        (`_Network.residue`): its A is block diagonal with normal 2 x 2 blocks,
        the integrators above a nonsingular block, so every cluster is
        semisimple. Any other sums (C V)[:, k] (V^-1 B)[k, :] over the cluster,
        and tests for a defect by the numerical rank of A - j omega I when
        kappa_1(V) exceeds _MODAL_KAPPA_MAX; a singular V raises LinAlgError.
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

    Inputs (bus order): Delta v_D then Delta v_Q; outputs: the matching
    current injections. Each dynamic element holds one (D, Q) state pair,
    inductor currents (branch order) before capacitor voltages (bus order).
    Per axis, with u = K_e^T v, an inductor obeys L i' = u - r i and injects
    K_e i, a capacitor r C v' = u - v and injects K_e (u - v) / r; A adds the
    +/- omega0 coupling. D = K diag(delta) K^T on both axes is scattered
    here; A, B, C and the state labels are formed when first read.
    """
    par = parasitics if parasitics is not None else ParasiticConfig()
    n, w0 = case.n_bus, case.system.omega0
    table, labels = _network_elements(case)
    is_cap = table.c > 0
    if is_cap.any() and par.r_series_cap <= 0:
        raise ProprietyError(
            "shunt capacitance present with r_series_cap = 0: a capacitor directly "
            "across a voltage port differentiates its input and the admittance is "
            "not proper; configure a positive series parasitic resistance"
        )
    el = table._derive(r=np.where(is_cap, par.r_series_cap, table.r))
    # Per axis tau x' = u - rho x with the pole p_e = -rho/tau (`_Network._dynamic`), injecting
    # gamma x: gamma = 1 for an inductor, -1/r for a capacitor. A, B (K_e/tau) and C (K_e gamma)
    # are formed only when read, so their entries are checked here as `__post_init__` would.
    dyn, tau, rate, _ = el._dynamic
    ind, r = el.l[dyn] > 0, el.r[dyn]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gamma = np.ones(dyn.size)
        gamma[~ind] = -1.0 / r[~ind]
        delta = el.g.copy()
        delta[is_cap] += 1.0 / el.r[is_cap]
        for name, values in (("A", rate), ("B", el.weight[dyn] / tau), ("B", 1.0 / tau), ("C", gamma)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        d = np.zeros((2 * n, 2 * n))
        d[:n, :n] = d[n:, n:] = el._scatter_add(delta) + 0.0  # + 0.0: a lossless branch scatters -0.0

    def matrices() -> tuple:
        nx = 2 * dyn.size
        rd = np.arange(0, nx, 2)
        a = np.zeros((nx, nx))
        a[rd, rd] = a[rd + 1, rd + 1] = rate
        a[rd, rd + 1] = -w0
        a[rd + 1, rd] = w0
        k = el._incidence()[:, dyn]
        b = np.zeros((nx, 2 * n))
        b[0::2, :n] = b[1::2, n:] = k.T / tau[:, None]
        c = np.zeros((2 * n, nx))
        c[:n, 0::2] = c[n:, 1::2] = k * gamma
        kinds = [("inductor", "i") if i else ("capacitor", "v") for i in ind.tolist()]
        states = zip(dyn.tolist(), np.where(ind, el.l[dyn], el.c[dyn]).tolist(), kinds)
        meta = tuple(StateMeta(kind, x, f"{var}_{axis}:{labels[e]}") for e, x, (kind, var) in states for axis in "DQ")
        return a, b, c, meta

    ids = case.bus_ids
    inputs, outputs = (tuple(f"{var}_{axis}:{i}" for axis in "DQ" for i in ids) for var in "vi")
    return StateSpace._of_record(el, matrices, d, input_labels=inputs, output_labels=outputs, bus_ids=ids)


def eval_tf(ss: StateSpace, s: complex | np.ndarray) -> np.ndarray:
    """Evaluate G(s) = C (sI - A)^-1 B + D at s, a scalar or an array.

    Shape s.shape + (p, m), real if every s is. From the network record
    (`_Network.response`) if the model has one, else from the modal factors,
    or by a dense solve when V is too ill-conditioned. An s within _POLE_TOL
    of a pole raises SingularFrequencyError naming that s.
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
    similar to blockdiag(2 Re Y(j(w - w0)), 2 Re Y(j(w + w0))): those two real
    blocks, scattered from the values `_Network.gershgorin` reads; else
    G + G^H from `eval_tf`.
    """
    net = _bare_admittance(ss)
    if net is not None:
        return net._scatter_add(2.0 * net.sequence_admittances(s).real)
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
