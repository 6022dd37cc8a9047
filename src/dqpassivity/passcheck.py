"""Passivity conditions, dissipation simulation and model classification.

A square LTI model is tested against the three frequency-domain
positive-real conditions: no right-half-plane poles; G(jw) + G^H(jw)
positive semi-definite on the imaginary axis away from poles; and
first-order imaginary-axis poles whose residues are PSD Hermitian. The
necessary time-domain consequence D + D^T >= 0 is checked separately as a
cheap certificate: a trace of zero with a nonzero matrix already proves
indefiniteness.

`classify_model` realizes each of the four interface-variable
formulations, wideband or low-frequency, under the lossless / no-shunt-B /
decoupled simplifications as one `StateSpace` and runs the same checks on
all of them; the static low-frequency models I and II are zero-state
realizations, whose sweep is the symmetric-part spectrum of D. Q-V
regulation contributions are folded in where they can rescue a
low-frequency failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .dqstamp import StateSpace, _hermitian_blocks, _storage_diagonal, assemble_ydq, eval_tf
from .netcase import NetworkCase, VariantFlags, derive_variant
from .passivate import RegulationSet, apply_qv_contribution, min_eig_excluding_uniform_angle
from .polarmodels import _check_tau, build_j_of_s, build_polar_model
from .powerflow import OperatingPoint, build_jlf_analytic, decouple, solve_powerflow

__all__ = [
    "SweepGrid",
    "ImaginaryAxisPole",
    "PoleReport",
    "SweepReport",
    "FeedthroughReport",
    "ResidueReport",
    "DissipationReport",
    "MultisineInput",
    "PassivityVerdict",
    "SimulationUnstableError",
    "hermitian_min_eig",
    "check_poles",
    "sweep_psd",
    "sweep_samples",
    "check_feedthrough",
    "check_residue_psd_hermitian",
    "random_multisine",
    "simulate_dissipation",
    "classify_model",
    "classify_grid",
    "MODELS",
    "VARIANT_COLUMNS",
]

MODELS = ("I", "II", "III", "IV")

# Low-frequency variant columns in their canonical order.
VARIANT_COLUMNS = (
    ("lossy_b", VariantFlags()),
    ("lossless_b", VariantFlags(lossless=True)),
    ("lossy_nob", VariantFlags(no_shunt_b=True)),
    ("lossless_nob", VariantFlags(lossless=True, no_shunt_b=True)),
)


# Steps per chunk of the dissipation integrator: inputs, states, supplied
# energy and margins are vectorized over a chunk, and the states advance by
# anchors every isqrt(_CHUNK_STEPS) = 11 steps (`_advance`). On the nine-bus
# case (0.5 s at dt = 2e-5, one BLAS thread, shared 2-vCPU host) 1024 steps
# took 61 ms instead of 84 ms but raised the peak RSS by 4.3 MB.
_CHUNK_STEPS = 128

# Grid points per `_min_eigs` evaluation and `hermitian_min_eig` call. It
# bounds the memory of the points a sweep has left to eigensolve, such as all
# 141 of the default grid for model I on the nine-bus case, whose record bound
# rules out none.
_CHUNK_POINTS = 8

# Margin of the record's Gershgorin bound in `sweep_psd`: a point whose
# computed bound b exceeds lambda_0 + delta is not eigensolved, with lambda_0
# the eigensolve at the lowest-bound point and
# delta = _SCREEN_C eps ((m + d)^2 mu + |lambda_0|), (m + d)^2 mu the scale
# `_Network.gershgorin` returns. Let H be G + G^H formed exactly from the
# element values y_e and the filter f that `eval_tf` computes, so both routes
# share their rounding. 4 mu bounds every row sum of an entrywise majorant M
# of H in the sequence basis, and 2 mu every row sum of one in the D-Q basis
# that `eval_tf` uses. Both scatter |y_e| through |K|, so they also bound the
# moduli of the terms each entry sums (d at most). Three errors separate b
# from the eigensolve, with u = eps / 2:
# - Each entry b reads is formed per element, as Re(rho a y_e) or b y_e
#   (one complex product; rho = 1 or -j is exact), then summed by the
#   scatter (gamma_d) and rotated by a few complex products, so within
#   (d + 10) u M_ij of H's; the row sum rounds by gamma_m sum_j |h_ij|
#   (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.1).
#   So b is at most (m + d + 12) u 4 mu above the exact bound of H, which
#   is <= lambda_min(H).
# - `eval_tf` forms each entry of the dense H from the same y_e through the
#   scatter, rotation, change of basis, reflection, filter and G + G^H, so
#   within (d + 13) u of its majorant: ||H_computed - H||_2 <= (d + 13) u 2 mu.
#   Model I's eigensolved entries are the bound's own values, the real
#   scatter of 2 Re y_e (`dqstamp._hermitian_blocks`), inside the same bound.
# - `eigvalsh` returns lambda_min within p(m) u ||H||_2 (LAPACK Users' Guide,
#   3rd ed., 4.7), p(m) of low degree, taken here as m^2: at most m^2 u 2 mu.
# Together (2 m^2 + 4 m + 6 d + 74) u mu, below 16 (m + d)^2 u mu for every
# m >= 2, d >= 1; the |lambda_0| term covers the rounding of lambda_0 + delta.
# So a point the bound clears would have eigensolved strictly above lambda_0,
# which is at least the grid minimum, and cannot be the grid's first minimum.
_SCREEN_C = 8.0

# Imaginary-axis poles closer than this are one cluster with one residue.
_CLUSTER_TOL = 1e-6

# Verdict tolerance of the pole split, the residue's Hermitian deviation and `_psd`.
# It is absolute, whatever the scale of G; scaling it by ||G|| is an open ROADMAP item.
_TOL = 1e-9

# random_multisine: tones per channel, their log-uniform band (rad/s), peak amplitude.
_MULTISINE_TONES = 5
_MULTISINE_BAND = (10.0, 3000.0)
_MULTISINE_AMPLITUDE = 0.1


class SimulationUnstableError(RuntimeError):
    """Fixed-step integration would be (or became) numerically unstable."""


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

# Field metadata for the exceptions to "a report's document is its fields":
# {"key": name} renames the field in the document, and these two leave it out.
_OMIT = {"omit": "always"}
_OMIT_NONE = {"omit": "if None"}


def _document(value):
    """JSON-ready form of a report: its fields in declaration order, nested
    reports recursively, tuples as lists and complex numbers as [re, im]."""
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            v = getattr(value, f.name)
            omit = f.metadata.get("omit")
            if omit == "always" or (omit == "if None" and v is None):
                continue
            doc[f.metadata.get("key", f.name)] = _document(v)
        return doc
    if isinstance(value, tuple):
        return [_document(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


class _Report:
    """Gives a report dataclass its `to_dict()`: the document `_document` derives."""

    def to_dict(self) -> dict:
        return _document(self)


# ---------------------------------------------------------------------------
# Hermitian minimum eigenvalue
# ---------------------------------------------------------------------------


def hermitian_min_eig(h: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of a (complex) Hermitian matrix, or of each of a
    stack (..., m, m): a float for one matrix, else an array of shape h.shape[:-2]."""
    lam = np.linalg.eigvalsh(h)[..., 0]
    return float(lam) if lam.ndim == 0 else lam


def _psd(lam: float) -> bool:
    """The PSD decision of every verdict check, on the smallest eigenvalue of a Hermitian part."""
    return lam >= -_TOL


# ---------------------------------------------------------------------------
# Condition 1 / 3: poles and residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImaginaryAxisPole(_Report):
    omega: float
    multiplicity: int
    geometric_multiplicity: int
    semisimple: bool
    residue: np.ndarray | None = field(metadata=_OMIT)  # None when defective


@dataclass(frozen=True)
class PoleReport(_Report):
    passed: bool
    unstable: tuple[complex, ...] = field(metadata={"key": "unstable_poles"})
    imaginary_axis: tuple[ImaginaryAxisPole, ...] = field(metadata={"key": "imaginary_axis_poles"})


def check_poles(ss: StateSpace) -> PoleReport:
    """Condition 1 (no RHP poles) and the pole-side part of condition 3.

    Imaginary-axis eigenvalues are clustered within `_CLUSTER_TOL`. A
    cluster fails condition 3 outright when defective (Jordan block). For a
    first-order (semisimple) cluster the total residue lim (s-jw)G(s) is
    attached for the PSD-Hermitian test: the sum of its member poles'
    residues. The model gives both per cluster (`StateSpace._axis_cluster`):
    in closed form from a network record, whose clusters are all semisimple,
    else from the modal factors; for low-frequency III/IV, whose A = 0, that
    is the one origin cluster with residue C B and no eigendecomposition.
    """
    eigs = ss.poles
    unstable = tuple(complex(z) for z in eigs[eigs.real > _TOL])
    on_axis = np.flatnonzero(np.abs(eigs.real) <= _TOL)
    clusters: list[list[int]] = []
    for k in on_axis[np.argsort(eigs[on_axis].imag, kind="stable")]:
        if clusters and eigs[k].imag - eigs[clusters[-1][-1]].imag <= _CLUSTER_TOL:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    poles: list[ImaginaryAxisPole] = []
    for group in clusters:
        omega = float(np.mean(eigs[group].imag))
        sel = np.sort(group)
        geo, residue = ss._axis_cluster(omega, sel, _CLUSTER_TOL)
        poles.append(
            ImaginaryAxisPole(
                omega=omega,
                multiplicity=sel.size,
                geometric_multiplicity=geo,
                semisimple=geo >= sel.size,
                residue=residue,
            )
        )
    return PoleReport(passed=not unstable, unstable=unstable, imaginary_axis=tuple(poles))


# ---------------------------------------------------------------------------
# Condition 2: frequency sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Logarithmic frequency grid for the imaginary-axis PSD sweep."""

    omega_min: float = 1e-2
    omega_max: float = 1e5
    points_per_decade: int = 20

    def __post_init__(self) -> None:
        if not 0 < self.omega_min < self.omega_max < math.inf:
            raise ValueError(f"need 0 < omega_min < omega_max < inf, got {self}")
        if not 1 <= self.points_per_decade < math.inf:
            raise ValueError(f"points_per_decade must be finite and >= 1, got {self.points_per_decade}")

    def points(self) -> np.ndarray:
        decades = math.log10(self.omega_max / self.omega_min)
        count = max(2, int(round(decades * self.points_per_decade)) + 1)
        omegas = np.logspace(math.log10(self.omega_min), math.log10(self.omega_max), count)
        # logspace rounds its end points; the grid ends where it was asked to.
        omegas[0], omegas[-1] = self.omega_min, self.omega_max
        return omegas


@dataclass(frozen=True)
class SweepReport(_Report):
    passed: bool
    min_eig: float
    worst_omega: float | None  # None for static (frequency-independent) models
    n_points: int


def _sweep_omegas(ss: StateSpace, grid: SweepGrid | None) -> np.ndarray:
    """The grid points condition 2 sweeps on a dynamic model (see `sweep_psd`)."""
    grid = grid if grid is not None else SweepGrid()
    axis = np.abs(ss.poles[np.abs(ss.poles.real) <= _TOL].imag)
    omegas = grid.points()
    omegas = omegas[(np.abs(omegas[:, None] - axis) > _CLUSTER_TOL).all(axis=1)]
    if omegas.size == 0:
        poles = np.unique(axis).tolist()
        raise ValueError(f"{grid} has no point left after excluding the poles at omega={poles}")
    if not ss.a.any() and omegas.size > 2:
        omegas = omegas[[0, -1]]
    return omegas


def _min_eigs(ss: StateSpace, omegas: np.ndarray) -> list[float]:
    """lambda_min(G + G^H) at each of `omegas`: one `hermitian_min_eig` call
    per _CHUNK_POINTS points on the stack `dqstamp._hermitian_blocks` gives,
    the smallest over its blocks per point."""
    lams = []
    for first in range(0, omegas.size, _CHUNK_POINTS):
        blocks = _hermitian_blocks(ss, 1j * omegas[first : first + _CHUNK_POINTS])
        lams += hermitian_min_eig(blocks).min(axis=0).tolist()
    return lams


def sweep_psd(ss: StateSpace, grid: SweepGrid | None = None) -> SweepReport:
    """Condition 2: minimum eigenvalue of G(jw) + G^H(jw) across the grid.

    A `StateSpace` is real, so G^T(-jw) = G^H(jw) and sweeping w >= 0
    covers the whole axis. Pass iff `_psd` accepts the global minimum.
    A zero-state model is G = D at every frequency: one point, no omega.
    The report holds the grid minimum, its first grid point on an exact tie
    (as np.argmin), and the number of points swept; `sweep_samples` gives
    every point's value.

    Every point's lambda_min is taken by `_min_eigs`, which eigensolves a
    chunk of points in one `hermitian_min_eig` call, except at the points
    a model with a network record rules out from it, by one rule for every
    record. Its Gershgorin bound (`_Network.gershgorin`, O(nnz) per point)
    gives a lower bound of lambda_min at every point; the point with the
    lowest bound is eigensolved first, giving lambda_0, and of the others
    only those whose bound is at most lambda_0 + delta (`_SCREEN_C`). A
    skipped point would have eigensolved strictly above lambda_0, which is
    at least the grid minimum, so the minimum and its first index are those
    of every point's eigensolve bit for bit; delta covers rounding and is
    not a verdict tolerance. Only a model without a record (low-frequency
    III/IV, user-built models, `replace` copies) is eigensolved at every
    point. Model I is eigensolved in the sequence domain, as the two real
    symmetric n x n blocks `dqstamp._hermitian_blocks` gives.

    The sweep skips the model's own imaginary-axis poles (|Re p| <= _TOL,
    as in `check_poles`): it drops every grid point within _CLUSTER_TOL of
    some |Im p|, and a grid left empty is a ValueError. So no point is
    singular for `eval_tf`: an off-axis pole is more than _TOL >=
    dqstamp._POLE_TOL from the axis, an on-axis one more than _CLUSTER_TOL.

    An integrator-only model (A = 0, as low-frequency III/IV) is evaluated
    at the first and last grid points only, which gives the grid minimum
    exactly. Its transfer matrix is G(jw) = D + R/(jw) with R = CB, so
    G + G^H = (D + D^T) + t K with t = 1/w and K = -j(R - R^T) Hermitian.
    Then lambda_min(G + G^H) = min over unit v of v^H (D + D^T) v + t v^H K v
    is a minimum of functions affine in t, hence concave in t (Lewis &
    Overton, Acta Numerica 1996). A concave function on an interval is at
    least its smaller end value, so on the grid points, which all lie
    between the first and last (in t as in w), the minimum is attained at
    one of those two.
    """
    if ss.n_states == 0:
        lam = hermitian_min_eig(ss.d + ss.d.T)
        return SweepReport(passed=_psd(lam), min_eig=lam, worst_omega=None, n_points=1)
    omegas = _sweep_omegas(ss, grid)
    lams = np.full(omegas.size, np.inf)
    todo = np.arange(omegas.size)
    net = ss._network
    if net is not None:
        lower, scale = net.gershgorin(1j * omegas)
        k = int(np.argmin(lower))
        lams[k] = lam = _min_eigs(ss, omegas[k : k + 1])[0]
        todo = todo[(lower <= lam + _SCREEN_C * np.finfo(float).eps * (scale + abs(lam))) & (todo != k)]
    lams[todo] = _min_eigs(ss, omegas[todo])
    k = int(np.argmin(lams))
    lam = float(lams[k])
    return SweepReport(passed=_psd(lam), min_eig=lam, worst_omega=float(omegas[k]), n_points=omegas.size)


def sweep_samples(ss: StateSpace, grid: SweepGrid | None = None) -> tuple[tuple[float, float], ...]:
    """(omega, lambda_min(G + G^H)) at every point `sweep_psd` sweeps.

    The same points as `sweep_psd`, each one evaluated by the same
    `_min_eigs`: its minimum, first index on ties, is that sweep's
    `min_eig` at `worst_omega`. A zero-state model has no sweep points.
    """
    if ss.n_states == 0:
        return ()
    omegas = _sweep_omegas(ss, grid)
    return tuple(zip(omegas.tolist(), _min_eigs(ss, omegas)))


# ---------------------------------------------------------------------------
# Feedthrough certificate and residue check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedthroughReport(_Report):
    trace: float
    min_eig: float
    diagonal: tuple[float, ...]
    psd: bool
    # i_Do v_Qo - i_Qo v_Do per bus (= -Q_o), the sign carrier for the
    # frequency-deviation model's diagonal; only set when an operating
    # point is supplied.
    cross_per_bus: tuple[float, ...] | None = field(default=None, metadata=_OMIT_NONE)


def check_feedthrough(ss: StateSpace, op: OperatingPoint | None = None) -> FeedthroughReport:
    """Necessary time-domain condition on the direct gain: D + D^T >= 0."""
    sym = ss.d + ss.d.T
    min_eig = hermitian_min_eig(sym)
    return FeedthroughReport(
        trace=float(np.trace(sym)),
        min_eig=min_eig,
        diagonal=tuple(float(v) for v in np.diag(sym)),
        psd=_psd(min_eig),
        cross_per_bus=None if op is None else tuple(float(v) for v in op.i_d * op.v_q - op.i_q * op.v_d),
    )


@dataclass(frozen=True)
class ResidueReport(_Report):
    passed: bool
    hermitian_deviation: float
    min_eig: float
    omega: float | None = None


def check_residue_psd_hermitian(residue: np.ndarray, omega: float | None = None) -> ResidueReport:
    """Condition 3 residue test: Hermitian within _TOL (relative) and PSD."""
    r = np.asarray(residue, dtype=complex)
    norm = np.linalg.norm(r)
    dev = float(np.linalg.norm(r - r.conj().T) / norm) if norm > 0 else 0.0
    lam = hermitian_min_eig(0.5 * (r + r.conj().T))
    return ResidueReport(
        passed=dev <= _TOL and _psd(lam),
        hermitian_deviation=dev,
        min_eig=lam,
        omega=omega,
    )


# ---------------------------------------------------------------------------
# Time-domain dissipation check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultisineInput:
    """Sum-of-sines test signal, one row of tones per input channel.

    Called with a scalar time it returns the (n_channels,) input vector;
    called with a 1-D array of k times it returns a (k, n_channels) array.
    """

    omegas: np.ndarray  # (k,)
    amplitudes: np.ndarray  # (n_channels, k)
    phases: np.ndarray  # (n_channels, k)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        # a sin(wt + p) = sin(wt) a cos(p) + cos(wt) a sin(p): one sine and
        # one cosine per tone and time instead of one sine per channel too.
        wt = np.multiply.outer(t, self.omegas)
        a_cos = self.amplitudes * np.cos(self.phases)
        a_sin = self.amplitudes * np.sin(self.phases)
        return np.sin(wt) @ a_cos.T + np.cos(wt) @ a_sin.T


def random_multisine(rng: np.random.Generator, n_channels: int) -> MultisineInput:
    shape = (n_channels, _MULTISINE_TONES)
    return MultisineInput(
        omegas=np.exp(rng.uniform(*np.log(_MULTISINE_BAND), _MULTISINE_TONES)),
        amplitudes=rng.uniform(0.0, _MULTISINE_AMPLITUDE, shape),
        phases=rng.uniform(0.0, 2.0 * np.pi, shape),
    )


@dataclass(frozen=True)
class DissipationReport(_Report):
    min_margin: float
    t_at_min: float
    supplied: float  # integral of u^T y over the horizon
    stored_delta: float  # S(x(T)) - S(x(0))
    n_steps: int
    dt: float

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0


def _rk4_step_map(ss: StateSpace, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One RK4 step of the model as an exact affine map and quadratic supply.

    With the inputs sampled at t, t + dt/2 and t + dt stacked as
    w = [u1; u2; u3], the step is x+ = phi x + gamma w and the supplied
    energy of the step, dt/6 * sum_i c_i u_i^T (C x_i + D u_i) over the
    stages (weights 1, 2, 2, 1), is z^T Q z with z = [x; w] and Q symmetric.
    Both follow from pushing identity blocks through the four stages.
    """
    n, m = ss.n_states, ss.n_inputs
    eye = np.eye(n + 3 * m)
    x1 = eye[:n]
    u1, u2, u3 = eye[n : n + m], eye[n + m : n + 2 * m], eye[n + 2 * m :]
    stage_u = (u1, u2, u2, u3)
    stage_x = [x1]
    slopes = [ss.a @ x1 + ss.b @ u1]
    for frac, ui in zip((0.5, 0.5, 1.0), stage_u[1:]):
        stage_x.append(x1 + frac * dt * slopes[-1])
        slopes.append(ss.a @ stage_x[-1] + ss.b @ ui)
    weights = (1.0, 2.0, 2.0, 1.0)
    step = x1 + dt / 6.0 * sum(c * k for c, k in zip(weights, slopes))
    supply = dt / 6.0 * sum(
        c * ui.T @ (ss.c @ xi + ss.d @ ui) for c, xi, ui in zip(weights, stage_x, stage_u)
    )
    return step[:, :n], step[:, n:], 0.5 * (supply + supply.T)


def _advance(powers: np.ndarray, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """States x_0 = x, ..., x_k of x_{j+1} = phi x_j + f_j for the k rows of f.

    `powers` stacks phi^0 ... phi^s. Anchors every s steps advance as
    x_{(i+1)s} = phi^s x_{is} + c_i, with every forcing
    c_i = sum_r phi^(s-1-r) f_{is+r} from one product; the states between
    anchors then follow one offset at a time, for all anchors at once. That
    is about k/s + s products instead of k, and agrees with the per-step
    recurrence to rounding.
    """
    s = powers.shape[0] - 1
    k, n = f.shape
    q = -(-k // s)
    blocks = np.zeros((q, s, n))  # f padded with zero steps to q blocks of s
    blocks.reshape(q * s, n)[:k] = f
    # Row form: c_i^T = sum_r f_{is+r}^T (phi^(s-1-r))^T.
    c = blocks.reshape(q, s * n) @ powers[s - 1 :: -1].transpose(0, 2, 1).reshape(s * n, n)
    xs = np.empty((q * s + 1, n))
    # Views of xs: anchor i is x_{is}; block i, offset r is x_{is+r}.
    anchors, states = xs[::s], xs[:-1].reshape(q, s, n)
    anchors[0] = x
    phi_s = powers[s].T
    for i in range(q):
        anchors[i + 1] = anchors[i] @ phi_s + c[i]
    phi = powers[1].T
    for r in range(1, s):
        states[:, r] = states[:, r - 1] @ phi + blocks[:, r - 1]
    return xs[: k + 1]


def simulate_dissipation(
    ss: StateSpace,
    u: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    dt: float,
    x0: np.ndarray | None = None,
) -> DissipationReport:
    """Integrate the model with RK4 and track the dissipation margin.

    The margin is integral(u^T y) - (S(x) - S(x0)) with S the physical
    stored energy from the state metadata; for a passive model it must
    stay non-negative up to integration error. The supplied-energy
    integral is advanced with the same RK4 stages as the state, so both
    sides share the same quadrature order.

    On an LTI model one RK4 step is exactly the affine map
    x+ = phi x + gamma [u1; u2; u3] and its supplied energy exactly a
    quadratic form in [x; u1; u2; u3] (`_rk4_step_map`). The run advances
    in chunks of L = `_CHUNK_STEPS` steps: `u` is evaluated once per chunk on
    the array of its 2L + 1 step and half-step times and must return an
    array that broadcasts to (2L + 1, n_inputs), so a constant vector
    works as well as a `MultisineInput`. Within a chunk the states follow
    x+ = phi x + gamma w by an anchored recurrence (`_advance`): anchors
    every s = isqrt(L) steps advance by phi^s, and the states between them
    follow for all anchors at once, which agrees with the per-step loop to
    rounding. The supplied energy, the stored energy and the margin are
    computed per chunk on the stored states. The run needs a finite
    dt > 0 and a finite t_end of at least one step.
    """
    if not (0.0 < dt < math.inf and math.isfinite(t_end) and t_end / dt > 0.5):
        raise ValueError(f"need a finite dt > 0 and t_end of at least one step, got dt={dt}, t_end={t_end}")
    x = np.zeros(ss.n_states) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (ss.n_states,):
        raise ValueError("x0 has the wrong length")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    storage = _storage_diagonal(ss.state_meta)  # also rejects non-physical states
    e0 = 0.5 * (x * x) @ storage
    # The bound covers the imaginary axis too: a lossless branch's poles
    # +-j omega0 have real part -0.0, and RK4 amplifies them once
    # dt * omega0 > 2 sqrt(2).
    worst = float(np.abs(ss.poles[ss.poles.real <= 0]).max(initial=0.0))
    if worst * dt > 2.5:
        raise SimulationUnstableError(
            f"dt={dt} exceeds the explicit stability bound for the pole magnitude "
            f"{worst:.3e} rad/s; reduce the step below {2.5 / worst:.3e} s"
        )

    phi, gamma, q = _rk4_step_map(ss, dt)
    n_steps = int(round(t_end / dt))
    supplied = 0.0
    min_margin = math.inf
    t_at_min = 0.0
    t = 0.0
    # Overflow, in the states or in phi^s itself, is caught by the per-chunk
    # finite check below.
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [np.eye(ss.n_states)]
        for _ in range(math.isqrt(_CHUNK_STEPS)):
            powers.append(phi @ powers[-1])
        powers = np.array(powers)
        for first in range(0, n_steps, _CHUNK_STEPS):
            n_chunk = min(_CHUNK_STEPS, n_steps - first)
            # Step times are a running sum of dt, as a step-by-step integrator
            # advances them; the half-step times sit between.
            t_steps = np.cumsum(np.concatenate(([t], np.full(n_chunk, dt))))
            times = np.empty(2 * n_chunk + 1)
            times[0::2] = t_steps
            times[1::2] = t_steps[:-1] + 0.5 * dt
            w_all = np.asarray(u(times), dtype=float)
            try:
                w_all = np.broadcast_to(w_all, (times.size, ss.n_inputs))
            except ValueError:
                raise ValueError(
                    f"u returned shape {w_all.shape} for {times.size} times; "
                    f"expected an array broadcastable to ({times.size}, {ss.n_inputs})"
                ) from None
            w = np.hstack((w_all[0:-1:2], w_all[1::2], w_all[2::2]))
            xs = _advance(powers, x, w @ gamma.T)
            z = np.hstack((xs[:-1], w))
            supplied_run = supplied + np.cumsum(((z @ q) * z).sum(axis=1))
            margin = supplied_run - (0.5 * (xs[1:] * xs[1:]) @ storage - e0)
            # The margin is non-finite once a state, its energy or the supply is.
            finite = np.isfinite(xs[1:]).all(axis=1) & np.isfinite(margin)
            if not finite.all():
                k_bad = int(np.argmin(finite))
                # Step k reads the inputs at times[2k : 2k + 3].
                bad_u = ~np.isfinite(w_all[: 2 * k_bad + 3]).all(axis=1)
                if bad_u.any():
                    raise ValueError(f"u is not finite at t={times[np.argmax(bad_u)]:.4g}s")
                raise SimulationUnstableError(
                    f"state overflow at t={t_steps[1 + k_bad]:.4g}s; reduce the integration step"
                )
            k_min = int(np.argmin(margin))
            if margin[k_min] < min_margin:
                min_margin = float(margin[k_min])
                t_at_min = float(t_steps[k_min + 1])
            x = xs[-1]
            supplied = float(supplied_run[-1])
            t = float(t_steps[-1])
    return DissipationReport(
        min_margin=float(min_margin),
        t_at_min=float(t_at_min),
        supplied=float(supplied),
        stored_delta=float(0.5 * (x * x) @ storage - e0),
        n_steps=n_steps,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Verdict assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegulatedReport(_Report):
    regulation: tuple[tuple[int, float], ...]
    flipped: bool
    min_eig_excluding_structural: float | None = field(default=None, metadata=_OMIT_NONE)
    residue: ResidueReport | None = field(default=None, metadata=_OMIT_NONE)
    sweep: SweepReport | None = field(default=None, metadata=_OMIT_NONE)


@dataclass(frozen=True, kw_only=True)
class PassivityVerdict(_Report):
    model: str
    analysis: str
    variant: VariantFlags
    overall: str  # "passive" | "non-passive" | "passive-after-regulation"
    # cond1 is None for zero-state models.
    cond1: PoleReport | None = field(default=None, metadata={"key": "cond1_rhp_poles"})
    cond2: SweepReport = field(metadata={"key": "cond2_sweep"})
    cond3: tuple[ResidueReport, ...] = field(default=(), metadata={"key": "cond3_residues"})
    feedthrough: FeedthroughReport
    regulated: RegulatedReport | None = None
    notes: tuple[str, ...] = ()


def _state_space_checks(
    ss: StateSpace, grid: SweepGrid | None, op: OperatingPoint | None
) -> tuple[PoleReport, SweepReport, tuple[ResidueReport, ...], FeedthroughReport, bool]:
    """Conditions 1-3 and the feedthrough certificate; the last item is the verdict."""
    poles = check_poles(ss)
    feed = check_feedthrough(ss, op=op)
    sweep = sweep_psd(ss, grid)
    # A defective cluster has no residue and fails condition 3 outright.
    residues = tuple(
        check_residue_psd_hermitian(p.residue, omega=p.omega)
        if p.semisimple
        else ResidueReport(passed=False, hermitian_deviation=math.inf, min_eig=-math.inf, omega=p.omega)
        for p in poles.imaginary_axis
    )
    ok = poles.passed and sweep.passed and all(r.passed for r in residues) and feed.psd
    return poles, sweep, residues, feed, ok


class _Variant:
    """One variant network of a verdict grid and the work its cells share.

    `flags` names the variant and `case` is its network, both without the
    decoupled flag, which only the low-frequency Jacobian consumes. Its
    operating point, Y_DQ(s), J_LF, decoupled J_LF and J(s) are each built
    on first use and at most once, and `realize` builds a cell's model from
    them. Every cell copies what it changes (`apply_qv_contribution`,
    `replace`), so the cells read the same objects and nothing else.
    """

    def __init__(self, case: NetworkCase, flags: VariantFlags) -> None:
        self.flags = replace(flags, decoupled=False)
        self.case = derive_variant(case, self.flags)

    @cached_property
    def op(self) -> OperatingPoint:
        return solve_powerflow(self.case)

    @cached_property
    def ydq(self) -> StateSpace:
        return assemble_ydq(self.case)

    @cached_property
    def jlf(self) -> StateSpace:
        return build_jlf_analytic(self.case, self.op)

    @cached_property
    def jlf_decoupled(self) -> StateSpace:
        return decouple(self.jlf)

    @cached_property
    def j_of_s(self) -> StateSpace:
        op = self.op  # the loading is checked before the network is assembled
        return build_j_of_s(self.ydq, op)

    def realize(self, model: str, analysis: str, decoupled: bool, tau: float) -> StateSpace:
        """The state-space realization of one cell of this variant.

        Low-frequency II-IV are built from J_LF, decoupled when asked; model
        II is J_LF itself. An invalid combination raises ValueError before
        any power flow runs.
        """
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        if analysis not in ("wideband", "lowfreq"):
            raise ValueError(f"unknown analysis {analysis!r}")
        if decoupled and analysis != "lowfreq":
            raise ValueError("the decoupled simplification applies to low-frequency models only")
        if decoupled and model == "I":
            raise ValueError("the decoupled simplification does not apply to the rectangular model")
        _check_tau(tau)

        if model == "I":
            if analysis == "wideband":
                return self.ydq
            m = self.ydq.n_inputs
            zero_state = dict(a=np.zeros((0, 0)), b=np.zeros((0, m)), c=np.zeros((m, 0)), state_meta=())
            return replace(self.ydq, d=eval_tf(self.ydq, 0.0), **zero_state)
        if analysis == "wideband":
            return build_polar_model(model, self.j_of_s, tau)
        return build_polar_model(model, self.jlf_decoupled if decoupled else self.jlf, tau)


def classify_model(
    case: NetworkCase | _Variant,
    flags: VariantFlags = VariantFlags(),
    model: str = "I",
    analysis: str = "lowfreq",
    tau: float = 0.01,
    regulation: RegulationSet | None = None,
    grid: SweepGrid | None = None,
) -> PassivityVerdict:
    """Classify one (model, analysis, variant) combination of a network.

    For the polar models II-IV the variant network is re-solved so its
    operating point is self-consistent; the rectangular model I is the
    network alone and solves no power flow, so it is classified even where
    the loading has no solution. Every cell is realized as state space and
    goes through one pipeline: poles, sweep, residues, feedthrough. The static
    low-frequency models are zero-state realizations, Y_DQ(0) for I and
    N(s) = J_LF for II, so their sweep is the symmetric-part spectrum of D
    and they report no pole check; III and IV are J_LF behind the channel
    filters. A supplied regulation set can flip a failing verdict to
    "passive-after-regulation". Model II is then judged with the structural
    uniform-angle mode excluded (it is a right null vector of the Jacobian,
    persists under regulation, and for lossy networks sits slightly below
    zero in the symmetric part); III and IV re-run the pipeline.

    A caller with several cells of one variant (`classify_grid`) passes a
    `_Variant` as `case`, so that they share its work. One built for other
    flags than `flags`, `decoupled` aside, is a ValueError before any power
    flow, as is a regulation set on a wideband or rectangular cell.
    """
    # A context of its own is dropped once the cell is realized, J(s) with it.
    work = case if isinstance(case, _Variant) else _Variant(case, flags)
    if work.flags != replace(flags, decoupled=False):
        raise ValueError(f"the variant was built for {work.flags}, not for {flags}")
    if regulation and analysis != "lowfreq":
        raise ValueError("regulation contributions apply to low-frequency models only")
    if regulation and model == "I":
        raise ValueError("the rectangular model needs no regulation")
    ss = work.realize(model, analysis, flags.decoupled, tau)
    op = work.op if model == "III" else None
    if regulation:  # applied at once, so an unknown bus fails a passing cell too
        jlf = apply_qv_contribution(work.jlf_decoupled if flags.decoupled else work.jlf, regulation)
    del work
    notes = {
        ("I", "lowfreq"): ("static rectangular model Y_DQ(0)",),
        ("II", "lowfreq"): ("static load-flow Jacobian J_LF",),
    }.get((model, analysis), ())
    poles, sweep, residues, feed, ok = _state_space_checks(ss, grid, op)
    regulated = None
    overall = "passive" if ok else "non-passive"
    if not ok and regulation:
        # Regulation is accepted for low-frequency models II-IV only, so jlf
        # is their regulated J_LF.
        if model == "II":
            lam = min_eig_excluding_uniform_angle(jlf.d + jlf.d.T)
            regulated = RegulatedReport(
                regulation=regulation.entries,
                flipped=_psd(lam),
                min_eig_excluding_structural=lam,
            )
        else:
            ss_r = build_polar_model(model, jlf, tau)
            _, sweep_r, residues_r, _, flipped = _state_space_checks(ss_r, grid, None)
            regulated = RegulatedReport(
                regulation=regulation.entries,
                flipped=flipped,
                residue=residues_r[0],  # the single origin cluster of the integrators
                sweep=sweep_r,
            )
        if regulated.flipped:
            overall = "passive-after-regulation"
    return PassivityVerdict(
        model=model,
        analysis=analysis,
        variant=flags,
        overall=overall,
        cond1=poles if ss.n_states else None,
        cond2=sweep,
        cond3=residues,
        feedthrough=feed,
        regulated=regulated,
        notes=notes,
    )


def classify_grid(
    case: NetworkCase | _Variant,
    tau: float = 0.01,
    regulation: RegulationSet | None = None,
) -> dict[str, dict[str, str]]:
    """Verdict grid over every model and variant column.

    Returns {model: {"wideband": verdict, "<column>/coupled": verdict,
    "<column>/decoupled": verdict, ...}}; the rectangular model has a
    single verdict per column. Each column's variant (`_Variant`) is built
    once and shared by its cells and the wideband row: one case, operating
    point, Y_DQ(s), J_LF and decoupled J_LF per column, one J(s) for the
    grid. A caller that has used the base case's context (`cli.cmd_tables`)
    passes it as `case`: it is the lossy_b column, so it must be built for
    VariantFlags(), and the other columns derive from its case.
    """
    base = case if isinstance(case, _Variant) else _Variant(case, VariantFlags())
    if base.flags != VariantFlags():
        raise ValueError(f"the lossy_b column needs the base variant, not one built for {base.flags}")
    works = {"lossy_b": base, **{name: _Variant(base.case, flags) for name, flags in VARIANT_COLUMNS[1:]}}
    out: dict[str, dict[str, str]] = {}
    for model in MODELS:
        # The wideband cell's VariantFlags() is the lossy_b column.
        row = {"wideband": classify_model(works["lossy_b"], VariantFlags(), model, "wideband", tau).overall}
        for name, flags in VARIANT_COLUMNS:
            if model == "I":
                row[name] = classify_model(works[name], flags, model, "lowfreq", tau).overall
                continue
            for coupled, dec in (("coupled", False), ("decoupled", True)):
                f = replace(flags, decoupled=dec)
                row[f"{name}/{coupled}"] = classify_model(works[name], f, model, "lowfreq", tau, regulation).overall
        out[model] = row
    return out
