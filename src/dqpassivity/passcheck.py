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
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dqstamp import SingularFrequencyError, StateSpace, assemble_ydq, eval_tf, storage_energy
from .netcase import NetworkCase, VariantFlags, derive_variant
from .passivate import RegulationSet, apply_qv_contribution, min_eig_excluding_uniform_angle
from .polarmodels import build_j_of_s, build_lf_model, build_polar_model
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


# Steps per chunk of the dissipation integrator: inputs, supplied energy and
# margins are vectorized over a chunk. Larger chunks save little time and
# cost memory (about 4 MB more peak RSS at 1024 steps on the nine-bus case).
_CHUNK_STEPS = 128


class SimulationUnstableError(RuntimeError):
    """Fixed-step integration would be (or became) numerically unstable."""


# ---------------------------------------------------------------------------
# Hermitian minimum eigenvalue
# ---------------------------------------------------------------------------


def hermitian_min_eig(h: np.ndarray) -> float:
    """Smallest eigenvalue of a (complex) Hermitian matrix."""
    return float(np.linalg.eigvalsh(h)[0])


# ---------------------------------------------------------------------------
# Condition 1 / 3: poles and residues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImaginaryAxisPole:
    omega: float
    multiplicity: int
    geometric_multiplicity: int
    semisimple: bool
    residue: np.ndarray | None  # None when defective

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "multiplicity": self.multiplicity,
            "geometric_multiplicity": self.geometric_multiplicity,
            "semisimple": self.semisimple,
        }


@dataclass(frozen=True)
class PoleReport:
    passed: bool
    unstable: tuple[complex, ...]
    imaginary_axis: tuple[ImaginaryAxisPole, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "unstable_poles": [[p.real, p.imag] for p in self.unstable],
            "imaginary_axis_poles": [p.to_dict() for p in self.imaginary_axis],
        }


def _structural_residue_at_zero(ss: StateSpace) -> np.ndarray:
    """Residue of the origin pole for realizations with explicit integrators.

    With states partitioned into (x, z), z the integrators driven directly
    by the inputs, A = [[Ax, Axz], [0, 0]] and the spectral projector onto
    the zero eigenspace gives residue (Cz - Cx Ax^-1 Axz) Bz exactly.
    """
    integ = list(ss.integrator_states)
    keep = [i for i in range(ss.n_states) if i not in integ]
    ax = ss.a[np.ix_(keep, keep)]
    axz = ss.a[np.ix_(keep, integ)]
    cx = ss.c[:, keep]
    cz = ss.c[:, integ]
    bz = ss.b[integ, :]
    return (cz - cx @ np.linalg.solve(ax, axz)) @ bz


def _projection_residue(ss: StateSpace, center: complex, cluster_tol: float) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eig(ss.a)
    sel = np.abs(eigvals - center) <= cluster_tol
    left = np.linalg.inv(eigvecs)[sel, :]
    projector = eigvecs[:, sel] @ left
    return ss.c @ projector @ ss.b

def check_poles(ss: StateSpace, tol: float = 1e-9, cluster_tol: float = 1e-6) -> PoleReport:
    """Condition 1 (no RHP poles) and the pole-side part of condition 3.

    Imaginary-axis eigenvalues are clustered within `cluster_tol`. A
    cluster fails condition 3 outright when defective (Jordan block); for a
    first-order (semisimple) cluster the total residue lim (s-jw)G(s) is
    attached for the PSD-Hermitian test. Exact-integrator realizations get
    the structural residue at the origin, everything else an
    eigenprojection.
    """
    if ss.n_states == 0:
        return PoleReport(passed=True, unstable=(), imaginary_axis=())
    eigs = ss.poles
    unstable = tuple(complex(z) for z in eigs[eigs.real > tol])
    on_axis = eigs[np.abs(eigs.real) <= tol]
    clusters: list[list[complex]] = []
    for z in sorted(on_axis, key=lambda z: z.imag):
        if clusters and abs(z.imag - clusters[-1][-1].imag) <= cluster_tol:
            clusters[-1].append(z)
        else:
            clusters.append([z])
    poles: list[ImaginaryAxisPole] = []
    for group in clusters:
        omega = float(np.mean([z.imag for z in group]))
        center = 1j * omega
        alg = len(group)
        sv = np.linalg.svd(ss.a - center * np.eye(ss.n_states), compute_uv=False)
        # Null directions of the cluster: standard numerical-rank cutoff,
        # widened to the cluster radius so near-coincident eigenvalues count.
        rank_tol = max(10.0 * cluster_tol, float(sv[0]) * len(sv) * np.finfo(float).eps)
        geo = int(np.sum(sv <= rank_tol))
        semisimple = geo >= alg
        residue = None
        if semisimple:
            if abs(omega) <= tol and ss.integrator_states:
                residue = _structural_residue_at_zero(ss).astype(complex)
            else:
                residue = _projection_residue(ss, center, cluster_tol)
        poles.append(
            ImaginaryAxisPole(
                omega=omega,
                multiplicity=alg,
                geometric_multiplicity=geo,
                semisimple=semisimple,
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
    pole_exclusion: float = 1e-6

    def __post_init__(self) -> None:
        if self.omega_min <= 0 or self.omega_max <= self.omega_min:
            raise ValueError("need 0 < omega_min < omega_max")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")

    def points(self, exclude: Sequence[float] = ()) -> np.ndarray:
        decades = math.log10(self.omega_max / self.omega_min)
        count = max(2, int(round(decades * self.points_per_decade)) + 1)
        omegas = np.logspace(math.log10(self.omega_min), math.log10(self.omega_max), count)
        for pole in exclude:
            omegas = omegas[np.abs(omegas - abs(pole)) > self.pole_exclusion]
        return omegas


@dataclass(frozen=True)
class SweepReport:
    passed: bool
    min_eig: float
    worst_omega: float | None  # None for static (frequency-independent) models
    n_points: int
    samples: tuple[tuple[float, float], ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_eig": self.min_eig,
            "worst_omega": self.worst_omega,
            "n_points": self.n_points,
        }


def sweep_psd(
    ss: StateSpace,
    grid: SweepGrid | None = None,
    poles: Sequence[float] = (),
    tol: float = 1e-9,
) -> SweepReport:
    """Condition 2: minimum eigenvalue of G(jw) + G^H(jw) across the grid.

    For real-coefficient models G^T(-jw) = G^H(jw), so sweeping w >= 0
    covers the whole axis. Pass iff the global minimum stays above -tol.
    A zero-state model is G = D at every frequency: one point, no omega.
    A grid left without points by the pole exclusion is a ValueError.

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
        return SweepReport(passed=lam >= -tol, min_eig=lam, worst_omega=None, n_points=1)
    grid = grid if grid is not None else SweepGrid()
    omegas = grid.points(exclude=poles)
    if omegas.size == 0:
        raise ValueError(
            f"{grid} has no point left after excluding the poles at omega={list(poles)}"
        )
    if not ss.a.any() and omegas.size > 2:
        omegas = omegas[[0, -1]]
    worst = math.inf
    worst_omega = None
    samples: list[tuple[float, float]] = []
    for w in omegas:
        try:
            g = eval_tf(ss, 1j * w)
        except SingularFrequencyError as exc:
            raise ValueError(f"transfer matrix singular at sweep point omega={w}: {exc}") from exc
        lam = hermitian_min_eig(g + g.conj().T)
        samples.append((float(w), lam))
        if lam < worst:
            worst = lam
            worst_omega = float(w)
    return SweepReport(
        passed=worst >= -tol,
        min_eig=worst,
        worst_omega=worst_omega,
        n_points=len(omegas),
        samples=tuple(samples),
    )


# ---------------------------------------------------------------------------
# Feedthrough certificate and residue check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedthroughReport:
    trace: float
    min_eig: float
    diagonal: tuple[float, ...]
    psd: bool
    # i_Do v_Qo - i_Qo v_Do per bus (= -Q_o), the sign carrier for the
    # frequency-deviation model's diagonal; only set when an operating
    # point is supplied.
    cross_per_bus: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "trace": self.trace,
            "min_eig": self.min_eig,
            "diagonal": list(self.diagonal),
            "psd": self.psd,
        }
        if self.cross_per_bus is not None:
            out["cross_per_bus"] = list(self.cross_per_bus)
        return out


def check_feedthrough(
    ss: StateSpace, op: OperatingPoint | None = None, tol: float = 1e-9
) -> FeedthroughReport:
    """Necessary time-domain condition on the direct gain: D + D^T >= 0."""
    sym = ss.d + ss.d.T
    cross = None
    if op is not None:
        cross = tuple(float(v) for v in op.i_d * op.v_q - op.i_q * op.v_d)
    min_eig = float(np.linalg.eigvalsh(sym)[0]) if sym.size else 0.0
    return FeedthroughReport(
        trace=float(np.trace(sym)),
        min_eig=min_eig,
        diagonal=tuple(float(v) for v in np.diag(sym)),
        psd=min_eig >= -tol,
        cross_per_bus=cross,
    )


@dataclass(frozen=True)
class ResidueReport:
    passed: bool
    hermitian_deviation: float
    min_eig: float
    omega: float | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "hermitian_deviation": self.hermitian_deviation,
            "min_eig": self.min_eig,
            "omega": self.omega,
        }


def check_residue_psd_hermitian(
    residue: np.ndarray, tol: float = 1e-9, omega: float | None = None
) -> ResidueReport:
    """Condition 3 residue test: Hermitian within tol (relative) and PSD."""
    r = np.asarray(residue, dtype=complex)
    norm = np.linalg.norm(r)
    dev = float(np.linalg.norm(r - r.conj().T) / norm) if norm > 0 else 0.0
    herm = 0.5 * (r + r.conj().T)
    lam = hermitian_min_eig(herm)
    return ResidueReport(
        passed=dev <= tol and lam >= -tol,
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


def random_multisine(
    rng: np.random.Generator,
    n_channels: int,
    n_tones: int = 5,
    omega_range: tuple[float, float] = (10.0, 3000.0),
    amplitude: float = 0.1,
) -> MultisineInput:
    omegas = np.exp(rng.uniform(np.log(omega_range[0]), np.log(omega_range[1]), n_tones))
    return MultisineInput(
        omegas=omegas,
        amplitudes=rng.uniform(0.0, amplitude, (n_channels, n_tones)),
        phases=rng.uniform(0.0, 2.0 * np.pi, (n_channels, n_tones)),
    )


@dataclass(frozen=True)
class DissipationReport:
    min_margin: float
    t_at_min: float
    supplied: float  # integral of u^T y over the horizon
    stored_delta: float  # S(x(T)) - S(x(0))
    n_steps: int
    dt: float

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0

    def to_dict(self) -> dict:
        return {
            "min_margin": self.min_margin,
            "t_at_min": self.t_at_min,
            "supplied": self.supplied,
            "stored_delta": self.stored_delta,
            "n_steps": self.n_steps,
            "dt": self.dt,
        }


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
    works as well as a `MultisineInput`. Only x+ = phi x + gamma w stays
    a per-step loop; the supplied energy, the stored energy and the margin
    are computed per chunk on the stored states.
    """
    x = np.zeros(ss.n_states) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (ss.n_states,):
        raise ValueError("x0 has the wrong length")
    e0 = storage_energy(x, ss.state_meta)  # also rejects non-physical states
    stable = ss.poles[ss.poles.real < 0]
    if stable.size and float(np.max(np.abs(stable))) * dt > 2.5:
        worst = float(np.max(np.abs(stable)))
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
    # Overflow is caught by the per-chunk finite check below.
    with np.errstate(over="ignore", invalid="ignore"):
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
            xs = np.empty((n_chunk + 1, ss.n_states))
            xs[0] = x
            xs[1:] = w @ gamma.T
            for prev, nxt in zip(xs[:-1], xs[1:]):  # row views: updates xs in place
                nxt += phi.dot(prev)
            z = np.hstack((xs[:-1], w))
            supplied_run = supplied + np.cumsum(((z @ q) * z).sum(axis=1))
            margin = supplied_run - (storage_energy(xs[1:], ss.state_meta) - e0)
            # The margin is non-finite once a state, its energy or the supply is.
            finite = np.isfinite(xs[1:]).all(axis=1) & np.isfinite(margin)
            if not finite.all():
                raise SimulationUnstableError(
                    f"state overflow at t={t_steps[1 + np.argmin(finite)]:.4g}s; "
                    "reduce the integration step"
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
        stored_delta=float(storage_energy(x, ss.state_meta) - e0),
        n_steps=n_steps,
        dt=dt,
    )


# ---------------------------------------------------------------------------
# Verdict assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegulatedReport:
    regulation: tuple[tuple[int, float], ...]
    flipped: bool
    min_eig_excluding_structural: float | None = None
    residue: ResidueReport | None = None
    sweep: SweepReport | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "regulation": [[b, k] for b, k in self.regulation],
            "flipped": self.flipped,
        }
        if self.min_eig_excluding_structural is not None:
            out["min_eig_excluding_structural"] = self.min_eig_excluding_structural
        if self.residue is not None:
            out["residue"] = self.residue.to_dict()
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        return out


@dataclass(frozen=True)
class PassivityVerdict:
    model: str
    analysis: str
    lossless: bool
    no_shunt_b: bool
    decoupled: bool
    overall: str  # "passive" | "non-passive" | "passive-after-regulation"
    cond1: PoleReport | None = None
    cond2: SweepReport | None = None
    cond3: tuple[ResidueReport, ...] = ()
    feedthrough: FeedthroughReport | None = None
    regulated: RegulatedReport | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "analysis": self.analysis,
            "variant": {
                "lossless": self.lossless,
                "no_shunt_b": self.no_shunt_b,
                "decoupled": self.decoupled,
            },
            "overall": self.overall,
            "cond1_rhp_poles": self.cond1.to_dict() if self.cond1 else None,
            "cond2_sweep": self.cond2.to_dict() if self.cond2 else None,
            "cond3_residues": [r.to_dict() for r in self.cond3],
            "feedthrough": self.feedthrough.to_dict() if self.feedthrough else None,
            "regulated": self.regulated.to_dict() if self.regulated else None,
            "notes": list(self.notes),
        }


def _state_space_checks(
    ss: StateSpace,
    grid: SweepGrid,
    tol: float,
    op: OperatingPoint | None,
) -> tuple[PoleReport, SweepReport, tuple[ResidueReport, ...], FeedthroughReport, bool]:
    """Conditions 1-3 and the feedthrough certificate; the last item is the verdict."""
    poles = check_poles(ss, tol=tol)
    imag_omegas = [p.omega for p in poles.imaginary_axis]
    sweep = sweep_psd(ss, grid, poles=imag_omegas, tol=tol)
    residues: list[ResidueReport] = []
    residues_ok = True
    for p in poles.imaginary_axis:
        if not p.semisimple:
            residues.append(
                ResidueReport(passed=False, hermitian_deviation=math.inf, min_eig=-math.inf, omega=p.omega)
            )
            residues_ok = False
        else:
            rep = check_residue_psd_hermitian(p.residue, tol=tol, omega=p.omega)
            residues.append(rep)
            residues_ok = residues_ok and rep.passed
    feed = check_feedthrough(ss, op=op, tol=tol)
    ok = poles.passed and sweep.passed and residues_ok and feed.psd
    return poles, sweep, tuple(residues), feed, ok


def classify_model(
    case: NetworkCase,
    flags: VariantFlags = VariantFlags(),
    model: str = "I",
    analysis: str = "lowfreq",
    tau: float = 0.01,
    regulation: RegulationSet | None = None,
    grid: SweepGrid | None = None,
    tol: float = 1e-9,
) -> PassivityVerdict:
    """Classify one (model, analysis, variant) combination of a network.

    The variant network is re-solved so its operating point is
    self-consistent. Every cell is realized as state space and goes through
    one pipeline: poles, sweep, residues, feedthrough. The static
    low-frequency models are zero-state realizations, Y_DQ(0) for I and
    N(s) = J_LF for II, so their sweep is the symmetric-part spectrum of D
    and they report no pole check; III and IV are J_LF behind the channel
    filters. A supplied regulation set can flip a failing verdict to
    "passive-after-regulation". Model II is then judged with the structural
    uniform-angle mode excluded (it is a right null vector of the Jacobian,
    persists under regulation, and for lossy networks sits slightly below
    zero in the symmetric part); III and IV re-run the pipeline.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if analysis not in ("wideband", "lowfreq"):
        raise ValueError(f"unknown analysis {analysis!r}")
    if flags.decoupled and analysis != "lowfreq":
        raise ValueError("the decoupled simplification applies to low-frequency models only")
    if flags.decoupled and model == "I":
        raise ValueError("the decoupled simplification does not apply to the rectangular model")
    if regulation is not None and analysis != "lowfreq":
        raise ValueError("regulation contributions apply to low-frequency models only")
    if regulation is not None and model == "I":
        raise ValueError("the rectangular model needs no regulation")

    variant = derive_variant(case, flags)
    op = solve_powerflow(variant)
    grid = grid if grid is not None else SweepGrid()
    notes: tuple[str, ...] = ()

    if analysis == "wideband":
        ydq = assemble_ydq(variant)
        ss = ydq if model == "I" else build_polar_model(model, build_j_of_s(ydq, op), tau)
    elif model == "I":
        ydq = assemble_ydq(variant)
        m = ydq.n_inputs
        ss = replace(
            ydq,
            a=np.zeros((0, 0)),
            b=np.zeros((0, m)),
            c=np.zeros((m, 0)),
            d=eval_tf(ydq, 0.0),
            state_meta=(),
        )
        notes = ("static rectangular model Y_DQ(0)",)
    else:
        jlf = build_jlf_analytic(variant, op)
        if flags.decoupled:
            jlf = decouple(jlf)
        ss = build_polar_model(model, build_lf_model(jlf), tau)
        if model == "II":
            notes = ("static load-flow Jacobian J_LF",)

    poles, sweep, residues, feed, ok = _state_space_checks(
        ss, grid, tol, op if model == "III" else None
    )
    regulated = None
    overall = "passive" if ok else "non-passive"
    if not ok and regulation:
        # Regulation is accepted for low-frequency models II-IV only, so the
        # low-frequency Jacobian is bound here.
        jr = apply_qv_contribution(jlf, regulation)
        if model == "II":
            lam = min_eig_excluding_uniform_angle(jr.symmetric_part())
            regulated = RegulatedReport(
                regulation=regulation.entries,
                flipped=lam >= -tol,
                min_eig_excluding_structural=lam,
            )
        else:
            ss_r = build_polar_model(model, build_lf_model(jr), tau)
            _, sweep_r, residues_r, _, flipped = _state_space_checks(ss_r, grid, tol, None)
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
        lossless=flags.lossless,
        no_shunt_b=flags.no_shunt_b,
        decoupled=flags.decoupled,
        overall=overall,
        cond1=poles if ss.n_states else None,
        cond2=sweep,
        cond3=residues,
        feedthrough=feed,
        regulated=regulated,
        notes=notes,
    )


def classify_grid(
    case: NetworkCase,
    tau: float = 0.01,
    regulation: RegulationSet | None = None,
) -> dict[str, dict[str, str]]:
    """Verdict grid over every model and variant column.

    Returns {model: {"wideband": verdict, "<column>/coupled": verdict,
    "<column>/decoupled": verdict, ...}}; the rectangular model has a
    single verdict per column.
    """
    out: dict[str, dict[str, str]] = {}
    for model in MODELS:
        row: dict[str, str] = {}
        row["wideband"] = classify_model(case, VariantFlags(), model, "wideband", tau).overall
        for name, flags in VARIANT_COLUMNS:
            if model == "I":
                row[name] = classify_model(case, flags, model, "lowfreq", tau).overall
                continue
            for coupled, dec in (("coupled", False), ("decoupled", True)):
                f = VariantFlags(flags.lossless, flags.no_shunt_b, dec)
                row[f"{name}/{coupled}"] = classify_model(
                    case, f, model, "lowfreq", tau, regulation
                ).overall
        out[model] = row
    return out
