"""Q-V voltage-regulation contributions and passivation of J_LF.

Shunt-connected devices that run a reactive-power/voltage droop add their
sensitivity k_qv to the diagonal of the J_LF22 block. The passivation
target is a non-negative symmetric-part spectrum with the structural
uniform-angle mode excluded: that mode is a right null vector of J_LF by
construction, persists under any regulation, and for lossy networks sits
slightly off zero in the symmetric part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .dqstamp import StateSpace

__all__ = [
    "RegulationSet",
    "InfeasibleRegulationError",
    "apply_qv_contribution",
    "min_eig_excluding_uniform_angle",
    "min_uniform_kqv",
]


class InfeasibleRegulationError(RuntimeError):
    """No admissible uniform contribution passivates the Jacobian."""


@dataclass(frozen=True)
class RegulationSet:
    """Per-bus Q-V droop contributions, pu Delta-Q per unit Delta-V_n."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        for bus, kqv in self.entries:
            if not (math.isfinite(kqv) and kqv >= 0):
                raise ValueError(f"regulation at bus {bus}: k_qv={kqv} must be finite and >= 0")

    @classmethod
    def uniform(cls, buses: Iterable[int], kqv: float) -> "RegulationSet":
        return cls(entries=tuple((b, kqv) for b in buses))

    def __bool__(self) -> bool:
        return bool(self.entries)


def apply_qv_contribution(j: StateSpace, reg: RegulationSet) -> StateSpace:
    """Copy of J_LF with each k_qv added to its J_LF22 diagonal entry, D[n + k, n + k]."""
    d = j.d.copy()
    for bus, kqv in reg.entries:
        k = _q_row(j, bus)
        d[k, k] += kqv
    return replace(j, d=d)


def _q_row(j: StateSpace, bus: int) -> int:
    if bus not in j.bus_ids:
        raise ValueError(f"regulation references unknown bus {bus}")
    return len(j.bus_ids) + j.bus_ids.index(bus)


def _deflation_basis(n: int, dim: int) -> np.ndarray:
    """Orthonormal basis of R^dim orthogonal to the uniform-angle direction,
    whose first n coordinates are the angle rows [1_n; 0]."""
    e = np.zeros(dim)
    e[:n] = 1.0 / np.sqrt(n)
    q, _ = np.linalg.qr(np.column_stack([e, np.eye(dim)]))
    return q[:, 1:dim]


def min_eig_excluding_uniform_angle(sym: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric 2n x 2n matrix on the quotient
    orthogonal to the uniform angle shift [1_n; 0_n]."""
    basis = _deflation_basis(sym.shape[0] // 2, sym.shape[0])
    return float(np.min(np.linalg.eigvalsh(basis.T @ sym @ basis)))


def min_uniform_kqv(j: StateSpace, buses: Sequence[int]) -> float:
    """Smallest uniform k_qv at the given buses that passivates J_LF.

    Passivated means the symmetric part M = J + J^T of the regulated
    Jacobian has no negative eigenvalue outside the structural
    uniform-angle mode e = [1_n; 0_n], i.e. M + 2k E is PSD on the
    complement of e, with E the diagonal that selects the regulated Q rows
    R (a bus listed c times counts c times). The other rows N contain the
    angle rows, so e lies in N; with W an orthonormal basis of
    N minus e, the complement of e is spanned by the R coordinates and W, and
    the form there is [[M_RR + 2k E_RR, M_RN W], [W^T M_NR, W^T M_NN W]].
    When H = W^T M_NN W is positive definite, that block matrix is PSD iff
    its Schur complement M_RR + 2k E_RR - M_RN W H^-1 W^T M_NR is
    (Boyd & Vandenberghe, Convex Optimization, A.5.5), which gives k in
    closed form. When H is not, no k helps: the failing direction lies
    outside the regulated rows.

    The result is the exact PSD boundary (lambda_min = 0 outside e), which
    the verdict's PSD rule (`passcheck._psd`) accepts.
    """
    if not buses:
        raise ValueError("need at least one regulating bus")
    reg_rows, counts = np.unique([_q_row(j, b) for b in buses], return_counts=True)
    n = len(j.bus_ids)
    other_rows = np.setdiff1d(np.arange(2 * n), reg_rows)
    m = j.d + j.d.T
    w = _deflation_basis(n, other_rows.size)
    try:
        chol = np.linalg.cholesky(w.T @ m[np.ix_(other_rows, other_rows)] @ w)
    except np.linalg.LinAlgError:
        raise InfeasibleRegulationError(
            f"no uniform contribution passivates the Jacobian with regulation at buses "
            f"{tuple(buses)}: a negative direction lies outside the regulated rows"
        ) from None
    x = np.linalg.solve(chol, w.T @ m[np.ix_(other_rows, reg_rows)])
    schur = (m[np.ix_(reg_rows, reg_rows)] - x.T @ x) / np.sqrt(np.outer(counts, counts))
    return max(0.0, -float(np.linalg.eigvalsh(schur)[0]) / 2.0)
