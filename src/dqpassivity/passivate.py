"""Q-V voltage-regulation contributions and passivation of J_LF.

Shunt-connected devices that run a reactive-power/voltage droop add their
sensitivity k_qv to the diagonal of the J_LF22 block. The passivation
target is a non-negative symmetric-part spectrum with the structural
uniform-angle mode excluded: that mode is a right null vector of J_LF by
construction, persists under any regulation, and for lossy networks sits
slightly off zero in the symmetric part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .powerflow import JacobianLF

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
            if kqv < 0:
                raise ValueError(f"regulation at bus {bus}: k_qv must be >= 0")

    @classmethod
    def uniform(cls, buses: Iterable[int], kqv: float) -> "RegulationSet":
        return cls(entries=tuple((b, kqv) for b in buses))

    def __bool__(self) -> bool:
        return bool(self.entries)


def apply_qv_contribution(j: JacobianLF, reg: RegulationSet) -> JacobianLF:
    """Add each k_qv to the matching diagonal entry of J_LF22."""
    j22 = j.j22.copy()
    for bus, kqv in reg.entries:
        if bus not in j.bus_ids:
            raise ValueError(f"regulation references unknown bus {bus}")
        k = j.bus_ids.index(bus)
        j22[k, k] += kqv
    return JacobianLF(j11=j.j11, j12=j.j12, j21=j.j21, j22=j22, bus_ids=j.bus_ids)


def _deflation_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the complement of the uniform-angle direction."""
    e = np.zeros(2 * n)
    e[:n] = 1.0 / np.sqrt(n)
    q, _ = np.linalg.qr(np.column_stack([e, np.eye(2 * n)]))
    return q[:, 1 : 2 * n]


def min_eig_excluding_uniform_angle(sym: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric 2n x 2n matrix on the quotient
    orthogonal to the uniform angle shift [1_n; 0_n]."""
    n = sym.shape[0] // 2
    basis = _deflation_basis(n)
    return float(np.min(np.linalg.eigvalsh(basis.T @ sym @ basis)))


def min_uniform_kqv(
    j: JacobianLF,
    buses: Sequence[int],
    tol: float = 1e-6,
    k_cap: float = 1e3,
) -> float:
    """Smallest uniform k_qv at the given buses that passivates J_LF.

    Passivated means the symmetric part of the regulated Jacobian has no
    eigenvalue below -tol outside the structural uniform-angle mode. The
    regulated symmetric part is the base one plus a PSD diagonal bump that
    grows linearly in k, so the deflated minimum eigenvalue is
    non-decreasing in k and bisection is valid.
    """
    if not buses:
        raise ValueError("need at least one regulating bus")

    def lam(k: float) -> float:
        reg = RegulationSet.uniform(buses, k)
        return min_eig_excluding_uniform_angle(apply_qv_contribution(j, reg).symmetric_part())

    if lam(0.0) >= -tol:
        return 0.0
    hi = 1.0
    while lam(hi) < -tol:
        hi *= 2.0
        if hi > k_cap:
            raise InfeasibleRegulationError(
                f"no uniform contribution up to {k_cap} pu passivates the Jacobian "
                f"with regulation at buses {tuple(buses)}"
            )
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if lam(mid) >= -tol:
            hi = mid
        else:
            lo = mid
    return hi
