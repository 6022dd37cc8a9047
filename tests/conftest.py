"""Shared fixtures: the bundled nine-bus network and a random-case factory."""

from __future__ import annotations

import numpy as np
import pytest

from dqpassivity import (
    Branch,
    Bus,
    Injection,
    NetworkCase,
    PowerFlowError,
    SystemParams,
    load_ieee9,
    solve_powerflow,
)
from dqpassivity.netcase import validate_case


def dense_incidence(net) -> np.ndarray:
    """The n x m incidence K of a network record, entry by entry from each
    element's endpoints: its weight at the head bus, -1 at the tail bus."""
    k = np.zeros((net.n, net.head.size))
    for e, (head, tail, weight) in enumerate(zip(net.head, net.tail, net.weight)):
        k[head, e] = weight
        if tail >= 0:
            k[tail, e] = -1.0
    return k


@pytest.fixture(scope="session")
def ieee9():
    return load_ieee9()


@pytest.fixture(scope="session")
def ieee9_op(ieee9):
    return solve_powerflow(ieee9)


def two_bus_case(r=0.0, x=0.1, b_line=0.0, load_p=-0.5, load_q=0.0, load_kind="pq", vset=1.0):
    """Minimal slack + load network used by the closed-form checks."""
    inj_load = (
        Injection(bus=2, kind="pv", p=load_p, vset=vset)
        if load_kind == "pv"
        else Injection(bus=2, kind="pq", p=load_p, q=load_q)
    )
    return NetworkCase(
        system=SystemParams(),
        buses=(Bus(id=1), Bus(id=2)),
        branches=(Branch(from_bus=1, to_bus=2, r=r, x=x, b_line=b_line),),
        injections=(Injection(bus=1, kind="slack", vset=vset), inj_load),
    )


def random_case(rng: np.random.Generator) -> NetworkCase:
    """Random connected R-L-C network with positive parameters.

    Loads always carry reactive power so Q_o is nonzero somewhere; shunt
    compensation appears on a random subset of buses.
    """
    n = int(rng.integers(4, 9))
    branches = []
    for i in range(2, n + 1):
        branches.append(
            Branch(
                from_bus=int(rng.integers(1, i)),
                to_bus=i,
                r=float(rng.uniform(0.005, 0.05)),
                x=float(rng.uniform(0.03, 0.25)),
                b_line=float(rng.uniform(0.0, 0.3)) if rng.random() < 0.7 else 0.0,
            )
        )
    for _ in range(int(rng.integers(0, 3))):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        branches.append(
            Branch(
                from_bus=int(a),
                to_bus=int(b),
                r=float(rng.uniform(0.005, 0.05)),
                x=float(rng.uniform(0.05, 0.3)),
                b_line=0.0,
            )
        )
    buses = tuple(
        Bus(id=i, b_shunt=float(rng.uniform(0.0, 0.2)) if rng.random() < 0.3 else 0.0)
        for i in range(1, n + 1)
    )
    injections = [Injection(bus=1, kind="slack", vset=float(rng.uniform(1.0, 1.04)))]
    load_buses = rng.choice(np.arange(2, n + 1), size=max(1, (n - 1) // 2), replace=False)
    for b in load_buses:
        injections.append(
            Injection(
                bus=int(b),
                kind="pq",
                p=-float(rng.uniform(0.1, 0.5)),
                q=-float(rng.uniform(0.05, 0.25)),
            )
        )
    case = NetworkCase(
        system=SystemParams(),
        buses=buses,
        branches=tuple(branches),
        injections=tuple(injections),
    )
    validate_case(case)
    return case


def random_solved_case(rng: np.random.Generator, attempts: int = 10):
    """Draw random cases until the power flow converges."""
    for _ in range(attempts):
        case = random_case(rng)
        try:
            return case, solve_powerflow(case)
        except PowerFlowError:
            continue
    raise RuntimeError("could not draw a solvable random case")
