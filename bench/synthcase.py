"""Deterministic synthetic meshed networks for the benchmark.

A ring of `n_bus` buses with about n/3 random chords, every branch an R-L
line with line charging, PV units on about n/5 buses, light PQ loading on
the rest and bus shunt capacitance on about 30% of buses. The counts are
fixed by `n_bus` alone, so every seed gives models of the same size; the
seed draws the parameter values, the chord endpoints and which buses carry
generation and shunts.
"""

from __future__ import annotations

import numpy as np

from dqpassivity import Branch, Bus, Injection, NetworkCase, SystemParams
from dqpassivity.netcase import validate_case


def mesh_case(n_bus: int, seed: int) -> NetworkCase:
    """Ring-plus-chords case with `n_bus` buses drawn from `seed`."""
    if n_bus < 6:
        raise ValueError("need at least 6 buses for a ring with chords")
    rng = np.random.default_rng(seed)
    ids = np.arange(1, n_bus + 1)

    def line(a: int, b: int) -> Branch:
        return Branch(
            from_bus=int(a),
            to_bus=int(b),
            r=float(rng.uniform(0.005, 0.03)),
            x=float(rng.uniform(0.05, 0.15)),
            b_line=float(rng.uniform(0.02, 0.2)),
        )

    branches = [line(i, i % n_bus + 1) for i in ids]
    pairs = {tuple(sorted((int(i), int(i % n_bus + 1)))) for i in ids}
    while len(pairs) < n_bus + n_bus // 3:
        a, b = sorted(int(v) for v in rng.choice(ids, size=2, replace=False))
        if (a, b) not in pairs:
            pairs.add((a, b))
            branches.append(line(a, b))

    shunted = set(rng.choice(ids, size=round(0.3 * n_bus), replace=False).tolist())
    buses = tuple(
        Bus(id=int(i), b_shunt=float(rng.uniform(0.02, 0.1)) if i in shunted else 0.0)
        for i in ids
    )

    pv = set(rng.choice(ids[1:], size=n_bus // 5, replace=False).tolist())
    injections = [Injection(bus=1, kind="slack", vset=1.02)]
    for i in ids[1:]:
        if i in pv:
            injections.append(
                Injection(
                    bus=int(i),
                    kind="pv",
                    p=float(rng.uniform(0.2, 0.5)),
                    vset=float(rng.uniform(1.0, 1.03)),
                )
            )
        else:
            injections.append(
                Injection(
                    bus=int(i),
                    kind="pq",
                    p=-float(rng.uniform(0.05, 0.2)),
                    q=-float(rng.uniform(0.01, 0.08)),
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
