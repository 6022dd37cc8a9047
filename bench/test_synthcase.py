"""The synthetic meshed cases: deterministic, fixed-size and solvable from flat start.

Run with `PYTHONPATH=src python -m pytest bench/test_synthcase.py`.
"""

import pytest

from dqpassivity import assemble_ydq, serialize_case, solve_powerflow

from synthcase import mesh_case


@pytest.mark.parametrize("n_bus", [30, 40, 60, 120])
def test_power_flow_converges_over_seed_range(n_bus):
    for seed in range(10):
        op = solve_powerflow(mesh_case(n_bus, seed))
        assert 0.8 < op.vm.min() and op.vm.max() < 1.3


def test_same_seed_same_case():
    assert serialize_case(mesh_case(40, 7)) == serialize_case(mesh_case(40, 7))
    assert serialize_case(mesh_case(40, 7)) != serialize_case(mesh_case(40, 8))


def test_model_size_fixed_by_bus_count():
    # 40 ring branches + 13 chords, and line charging puts a capacitor pair on every bus.
    for seed in range(5):
        ydq = assemble_ydq(mesh_case(40, seed))
        assert (ydq.n_states, ydq.n_inputs) == (186, 80)
