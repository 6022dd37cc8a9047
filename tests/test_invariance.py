"""Verdicts do not depend on labels: the order of the buses, branches and
injections, or the direction of a branch with ratio 1."""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from dqpassivity import RegulationSet, VariantFlags, classify_grid, classify_model, load_ieee9
from dqpassivity.passcheck import MODELS
from dqpassivity.reference import EXPECTED_GRID, REG_BUSES, REG_KQV
from test_cli import _compare_tree
from test_passcheck import _synthcase

TAU = 0.01


def _permuted(case, seed):
    """`case` with its buses, branches and injections in a seeded random order."""
    rng = np.random.default_rng(seed)

    def shuffle(items):
        return tuple(items[k] for k in rng.permutation(len(items)))

    return replace(
        case, buses=shuffle(case.buses), branches=shuffle(case.branches), injections=shuffle(case.injections)
    )


def _reversed(case):
    """`case` with every branch of ratio 1 turned end to end."""
    return replace(
        case,
        branches=tuple(
            replace(br, from_bus=br.to_bus, to_bus=br.from_bus) if br.ratio == 1.0 else br for br in case.branches
        ),
    )


CASES = {"ieee9": load_ieee9, "mesh-30-0": lambda: _synthcase().mesh_case(30, 0)}
RELABELS = {**{f"permuted-{seed}": lambda c, seed=seed: _permuted(c, seed) for seed in range(3)}, "reversed": _reversed}


@cache
def _wideband(case_name, relabel=None):
    case = CASES[case_name]()
    if relabel is not None:
        case = RELABELS[relabel](case)
        assert case != CASES[case_name]()
    return [classify_model(case, VariantFlags(), model, "wideband", TAU) for model in MODELS]


@pytest.mark.parametrize("relabel", RELABELS)
def test_verdict_grid_does_not_depend_on_labels(relabel):
    regulation = RegulationSet.uniform(REG_BUSES, REG_KQV)
    assert classify_grid(RELABELS[relabel](load_ieee9()), TAU, regulation) == EXPECTED_GRID


@pytest.mark.parametrize("relabel", RELABELS)
@pytest.mark.parametrize("case_name", CASES)
def test_wideband_verdicts_do_not_depend_on_labels(case_name, relabel):
    # A sweep minimum that is a numerical zero (model I at its transformer
    # resonances) moves with the rounding order, and so does its worst_omega.
    for want, got in zip(_wideband(case_name), _wideband(case_name, relabel)):
        if relabel == "reversed":
            # Reversal keeps every order, and K K^T is unchanged: bit for bit.
            assert got.to_dict() == want.to_dict()
        assert got.overall == want.overall
        _compare_tree(
            [got.feedthrough.min_eig, got.cond2.min_eig], [want.feedthrough.min_eig, want.cond2.min_eig]
        )
        if abs(want.cond2.min_eig) > 1e-9:
            assert got.cond2.worst_omega == want.cond2.worst_omega
