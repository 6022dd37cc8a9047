"""Each layer module's `__all__` names only what the module defines.

`bench/layertrace.py` finds the functions it times through `__all__`, so a
stale entry left behind by a deleted name would go unnoticed there. The
package re-exports every layer's `__all__`.
"""

import importlib

import pytest

LAYERS = ("netcase", "powerflow", "dqstamp", "polarmodels", "passcheck", "passivate")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_exist(layer):
    module = importlib.import_module(f"dqpassivity.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from dqpassivity.{layer} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_exports_every_layer_name():
    package = importlib.import_module("dqpassivity")
    for layer in LAYERS:
        module = importlib.import_module(f"dqpassivity.{layer}")
        missing = [n for n in module.__all__ if getattr(package, n, None) is not getattr(module, n)]
        assert missing == []
