"""The package imports only the standard library and numpy.

numpy is the one declared runtime dependency; a module importing anything
else (scipy, say, where it happens to be installed) would break a plain
install of the package.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dqpassivity"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_stdlib_and_numpy(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    assert sorted(set(roots) - ALLOWED) == []
