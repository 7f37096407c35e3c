"""Every name an ``examples/*.py`` script imports from ``repro`` exists.

The examples run for minutes, so tier-1 does not execute them (CI's
non-blocking "examples smoke" step does). This test walks each script's
AST instead: every ``from repro... import name`` (at module level or
inside a function) must resolve to an attribute or submodule of the
named module, so deleting or renaming a public name cannot silently
break an example.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def repro_imports(path):
    """``(module, name)`` for every ``from repro... import name`` in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    yield node.module, alias.name


def resolves(module, name):
    """Whether ``from module import name`` succeeds (an attribute or a
    submodule, as Python's import statement allows)."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not resolves(module, name)
    ]
    assert missing == []
