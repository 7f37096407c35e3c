"""Every name a script outside ``src/`` imports from ``repro`` exists.

The examples run for minutes, so tier-1 does not execute them (CI's
non-blocking "examples smoke" step does); nor does it run
``benchmarks/`` or ``perfbench/``. These tests walk each script's AST
instead: every ``from repro... import name`` (at module level or inside
a function) must resolve to an attribute or submodule of the named
module, and every ``import repro.x [as y]`` must import, so deleting or
renaming a public name cannot silently break an example or first show
up as a failed benchmark run. The scripts are only read, never run.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARK_SCRIPTS = sorted((ROOT / "benchmarks").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def repro_imports(path):
    """``(module, name)`` for every ``from repro... import name`` in
    ``path``, and ``(module, None)`` for every ``import repro...``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if _is_repro(node.module):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name, None


def resolves(module, name):
    """Whether ``from module import name`` (or, with ``name=None``,
    ``import module``) succeeds: an attribute or a submodule, as
    Python's import statement allows."""
    try:
        imported = importlib.import_module(module)
    except ModuleNotFoundError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def unresolved(path):
    return [
        module if name is None else f"{module}.{name}"
        for module, name in repro_imports(path)
        if not resolves(module, name)
    ]


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    assert list(repro_imports(path)), f"{path.name} imports nothing from repro"
    assert unresolved(path) == []


def test_benchmark_scripts_found():
    names = {f"{path.parent.name}/{path.name}" for path in BENCHMARK_SCRIPTS}
    assert {"benchmarks/test_serve_throughput.py", "perfbench/wl_serve.py"} <= names


@pytest.mark.parametrize(
    "path", BENCHMARK_SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_benchmark_script_imports_resolve(path):
    # Helpers such as perfbench/common.py import nothing from repro;
    # only the names a script does import are checked.
    assert unresolved(path) == []


def test_check_catches_a_missing_name(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "import repro.serve.replay as replay\n"
        "import repro.serve.nope as nope\n"
        "def run():\n"
        "    from repro.serve.replay import build_uniform_artifact, no_such_name\n"
    )
    assert unresolved(script) == [
        "repro.serve.nope",
        "repro.serve.replay.no_such_name",
    ]
