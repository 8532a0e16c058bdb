"""The names that code outside the package looks up in it."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "shychase"


def _traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_name_is_a_callable_of_its_layer():
    """The benchmark's `--trace 1` wraps each function in TRACED by name, so
    a renamed or deleted one must fail here rather than in a traced run."""
    for layer, names in _traced_layers().items():
        module = importlib.import_module(f"shychase.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"shychase.{layer}.{name}"


def test_every_exported_name_resolves():
    """Each name in `shychase.__all__` is an attribute of the package, so a
    removed function cannot leave a dangling export."""
    package = importlib.import_module("shychase")
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def _unused_imports(path: Path) -> list:
    """Names the module at path imports and never loads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    """Each module of the package, apart from `__init__`, which re-exports
    names, uses every name it imports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            assert _unused_imports(path) == [], path.name


def _modules_loaded_by(statement: str) -> set:
    """The modules that running statement in a fresh interpreter adds to
    `sys.modules`; those loaded at start-up do not count."""
    script = ("import sys\nbefore = set(sys.modules)\n" + statement
              + "\nprint(*sorted(set(sys.modules) - before), sep='\\n')")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


def test_the_cli_loads_neither_the_harness_nor_dataclasses():
    """Only `shychase harness` imports the harness, and no record is a
    dataclass, so a CLI process loads neither."""
    loaded = _modules_loaded_by("import shychase.cli")
    assert "shychase.cli" in loaded
    assert "shychase.harness" not in loaded
    assert "dataclasses" not in loaded


def test_the_package_loads_every_traced_layer():
    """`perfbench/tracing.py` looks each traced layer up in `sys.modules`
    after importing `shychase` and `shychase.cli`, so the package imports
    every other traced layer eagerly."""
    loaded = _modules_loaded_by("import shychase")
    assert {f"shychase.{layer}" for layer in _traced_layers()} - loaded == {"shychase.cli"}


def test_no_module_of_the_package_loads_dataclasses():
    modules = ", ".join(f"shychase.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
                        if path.stem != "__init__")
    loaded = _modules_loaded_by(f"import {modules}")
    assert "shychase.harness" in loaded
    assert "dataclasses" not in loaded
