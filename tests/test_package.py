"""The names that code outside the package looks up in it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_its_layer():
    """The benchmark's `--trace 1` wraps each function in TRACED by name, so
    a renamed or deleted one must fail here rather than in a traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"shychase.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"shychase.{layer}.{name}"
