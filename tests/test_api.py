"""The public names: every exported name exists, and the package exports
exactly what its __init__ imports."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import soar

MODULES = sorted(f"soar.{info.name}" for info in pkgutil.iter_modules(soar.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_what_init_imports():
    tree = ast.parse(Path(soar.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(soar.__all__) == sorted(imported | {"__version__"})


def test_perfbench_span_names_resolve():
    """Every (module, attribute) the benchmark's span recorder wraps exists
    and is callable, so a library refactor cannot leave a per-layer metric
    silently absent."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = [
        (module, attribute)
        for module, attribute, _, _ in spans.LAYERS
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert spans.LAYERS and unresolved == []
