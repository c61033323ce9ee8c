"""Public names: every export resolves, the package exports what it
imports, and every function the benchmark tracer wraps still exists."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import diffcomm

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(diffcomm.__path__, prefix="diffcomm.")
)


@pytest.mark.parametrize("name", ["diffcomm", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(diffcomm.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(diffcomm.__all__) == len(set(diffcomm.__all__))
    assert set(diffcomm.__all__) == imported


def test_every_bench_trace_target_resolves():
    """The tracer skips a target it cannot find and reports zero for it, so
    a rename would silently zero a per-layer metric."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [
        f"{layer}.{label}"
        for layer, label, owner, attr in tracer.TARGETS
        if tracer._resolve(layer, owner, attr)[1] is None
    ]
    assert unresolved == []
