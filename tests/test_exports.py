"""Public names: every export resolves, and the package exports what it imports."""

import ast
import importlib
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
