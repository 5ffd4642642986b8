"""The public API stays consistent: every name a module exports exists, and
the package re-exports only names its modules declare public."""

import ast
import importlib
from pathlib import Path

import pytest

import biconf

MODULES = ("expr", "fields", "oracle", "deform", "families")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"biconf.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(biconf.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"biconf.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
