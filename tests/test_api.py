"""The public API stays consistent: every name a module exports exists, and
the package re-exports only names its modules declare public.  The module
graph keeps the oracle independent of the closed forms, and no module
depends on scipy or sympy."""

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


def _imports(path: Path) -> set:
    """The dotted names of the modules a source file of biconf imports,
    anywhere in the file; a relative import is resolved in the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"biconf.{base}".rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


SOURCES = sorted(Path(biconf.__file__).parent.glob("*.py"))


def test_oracle_never_sees_the_closed_forms():
    """The FD oracle may share field evaluation with the closed forms and
    nothing else: it imports neither deform nor families."""
    imports = _imports(Path(biconf.__file__).parent / "oracle.py")
    assert "biconf.fields" in imports
    for module in ("biconf.deform", "biconf.families"):
        assert [n for n in imports if n == module or n.startswith(module + ".")] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_scipy_or_sympy(path):
    assert {n.split(".")[0] for n in _imports(path)} & {"scipy", "sympy"} == set()
