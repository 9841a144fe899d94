"""Every name a module of the package or a test module imports is used in that module,
and the package imports no `dataclasses`."""

import ast
from pathlib import Path

import pytest

import minitori

PACKAGE = sorted(Path(minitori.__file__).parent.glob("*.py"))
SOURCES = ([p for p in PACKAGE if p.name != "__init__.py"]  # __init__ imports to re-export
           + sorted(Path(__file__).parent.glob("*.py")))  # conftest.py included


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def top_level_imports(source: str) -> set[str]:
    """The top-level packages of the absolute imports of `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_scan_finds_the_imported_packages():
    assert top_level_imports("import os.path\nfrom dataclasses import field\n"
                             "from .io import emit\ndef f():\n    import json\n") == {
        "os", "dataclasses", "json"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_dataclasses(path):
    # dataclasses pulls in inspect, ast, dis and tokenize at every start of the CLI
    assert "dataclasses" not in top_level_imports(path.read_text())


def test_the_sympy_oracle_imports_nothing_from_the_package():
    # the oracle checks the package's certificates, so it must share none of its code
    source = (Path(__file__).parent / "sympy_oracle.py").read_text()
    assert "minitori" not in top_level_imports(source)
    assert not any(isinstance(node, ast.ImportFrom) and node.level
                   for node in ast.walk(ast.parse(source)))
