"""The reference computations in oracles.py stay independent of entcov."""

import ast
from pathlib import Path


def imported_modules(source: str) -> list[str]:
    """Every module an import statement in source names, relative ones
    prefixed by their dots."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


def package_imports(source: str) -> list[str]:
    return [
        name for name in imported_modules(source)
        if name.startswith(".") or name.split(".")[0] == "entcov"
    ]


def test_scan_flags_package_imports():
    assert package_imports("import entcov") == ["entcov"]
    assert package_imports("from entcov.criterion import detect") == ["entcov.criterion"]
    assert package_imports("def f():\n    import entcov.linalg as la\n") == ["entcov.linalg"]
    assert package_imports("from . import criterion") == ["."]
    assert package_imports("import numpy as np\nfrom itertools import combinations") == []


def test_oracles_import_nothing_from_entcov():
    source = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    assert "numpy" in imported_modules(source)
    assert package_imports(source) == []
