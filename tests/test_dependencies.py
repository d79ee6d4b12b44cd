"""The package's only runtime dependency beyond the standard library is numpy."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "affseg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "affseg"}


def imported_roots(tree):
    """(line, top-level module) of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_numpy_and_itself(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{line}: {root}" for line, root in imported_roots(tree)
           if root not in ALLOWED]
    assert not bad, bad


def test_the_import_check_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom numpy import array\nimport scipy.ndimage\n"
                     "def f():\n    from sklearn import svm\n")
    foreign = [root for _, root in imported_roots(tree) if root not in ALLOWED]
    assert foreign == ["scipy", "sklearn"]
