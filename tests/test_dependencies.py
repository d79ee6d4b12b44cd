"""The package's only runtime dependency beyond the standard library is numpy,
and every bad-input exception it exports is a ValueError."""

import ast
import pathlib
import sys

import pytest

import affseg

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


def test_every_exported_exception_but_a_lookup_miss_is_a_value_error():
    # the CLI exits 2 on ValueError alone; MissingEdge is a lookup miss on valid input
    exported = [getattr(affseg, name) for name in affseg.__all__]
    errors = [c for c in exported if isinstance(c, type) and issubclass(c, Exception)]
    assert len(errors) > 1  # the walk sees the exported classes
    assert [c.__name__ for c in errors if not issubclass(c, ValueError)] == ["MissingEdge"]
