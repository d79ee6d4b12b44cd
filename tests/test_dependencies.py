"""The package's only runtime dependency beyond the standard library is numpy,
and every bad-input exception it exports, or raises for a bad parameter
value, is a ValueError."""

import ast
import pathlib
import sys

import numpy as np
import pytest

import affseg
from affseg.agglo import (N_FEATURES, Logistic, MeanAffinity, agglomerate, apply_threshold,
                          check_theta)
from affseg.metrics import vi_curve
from affseg.stitch import stitch
from affseg.synthdata import NoiseParams, SynthParams
from affseg.volume import AffinityVolume, LabelVolume
from affseg.zwatershed import WatershedParams, size_filter

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


LABELS = LabelVolume(np.array([[[1, 1, 2, 2]]], dtype=np.uint64))
AFF = AffinityVolume(np.full((3, 1, 1, 4), 0.9, dtype=np.float32))
TREE = agglomerate(LABELS, AFF, MeanAffinity(), 0.0)[1]
# each parameter, as a call that passes it the value under test
PARAMETERS = {
    "t_high": lambda v: WatershedParams(t_high=v),
    "size_min": lambda v: WatershedParams(size_min=v),
    "t_merge": lambda v: size_filter(LABELS, AFF, 1, v),
    "theta": check_theta,
    "agglomerate theta": lambda v: agglomerate(LABELS, AFF, MeanAffinity(), v),
    "apply_threshold theta": lambda v: apply_threshold(TREE, LABELS, v),
    "vi_curve theta": lambda v: vi_curve(TREE, LABELS, LABELS, [v]),
    "min_ratio": lambda v: stitch([], [], min_ratio=v),
    "min_voxels": lambda v: stitch([], [], min_voxels=v),
    "n_seeds": lambda v: SynthParams(v),
    "anisotropy": lambda v: SynthParams(3, v),
    "flip_sigma": lambda v: NoiseParams(v),
    "jitter_prob": lambda v: NoiseParams(0.1, v),
    "bias": lambda v: Logistic(np.zeros(N_FEATURES), v),
}
# a string, None, and an int beyond the float range where the range has a top
BAD = [(name, v) for name in PARAMETERS for v in ("x", None)] + [
    (name, 10**400) for name in ("t_high", "theta", "agglomerate theta", "apply_threshold theta",
                                 "vi_curve theta", "min_ratio", "anisotropy", "flip_sigma",
                                 "jitter_prob", "bias")]


@pytest.mark.parametrize("name,value", BAD,
                         ids=[f"{n}={'10**400' if v == 10**400 else repr(v)}" for n, v in BAD])
def test_every_bad_parameter_value_is_a_value_error(name, value):
    with pytest.raises(ValueError, match=name.split()[-1]):
        PARAMETERS[name](value)
