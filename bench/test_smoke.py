"""Smoke test of the benchmark itself: every workload once at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks the result line's schema, that its metric names and units are
exactly those BENCHMARK.json declares, that no operation failed, and
that the benchmark refuses to run without the affseg sources beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def _record(workload: str, trace: int) -> dict:
    path = BENCH / "_work" / "records" / f"{workload}-seed1-trace{trace}-tiny.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, _record(workload, trace)["failed_checks"]
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_same_outputs():
    digests = []
    for _ in range(2):
        assert _run(ROOT, "segment", 0).returncode == 0
        digests.append(_record("segment", 0)["output_digest"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "segment", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
