"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it pins every BLAS/OpenMP
pool to one thread (``_fit_logistic`` uses matmul) and puts the
checkout's ``src`` directory first on ``sys.path``, so the benchmark
always measures the sources beside it, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin thread pools and make ``import affseg`` load ``ROOT/src``.

    Exits with status 1 when the sources are missing, e.g. when the
    benchmark directory was copied without the package beside it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "affseg" / "__init__.py").is_file():
        sys.exit(f"bench: affseg sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def thread_pins() -> dict[str, str | None]:
    return {var: os.environ.get(var) for var in THREAD_VARS}


def git_revision() -> str | None:
    """HEAD of the checkout's git metadata, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return None
