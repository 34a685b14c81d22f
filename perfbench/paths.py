"""Locations and the environment every benchmark child process gets."""

from __future__ import annotations

import os
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "_work"  # scratch CSVs and reports; ignored by git

# One BLAS/OpenMP thread: on a small shared machine a threaded number
# measures the neighbours, not the program.
_PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for key in _PINNED_THREADS:
        env[key] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env
