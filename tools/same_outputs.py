"""Byte-identity check of the CLI between two source trees.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that each hold the ``constelsim``
package, such as two checkouts' ``src/``. Every invocation of
``INVOCATIONS`` runs ``constelsim.cli.main`` in a fresh interpreter against
each tree, the two side by side, each in a new empty working directory with
``--out out.csv`` there. Prints one JSON object: under ``invocations``, per
invocation its arguments, both exit codes, and whether the exit code, stdout,
stderr and the ``--out`` file (absent on both sides counts as equal) match;
``identical`` is true when all of them do. Exits 1 on any difference.

The list: each benchmark workload (``perfbench/workloads.py``, read as it
stands) at seeds 5 and 6; matched-mode ``validate``; a ``curve --mc`` sweep
on two worker processes; a ``heatmap``; ``sample``, also with an empty LEO
shell; ``emit-config``; a localizability ``curve`` under each receive
pattern but the default gaussian; and eight refusals: a negative seed, a
quadrature tolerance no integral can meet, fading whose series weights
underflow, fading whose series does not converge within its term limit,
and a zero beamwidth or element count for each of the four patterns.
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

OUT = "out.csv"
PARTS = ("exit_code", "stdout", "stderr", "out")
RUN_CLI = "import sys; from constelsim.cli import main; sys.exit(main())"
ONE_POINT = ["curve", "--metric", "localizability", "--sweep", "n_leo=1000:1000:1"]


def _settings(*assignments: str) -> list[str]:
    """``--set`` arguments, one per ``KEY=VALUE`` assignment."""
    return [arg for assignment in assignments for arg in ("--set", assignment)]


WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["WORKLOADS"]
INVOCATIONS = {
    **{f"{name} seed {seed}": workload.argv(seed, OUT) for name, workload in WORKLOADS.items() for seed in (5, 6)},
    "validate matched": ["validate", "--set", "mc.sum_all_interferers=false", "--out", OUT],
    "curve --mc --jobs 2": ["curve", "--metric", "localizability", "--sweep", "n_leo=1000:2000:500", "--mc",
                            "--trials", "2000", "--jobs", "2", "--out", OUT],
    "heatmap": ["heatmap", "--metric", "localizability", "--sweep", "n_leo=500:2000:500", "--sweep",
                "n_meo=6:24:6", "--K", "4", "--out", OUT],
    "sample": ["sample", "--out", OUT],
    "sample no LEO": ["sample", "--set", "leo.n_sats=0", "--out", OUT],
    "emit-config": ["emit-config", "--out", OUT],
    **{f"curve {pattern}": [*ONE_POINT, *_settings(f"rx.pattern={pattern}"), "--out", OUT]
       for pattern in ("flattop", "sinc", "cosine")},
    "refused seed": ["validate", "--seed", "-1", "--out", OUT],
    "refused rtol": [*ONE_POINT, "--rtol", "1e-30", "--out", OUT],
    "refused fading underflow": [*ONE_POINT, *_settings("fading.m=1000", "fading.b0=0.001", "fading.omega=100"),
                                 "--out", OUT],
    "refused fading terms": [*ONE_POINT, *_settings("fading.m=0.5", "fading.b0=0.0001", "fading.omega=50"),
                             "--out", OUT],
    **{f"refused {pattern} {setting}": [*ONE_POINT, *_settings(f"rx.pattern={pattern}", f"{setting}=0"),
                                        "--out", OUT]
       for pattern, setting in (("gaussian", "rx.phi_3db"), ("flattop", "rx.phi_3db"),
                                ("sinc", "rx.n_elements"), ("cosine", "rx.n_elements"))},
}


def run_cli(src: str, argv: list[str]) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr and ``--out`` bytes (None when no file was
    written) of one CLI run on the package under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=cwd, env=env, capture_output=True,
                              timeout=600)
        out = Path(cwd, OUT)
        return proc.returncode, proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None


def compare(parent_src: str, change_src: str, invocations: dict) -> dict:
    """Run each of ``invocations`` (name to CLI arguments) on both trees and
    say what matches."""
    rows = []
    with ThreadPoolExecutor(2) as pool:
        for name, argv in invocations.items():
            parent, change = pool.map(run_cli, (parent_src, change_src), (argv, argv))
            same = {part: a == b for part, a, b in zip(PARTS, parent, change)}
            rows.append({"name": name, "argv": argv, "exit_codes": [parent[0], change[0]], **same,
                         "identical": all(same.values())})
    return {"parent": parent_src, "change": change_src, "invocations": rows,
            "identical": all(row["identical"] for row in rows)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI's outputs between two source trees.")
    parser.add_argument("parent_src", help="directory holding the parent's constelsim package")
    parser.add_argument("change_src", help="directory holding the change's constelsim package")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not Path(src, "constelsim", "__init__.py").is_file():
            parser.error(f"no constelsim package under '{src}'")
    report = compare(args.parent_src, args.change_src, INVOCATIONS)
    print(json.dumps(report, indent=1))
    return 0 if report["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
