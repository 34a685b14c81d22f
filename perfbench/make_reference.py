"""Regenerate the stored references in ``perfbench/reference/``.

    python3 perfbench/make_reference.py [workload ...]

Each reference is the workload's own CLI command run at quadrature rtol
1e-10 and, for ``validate``, with 100k MC trials from a seed no benchmark
run uses. Run it only against code whose outputs are trusted: the
benchmark's correctness check compares every later run with these files.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from check import parse_csv
from paths import REFERENCE_DIR, REPO_ROOT, WORK_DIR, child_env
from workloads import REFERENCE_RTOL, REFERENCE_SEED, REFERENCE_TRIALS, WORKLOADS


def make_reference(name: str) -> dict:
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out = str(Path(tmp) / "ref.csv")
        argv = workload.reference_argv(out)
        proc = subprocess.run([sys.executable, "-m", "constelsim.cli", *argv],
                              cwd=REPO_ROOT, env=child_env(), capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        header, rows = parse_csv(Path(out).read_text(encoding="utf-8"))
    ref = {"workload": name, "argv": ["OUT.csv" if a == out else a for a in argv], "rtol": REFERENCE_RTOL, "header": header}
    if workload.subcommand == "curve":
        ref["rows"] = [[float(v) for v in row] for row in rows]
    else:
        ref["mc_seed"] = REFERENCE_SEED
        ref["mc_trials"] = REFERENCE_TRIALS
        ref["rows"] = {
            f"{row[0]},{row[1]}": {"analytic": float(row[2]), "empirical": float(row[3]), "std_err": float(row[4])}
            for row in rows
        }
    return ref


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        ref = make_reference(name)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
