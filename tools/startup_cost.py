"""Start-up cost of ``import constelsim.cli``, module by module.

    python3 tools/startup_cost.py [--runs N]

Copies the package's sources, without byte code, to a temporary directory
and imports the CLI from there in N fresh interpreters, one at a time:
``python -X importtime -c "import constelsim.cli"`` with
``PYTHONDONTWRITEBYTECODE=1``, so every run compiles the package, as the
first run of a fresh checkout does. The runs, and the compiles below, are
pinned to one CPU of this process's affinity, which is restored at the end.
Prints one JSON object:

- ``wall_ms``: the median wall-clock time of a whole process, interpreter
  start and exit included;
- ``modules``: for each package module, ``self_ms``, the median of the self
  time that ``-X importtime`` reports (reading, compiling and executing the
  module, without the modules it imports), ``compile_ms``, the median of N
  in-process ``compile`` calls on its source after one untimed pass over
  every source, and ``exec_ms``, the first less the second;
- ``total``: the three summed over the package's modules.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "constelsim"


def _module_name(path: Path) -> str:
    return "constelsim" if path.stem == "__init__" else f"constelsim.{path.stem}"


def _self_times(stderr: str) -> dict[str, float]:
    """Self time in ms of each module in ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line.removeprefix("import time:").split("|")
            if self_us.strip().isdigit():
                times[name.strip()] = int(self_us) / 1000.0
    return times


def _compile_ms(source: str, filename: str) -> float:
    start = time.perf_counter()
    compile(source, filename, "exec", dont_inherit=True)
    return (time.perf_counter() - start) * 1000.0


def measure(runs: int) -> dict:
    sources = sorted(PACKAGE.glob("*.py"))
    names = [_module_name(path) for path in sources]
    walls, self_ms = [], {name: [] for name in names}
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(PACKAGE, Path(root) / "constelsim", ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": root, "PYTHONDONTWRITEBYTECODE": "1"}
        for _ in range(runs):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import constelsim.cli"], env=env,
                                  capture_output=True, text=True, check=True, timeout=120)
            walls.append((time.perf_counter() - start) * 1000.0)
            times = _self_times(proc.stderr)
            for name in names:
                self_ms[name].append(times[name])
    texts = [path.read_text(encoding="utf-8") for path in sources]
    for text, path in zip(texts, sources):  # a first pass warms the compiler; it is not timed
        _compile_ms(text, str(path))
    compiled = {name: statistics.median(_compile_ms(text, str(path)) for _ in range(runs))
                for name, text, path in zip(names, texts, sources)}
    modules = {}
    for name in names:
        self_median = statistics.median(self_ms[name])
        modules[name] = {"self_ms": round(self_median, 3), "compile_ms": round(compiled[name], 3),
                         "exec_ms": round(self_median - compiled[name], 3)}
    total = {key: round(sum(module[key] for module in modules.values()), 3)
             for key in ("self_ms", "compile_ms", "exec_ms")}
    return {"runs": runs, "python": sys.version.split()[0], "wall_ms": round(statistics.median(walls), 3),
            "modules": modules, "total": total}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description="Time a fresh interpreter's import of constelsim.cli.")
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters; medians are reported")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be at least 1, got {args.runs}")
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if affinity:
        os.sched_setaffinity(0, {max(affinity)})
    try:
        result = measure(args.runs)
    finally:
        if affinity:
            os.sched_setaffinity(0, affinity)
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
