"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` it invokes the
workload's CLI command in fresh processes, one at a time, until
``--seconds`` are used, tops the set-up samples up with processes that stop
after set-up, and reports the end-to-end metrics as medians of times scaled
by the speed probe (see README.md). With ``--trace 1`` it runs the command
once untraced and once under the in-process tracer and reports the
per-layer metrics. Every output is checked against ``perfbench/reference/``. The last
line of standard output is the JSON result; the line before it is the run
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from check import CheckResult, check_output, expected_values
from paths import REFERENCE_DIR, REPO_ROOT, SRC_DIR, WORK_DIR, child_env
from workloads import WORKLOADS

MIN_SETUP_SAMPLES = 8
CHILD_TIMEOUT_S = 150
PROBE_START_TIMEOUT_S = 30
# CPU time of one ``probe.unit()`` on an uncontended core of the 2-vCPU Xeon
# machine the benchmark was written on. It only sets the scale of the
# reported seconds.
NOMINAL_UNIT_S = 0.0005

# Per-layer metrics: traced function -> stats reported. ``per_s`` is items
# per inclusive second, or calls per second where the function has no item
# count. Seconds themselves are not reported per function: a workload that
# bypasses a layer would read exactly 0 s on every run.
LAYER_FUNCTIONS = {
    "channel.sr_cdf": ("calls", "items", "per_s"),
    "channel.sr_pdf": ("calls", "items", "per_s"),
    "channel.sr_sample": ("calls", "items", "per_s"),
    "analytic.leo_rank_coverage_probs": ("calls", "per_s"),
    "analytic.hybrid_localizability": ("calls", "per_s"),
    "analytic.meo_single_availability": ("calls",),
    "analytic.meo_single_localizability": ("calls",),
    "analytic.integrate_adaptive": ("calls", "per_s"),
    "geom.dome_from_central": ("calls",),
    "geom.central_from_dome": ("calls",),
    "constellation.derive_rng": ("calls", "per_s"),
    "constellation.sample_bpp": ("calls", "items", "per_s"),
    "constellation.sample_dsbpp": ("calls", "items", "per_s"),
    "constellation.central_angle_to_target": ("calls", "items", "per_s"),
    "mc.simulate": ("per_s",),
    "mc.simulate_availability": ("per_s",),
    "mc.run_validation": ("per_s",),
    "config.load_settings": ("per_s",),
    "config.build_system_config": ("per_s",),
}
# Modules whose self time is reported as a share of the traced cli.main.
SELF_PCT_MODULES = ("channel", "analytic", "constellation", "mc", "cli")


class Invocation:
    """One child process and its report."""

    def __init__(self, workload, seed: int, work_dir: Path, index: int, mode: str | None = None):
        self.out = work_dir / f"out{index}.csv"
        report = work_dir / f"report{index}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "--workload", workload.name,
               "--seed", str(seed), "--out", str(self.out), "--report", str(report)]
        if mode:
            cmd.append(f"--{mode}")
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=REPO_ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        self.wall_s = time.monotonic() - t0
        if proc.returncode != 0 or not report.exists():
            raise RuntimeError(f"benchmark child failed (exit {proc.returncode}):\n{proc.stderr}")
        self.report = json.loads(report.read_text(encoding="utf-8"))
        if "error" in self.report:
            print(self.report["error"], file=sys.stderr)
        self.csv = self.out.read_text(encoding="utf-8") if self.out.exists() else None

    def check(self, workload, ref) -> CheckResult:
        return check_output(workload, ref, self.csv, self.report.get("returncode"), workload.work)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC_DIR.rglob("*.py")))


def _check_all(workload, ref, invocations) -> CheckResult:
    """Check every output; an output that differs from the first
    invocation's bytes fails as a whole (same seed, same command)."""
    result = CheckResult(0, 0)
    for inv in invocations:
        one = inv.check(workload, ref)
        if inv.csv != invocations[0].csv:
            one.failed = one.attempted
        result = result.merge(one)
    return result


class SpeedProbe:
    """``probe.py`` running beside the invocations on the same CPU."""

    def __init__(self, work_dir: Path):
        self.path = work_dir / "probe.txt"
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("probe.py")), str(self.path)],
                                     cwd=REPO_ROOT, env=child_env())
        deadline = time.monotonic() + PROBE_START_TIMEOUT_S
        while not (self.path.exists() and self.path.stat().st_size):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.05)

    def stop(self) -> list[tuple[float, float]]:
        """Stop the probe and return its (start time, unit CPU seconds) samples."""
        self.proc.terminate()
        self.proc.wait()
        samples = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) == 2 and float(fields[1]) > 0:
                samples.append((float(fields[0]), float(fields[1])))
        return samples


def _scale(samples, window) -> float:
    """Factor that takes a time measured over ``window`` to the probe's
    nominal machine speed: nominal unit time / median unit time in the window.
    A window too short to hold three units uses the whole run's units."""
    inside = [cpu for t, cpu in samples if window[0] <= t <= window[1]]
    if len(inside) < 3:
        inside = [cpu for _, cpu in samples]
    return NOMINAL_UNIT_S / statistics.median(inside)


def run_untraced(workload, ref, seed: int, seconds: float, work_dir: Path):
    probe = SpeedProbe(work_dir)
    try:
        runs = []
        start = time.monotonic()
        while True:
            runs.append(Invocation(workload, seed, work_dir, len(runs)))
            durations = [inv.wall_s for inv in runs]
            if time.monotonic() - start + statistics.median(durations) > seconds:
                break
        # Every invocation times its own set-up; processes that stop after
        # set-up top the samples up where the invocations are long.
        setups = [Invocation(workload, seed, work_dir, -i - 1, "setup-only")
                  for i in range(max(0, MIN_SETUP_SAMPLES - len(runs)))]
    finally:
        samples = probe.stop()

    run_raw = [inv.report["run_s"] for inv in runs]
    setup_raw = [inv.report["setup_s"] for inv in runs + setups]
    run_scale = [_scale(samples, inv.report["run_window"]) for inv in runs]
    setup_scale = [_scale(samples, inv.report["setup_window"]) for inv in runs + setups]
    run_s = statistics.median(t * k for t, k in zip(run_raw, run_scale))
    metrics = {
        "setup_s": _metric(statistics.median(t * k for t, k in zip(setup_raw, setup_scale)), "s"),
        "run_s": _metric(run_s, "s"),
        "work_per_s": _metric(workload.work / run_s, "1/s"),
        "peak_rss_mb": _metric(max(inv.report["peak_rss_mb"] for inv in runs), "MB"),
    }
    record = {"invocations": len(runs), "run_s_raw": run_raw, "run_scale": run_scale,
              "setup_s_raw": setup_raw, "setup_scale": setup_scale, "probe_units": len(samples)}
    return _check_all(workload, ref, runs), metrics, record


def run_traced(workload, ref, seed: int, work_dir: Path):
    plain = Invocation(workload, seed, work_dir, 0)
    traced = Invocation(workload, seed, work_dir, 1, "trace")
    check = _check_all(workload, ref, [plain, traced])
    trace = traced.report.get("trace", {"functions": {}, "missing": []})
    functions = trace["functions"]
    main_s = traced.report["run_s"]

    metrics = {}
    for name, stats in LAYER_FUNCTIONS.items():
        stat = functions.get(name, {"calls": 0, "items": 0, "seconds": 0.0})
        for stat_name in stats:
            if stat_name == "per_s":
                work = stat["items"] or stat["calls"]
                metrics[f"{name}.per_s"] = _metric(work / stat["seconds"] if stat["seconds"] > 0 else 0.0, "1/s")
            else:
                metrics[f"{name}.{stat_name}"] = _metric(stat[stat_name], "count")
    for module in SELF_PCT_MODULES:
        self_s = sum(s["self_seconds"] for name, s in functions.items() if name.startswith(module + "."))
        metrics[f"{module}.self_pct"] = _metric(100.0 * self_s / main_s, "%")
    metrics["analytic.max_abs_delta"] = _metric(check.max_abs_delta, "prob")
    metrics["mc.max_abs_z"] = _metric(check.max_abs_z, "sigma")
    visible = traced.report.get("visible_leo", {"mean": 0.0, "max": 0})
    metrics["mc.visible_leo_mean"] = _metric(visible["mean"], "count")
    metrics["mc.visible_leo_max"] = _metric(visible["max"], "count")
    metrics["trace.run_s"] = _metric(main_s, "s")
    metrics["trace.overhead_s"] = _metric(main_s - plain.report["run_s"], "s")
    metrics["trace.missing"] = _metric(len(trace["missing"]), "count")

    passes = functions.get("analytic.leo_rank_coverage_probs", {"calls": 0})["calls"]
    points = workload.work if workload.subcommand == "curve" else 1
    record = {"missing": trace["missing"], "rank_coverage_passes_per_point": passes / points,
              "visible_leo_mean": visible["mean"], "visible_leo_max": visible["max"],
              "untraced_run_s": plain.report["run_s"]}
    return check, metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    workload = WORKLOADS[opts.workload]
    reference = REFERENCE_DIR / f"{workload.name}.json"
    if not (SRC_DIR / "constelsim" / "cli.py").is_file():
        print(f"benchmark: no program source at {SRC_DIR}", file=sys.stderr)
        return 1
    if not reference.is_file():
        print(f"benchmark: no reference at {reference}", file=sys.stderr)
        return 1
    ref = json.loads(reference.read_text(encoding="utf-8"))
    mc_seed = opts.seed % 2**32
    # Invocations and the speed probe share one CPU, so the probe sees the
    # contention the invocation sees.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    WORK_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        if opts.trace:
            check, metrics, record = run_traced(workload, ref, mc_seed, work_dir)
        else:
            check, metrics, record = run_untraced(workload, ref, mc_seed, opts.seconds, work_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record.update({
        "workload": workload.name, "seed": opts.seed, "mc_seed": mc_seed, "trace": opts.trace,
        "work": workload.work, "work_unit": workload.work_unit,
        "values_per_invocation": expected_values(workload, ref),
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "src_lines": _src_lines(),
    })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
