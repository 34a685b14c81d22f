"""One benchmark invocation: a fresh Python process running one CLI command.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --out CSV --report JSON
                               [--setup-only | --trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start, imports and the
configuration build the CLI command needs. ``run_s`` is the time inside
``constelsim.cli.main``, which ends after the CSV is written. With
``--trace`` the command runs under the in-process tracer and the report
also holds its aggregates and the workload's visible-LEO statistics.
"""

import time  # noqa: I001 -- first, before any other import is timed
import argparse
import json
import resource
import sys
import traceback


def _visible_leo(workload, seed: int) -> dict:
    """Visible-LEO counts over the workload's MC trials, drawn from the
    same per-trial streams through the public sampling functions."""
    from constelsim.config import build_system_config, load_settings
    from constelsim.constellation import central_angle_to_target, derive_rng, sample_bpp

    if workload.subcommand != "validate":
        return {"mean": 0.0, "max": 0}
    cfg = build_system_config(load_settings(None, workload.overrides))
    counts = [
        int((central_angle_to_target(sample_bpp(cfg.leo, derive_rng(seed, trial))) <= cfg.leo_theta_max).sum())
        for trial in range(workload.work)
    ]
    return {"mean": sum(counts) / len(counts), "max": max(counts)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    opts = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[opts.workload]
    import constelsim.cli as cli
    from constelsim.config import build_system_config, load_settings

    build_system_config(load_settings(None, workload.overrides))
    setup_end = time.monotonic()
    report = {"setup_s": setup_end - opts.t0, "setup_window": [opts.t0, setup_end]}

    if not opts.setup_only:
        tracer = None
        if opts.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        start = time.monotonic()
        try:
            returncode = cli.main(workload.argv(opts.seed, opts.out))
        except SystemExit as exc:
            returncode = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            returncode = None
            report["error"] = traceback.format_exc()
        finally:
            end = time.monotonic()
            report["run_s"] = end - start
            report["run_window"] = [start, end]
            if tracer is not None:
                tracer.uninstall()
        report["returncode"] = returncode
        if tracer is not None:
            report["trace"] = tracer.report()
            report["visible_leo"] = _visible_leo(workload, opts.seed)

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(opts.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
