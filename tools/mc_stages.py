"""Per-stage timing of one Monte Carlo campaign.

    PYTHONPATH=src python3 tools/mc_stages.py [--trials N] [--seed S] [--repeat R] [--set KEY=VALUE ...]

Runs ``mc.simulate`` at K = 1..6 with both metric families on the default
configuration, changed by any ``--set`` overrides, and prints one JSON
object: the seconds spent in each stage of the best of ``--repeat`` runs
(least total), and the fading values drawn per trial.

Each stage is the exclusive wall-clock time of the functions ``simulate``
calls through its module namespaces:

- ``sampling``: ``sample_bpp_cap`` and ``sample_dsbpp_cap``, less visibility;
- ``visibility``: ``geom.orbit_arc``, which ``sample_dsbpp_cap`` calls;
- ``sinr``: ``mc._sinr_passes``, fading draws included;
- ``aggregation``: the rest of ``simulate``.

The wrappers are removed again when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time

from constelsim import constellation, mc
from constelsim.config import build_mc_settings, build_system_config, load_settings

STAGES = ("sampling", "visibility", "sinr", "aggregation")
K_MAX = 6


@contextlib.contextmanager
def _timed_stages():
    """Wrap the staged functions in exclusive timers while the block runs.

    Yields the seconds per stage and a one-item list holding the number of
    fading values drawn, both filled in as ``simulate`` runs.
    """
    seconds = dict.fromkeys(STAGES, 0.0)
    draws = [0]
    inner = []  # time spent in nested staged calls, one entry per open call

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            inner.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[stage] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed
        return wrapper

    def counted(params, rng, size=None):
        draws[0] += 1 if size is None else size
        return sr_sample(params, rng, size)

    sr_sample = mc.sr_sample
    patches = [
        (mc, "sample_bpp_cap", timed("sampling", mc.sample_bpp_cap)),
        (mc, "sample_dsbpp_cap", timed("sampling", mc.sample_dsbpp_cap)),
        (constellation, "orbit_arc", timed("visibility", constellation.orbit_arc)),
        (mc, "_sinr_passes", timed("sinr", mc._sinr_passes)),
        (mc, "sr_sample", counted),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield seconds, draws
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def measure(config, spec) -> dict:
    """Stage seconds and fading draws per trial of one ``simulate`` run."""
    with _timed_stages() as (seconds, draws):
        start = time.perf_counter()
        mc.simulate(config, spec, K_MAX)
        total = time.perf_counter() - start
    seconds["aggregation"] = total - sum(seconds.values())
    return {
        "seconds": {**{stage: round(seconds[stage], 5) for stage in STAGES}, "total": round(total, 5)},
        "fading_draws_per_trial": draws[0] / spec.n_trials,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description="Time the stages of one Monte Carlo campaign.")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3, help="runs; the one with the least total is reported")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    args = parser.parse_args(argv)
    overrides = dict(item.split("=", 1) for item in args.set)
    run_keys = {"mc.n_trials": str(args.trials), "mc.master_seed": str(args.seed)}
    settings = load_settings(overrides={**overrides, **run_keys})
    config, spec = build_system_config(settings), build_mc_settings(settings)
    runs = [measure(config, spec) for _ in range(max(args.repeat, 1))]
    best = min(runs, key=lambda run: run["seconds"]["total"])
    result = {"trials": spec.n_trials, "seed": spec.master_seed, "overrides": overrides, **best}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
