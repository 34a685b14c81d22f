"""Per-stage timing of one Monte Carlo campaign.

    PYTHONPATH=src python3 tools/mc_stages.py [--trials N] [--seed S] [--repeat R]
                                              [--metrics LIST] [--chunk-trials C]
                                              [--set KEY=VALUE ...]

Runs ``mc.simulate`` at K = 1..6 on the default configuration, changed by
any ``--set`` overrides, for the metric families of ``--metrics`` (both by
default; ``--metrics availability`` times the campaign that
``validate --metrics availability`` runs), in chunks of ``--chunk-trials``
trials (``mc.CHUNK_TRIALS`` by default, at most
``constellation.MAX_PLACED_SHELLS``), and prints one JSON object: the
seconds spent in each stage of the best of ``--repeat`` runs (least total),
the minor page faults per trial of that run (``minor_faults_per_trial``,
from ``resource.getrusage``; null where the ``resource`` module is missing),
the fading values drawn per trial (in faithful mode one per visible
satellite of either layer; in approximation-matched mode one per serving
LEO beam, one per synthetic interferer and one per visible MEO satellite),
the (open beam, other visible satellite) interferer pairs per trial
that ``mc._link_indices`` lists, the beams per trial that its two rank
blocks show settled (``settled_pass``: passing without any pair, against the
all-links bound; ``settled_fail``: failing on the nearest
``mc.PREFIX_RANKS`` others, so taking no more), the chunks per run (one
``sample_bpp_cap`` call each), and ``tracemalloc_peak_mb``, the peak of
memory traced by ``tracemalloc`` over one more run without the timers.

Each stage is the exclusive wall-clock time of the functions ``simulate``
calls through its module namespaces:

- ``sampling``: ``sample_bpp_cap``, ``place_in_cap`` and ``sample_dsbpp_cap``,
  less visibility;
- ``visibility``: ``geom.orbit_arc``, the half-angle of each MEO orbit's
  arc within the cap, which ``sample_dsbpp_cap`` calls;
- ``fading``: ``channel.sr_sample``, the fading draws, which ``mc._sinr_passes``
  calls;
- ``sinr``: ``mc._sinr_passes``, less fading;
- ``aggregation``: the rest of ``simulate``.

The wrappers are removed again, and the chunk size restored, when the run
ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import time
import tracemalloc

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import numpy as np

from constelsim import constellation, mc
from constelsim.analytic import METRICS
from constelsim.config import ConfigError, build_mc_settings, build_system_config, load_settings, parse_assignments

STAGES = ("sampling", "visibility", "fading", "sinr", "aggregation")
K_MAX = 6


@contextlib.contextmanager
def _timed_stages():
    """Wrap the staged functions in exclusive timers while the block runs.

    Yields the seconds per stage and the number of fading values drawn, of
    interferer pairs listed, of beams settled either way and of chunks run,
    all filled in as ``simulate`` runs.
    """
    seconds = dict.fromkeys(STAGES, 0.0)
    tally = {"draws": 0, "pairs": 0, "settled_pass": 0, "settled_fail": 0, "chunks": 0}
    inner = []  # time spent in nested staged calls, one entry per open call
    blocks = []  # beams that take pairs in each rank block of the running _sinr_passes call

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
        tally["draws"] += 1 if size is None else size
        return sr_sample(params, rng, size)

    def paired(counts, trial, rank, is_open, block):
        beam, other = link_indices(counts, trial, rank, is_open, block)
        tally["pairs"] += beam.size
        blocks.append(is_open.copy())
        return beam, other

    def settled(*args, **kwargs):
        blocks.clear()
        trial, rank, passes = sinr_passes(*args, **kwargs)
        if blocks:  # faithful mode: the prefix block, then the rest
            prefix, rest = blocks
            tally["settled_pass"] += np.count_nonzero(passes & ~prefix)
            tally["settled_fail"] += np.count_nonzero(prefix & ~rest)
        return trial, rank, passes

    def chunk(*args, **kwargs):
        tally["chunks"] += 1
        return sample_bpp_cap(*args, **kwargs)

    sr_sample, link_indices, sample_bpp_cap = mc.sr_sample, mc._link_indices, mc.sample_bpp_cap
    sinr_passes = mc._sinr_passes
    patches = [
        (mc, "sample_bpp_cap", timed("sampling", chunk)),
        (mc, "place_in_cap", timed("sampling", mc.place_in_cap)),
        (mc, "sample_dsbpp_cap", timed("sampling", mc.sample_dsbpp_cap)),
        (constellation, "orbit_arc", timed("visibility", constellation.orbit_arc)),
        (mc, "_sinr_passes", timed("sinr", settled)),
        (mc, "sr_sample", timed("fading", counted)),
        (mc, "_link_indices", paired),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield seconds, tally
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def traced_peak_mb(config, spec, metrics=METRICS) -> float:
    """Peak memory (MB) that ``tracemalloc`` traces over one ``simulate``
    run of ``metrics``, without the stage timers."""
    tracemalloc.start()
    try:
        mc.simulate(config, spec, K_MAX, metrics)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _minor_faults():
    """Minor page faults of this process so far, or None without ``resource``."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(config, spec, metrics=METRICS) -> dict:
    """Stage seconds, minor page faults, fading draws, interferer pairs and
    settled beams per trial and chunks of one ``simulate`` run of
    ``metrics``."""
    with _timed_stages() as (seconds, tally):
        faults = _minor_faults()
        start = time.perf_counter()
        mc.simulate(config, spec, K_MAX, metrics)
        total = time.perf_counter() - start
        if faults is not None:
            faults = (_minor_faults() - faults) / spec.n_trials
    seconds["aggregation"] = total - sum(seconds.values())
    return {
        "seconds": {**{stage: round(seconds[stage], 5) for stage in STAGES}, "total": round(total, 5)},
        "minor_faults_per_trial": faults,
        "fading_draws_per_trial": tally["draws"] / spec.n_trials,
        "interferer_pairs_per_trial": tally["pairs"] / spec.n_trials,
        "settled_pass_per_trial": tally["settled_pass"] / spec.n_trials,
        "settled_fail_per_trial": tally["settled_fail"] / spec.n_trials,
        "chunks": tally["chunks"],
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description="Time the stages of one Monte Carlo campaign.")
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3, help="runs; the one with the least total is reported")
    parser.add_argument("--metrics", default=",".join(METRICS), help="comma-separated metric families")
    parser.add_argument("--chunk-trials", type=int, default=mc.CHUNK_TRIALS,
                        help=f"trials drawn as one array, 1 to {constellation.MAX_PLACED_SHELLS}")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    args = parser.parse_args(argv)
    metrics = tuple(args.metrics.split(","))
    if not set(metrics) <= set(METRICS):
        parser.error(f"--metrics takes entries of {', '.join(METRICS)}, got {args.metrics}")
    if not 1 <= args.chunk_trials <= constellation.MAX_PLACED_SHELLS:
        parser.error(f"--chunk-trials must lie in 1..{constellation.MAX_PLACED_SHELLS}, got {args.chunk_trials}")
    run_keys = {"mc.n_trials": str(args.trials), "mc.master_seed": str(args.seed)}
    try:
        overrides = parse_assignments(args.set)
        settings = load_settings(overrides={**overrides, **run_keys})
        config, spec = build_system_config(settings), build_mc_settings(settings)
    except ConfigError as exc:
        parser.error(str(exc))
    chunk_trials, mc.CHUNK_TRIALS = mc.CHUNK_TRIALS, args.chunk_trials
    try:
        runs = [measure(config, spec, metrics) for _ in range(max(args.repeat, 1))]
        peak_mb = traced_peak_mb(config, spec, metrics)
    finally:
        mc.CHUNK_TRIALS = chunk_trials
    best = min(runs, key=lambda run: run["seconds"]["total"])
    result = {"trials": spec.n_trials, "seed": spec.master_seed, "metrics": list(metrics), "overrides": overrides,
              "chunk_trials": args.chunk_trials, **best, "tracemalloc_peak_mb": round(peak_mb, 4)}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
