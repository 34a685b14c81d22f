"""Rounds, nodes and time of each integral in one cold analytic evaluation.

    PYTHONPATH=src python3 tools/quad_rounds.py [--rtol R] [--k-max K] [--set KEY=VALUE ...]

Clears the analytic and channel caches, runs ``analytic.evaluate`` at
localizability (availability needs no quadrature) on the default
configuration, changed by any ``--set`` overrides, and prints one JSON
object. Under ``integrals`` it holds, per
:func:`~constelsim.analytic.integrate_adaptive` label:

- ``rounds``: calls of the integrand, one per adaptive round;
- ``nodes``: nodes evaluated over all rounds, 21 per panel;
- ``seconds``: wall-clock time of the integral, integrand included.

``seconds`` is the whole ``evaluate``. The wrappers are removed, and the
caches cleared, again when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import time

from constelsim import analytic, channel
from constelsim.config import ConfigError, build_system_config, load_settings, parse_assignments

# Every cache of the analytic and channel layers, found by its
# ``cache_clear``: a repeated run in one process redoes the fading series'
# set-up as well as the integrals.
CACHES = tuple(obj for module in (analytic, channel) for obj in vars(module).values() if hasattr(obj, "cache_clear"))


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@contextlib.contextmanager
def _counted_rounds():
    """Count the rounds and nodes of each integral while the block runs.

    Yields the per-label tallies, filled in as ``evaluate`` runs.
    """
    integrals = {}
    integrate, panels = analytic.integrate_adaptive, analytic._gk21_panels
    current = []  # the tally of the integral running now

    def timed(func, a, b, rtol, label):
        tally = integrals.setdefault(label, {"rounds": 0, "nodes": 0, "seconds": 0.0})
        current.append(tally)
        start = time.perf_counter()
        try:
            return integrate(func, a, b, rtol, label)
        finally:
            tally["seconds"] += time.perf_counter() - start
            current.pop()

    def counted(func, lo, hi):
        current[-1]["rounds"] += 1
        current[-1]["nodes"] += 21 * lo.size
        return panels(func, lo, hi)

    _clear_caches()
    analytic.integrate_adaptive, analytic._gk21_panels = timed, counted
    try:
        yield integrals
    finally:
        analytic.integrate_adaptive, analytic._gk21_panels = integrate, panels
        _clear_caches()


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description="Count the quadrature rounds of one cold analytic evaluation.")
    parser.add_argument("--rtol", type=float, default=analytic.RTOL, help="quadrature relative tolerance")
    parser.add_argument("--k-max", type=int, default=6, help="largest K")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    args = parser.parse_args(argv)
    if not 0 < args.rtol < math.inf:  # false for NaN too
        parser.error(f"--rtol must be positive and finite, got {args.rtol}")
    if args.k_max < 1:
        parser.error(f"--k-max must be at least 1, got {args.k_max}")
    try:
        overrides = parse_assignments(args.set)
        config = build_system_config(load_settings(overrides=overrides))
    except ConfigError as exc:
        parser.error(str(exc))
    with _counted_rounds() as integrals:
        start = time.perf_counter()
        analytic.evaluate(config, "localizability", args.k_max, args.rtol)
        total = time.perf_counter() - start
    for tally in integrals.values():
        tally["seconds"] = round(tally["seconds"], 6)
    result = {"rtol": args.rtol, "k_max": args.k_max, "overrides": overrides, "first_panels": analytic.FIRST_PANELS,
              "integrals": integrals, "seconds": round(total, 6)}
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
