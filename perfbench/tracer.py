"""In-process tracer for the benchmark's per-layer metrics.

It wraps public ``constelsim`` functions from outside the program: every
name bound to a traced function object, in any ``constelsim`` module's
namespace or in a module-level dispatch dict (such as
``constelsim.cli._ANALYTIC``), is rebound to one wrapper per function. The
program therefore needs no instrumentation of its own. Per function the
wrapper keeps aggregates in memory: calls, items (array points or draws),
inclusive seconds and self seconds, where self time excludes the time spent
in other traced functions it called.

A name the table lists but the module no longer has is reported in
``missing`` and skipped, so the tracer keeps working while the program is
refactored.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


def _result_size(args, kwargs, result) -> int:
    return int(np.size(result))


def _result_rows(args, kwargs, result) -> int:
    return len(result)


def _spec_trials(args, kwargs, result) -> int:
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return int(getattr(spec, "n_trials", 0))


# module -> {function: item counter, or None when the function has no items}
TABLE: dict[str, dict[str, object]] = {
    "constelsim.channel": {"sr_cdf": _result_size, "sr_pdf": _result_size, "sr_sample": _result_size},
    "constelsim.analytic": {
        "leo_rank_coverage_probs": None,
        "hybrid_localizability": None,
        "meo_single_availability": None,
        "meo_single_localizability": None,
        "integrate_adaptive": None,
        # Entry points the CLI and MC call, so analytic self time covers the
        # whole layer.
        "leo_availability": None,
        "meo_availability": None,
        "hybrid_availability": None,
        "leo_localizability": None,
        "meo_localizability": None,
        "n_meo_max": None,
    },
    "constelsim.geom": {"dome_from_central": None, "central_from_dome": None},
    "constelsim.constellation": {
        "derive_rng": None,
        "sample_bpp": _result_rows,
        "sample_dsbpp": _result_rows,
        "central_angle_to_target": _result_size,
    },
    "constelsim.mc": {"simulate": _spec_trials, "simulate_availability": _spec_trials, "run_validation": _spec_trials},
    "constelsim.config": {"load_settings": None, "build_system_config": None},
    "constelsim.cli": {"main": None},
}


@dataclass
class Stat:
    calls: int = 0
    items: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Tracer:
    """Install with ``install()`` or as a context manager; ``uninstall()``
    restores every binding it replaced."""

    def __init__(self, table: dict[str, dict[str, object]] = TABLE):
        self.table = table
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._child_seconds: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    @staticmethod
    def short_name(module: str, name: str) -> str:
        return f"{module.rsplit('.', 1)[-1]}.{name}"

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, functions in self.table.items():
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                self.missing.extend(self.short_name(module_name, name) for name in functions)
                continue
            for name, count_items in functions.items():
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.append(self.short_name(module_name, name))
                    continue
                stat = self.stats.setdefault(self.short_name(module_name, name), Stat())
                self._rebind(original, self._wrap(original, stat, count_items))
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _rebind(self, original, wrapper) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "constelsim" or name.startswith("constelsim.")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dict_key, entry in list(value.items()):
                        if entry is original:
                            self._restore.append((value, dict_key, original))
                            value[dict_key] = wrapper

    def _wrap(self, function, stat: Stat, count_items):
        child_seconds = self._child_seconds
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            child_seconds.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_seconds.pop()
                if child_seconds:
                    child_seconds[-1] += elapsed
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - children
            if count_items is not None:
                stat.items += count_items(args, kwargs, result)
            return result

        return traced

    def report(self) -> dict:
        return {
            "functions": {name: vars(stat).copy() for name, stat in self.stats.items()},
            "missing": list(self.missing),
        }
