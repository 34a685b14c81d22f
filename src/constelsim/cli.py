"""Command-line frontend.

Subcommands: ``curve`` sweeps one parameter and writes analytic (optionally
also Monte Carlo) probabilities per K; ``heatmap`` grids LEO count against
MEO count; both run the same sweep, one CSV line per grid point. ``validate``
runs the analytic-vs-simulation campaign and exits nonzero if any row is out
of tolerance; ``sample`` dumps one drawn constellation. All output is CSV
with 12-significant-digit values and newline endings, written in
deterministic sweep order.

:func:`main` reads plain arguments after the command name, exact flags
each with one value that converts and lies among its choices, straight from
the command's option table, and builds no argument parser for them. Any
other arguments go to one parser, the invoked command's own (prog
``constelsim <command>``), which returns the same options for a valid
form the plain read declines (an abbreviated flag, ``--flag=value``, a
value that starts with '-'), answers help and refuses unknown, leftover or
bad arguments. The full parser (:func:`build_parser`) is built only for
top-level help and a missing or unknown command. Each command takes the
options it reads, and ``validate`` also ``--jobs``, which it ignores until
it runs its trials on several processes (ROADMAP item 11).

Exit codes: 0 success, 1 validation failures, 2 configuration errors, an
unreadable ``--config``, an unwritable ``--out`` and a quadrature or fading
series that does not converge (a ``ConvergenceError``) among them. An
``--out`` that is a directory, whose directory does not exist, or that this
process may not write or cannot open, is refused before any work. The file
is written only once the output is ready.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from . import analytic
from .channel import ConvergenceError
from .config import (
    ConfigError,
    apply_overrides,
    build_master_seed,
    build_mc_settings,
    build_system_config,
    emit_settings,
    load_settings,
    parse_assignments,
)
from .constellation import derive_rng, place_in_cap, sample_dsbpp_cap
from .mc import run_validation, simulate

# Sweepable parameter names, the settings key each sets and the layer it
# affects. n_meo sets the total MEO count; the closed forms depend only on
# the total. Each sweep point is parsed as a --set value is, in degrees on
# the phi_*_deg axes, so a count must be whole.
_SWEEP_PARAMS = {
    "n_leo": ("leo.n_sats", "leo"),
    "n_meo": (None, "meo"),
    "n_orbits": ("meo.n_orbits", "meo"),
    "sats_per_orbit": ("meo.sats_per_orbit", "meo"),
    "h_leo": ("leo.altitude_km", "leo"),
    "h_meo": ("meo.altitude_km", "meo"),
    "phi_leo_deg": ("leo.beam_angle", "leo"),
    "phi_meo_deg": ("meo.beam_angle", "meo"),
    "phi_3db_deg": ("rx.phi_3db", None),
}

# Most points one sweep may hold, on each axis and over the whole grid (each
# checked before its list is built), and the largest K.
MAX_SWEEP_POINTS = 100_000


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """The swept parameter's name and its values."""
    if "=" not in text:
        raise ConfigError(f"sweep must look like name=min:max:step, got '{text}'")
    name, spec = (part.strip() for part in text.split("=", 1))
    if name not in _SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter '{name}' (known: {', '.join(sorted(_SWEEP_PARAMS))})")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep range must be min:max:step, got '{spec}'")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"sweep range must be numbers, got '{spec}'") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigError(f"sweep range must be finite, got '{spec}'")
    if step <= 0:
        raise ConfigError("sweep step must be positive")
    if hi < lo:
        raise ConfigError("sweep max must not be below min")
    # Each point is computed from its index, so rounding does not accumulate.
    last = (hi - lo) / step + 1e-9 * max(1.0, abs(hi)) / step
    if not last < MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep may hold at most {MAX_SWEEP_POINTS} points, got '{spec}'")
    return name, [round(lo + i * step, 12) for i in range(math.floor(last) + 1)]


def _apply_point(settings: dict, axes: list[tuple[str, list[float]]], point: tuple) -> dict:
    """``settings`` with each of ``axes`` set to its value in ``point``."""
    texts = {}
    for (name, _), value in zip(axes, point):
        if name == "n_meo":
            texts["meo.n_orbits"], texts["meo.sats_per_orbit"] = repr(value), "1"
        else:
            texts[_SWEEP_PARAMS[name][0]] = repr(value) + (" deg" if name.startswith("phi_") else "")
    return apply_overrides(settings, texts)


def _check_axis_system(name: str, system: str):
    if {_SWEEP_PARAMS[name][1], system} == {"leo", "meo"}:
        raise ConfigError(f"sweep parameter '{name}' does not affect the {system} system")


def _parse_list(what: str, text: str, parse) -> list:
    """``parse`` of each entry of the comma-separated ``text``, stripped;
    blank entries are dropped. An empty list or a repeated entry is refused."""
    entries = [parse(part) for part in map(str.strip, text.split(",")) if part]
    if not entries:
        raise ConfigError(f"{what} list is empty")
    if len(set(entries)) != len(entries):
        raise ConfigError(f"{what} list repeats an entry: {','.join(map(str, entries))}")
    return entries


def _k_value(entry: str) -> int:
    try:
        k = int(entry)
    except ValueError as exc:
        raise ConfigError(f"bad K value '{entry}'") from exc
    if not 1 <= k <= MAX_SWEEP_POINTS:
        raise ConfigError(f"K values must lie in [1, {MAX_SWEEP_POINTS}]")
    return k


def _known_metric(entry: str) -> str:
    if entry not in analytic.METRICS:
        raise ConfigError(f"unknown metric '{entry}'")
    return entry


def _format_row(values) -> str:
    return ",".join(format(v, ".12g") for v in values)


def _curve_point(args):
    """Closed-form values of the task's system at one sweep point, at each
    K, followed by an MC (value, SE) pair per K when the task carries an
    ``McSpec``."""
    settings, metric, system, ks, rtol, mc_spec = args
    cfg = build_system_config(settings)
    values = analytic.evaluate(cfg, metric, max(ks), rtol)[system]
    row = [float(values[k - 1]) for k in ks]
    if mc_spec is not None:
        values, errors = simulate(cfg, mc_spec, max(ks), metrics=(metric,)).estimates[metric, system]
        row += [float(v) for k in ks for v in (values[k - 1], errors[k - 1])]
    return row


def _map_points(tasks, jobs: int) -> list:
    """``_curve_point`` of every task, in order, on ``jobs`` worker processes
    but no more than there are tasks, since a pool starts every worker."""
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [_curve_point(t) for t in tasks]
    # Imported here: multiprocessing costs every serial command start-up time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_curve_point, tasks))


def _sweep(opts, settings: dict, axes: list[tuple[str, list[float]]], header: list[str], system: str,
           ks: list[int], mc_spec=None) -> int:
    """Evaluate ``system`` at every point of the grid over ``axes``, first
    axis outermost, and write one CSV line per point: the axis values, then
    the point's row."""
    if math.prod(len(values) for _, values in axes) > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid may hold at most {MAX_SWEEP_POINTS} points")
    grid = list(itertools.product(*(values for _, values in axes)))
    rows = _map_points([(_apply_point(settings, axes, point), opts.metric, system, ks, opts.rtol, mc_spec)
                        for point in grid], opts.jobs)
    lines = [",".join(header)] + [_format_row([*point, *row]) for point, row in zip(grid, rows)]
    _write(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_curve(opts, settings: dict) -> int:
    axes = [_parse_sweep(s) for s in opts.sweep]
    if len(axes) != 1:
        raise ConfigError("curve needs exactly one --sweep axis")
    _check_axis_system(axes[0][0], opts.system)
    ks = _parse_list("K", opts.k_values, _k_value)
    # Monte Carlo settings are read, and so checked, only when --mc asks for them.
    mc_spec = build_mc_settings(settings) if opts.mc else None

    header = ["x"] + [f"{opts.metric}_K{k}" for k in ks]
    if opts.mc:
        header += [f"{opts.metric}_K{k}_{column}" for k in ks for column in ("mc", "se")]
    return _sweep(opts, settings, axes, header, opts.system, ks, mc_spec)


def cmd_heatmap(opts, settings: dict) -> int:
    axes = dict(map(_parse_sweep, opts.sweep))
    if len(opts.sweep) != 2 or set(axes) != {"n_leo", "n_meo"}:
        raise ConfigError("heatmap needs exactly two --sweep axes, n_leo and n_meo")
    ks = _parse_list("K", opts.k_values, _k_value)
    if len(ks) != 1:
        raise ConfigError("heatmap needs exactly one K value")
    return _sweep(opts, settings, [(n, axes[n]) for n in ("n_leo", "n_meo")], ["n_leo", "n_meo", "value"],
                  "hybrid", ks)


def cmd_validate(opts, settings: dict) -> int:
    cfg = build_system_config(settings)
    ks = _parse_list("K", opts.k_values, _k_value)
    spec = build_mc_settings(settings)
    metrics = tuple(_parse_list("metric", opts.metrics, _known_metric))
    rows = run_validation(cfg, spec, ks, opts.rtol, metrics)
    lines = ["metric,K,analytic,empirical,std_err,delta,pass"] + [
        f"{r.metric},{_format_row([r.k, r.analytic, r.empirical, r.std_err, r.delta])},{str(r.passed).lower()}"
        for r in rows]
    _write(opts.out, "\n".join(lines) + "\n")
    failures = sum(1 for r in rows if not r.passed)
    if failures:
        print(f"{failures} of {len(rows)} validation rows out of tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_sample(opts, settings: dict) -> int:
    cfg = build_system_config(settings)
    rng = derive_rng(build_master_seed(settings), 0)
    # A cap of central angle pi holds the whole shell; LEO comes nearest first.
    leo_pos = place_in_cap(cfg.leo.radius_km, math.pi, np.array([cfg.leo.n_sats]), rng).T
    meo_pos = sample_dsbpp_cap(cfg.meo, rng, math.pi, 1, positions=True)[1].T
    lines = ["layer,orbit_index,sat_index,x_km,y_km,z_km"]
    for i, pos in enumerate(leo_pos):
        lines.append(f"leo,-1,{i}," + _format_row(pos))
    per_orbit = cfg.meo.sats_per_orbit
    for i, pos in enumerate(meo_pos):
        orbit, sat = divmod(i, per_orbit)
        lines.append(f"meo,{orbit},{sat}," + _format_row(pos))
    _write(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_emit_config(opts, settings: dict) -> int:
    _write(opts.out, emit_settings(settings))
    return 0


def _overrides(opts) -> dict:
    out = parse_assignments(opts.set or [])
    if getattr(opts, "seed", None) is not None:
        out["mc.master_seed"] = str(opts.seed)
    if getattr(opts, "trials", None) is not None:
        out["mc.n_trials"] = str(opts.trials)
    return out


def _check_out(path: str):
    """Refuse an ``--out`` path that cannot be written, before any work and
    leaving nothing behind: it must not be a directory, its parent must be
    an existing directory, and this process must be allowed to write the
    file, or to create it there. A regular or absent file is then opened for
    appending, and removed again if that created it, which refuses a path
    that passes those checks but cannot be opened (one under /proc, say).
    Devices, pipes and FIFOs are not opened here: a FIFO would block until
    it had a reader."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"cannot write '{path}': Is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write '{path}': No such file or directory")
    if not (os.access(path, os.W_OK) if os.path.exists(path) else os.access(parent, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write '{path}': Permission denied")
    absent = not os.path.lexists(path)
    if absent or os.path.isfile(path):
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ConfigError(f"cannot write '{path}': {exc.strerror or exc}") from exc
        if absent:
            os.remove(path)


def _write(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc.strerror or exc}") from exc


# Per subcommand its help, handler and options, in ``--help`` order. An
# option is its flag and the keywords of ``add_argument``; a command takes
# the options it reads (and ``validate`` ``--jobs``). A handler takes the
# parsed options and the settings that ``main`` loads.
_SETTINGS = (
    ("--config", dict(default=None, help="configuration file (key = value lines)")),
    ("--set", dict(action="append", metavar="KEY=VALUE", help="override one configuration key")),
)
_SEED = ("--seed", dict(type=int, default=None, help="Monte Carlo master seed"))
_TRIALS = ("--trials", dict(type=int, default=None, help="Monte Carlo trial count"))
_OUT = ("--out", dict(default="-", help="output path, '-' for stdout"))
_EVALUATION = (
    ("--rtol", dict(type=float, default=analytic.RTOL, help="quadrature relative tolerance")),
    ("--jobs", dict(type=int, default=1, help="worker processes for sweep points; validate runs on one")),
)
_SWEEP = ("--sweep", dict(action="append", required=True, metavar="NAME=MIN:MAX:STEP"))
_METRIC = ("--metric", dict(choices=analytic.METRICS, default="availability"))
_K_LIST = ("--K", dict(dest="k_values", default="1,2,3,4,5,6", help="comma-separated K list"))
_COMMANDS = {
    "curve": ("sweep one parameter, one CSV column per K", cmd_curve, (
        *_SETTINGS, _SEED, _TRIALS, _OUT, *_EVALUATION, _SWEEP, _METRIC,
        ("--system", dict(choices=analytic.SYSTEMS, default="hybrid")), _K_LIST,
        ("--mc", dict(action="store_true", help="append Monte Carlo columns")))),
    "heatmap": ("grid LEO count against total MEO count", cmd_heatmap,
                (*_SETTINGS, _OUT, *_EVALUATION, _SWEEP, _METRIC, ("--K", dict(dest="k_values", default="6")))),
    "validate": ("analytic vs Monte Carlo validation report", cmd_validate, (
        *_SETTINGS, _SEED, _TRIALS, _OUT, *_EVALUATION, ("--metrics", dict(default=",".join(analytic.METRICS))),
        _K_LIST)),
    "sample": ("dump one sampled constellation as CSV", cmd_sample, (*_SETTINGS, _SEED, _OUT)),
    "emit-config": ("print the effective configuration", cmd_emit_config, (*_SETTINGS, _SEED, _TRIALS, _OUT)),
}


def command_parser(command: str, parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """``parser``, by default a new one of ``command``'s own (prog
    ``constelsim <command>``), with ``command``'s options added."""
    if parser is None:
        parser = argparse.ArgumentParser(prog=f"constelsim {command}")
    for flag, kwargs in _COMMANDS[command][2]:
        parser.add_argument(flag, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: the top level with every subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="constelsim",
        description="Availability and localizability of LEO/MEO satellite constellations",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        command_parser(name, subs.add_parser(name, help=help_text))
    return parser


def _plain_parse(command: str, args: list[str]) -> argparse.Namespace | None:
    """``command``'s options as its parser's ``parse_args(args)`` returns
    them, read without building the parser, or None when ``args`` is not
    plain. Plain means: only exact flags of ``command``, each followed by one
    value (``store_true`` flags by none) that does not start with '-'; every
    value converts by its option's ``type`` and lies among its ``choices``;
    and every required option is given. ``append`` options accumulate, a
    repeated option keeps its last value, and absent ones take their
    defaults. No option of ``_COMMANDS`` has a string default with a
    ``type``, which argparse would convert, or a default for ``append``."""
    options = dict(_COMMANDS[command][2])
    given = {}
    tokens = iter(args)
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None:
            return None
        action = kwargs.get("action")
        if action == "store_true":
            given[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        if action == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    return argparse.Namespace(**{
        kwargs.get("dest", flag[2:].replace("-", "_")):
            given.get(flag, kwargs.get("default", False if kwargs.get("action") == "store_true" else None))
        for flag, kwargs in options.items()})


def parse_argv(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command named first in ``argv`` and its options: read plainly
    when they are plain (:func:`_plain_parse`), else parsed by the command's
    own parser, or by the full parser when ``argv`` starts with no command.
    Exits as that parser's ``parse_args`` does on help and on errors."""
    if argv and argv[0] in _COMMANDS:
        opts = _plain_parse(argv[0], argv[1:])
        return argv[0], opts if opts is not None else command_parser(argv[0]).parse_args(argv[1:])
    opts = build_parser().parse_args(argv)
    return opts.command, opts


def main(argv=None) -> int:
    command, opts = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        if "rtol" in opts and not 0 < opts.rtol < math.inf:  # false for NaN too
            raise ConfigError(f"--rtol must be positive and finite, got {opts.rtol}")
        if "jobs" in opts and opts.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {opts.jobs}")
        _check_out(opts.out)
        return _COMMANDS[command][1](opts, load_settings(opts.config, _overrides(opts)))
    except (ConfigError, ConvergenceError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
