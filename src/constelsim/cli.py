"""Command-line frontend.

Subcommands: ``curve`` sweeps one parameter and writes analytic (optionally
also Monte Carlo) probabilities per K; ``heatmap`` grids LEO count against
MEO count; both run the same sweep, one CSV line per grid point. ``validate``
runs the analytic-vs-simulation campaign and exits nonzero if any row is out
of tolerance; ``sample`` dumps one drawn constellation. All output is CSV
with 12-significant-digit values and newline endings, written in
deterministic sweep order. The parser holds only the invoked subcommand,
so a command pays for building no other command's options.

Exit codes: 0 success, 1 validation failures, 2 configuration errors, an
unreadable ``--config`` or an unwritable ``--out`` among them. An ``--out``
that is a directory, whose directory does not exist, or that this process
may not write, is refused before any work.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from dataclasses import dataclass

from . import analytic
from .config import (
    ConfigError,
    build_mc_settings,
    build_system_config,
    emit_settings,
    load_settings,
)
from .constellation import derive_rng, sample_bpp, sample_dsbpp
from .mc import run_validation, simulate, validation_csv

# Sweepable parameter names, the settings key each sets and the layer it
# affects. n_meo sets the total MEO count; the closed forms depend only on
# the total. Swept values are stored as floats, so a count must be whole
# when the settings are built, as for --set.
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


@dataclass
class SweepAxis:
    name: str
    values: list


def _parse_sweep(text: str) -> SweepAxis:
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
    return SweepAxis(name=name, values=[round(lo + i * step, 12) for i in range(math.floor(last) + 1)])


def _apply_point(settings: dict, axes: list[SweepAxis], point: tuple) -> dict:
    """``settings`` with each of ``axes`` set to its value in ``point``."""
    out = dict(settings)
    for axis, value in zip(axes, point):
        key = _SWEEP_PARAMS[axis.name][0]
        if axis.name == "n_meo":
            out["meo.n_orbits"] = value
            out["meo.sats_per_orbit"] = 1
        elif axis.name.startswith("phi_"):
            out[key] = math.radians(value)
        else:
            out[key] = value
    return out


def _check_axis_system(name: str, system: str):
    if {_SWEEP_PARAMS[name][1], system} == {"leo", "meo"}:
        raise ConfigError(f"sweep parameter '{name}' does not affect the {system} system")


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad K list '{text}'") from exc
    if not ks:
        raise ConfigError("K list is empty")
    if not all(1 <= k <= MAX_SWEEP_POINTS for k in ks):
        raise ConfigError(f"K values must lie in [1, {MAX_SWEEP_POINTS}]")
    _check_unique("K", ks)
    return ks


def _check_unique(what: str, entries: list):
    if len(set(entries)) != len(entries):
        raise ConfigError(f"{what} list repeats an entry: {','.join(map(str, entries))}")


def _format_row(values) -> str:
    return ",".join(format(v, ".12g") for v in values)


def _curve_point(args):
    """Closed-form values of one sweep point at each K, followed by an MC
    (value, SE) pair per K when the task carries an ``McSpec``."""
    settings, metric, system, ks, rtol, mc_spec = args
    cfg = build_system_config(settings)
    values = analytic.evaluate(cfg, metric, (system,), max(ks), rtol)[system]
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


def _sweep(opts, settings: dict, axes: list[SweepAxis], header: list[str], system: str, ks: list[int],
           mc_spec=None) -> int:
    """Evaluate ``system`` at every point of the grid over ``axes``, first
    axis outermost, and write one CSV line per point: the axis values, then
    the point's row."""
    if math.prod(len(axis.values) for axis in axes) > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid may hold at most {MAX_SWEEP_POINTS} points")
    grid = list(itertools.product(*(axis.values for axis in axes)))
    rows = _map_points([(_apply_point(settings, axes, point), opts.metric, system, ks, opts.rtol, mc_spec)
                        for point in grid], opts.jobs)
    lines = [",".join(header)] + [_format_row([*point, *row]) for point, row in zip(grid, rows)]
    _write(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_curve(opts) -> int:
    settings = load_settings(opts.config, _overrides(opts))
    axes = [_parse_sweep(s) for s in opts.sweep]
    if len(axes) != 1:
        raise ConfigError("curve needs exactly one --sweep axis")
    _check_axis_system(axes[0].name, opts.system)
    ks = _parse_k_list(opts.k_values)
    # Monte Carlo settings are read, and so checked, only when --mc asks for them.
    mc_spec = build_mc_settings(settings) if opts.mc else None

    header = ["x"] + [f"{opts.metric}_K{k}" for k in ks]
    if opts.mc:
        header += [f"{opts.metric}_K{k}_{column}" for k in ks for column in ("mc", "se")]
    return _sweep(opts, settings, axes, header, opts.system, ks, mc_spec)


def cmd_heatmap(opts) -> int:
    settings = load_settings(opts.config, _overrides(opts))
    axes = {axis.name: axis for axis in map(_parse_sweep, opts.sweep)}
    if len(opts.sweep) != 2 or set(axes) != {"n_leo", "n_meo"}:
        raise ConfigError("heatmap needs exactly two --sweep axes, n_leo and n_meo")
    ks = _parse_k_list(opts.k_values)
    if len(ks) != 1:
        raise ConfigError("heatmap needs exactly one K value")
    return _sweep(opts, settings, [axes["n_leo"], axes["n_meo"]], ["n_leo", "n_meo", "value"], "hybrid", ks)


def cmd_validate(opts) -> int:
    settings = load_settings(opts.config, _overrides(opts))
    cfg = build_system_config(settings)
    ks = _parse_k_list(opts.k_values)
    spec = build_mc_settings(settings)
    metrics = tuple(opts.metrics.split(",")) if opts.metrics else analytic.METRICS
    for metric in metrics:
        if metric not in analytic.METRICS:
            raise ConfigError(f"unknown metric '{metric}'")
    _check_unique("metric", metrics)
    rows = run_validation(cfg, spec, ks, opts.rtol, metrics)
    _write(opts.out, validation_csv(rows))
    failures = sum(1 for r in rows if not r.passed)
    if failures:
        print(f"{failures} of {len(rows)} validation rows out of tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_sample(opts) -> int:
    settings = load_settings(opts.config, _overrides(opts))
    cfg = build_system_config(settings)
    rng = derive_rng(build_mc_settings(settings).master_seed, 0)
    leo_pos = sample_bpp(cfg.leo, rng)
    meo_pos = sample_dsbpp(cfg.meo, rng)
    lines = ["layer,orbit_index,sat_index,x_km,y_km,z_km"]
    for i, pos in enumerate(leo_pos):
        lines.append(f"leo,-1,{i}," + _format_row(pos))
    per_orbit = cfg.meo.sats_per_orbit
    for i, pos in enumerate(meo_pos):
        orbit, sat = divmod(i, per_orbit)
        lines.append(f"meo,{orbit},{sat}," + _format_row(pos))
    _write(opts.out, "\n".join(lines) + "\n")
    return 0


def cmd_emit_config(opts) -> int:
    settings = load_settings(opts.config, _overrides(opts))
    _write(opts.out, emit_settings(settings))
    return 0


def _overrides(opts) -> dict:
    out = {}
    for item in opts.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, value = (part.strip() for part in item.split("=", 1))
        out[key] = value
    if opts.seed is not None:
        out["mc.master_seed"] = str(opts.seed)
    if opts.trials is not None:
        out["mc.n_trials"] = str(opts.trials)
    return out


def _check_out(path: str):
    """Refuse an ``--out`` path that cannot be written, before any work and
    without creating anything: it must not be a directory, its parent must
    be an existing directory, and this process must be allowed to write the
    file, or to create it there."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigError(f"cannot write '{path}': Is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write '{path}': No such file or directory")
    if not os.access(parent, os.W_OK | os.X_OK) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"cannot write '{path}': Permission denied")


def _write(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc.strerror or exc}") from exc


# Options every subcommand takes, then per subcommand its help, handler and
# own options, in ``--help`` order. An option is its flag and the keywords
# of ``add_argument``.
_COMMON = (
    ("--config", dict(default=None, help="configuration file (key = value lines)")),
    ("--set", dict(action="append", metavar="KEY=VALUE", help="override one configuration key")),
    ("--seed", dict(type=int, default=None, help="Monte Carlo master seed")),
    ("--trials", dict(type=int, default=None, help="Monte Carlo trial count")),
    ("--out", dict(default="-", help="output path, '-' for stdout")),
    ("--rtol", dict(type=float, default=1e-8, help="quadrature relative tolerance")),
    ("--jobs", dict(type=int, default=1, help="parallel workers for sweep points")),
)
_SWEEP = ("--sweep", dict(action="append", required=True, metavar="NAME=MIN:MAX:STEP"))
_METRIC = ("--metric", dict(choices=analytic.METRICS, default="availability"))
_K_LIST = ("--K", dict(dest="k_values", default="1,2,3,4,5,6", help="comma-separated K list"))
_COMMANDS = {
    "curve": ("sweep one parameter, one CSV column per K", cmd_curve, (
        _SWEEP, _METRIC, ("--system", dict(choices=analytic.SYSTEMS, default="hybrid")), _K_LIST,
        ("--mc", dict(action="store_true", help="append Monte Carlo columns")))),
    "heatmap": ("grid LEO count against total MEO count", cmd_heatmap,
                (_SWEEP, _METRIC, ("--K", dict(dest="k_values", default="6")))),
    "validate": ("analytic vs Monte Carlo validation report", cmd_validate,
                 (("--metrics", dict(default=",".join(analytic.METRICS))), _K_LIST)),
    "sample": ("dump one sampled constellation as CSV", cmd_sample, ()),
    "emit-config": ("print the effective configuration", cmd_emit_config, ()),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser with only ``command``'s subparser, or with every
    subcommand's when ``command`` is None."""
    parser = argparse.ArgumentParser(
        prog="constelsim",
        description="Availability and localizability of LEO/MEO satellite constellations",
    )
    # With one subcommand built, the metavar keeps every name in the usage
    # line that argparse's errors print.
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in _COMMANDS if command is None else (command,):
        help_text, fn, options = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    opts = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        if not 0 < opts.rtol < math.inf:  # false for NaN too
            raise ConfigError(f"--rtol must be positive and finite, got {opts.rtol}")
        if opts.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {opts.jobs}")
        _check_out(opts.out)
        return opts.fn(opts)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
