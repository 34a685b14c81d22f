import argparse
import dataclasses
import os
import subprocess
import sys
import threading
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import constelsim
from constelsim import analytic, cli, mc
from constelsim.config import (
    ConfigError,
    LeoShellConfig,
    McSpec,
    MeoShellConfig,
    SystemConfig,
    build_system_config,
    emit_settings,
    load_settings,
    parse_config_text,
)

VALIDATE_HEADER = "metric,K,analytic,empirical,std_err,delta,pass"
UNIT_SUFFIXES = ("dBW", "dBm", "dBi", "dB", "deg", "rad")
COUNT_KEYS = ["leo.n_sats", "meo.n_orbits", "meo.sats_per_orbit", "rx.n_elements", "mc.n_trials", "mc.master_seed"]
REAL_KEYS = sorted(set(load_settings()) - {"rx.pattern", "mc.sum_all_interferers", *COUNT_KEYS})


def run(tmp_path, *argv, name="out.csv"):
    """Run the CLI in-process; return its exit code and the written file."""
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None


def rows(text):
    assert text.endswith("\n")
    return [line.split(",") for line in text.splitlines()]


class TestCurve:
    def test_analytic_columns(self, tmp_path):
        code, text = run(tmp_path, "curve", "--metric", "availability", "--system", "hybrid",
                         "--K", "1,3", "--sweep", "n_leo=1000:2000:500")
        assert code == 0
        table = rows(text)
        assert table[0] == ["x", "availability_K1", "availability_K3"]
        assert [r[0] for r in table[1:]] == ["1000", "1500", "2000"]
        assert all(0.0 <= float(v) <= 1.0 for r in table[1:] for v in r[1:])

    def test_mc_columns(self, tmp_path):
        code, text = run(tmp_path, "curve", "--metric", "availability", "--system", "leo", "--K", "2",
                         "--sweep", "n_leo=1000:1000:1", "--mc", "--trials", "50")
        assert code == 0
        table = rows(text)
        assert table[0] == ["x", "availability_K2", "availability_K2_mc", "availability_K2_se"]
        assert len(table) == 2 and len(table[1]) == 4

    def test_parallel_output_is_identical(self, tmp_path):
        argv = ["curve", "--metric", "localizability", "--system", "hybrid", "--K", "1,2,4",
                "--sweep", "h_leo=900:1100:100"]
        code_1, serial = run(tmp_path, *argv, "--jobs", "1", name="serial.csv")
        code_2, parallel = run(tmp_path, *argv, "--jobs", "2", name="parallel.csv")
        assert code_1 == code_2 == 0
        assert serial == parallel
        assert len(rows(serial)) == 4

    def test_mc_builds_each_config_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_system_config
        monkeypatch.setattr(cli, "build_system_config", lambda settings: built.append(1) or build(settings))
        code, text = run(tmp_path, "curve", "--metric", "availability", "--system", "leo", "--K", "2",
                         "--sweep", "n_leo=1000:1200:100", "--mc", "--trials", "50")
        assert code == 0 and len(rows(text)) == 4
        assert len(built) == 3

    def test_axis_must_affect_system(self, tmp_path, capsys):
        code, text = run(tmp_path, "curve", "--system", "meo", "--sweep", "n_leo=1000:2000:1000")
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["n_leo=1000.5:1002:1", "n_meo=6.5:7:1"])
    def test_fractional_count_sweep_exits_two(self, tmp_path, capsys, sweep):
        # The same rule as --set leo.n_sats=1000.5, not a silent truncation.
        code, text = run(tmp_path, "curve", "--sweep", sweep)
        assert code == 2 and text is None
        assert "whole number" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["h_leo=0:1e308:1e-10", "n_leo=0:1e9:1"])
    def test_oversized_sweep_exits_two(self, tmp_path, capsys, sweep):
        code, text = run(tmp_path, "curve", "--sweep", sweep)
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err

    def test_repeated_k_exits_two(self, tmp_path, capsys):
        code, text = run(tmp_path, "curve", "--K", "1,2,1", "--sweep", "n_leo=1000:1000:1")
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err

    def test_mc_settings_checked_only_with_mc(self, tmp_path, capsys):
        # Without --mc no Monte Carlo setting is read, as for heatmap.
        argv = ["curve", "--K", "1,2", "--sweep", "n_leo=1000:2000:1000"]
        code, plain = run(tmp_path, *argv, name="plain.csv")
        code_zero, zero = run(tmp_path, *argv, "--trials", "0", name="zero.csv")
        assert code == code_zero == 0 and zero == plain
        code, text = run(tmp_path, *argv, "--trials", "0", "--mc", name="mc.csv")
        assert code == 2 and text is None
        assert "n_trials must be at least 1" in capsys.readouterr().err


class TestHeatmap:
    def test_grid(self, tmp_path):
        code, text = run(tmp_path, "heatmap", "--sweep", "n_leo=0:1000:500", "--sweep", "n_meo=0:12:6", "--K", "3")
        assert code == 0
        table = rows(text)
        assert table[0] == ["n_leo", "n_meo", "value"]
        assert [(r[0], r[1]) for r in table[1:]] == [
            (str(a), str(b)) for a in (0, 500, 1000) for b in (0, 6, 12)]
        # No satellites at all cannot provide three.
        assert float(table[1][2]) == 0.0

    def test_parallel_output_is_identical(self, tmp_path):
        argv = ["heatmap", "--metric", "localizability", "--sweep", "n_leo=500:1500:500",
                "--sweep", "n_meo=6:12:6", "--K", "2"]
        code_1, serial = run(tmp_path, *argv, "--jobs", "1", name="serial.csv")
        code_2, parallel = run(tmp_path, *argv, "--jobs", "2", name="parallel.csv")
        assert code_1 == code_2 == 0
        assert serial == parallel
        assert len(rows(serial)) == 1 + 3 * 2

    # 10 LEO counts by 13 MEO counts, localizability at K = 4.
    LOC_GRID = ["heatmap", "--metric", "localizability", "--sweep", "n_leo=500:5000:500",
                "--sweep", "n_meo=0:24:2", "--K", "4"]

    def test_each_layer_once_per_sub_config(self, tmp_path, monkeypatch, analytic_caches):
        # The count law reads no LEO count and the MEO pass no MEO count, so
        # the grid needs one of each, and one rank pass per LEO count. A MEO
        # curve composes every system too: one LEO pass for its one LEO
        # sub-config, and one MEO pass per altitude.
        labels = []
        original = analytic.integrate_adaptive

        def counting(func, a, b, rtol, label):
            labels.append(label)
            return original(func, a, b, rtol, label)

        monkeypatch.setattr(analytic, "integrate_adaptive", counting)
        meo_curve = ["curve", "--metric", "localizability", "--system", "meo", "--sweep", "h_meo=15000:25000:5000"]
        for argv, want in [
            (self.LOC_GRID, {"interferer count law": 1, "rank coverage": 10, "meo single-satellite localizability": 1}),
            (meo_curve, {"interferer count law": 1, "rank coverage": 1, "meo single-satellite localizability": 3}),
        ]:
            labels.clear()
            for cache in analytic_caches:
                cache.cache_clear()
            code, _ = run(tmp_path, *argv)
            assert code == 0
            assert Counter(labels) == want

    def test_cached_grid_matches_uncached_points(self, tmp_path, analytic_caches):
        lines = ["n_leo,n_meo,value"]
        for n_leo in range(500, 5001, 500):
            for n_meo in range(0, 25, 2):
                for cache in analytic_caches:
                    cache.cache_clear()
                cfg = build_system_config(load_settings(overrides={
                    "leo.n_sats": str(n_leo), "meo.n_orbits": str(n_meo), "meo.sats_per_orbit": "1"}))
                value = analytic.evaluate(cfg, "localizability", 4)["hybrid"][3]
                lines.append(f"{n_leo},{n_meo},{value:.12g}")
        for jobs in ("1", "2"):
            code, text = run(tmp_path, *self.LOC_GRID, "--jobs", jobs, name=f"jobs{jobs}.csv")
            assert code == 0
            assert text == "\n".join(lines) + "\n"

    def test_axis_order_does_not_matter(self, tmp_path):
        leo, meo = "n_leo=0:1000:500", "n_meo=0:12:6"
        code_1, first = run(tmp_path, "heatmap", "--sweep", leo, "--sweep", meo, name="leo_first.csv")
        code_2, second = run(tmp_path, "heatmap", "--sweep", meo, "--sweep", leo, name="meo_first.csv")
        assert code_1 == code_2 == 0
        assert first == second

    def test_needs_two_axes(self, tmp_path):
        code, _ = run(tmp_path, "heatmap", "--sweep", "n_leo=0:1000:500")
        assert code == 2


class TestValidate:
    def test_rows_and_status_agree(self, tmp_path):
        code, text = run(tmp_path, "validate", "--trials", "200")
        table = rows(text)
        assert ",".join(table[0]) == VALIDATE_HEADER
        assert len(table) == 1 + 2 * 3 * 6
        assert {r[0] for r in table[1:]} == {
            f"{system}_{metric}" for system in ("leo", "meo", "hybrid")
            for metric in ("availability", "localizability")}
        passed = [r[-1] for r in table[1:]]
        assert set(passed) <= {"true", "false"}
        assert code == (1 if "false" in passed else 0)

    def test_all_rows_pass(self, tmp_path):
        code, text = run(tmp_path, "validate", "--trials", "200", "--metrics", "availability")
        assert code == 0
        assert [r[-1] for r in rows(text)[1:]] == ["true"] * 18

    def test_failures_exit_one(self, tmp_path, capsys):
        # A truncation this loose drops nearly all of the MEO count
        # distribution from the hybrid closed form.
        code, text = run(tmp_path, "validate", "--trials", "200", "--metrics", "availability",
                         "--set", "epsilon=0.99", "--K", "4")
        assert code == 1
        assert rows(text)[1:] and all(r[-1] == "false" for r in rows(text)[1:] if r[0] == "hybrid_availability")
        assert "out of tolerance" in capsys.readouterr().err

    def test_k_subset_is_the_full_run_filtered(self, tmp_path):
        # The largest K sets how many LEO ranks the MC draws, so the
        # unrestricted run stops at the same K.
        argv = ["validate", "--trials", "200", "--seed", "3"]
        _, full = run(tmp_path, *argv, "--K", "1,2,3,4,5", name="full.csv")
        _, subset = run(tmp_path, *argv, "--K", "5,2", name="subset.csv")
        table = rows(subset)
        # Ascending K within each system, whatever order --K gave.
        assert [r[1] for r in table[1:]] == ["2", "5"] * 2 * 3
        assert table == [r for r in rows(full) if r[1] in ("K", "2", "5")]

    def test_unknown_metric(self, tmp_path):
        code, _ = run(tmp_path, "validate", "--trials", "200", "--metrics", "coverage")
        assert code == 2

    @pytest.mark.parametrize("option, value", [("--metrics", "availability,availability"), ("--K", "2,2")])
    def test_repeated_entry_exits_two(self, tmp_path, capsys, option, value):
        code, text = run(tmp_path, "validate", "--trials", "20", "--metrics", "availability", option, value)
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err

    # Values the parser accepts but the model cannot run: non-finite or
    # fractional counts, non-finite radii, bad fading, a negative seed.
    BAD_VALUES = [
        "fading.m=inf", "fading.b0=0", "leo.altitude_km=nan", "meo.altitude_km=inf",
        "leo.n_sats=inf", "mc.n_trials=inf", "mc.master_seed=inf", "rx.n_elements=inf",
        "mc.master_seed=-1", "leo.n_sats=2.5", "rx.phi_3db=nan",
    ]

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_bad_value_exits_two(self, tmp_path, capsys, bad):
        # --trials would override mc.n_trials.
        trials = [] if bad.startswith("mc.n_trials") else ["--trials", "20"]
        code, text = run(tmp_path, "validate", "--metrics", "availability", "--set", bad, *trials)
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err

    # Each check of the settings types, and the one message it gives.
    TYPE_CHECKS = {
        "leo.n_sats=-1": "n_sats must be non-negative",
        "meo.n_orbits=-1": "orbit and satellite counts must be non-negative",
        "leo.altitude_km=-1": "LEO shell radius must be finite and exceed the Earth radius",
        "meo.altitude_km=inf": "MEO shell radius must be finite and exceed the Earth radius",
        "leo.beam_angle=0 deg": "beam angle must lie in (0, 2*pi)",
        "meo.beam_angle=360 deg": "beam angle must lie in (0, 2*pi)",
        "epsilon=1": "epsilon must lie in (0, 1)",
        "mc.n_trials=0": "mc: n_trials must be at least 1",
        "mc.master_seed=-1": "mc: master_seed must be non-negative",
    }

    @pytest.mark.parametrize("bad", sorted(TYPE_CHECKS))
    def test_settings_type_check_message(self, tmp_path, capsys, bad):
        code, text = run(tmp_path, "validate", "--metrics", "availability", "--set", bad)
        assert code == 2 and text is None
        assert capsys.readouterr().err == f"configuration error: {self.TYPE_CHECKS[bad]}\n"

    @pytest.mark.parametrize("settings_type", [LeoShellConfig, MeoShellConfig, SystemConfig, McSpec])
    def test_settings_types_take_no_defaults(self, settings_type):
        # A default is stated once, as a line of config._DEFAULTS.
        for field in dataclasses.fields(settings_type):
            assert field.default is field.default_factory is dataclasses.MISSING, field.name


# The smallest run of each command that reaches its quadrature.
RTOL_COMMANDS = {
    "curve": ["curve", "--metric", "localizability", "--sweep", "n_leo=1000:1000:1"],
    "heatmap": ["heatmap", "--metric", "localizability", "--sweep", "n_leo=1000:1000:1", "--sweep", "n_meo=12:12:1"],
    "validate": ["validate", "--trials", "20"],
}


@pytest.mark.parametrize("rtol", ["0", "-1e-8", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(RTOL_COMMANDS))
def test_bad_rtol_exits_two(tmp_path, capsys, command, rtol):
    code, text = run(tmp_path, *RTOL_COMMANDS[command], f"--rtol={rtol}")
    assert code == 2 and text is None
    assert "configuration error" in capsys.readouterr().err


# Arguments under which each command's numerics fail, and the start of the
# message: a quadrature that cannot meet its tolerance, and fading whose
# series weights underflow.
NUMERICAL_FAILURES = {
    "quadrature": (["--rtol", "1e-30"], "quadrature 'interferer count law' did not converge"),
    "series": (["--set", "fading.m=1000", "--set", "fading.b0=0.01", "--set", "fading.omega=100"],
               "shadowed-Rician series weights underflow"),
}


@pytest.mark.parametrize("failure", sorted(NUMERICAL_FAILURES))
@pytest.mark.parametrize("command", sorted(RTOL_COMMANDS))
def test_numerical_failure_exits_two(tmp_path, capsys, monkeypatch, command, failure):
    # Exit code 1 is kept for validation rows out of tolerance. validate
    # evaluates the closed forms first, so it refuses before simulating.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the closed forms refused")

    monkeypatch.setattr(mc, "simulate", no_simulation)
    args, message = NUMERICAL_FAILURES[failure]
    code, text = run(tmp_path, *RTOL_COMMANDS[command], *args)
    assert code == 2 and text is None
    assert capsys.readouterr().err.startswith(f"configuration error: {message}")


def test_numerical_failure_in_a_worker_exits_two(tmp_path, capsys):
    # The worker's error reaches this process pickled.
    code, text = run(tmp_path, "curve", "--metric", "localizability", "--sweep", "n_leo=1000:2000:1000",
                     "--rtol", "1e-30", "--jobs", "2")
    assert code == 2 and text is None
    assert capsys.readouterr().err.startswith(f"configuration error: {NUMERICAL_FAILURES['quadrature'][1]}")


# Receive beams whose effective range reaches the horizon (pi/2), where no
# interference cap exists: 3 x 30 deg Gaussian, 90 deg flat top, and a sinc
# of one element (3 rad).
WIDE_BEAMS = [["rx.phi_3db=30 deg"], ["rx.pattern=flattop", "rx.phi_3db=90 deg"],
              ["rx.pattern=sinc", "rx.n_elements=1"]]


@pytest.mark.parametrize("beam", WIDE_BEAMS, ids=["gaussian", "flattop", "sinc"])
@pytest.mark.parametrize("command", sorted(RTOL_COMMANDS))
def test_wide_receive_beam_exits_two(tmp_path, capsys, command, beam):
    sets = [arg for item in beam for arg in ("--set", item)]
    code, text = run(tmp_path, *RTOL_COMMANDS[command], *sets)
    assert code == 2 and text is None
    assert "configuration error" in capsys.readouterr().err


def test_receive_beam_just_inside_the_horizon_runs(tmp_path):
    code, text = run(tmp_path, *RTOL_COMMANDS["curve"], "--set", "rx.phi_3db=29.9 deg")
    assert code == 0 and len(rows(text)) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(RTOL_COMMANDS))
def test_bad_jobs_exits_two(tmp_path, capsys, command, jobs):
    code, text = run(tmp_path, *RTOL_COMMANDS[command], "--jobs", jobs)
    assert code == 2 and text is None
    assert "--jobs" in capsys.readouterr().err


# Options a command does not read, and the arguments it needs to run. Neither
# ``sample`` nor ``emit-config`` evaluates, so neither takes a tolerance or
# workers; ``heatmap`` runs no trials, so it takes no seed or trial count.
EVALUATION_OPTIONS = [["--rtol", "1e-8"], ["--jobs", "1"]]
UNREAD_OPTIONS = {"emit-config": ([], EVALUATION_OPTIONS),
                  "heatmap": (["--sweep", "n_leo=1000:1000:1", "--sweep", "n_meo=12:12:1"],
                              [["--seed", "3"], ["--trials", "7"]]),
                  "sample": ([], EVALUATION_OPTIONS)}


@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=f"{command}-option{i}")
    for command, (_, options) in UNREAD_OPTIONS.items() for i, option in enumerate(options)])
def test_unread_options_exit_two(tmp_path, capsys, command, option):
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, command, *UNREAD_OPTIONS[command][0], *option)
    assert exit_info.value.code == 2 and not (tmp_path / "out.csv").exists()
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


class RecordingExecutor:
    """Stands in for ``ProcessPoolExecutor``: records the worker count it is
    asked for and maps in this process, so no process is started."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("sweep, jobs, started", [
    ("n_leo=1000:1000:1", "500", []),  # one task: serial, no pool
    ("n_leo=1000:1200:100", "500", [3]),
    ("n_leo=1000:1200:100", "2", [2]),
])
def test_jobs_start_at_most_one_worker_per_task(tmp_path, monkeypatch, sweep, jobs, started):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "max_workers", [])
    code, text = run(tmp_path, "curve", "--sweep", sweep, "--jobs", jobs)
    assert code == 0 and RecordingExecutor.max_workers == started
    assert text == run(tmp_path, "curve", "--sweep", sweep, name="serial.csv")[1]


# One past the bound only: a regression then costs megabytes, not the
# gigabytes of a K near 1e9.
TOO_LARGE_K = {
    "curve": ["curve", "--sweep", "n_leo=1000:1000:1"],
    "heatmap": ["heatmap", "--sweep", "n_leo=1000:1000:1", "--sweep", "n_meo=12:12:1"],
    "validate": ["validate", "--trials", "20"],
}


@pytest.mark.parametrize("command", sorted(TOO_LARGE_K))
def test_too_large_k_exits_two(tmp_path, capsys, command):
    code, text = run(tmp_path, *TOO_LARGE_K[command], "--K", str(cli.MAX_SWEEP_POINTS + 1))
    assert code == 2 and text is None
    assert "K values" in capsys.readouterr().err


@pytest.mark.parametrize("k_values", ["", ","])
@pytest.mark.parametrize("command", sorted(TOO_LARGE_K))
def test_empty_k_list_exits_two(tmp_path, capsys, command, k_values):
    code, text = run(tmp_path, *TOO_LARGE_K[command], "--K", k_values)
    assert code == 2 and text is None
    assert "K list is empty" in capsys.readouterr().err


@pytest.mark.parametrize("metrics", ["", ",", " , "])
def test_empty_metric_list_exits_two(tmp_path, capsys, metrics):
    code, text = run(tmp_path, "validate", "--trials", "20", "--metrics", metrics)
    assert code == 2 and text is None
    assert "metric list is empty" in capsys.readouterr().err


def test_spaced_lists_are_read_entry_by_entry(tmp_path):
    code, text = run(tmp_path, "validate", "--trials", "20", "--metrics", "availability, localizability",
                     "--K", " 1 , 2 ")
    assert code in (0, 1)
    assert [(r[0], r[1]) for r in rows(text)[1:]] == [
        (f"{system}_{metric}", k) for metric in analytic.METRICS for system in analytic.SYSTEMS for k in "12"]


# The smallest run of each command that reads --config and writes --out.
IO_COMMANDS = {
    "curve": ["curve", "--sweep", "n_leo=1000:1000:1", "--K", "1"],
    "validate": ["validate", "--trials", "20", "--metrics", "availability", "--K", "1"],
    "emit-config": ["emit-config"],
}


@pytest.mark.parametrize("config", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("command", sorted(IO_COMMANDS))
def test_unreadable_config_exits_two(tmp_path, capsys, command, config):
    path = tmp_path / config
    if config == "directory":
        path.mkdir()
    elif config == "not_utf8":
        path.write_bytes(b"leo.n_sats = 1000 \xff\n")
    code, text = run(tmp_path, *IO_COMMANDS[command], "--config", str(path))
    assert code == 2 and text is None
    err = capsys.readouterr().err
    assert "configuration error" in err and str(path) in err


@pytest.mark.parametrize("command", sorted(IO_COMMANDS))
def test_unwritable_out_exits_two(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.csv"
    assert cli.main([*IO_COMMANDS[command], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err


def refuse(*args, **kwargs):
    raise AssertionError("ran work that a bad argument should have prevented")


@pytest.mark.parametrize("out", ["missing/out.csv", "directory"])
def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys, out):
    # validate would otherwise run its whole Monte Carlo before the write
    # failed.
    monkeypatch.setattr(mc, "simulate", refuse)
    (tmp_path / "directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["validate", "--out", str(tmp_path / out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("denied", ["directory", "file", "proc"])
def test_out_without_write_permission_fails_before_any_work(tmp_path, monkeypatch, capsys, denied):
    # os.access denies writing the directory, or the file already there.
    # /proc passes os.access for a privileged process, but no file can be
    # created in it, so opening the file is what refuses it.
    out = tmp_path / "out.csv"
    if denied == "proc":
        if not os.path.isdir("/proc"):
            pytest.skip("no /proc on this platform")
        out = Path("/proc/out.csv")
    else:
        if denied == "file":
            out.write_text("kept\n")
        refused = str(out if denied == "file" else tmp_path)
        monkeypatch.setattr(os, "access", lambda path, mode: os.fspath(path) != refused)
    monkeypatch.setattr(mc, "simulate", refuse)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["validate", "--trials", "20000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: cannot write '{out}': " in err
    assert denied == "proc" or "Permission denied" in err
    assert sorted(tmp_path.rglob("*")) == before
    assert out.read_text() == "kept\n" if denied == "file" else not out.exists()


def test_out_is_kept_on_failure_and_rewritten_on_success(tmp_path):
    # The file is probed before the work: a failing command leaves a file
    # that was there untouched and no file where there was none, and a
    # successful one replaces the whole content.
    kept, created = tmp_path / "kept.csv", tmp_path / "created.csv"
    kept.write_text("kept\n" * 1000)
    for out in (kept, created):
        assert cli.main(["sample", "--set", "mc.master_seed=-1", "--out", str(out)]) == 2
    assert kept.read_text() == "kept\n" * 1000 and not created.exists()
    assert cli.main(["emit-config", "--out", str(kept)]) == 0
    assert kept.read_text() == emit_settings(load_settings())


def test_out_to_null_device_is_written():
    if not os.path.exists(os.devnull):
        pytest.skip("no null device on this platform")
    assert cli.main(["emit-config", "--out", os.devnull]) == 0


def test_out_to_fifo_is_written(tmp_path):
    # The probe must not open a FIFO: that would block until a reader came.
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs on this platform")
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text(encoding="utf-8")))
    reader.start()
    try:
        assert cli.main(["emit-config", "--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
        if reader.is_alive():  # the FIFO was never opened for writing
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join()
    assert read == [emit_settings(load_settings())]


def test_out_to_pipe_is_written():
    # /dev/stdout here is the pipe the test reads the child's output from.
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout on this platform")
    stdout = fresh_python("-c", "import sys; from constelsim import cli; "
                          "sys.exit(cli.main(['emit-config', '--out', '/dev/stdout']))")
    assert stdout == emit_settings(load_settings())


def test_oversized_grid_exits_two(tmp_path, monkeypatch, capsys):
    # Each axis is within the bound; the 400 x 400 grid is not, and it is
    # refused before any point is built or evaluated.
    monkeypatch.setattr(cli, "_map_points", refuse)
    code, text = run(tmp_path, "heatmap", "--sweep", "n_leo=0:399:1", "--sweep", "n_meo=0:399:1")
    assert code == 2 and text is None
    assert f"at most {cli.MAX_SWEEP_POINTS} points" in capsys.readouterr().err


class TestSample:
    def test_one_row_per_satellite(self, tmp_path):
        code, text = run(tmp_path, "sample", "--set", "leo.n_sats=5")
        assert code == 0
        table = rows(text)
        assert table[0] == ["layer", "orbit_index", "sat_index", "x_km", "y_km", "z_km"]
        assert [r[0] for r in table[1:]] == ["leo"] * 5 + ["meo"] * 12
        assert [(r[1], r[2]) for r in table[-12:]] == [(str(o), str(s)) for o in range(2) for s in range(6)]

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        for argv in (["--set", "mc.master_seed=-1"], ["--seed", "-1"]):
            code, text = run(tmp_path, "sample", *argv)
            assert code == 2 and text is None
            assert "configuration error: mc: master_seed must be non-negative" in capsys.readouterr().err

    def test_reads_the_seed_alone(self, tmp_path, capsys):
        # The drawn constellation depends on the seed, not on the trial count,
        # so ``sample`` takes no --trials and reads no mc.n_trials.
        code, text = run(tmp_path, "sample", "--seed", "3", "--set", "mc.n_trials=0", name="a.csv")
        assert code == 0
        assert run(tmp_path, "sample", "--seed", "3", name="b.csv") == (0, text)
        assert run(tmp_path, "sample", "--seed", "4", name="c.csv")[1] != text
        with pytest.raises(SystemExit) as exit_info:
            run(tmp_path, "sample", "--trials", "0")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trials 0" in capsys.readouterr().err


class TestEmitConfig:
    def test_round_trip(self, tmp_path):
        code, text = run(tmp_path, "emit-config", "--set", "leo.n_sats=1234", name="first.cfg")
        assert code == 0
        assert "leo.n_sats = 1234" in text.splitlines()
        want = load_settings(overrides={"leo.n_sats": "1234"})
        assert parse_config_text(text) == want
        code, again = run(tmp_path, "emit-config", "--config", str(tmp_path / "first.cfg"), name="second.cfg")
        assert code == 0 and again == text

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_round_trip_is_exact(self, data):
        # Any real-valued key with any finite value and unit suffix, any
        # count with any integer, past 2**53 too: emitting and re-parsing
        # gives back exactly the parsed settings.
        values = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)
        suffixes = st.sampled_from(("",) + UNIT_SUFFIXES)
        reals = data.draw(st.dictionaries(st.sampled_from(REAL_KEYS), st.tuples(values, suffixes)))
        counts = data.draw(st.dictionaries(st.sampled_from(COUNT_KEYS), st.integers(-2**70, 2**70),
                                           min_size=0 if reals else 1))
        settings_in = load_settings(overrides={**{k: f"{v!r} {unit}" for k, (v, unit) in reals.items()},
                                               **{k: str(v) for k, v in counts.items()}})
        assert {k: settings_in[k] for k in counts} == counts
        assert parse_config_text(emit_settings(settings_in)) == settings_in

    @pytest.mark.parametrize("value", ["2.5", "5 dB", "1 deg", "inf", "nan"])
    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_count_must_be_whole(self, tmp_path, capsys, key, value):
        # Refused when parsed, before any setting is built.
        code, text = run(tmp_path, "emit-config", "--set", f"{key}={value}")
        assert code == 2 and text is None
        assert f"{key} must be a whole number, got '{value}'" in capsys.readouterr().err

    def test_seeds_past_two_to_the_53_do_not_alias(self, tmp_path):
        # 2**53 + 1 is the first integer a float cannot hold.
        argv = ["validate", "--metrics", "availability", "--trials", "2000", "--K", "1,2", "--seed"]
        code_a, low = run(tmp_path, *argv, str(2**53), name="low.csv")
        code_b, high = run(tmp_path, *argv, str(2**53 + 1), name="high.csv")
        assert code_a in (0, 1) and code_b in (0, 1) and low != high
        code, text = run(tmp_path, "emit-config", "--seed", str(2**53 + 1))
        assert code == 0 and f"mc.master_seed = {2**53 + 1}" in text.splitlines()

    @pytest.mark.parametrize("bad", ["nosuch.key=1", "leo.n_sats=abc", "leo.n_sats"])
    def test_bad_set_exits_two(self, tmp_path, capsys, bad):
        code, text = run(tmp_path, "emit-config", "--set", bad)
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err


COMMANDS = ("curve", "heatmap", "validate", "sample", "emit-config")

# ``constelsim --help``, which lists every subcommand, at 80 columns.
TOP_HELP = """\
usage: constelsim [-h] {curve,heatmap,validate,sample,emit-config} ...

Availability and localizability of LEO/MEO satellite constellations

positional arguments:
  {curve,heatmap,validate,sample,emit-config}
    curve               sweep one parameter, one CSV column per K
    heatmap             grid LEO count against total MEO count
    validate            analytic vs Monte Carlo validation report
    sample              dump one sampled constellation as CSV
    emit-config         print the effective configuration

options:
  -h, --help            show this help message and exit
"""

# Counts the argument parsers that importing the CLI module constructs.
_IMPORT_PROBE = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs)
import constelsim.cli
print(len(built))
"""


def exit_output(capsys, parse, argv):
    """Exit code and (stdout, stderr) of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return exit_info.value.code, capsys.readouterr()


@pytest.fixture
def parsers_built(monkeypatch):
    """Records each ``argparse.ArgumentParser`` constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def parse_outcome(capsys, parse, argv):
    """What ``parse(argv)`` gives: its exit code, standard output and
    standard error when it exits, else the parsed options without the
    command name."""
    try:
        opts = parse(argv)
    except SystemExit as exit_info:
        return exit_info.code, capsys.readouterr()
    return {key: value for key, value in vars(opts).items() if key != "command"}


# Arguments for each command's parser: its help, no options (a sweep command
# without its sweep), an unknown option, a bad value of a typed option, a bad
# metric choice, an argument left over after a sweep, and a run that every
# command but ``sample`` accepts.
PARITY_ARGS = [["--help"], [], ["--bogus"], ["--seed", "x"], ["--metric", "coverage"],
               ["--K", "1", "--sweep", "n_leo=1000:1000:1", "--bogus", "x"],
               ["--set", "leo.n_sats=5", "--seed", "3", "--out", "-", "--trials", "7"]]

# What each command's parser leaves over of PARITY_ARGS, by command and case
# index. The full parser refuses it at its top level, the command's parser
# in its own name; every other case it answers as the full parser does.
LEFT_OVER = {
    **{(command, 2): "--bogus" for command in ("validate", "sample", "emit-config")},
    **{(command, 4): "--metric coverage" for command in ("sample", "emit-config")},
    ("curve", 5): "--bogus x",
    ("heatmap", 5): "--bogus x",
    ("validate", 5): "--sweep n_leo=1000:1000:1 --bogus x",
    ("sample", 5): "--K 1 --sweep n_leo=1000:1000:1 --bogus x",
    ("emit-config", 5): "--K 1 --sweep n_leo=1000:1000:1 --bogus x",
    ("sample", 6): "--trials 7",
}


# The argv shapes of the benchmark's three workloads: plain, so read
# without building a parser.
BENCHMARK_ARGV = [
    ["curve", "--metric", "localizability", "--system", "hybrid", "--K", "1,2,3,4,5,6",
     "--sweep", "n_leo=1000:2000:1000", "--seed", "5", "--jobs", "1", "--out", "out.csv"],
    ["validate", "--metrics", "availability", "--trials", "5000", "--seed", "5", "--jobs", "1", "--out", "out.csv"],
    ["validate", "--trials", "3000", "--set", "leo.altitude_km=2000", "--seed", "5", "--jobs", "1",
     "--out", "out.csv"],
]


def same_options(one: argparse.Namespace, other: argparse.Namespace) -> bool:
    """Whether two namespaces hold the same options, each of the same type
    and ``repr``, so 1 differs from 1.0 and True, and a NaN equals a NaN."""
    return {key: repr(value) for key, value in vars(one).items()} == \
        {key: repr(value) for key, value in vars(other).items()}


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_help_matches_full_parser(self, capsys, command):
        one = exit_output(capsys, cli.command_parser(command).parse_args, ["--help"])
        full = exit_output(capsys, cli.build_parser().parse_args, [command, "--help"])
        assert one == full and one[0] == 0
        assert one[1].out.startswith(f"usage: constelsim {command} [-h]")

    @pytest.mark.parametrize("args", PARITY_ARGS, ids=" ".join)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_parser_answers_as_full_parser(self, capsys, monkeypatch, command, args):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, *args]
        got = parse_outcome(capsys, lambda argv: cli.parse_argv(argv)[1], argv)
        want = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        left_over = LEFT_OVER.get((command, PARITY_ARGS.index(args)))
        if left_over is None:
            assert got == want
        else:
            assert want[1].err.endswith(f"\nconstelsim: error: unrecognized arguments: {left_over}\n")
            code, (out, err) = got
            assert code == 2 and out == "" and err.startswith(f"usage: constelsim {command} [-h]")
            assert err.endswith(f"\nconstelsim {command}: error: unrecognized arguments: {left_over}\n")
        if not isinstance(got, dict):  # main exits with the same output
            assert exit_output(capsys, cli.main, argv) == got

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--bogus", "curve"], ["--", "emit-config"]])
    def test_no_leading_command_is_answered_by_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        got = parse_outcome(capsys, lambda argv: cli.parse_argv(argv)[1], argv)
        assert got == parse_outcome(capsys, cli.build_parser().parse_args, argv)

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert exit_output(capsys, cli.main, ["--help"]) == (0, (TOP_HELP, ""))

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus"]])
    def test_usage_lists_every_command(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, (out, err) = exit_output(capsys, cli.main, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: constelsim [-h] {curve,heatmap,validate,sample,emit-config} ...\n")

    def test_emit_config_builds_no_parser(self, tmp_path, parsers_built):
        assert run(tmp_path, "emit-config")[0] == 0
        assert parsers_built == []

    def test_curve_builds_no_parser(self, tmp_path, parsers_built):
        code, text = run(tmp_path, "curve", "--K", "1", "--sweep", "n_leo=1000:1000:1", "--mc", "--trials", "20")
        assert code == 0 and len(rows(text)) == 2
        assert parsers_built == []

    @pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=lambda argv: " ".join(argv[:3]))
    def test_benchmark_argv_builds_no_parser(self, parsers_built, argv):
        command, opts = cli.parse_argv(argv)
        assert parsers_built == []
        assert command == argv[0] and same_options(opts, cli.command_parser(command).parse_args(argv[1:]))

    def test_leftover_argument_builds_one_parser(self, capsys, parsers_built):
        code, _ = exit_output(capsys, cli.main, ["curve", "--sweep", "n_leo=1000:1000:1", "--bogus"])
        assert code == 2 and parsers_built == ["constelsim curve"]

    def test_full_parser_is_built_without_a_command(self, capsys, parsers_built):
        assert exit_output(capsys, cli.main, ["--help"])[0] == 0
        assert parsers_built == ["constelsim", *(f"constelsim {command}" for command in COMMANDS)]

    def test_import_builds_no_parser(self):
        assert fresh_python("-c", _IMPORT_PROBE) == "0\n"

    def test_console_script_reads_sys_argv(self, tmp_path):
        # ``python -m constelsim.cli`` calls main() with no arguments, as the
        # console script does.
        argv = ["emit-config", "--set", "leo.n_sats=1234"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert fresh_python("-m", "constelsim.cli", *argv) == text


# Option keywords the plain read handles; an option with any other (nargs,
# const, another action) would need it extended.
PLAIN_KEYWORDS = {"action", "choices", "default", "dest", "help", "metavar", "required", "type"}

# Odd values: dash-led (argparse reads '-' and the negative numbers '-1',
# '-0' and '-.5' as values, the rest as flags), unconvertible or outside
# every choice, next to edge cases that convert.
ODD_VALUES = ["-", "-1", "-0", "-.5", "-1.", "-1e3", "-x", "--x", "-h", "x", "1.5", "1e400", "nan", " 7", "7 ", "",
              "a b", "coverage", "leo"]


def option_value(kwargs: dict):
    """A strategy for the text after an option: mostly a value it takes,
    else an odd one."""
    if "choices" in kwargs:
        good = st.sampled_from(kwargs["choices"])
    elif kwargs.get("type") is int:
        good = st.integers(0, 2**70).map(str)
    elif kwargs.get("type") is float:
        good = st.floats(min_value=0.0).map(repr)
    else:
        good = st.from_regex(r"[ab1=.:, ][ab1=.:, -]{0,5}", fullmatch=True)
    return st.integers(0, 4).flatmap(lambda draw: good if draw else st.sampled_from(ODD_VALUES))


@st.composite
def command_args(draw):
    """A command and the arguments after its name: exact flags with a value
    or none, abbreviated flags, ``--flag=value``, repeats, stray tokens and
    help, often with a sweep command's required ``--sweep``."""
    command = draw(st.sampled_from(COMMANDS))
    options = dict(cli._COMMANDS[command][2])
    args = []
    if "--sweep" in options and draw(st.integers(0, 3)):
        args += ["--sweep", "n_leo=1000:1000:1"]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(options)))
        kwargs = options[flag]
        value = draw(option_value(kwargs))
        kind = draw(st.sampled_from(["exact"] * 8 + ["bare", "abbreviated", "equals", "stray"]))
        if kind == "exact":
            args += [flag] if kwargs.get("action") == "store_true" else [flag, value]
        elif kind == "bare":
            args.append(flag)
        elif kind == "abbreviated":
            args += [flag[:draw(st.integers(2, max(2, len(flag) - 1)))], value]
        elif kind == "equals":
            args.append(f"{flag}={value}")
        else:
            args.append(draw(st.sampled_from(["-h", "--help", "--", "--bogus", "-", "x", "--mc", "--seed", value])))
    return command, args


class TestPlainParse:
    @settings(max_examples=200, deadline=None)
    @given(command_args())
    @example(("curve", ["--sweep", "n_leo=1:1:1", "--out", "-"]))
    @example(("validate", ["--seed", "-1", "--rtol", "-.5"]))
    def test_declines_or_matches_the_parser(self, drawn):
        command, args = drawn
        plain = cli._plain_parse(command, args)
        if plain is not None:
            assert same_options(plain, cli.command_parser(command).parse_args(args))

    @pytest.mark.parametrize("args", [
        ["--tri", "5"], ["--rtol=1e-9"], ["--seed", "-1e3"], ["--rtol", "-1."], ["--out", "-x"], ["--seed", "x"],
        ["--metric", "coverage"], ["--bogus"], ["-h"], ["--"], ["--seed"], ["--sweep", "n_leo=1:1:1", "x"],
        ["--mc", "x"], []])
    def test_declines_what_is_not_plain(self, args):
        # Each is answered by the parser: a valid form the plain read does
        # not take, an error (argparse reads '-1e3', '-1.' and '-x' as flags,
        # so their options lack a value), help, or (for ``[]``) a missing
        # --sweep.
        assert cli._plain_parse("curve", args) is None

    @pytest.mark.parametrize("args", [["--out", "-"], ["--seed", "-1"], ["--seed", "-0"], ["--rtol", "-.5"],
                                      ["--rtol", "-2.5", "--set", "-"]])
    def test_reads_dash_values(self, parsers_built, args):
        # A lone '-' and negative numbers are values to argparse too.
        args = ["--sweep", "n_leo=1:1:1", *args]
        plain = cli._plain_parse("curve", args)
        assert plain is not None and parsers_built == []
        assert same_options(plain, cli.command_parser("curve").parse_args(args))

    def test_negative_seed_exits_two_without_a_parser(self, tmp_path, capsys, parsers_built):
        code = cli.main(["validate", "--set", "mc.n_trials=300", "--seed", "-1", "--out", str(tmp_path / "out.csv")])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "configuration error: mc: master_seed must be non-negative\n")
        assert parsers_built == [] and not (tmp_path / "out.csv").exists()

    def test_reads_every_kind_of_option(self):
        args = ["--set", "a=1", "--rtol", "1e-9", "--mc", "--metric", "localizability", "--set", "b=2",
                "--K", "2", "--sweep", "n_leo=1:1:1", "--seed", "3", "--seed", "4"]
        plain = cli._plain_parse("curve", args)
        assert same_options(plain, cli.command_parser("curve").parse_args(args))
        assert (plain.set, plain.seed, plain.rtol, plain.mc, plain.k_values) == (["a=1", "b=2"], 4, 1e-9, True, "2")
        assert (plain.trials, plain.config, plain.out, plain.jobs, plain.system) == (None, None, "-", 1, "hybrid")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_option_table_needs_no_more(self, command):
        # argparse converts a string default by the option's type, and
        # appends onto a copy of an append option's default; the plain read
        # does neither, so neither may occur.
        for flag, kwargs in cli._COMMANDS[command][2]:
            assert set(kwargs) <= PLAIN_KEYWORDS and kwargs.get("action") in (None, "store_true", "append")
            assert not ("type" in kwargs and isinstance(kwargs.get("default"), str)), flag
            assert not (kwargs.get("action") == "append" and kwargs.get("default") is not None), flag


decimals = st.decimals(min_value=-1000, max_value=1000, places=2)
steps = st.decimals(min_value=Decimal("0.01"), max_value=50, places=2)


# Blocks every scipy import, then runs a localizability curve, a small
# validate and the two fading read-outs in one fresh interpreter. Prints
# the exit codes, the read-outs and every scipy module that loaded anyway.
_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # importing scipy or any submodule now fails
from constelsim import cli
from constelsim.channel import SrFadingParams, sr_cdf, sr_sf

out = sys.argv[1]
curve = cli.main(["curve", "--metric", "localizability", "--system", "hybrid",
                  "--sweep", "h_leo=1000:1100:100", "--out", out + "/curve.csv"])
validate = cli.main(["validate", "--trials", "200", "--out", out + "/validate.csv"])
fading = SrFadingParams(m=19.4, b0=0.158, omega=1.29)
print(curve, validate, sr_cdf(fading, 1.0), sr_sf(fading, 1.0))
print(sorted(name for name, module in sys.modules.items() if name.split(".")[0] == "scipy" and module is not None))
"""


def fresh_python(*args) -> str:
    """Standard output of a fresh interpreter run with ``args``, with this
    package importable."""
    src = str(Path(constelsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True,
                          timeout=120).stdout


def test_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests alone.
    stdout = fresh_python("-c", _NO_SCIPY_PROBE, str(tmp_path))
    first, loaded = stdout.splitlines()
    curve, validate, cdf, sf = first.split()
    assert curve == "0" and validate in ("0", "1")
    assert 0.0 < float(cdf) < 1.0
    assert abs(float(cdf) + float(sf) - 1.0) <= 2e-12
    assert loaded == "[]"
    assert len(rows((tmp_path / "curve.csv").read_text(encoding="utf-8"))) == 3
    assert len(rows((tmp_path / "validate.csv").read_text(encoding="utf-8"))) == 1 + 2 * 3 * 6


class TestParseSweep:
    @settings(max_examples=200, deadline=None)
    @given(lo=decimals, step=steps, count=st.integers(1, 2000), past_last=st.booleans())
    def test_points_lie_on_the_grid(self, lo, step, count, past_last):
        # hi is the last grid point, or half a step beyond it.
        hi = lo + (count - 1) * step + (step / 2 if past_last else 0)
        name, values = cli._parse_sweep(f"h_leo={lo}:{hi}:{step}")
        assert name == "h_leo" and len(values) == count
        lo_f, step_f = float(lo), float(step)
        assert values == [round(lo_f + i * step_f, 12) for i in range(count)]

    def test_known_drift_case(self):
        _, values = cli._parse_sweep("h_leo=500:2000:0.3")
        assert len(values) == 5001
        assert values[61] == 518.3 and values[-1] == 2000.0

    @pytest.mark.parametrize("text", ["h_leo", "h_leo=1:2", "h_leo=1:2:0", "h_leo=2:1:1", "bogus=1:2:1",
                                      "n_leo=a:b:1", "n_leo=1000:nan:1", "n_leo=1000:inf:1",
                                      "h_leo=0:1e308:1e-10", "n_leo=0:1e9:1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            cli._parse_sweep(text)
