import argparse
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import constelsim
from constelsim import analytic, cli, mc
from constelsim.config import (
    ConfigError,
    build_system_config,
    emit_settings,
    load_settings,
    parse_config_text,
)

VALIDATE_HEADER = "metric,K,analytic,empirical,std_err,delta,pass"
UNIT_SUFFIXES = ("dBW", "dBm", "dBi", "dB", "deg", "rad")
NUMERIC_KEYS = sorted(set(load_settings()) - {"rx.pattern", "mc.sum_all_interferers"})


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

    def test_each_layer_once_per_sub_config(self, tmp_path, monkeypatch):
        # The count law reads no LEO count and the MEO pass no MEO count, so
        # the grid needs one of each, and one rank pass per LEO count.
        labels = []
        original = analytic.integrate_adaptive

        def counting(func, a, b, rtol, label):
            labels.append(label)
            return original(func, a, b, rtol, label)

        monkeypatch.setattr(analytic, "integrate_adaptive", counting)
        code, _ = run(tmp_path, *self.LOC_GRID)
        assert code == 0
        assert Counter(labels) == {"interferer count law": 1, "rank coverage": 10,
                                   "meo single-satellite localizability": 1}

    def test_cached_grid_matches_uncached_points(self, tmp_path, analytic_caches):
        lines = ["n_leo,n_meo,value"]
        for n_leo in range(500, 5001, 500):
            for n_meo in range(0, 25, 2):
                for cache in analytic_caches:
                    cache.cache_clear()
                cfg = build_system_config(load_settings(overrides={
                    "leo.n_sats": str(n_leo), "meo.n_orbits": str(n_meo), "meo.sats_per_orbit": "1"}))
                value = analytic.evaluate(cfg, "localizability", ("hybrid",), 4)["hybrid"][3]
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


@pytest.mark.parametrize("existing", [False, True], ids=["directory", "file"])
def test_out_without_write_permission_fails_before_any_work(tmp_path, monkeypatch, capsys, existing):
    # os.access denies writing the directory, or the file already there.
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("kept\n")
    denied = str(out if existing else tmp_path)
    monkeypatch.setattr(os, "access", lambda path, mode: os.fspath(path) != denied)
    monkeypatch.setattr(mc, "simulate", refuse)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["validate", "--out", str(out)]) == 2
    assert f"configuration error: cannot write '{out}': Permission denied" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert out.read_text() == "kept\n" if existing else not out.exists()


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
        code, text = run(tmp_path, "sample", "--set", "mc.master_seed=-1")
        assert code == 2 and text is None
        assert "configuration error" in capsys.readouterr().err


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
        # Any numeric key, any finite value, any unit suffix: emitting and
        # re-parsing gives back exactly the parsed settings.
        keys = st.sampled_from(NUMERIC_KEYS)
        values = st.floats(min_value=-300.0, max_value=300.0, allow_nan=False)
        suffixes = st.sampled_from(("",) + UNIT_SUFFIXES)
        overrides = data.draw(st.dictionaries(keys, st.tuples(values, suffixes), min_size=1))
        settings_in = load_settings(overrides={k: f"{v!r} {unit}" for k, (v, unit) in overrides.items()})
        assert parse_config_text(emit_settings(settings_in)) == settings_in

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


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_help_matches_full_parser(self, capsys, command):
        one = exit_output(capsys, cli.build_parser(command).parse_args, [command, "--help"])
        full = exit_output(capsys, cli.build_parser().parse_args, [command, "--help"])
        assert one == full and one[0] == 0
        assert one[1].out.startswith(f"usage: constelsim {command} [-h]")

    def test_top_level_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert exit_output(capsys, cli.main, ["--help"]) == (0, (TOP_HELP, ""))

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--bogus"],
                                      ["curve", "--sweep", "n_leo=1000:1000:1", "--bogus"]])
    def test_usage_lists_every_command(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code, (out, err) = exit_output(capsys, cli.main, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: constelsim [-h] {curve,heatmap,validate,sample,emit-config} ...\n")

    def test_emit_config_builds_two_parsers(self, tmp_path, parsers_built):
        assert run(tmp_path, "emit-config")[0] == 0
        assert parsers_built == ["constelsim", "constelsim emit-config"]

    def test_curve_builds_two_parsers(self, tmp_path, parsers_built):
        code, text = run(tmp_path, "curve", "--K", "1", "--sweep", "n_leo=1000:1000:1")
        assert code == 0 and len(rows(text)) == 2
        assert parsers_built == ["constelsim", "constelsim curve"]

    def test_import_builds_no_parser(self):
        assert fresh_python("-c", _IMPORT_PROBE) == "0\n"

    def test_console_script_reads_sys_argv(self, tmp_path):
        # ``python -m constelsim.cli`` calls main() with no arguments, as the
        # console script does.
        argv = ["emit-config", "--set", "leo.n_sats=1234"]
        code, text = run(tmp_path, *argv)
        assert code == 0
        assert fresh_python("-m", "constelsim.cli", *argv) == text


decimals = st.decimals(min_value=-1000, max_value=1000, places=2)
steps = st.decimals(min_value=Decimal("0.01"), max_value=50, places=2)


# Blocks every scipy import, then runs a localizability curve, a small
# validate and the three fading read-outs in one fresh interpreter. Prints
# the exit codes, the read-outs and every scipy module that loaded anyway.
_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # importing scipy or any submodule now fails
from constelsim import cli
from constelsim.channel import SrFadingParams, sr_cdf, sr_pdf, sr_sf

out = sys.argv[1]
curve = cli.main(["curve", "--metric", "localizability", "--system", "hybrid",
                  "--sweep", "h_leo=1000:1100:100", "--out", out + "/curve.csv"])
validate = cli.main(["validate", "--trials", "200", "--out", out + "/validate.csv"])
fading = SrFadingParams(m=19.4, b0=0.158, omega=1.29)
print(curve, validate, sr_cdf(fading, 1.0), sr_pdf(fading, 1.0), sr_sf(fading, 1.0))
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
    curve, validate, cdf, pdf, sf = first.split()
    assert curve == "0" and validate in ("0", "1")
    assert 0.0 < float(cdf) < 1.0 and float(pdf) > 0.0
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
        axis = cli._parse_sweep(f"h_leo={lo}:{hi}:{step}")
        assert len(axis.values) == count
        lo_f, step_f = float(lo), float(step)
        assert axis.values == [round(lo_f + i * step_f, 12) for i in range(count)]

    def test_known_drift_case(self):
        values = cli._parse_sweep("h_leo=500:2000:0.3").values
        assert len(values) == 5001
        assert values[61] == 518.3 and values[-1] == 2000.0

    @pytest.mark.parametrize("text", ["h_leo", "h_leo=1:2", "h_leo=1:2:0", "h_leo=2:1:1", "bogus=1:2:1",
                                      "n_leo=a:b:1", "n_leo=1000:nan:1", "n_leo=1000:inf:1",
                                      "h_leo=0:1e308:1e-10", "n_leo=0:1e9:1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            cli._parse_sweep(text)
