import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import constelsim
from constelsim import cli
from constelsim.config import ConfigError, emit_settings, load_settings, parse_config_text

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


def test_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests alone.
    src = str(Path(constelsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, str(tmp_path)], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    first, loaded = out.stdout.splitlines()
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
