"""Tests of the benchmark itself: its correctness gate and its tracer.

    python3 -m pytest -q perfbench/tests

The MC gate tests run the ``validate-dense`` command twice (about 20 s
each); the rest take a few seconds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import constelsim
import constelsim.analytic
import constelsim.cli
from check import MC_Z, check_output, parse_csv
from paths import REFERENCE_DIR, REPO_ROOT, WORK_DIR, child_env
from run import NOMINAL_UNIT_S, Invocation, _scale
from tracer import Tracer, _result_size
from workloads import WORKLOADS


def _reference(name):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _run_cli(workload, seed, extra=()):
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        out = Path(tmp) / "out.csv"
        proc = subprocess.run([sys.executable, "-m", "constelsim.cli", *workload.argv(seed, str(out)), *extra],
                              cwd=REPO_ROOT, env=child_env(), capture_output=True, text=True)
        return proc.returncode, out.read_text(encoding="utf-8") if out.exists() else None


def _validate_csv_from_reference(ref, perturb=None, by=0.0):
    lines = ["metric,K,analytic,empirical,std_err,delta,pass"]
    for key, row in ref["rows"].items():
        analytic = row["analytic"] + (by if key == perturb else 0.0)
        delta = analytic - row["empirical"]
        lines.append(f"{key},{analytic:.12g},{row['empirical']:.12g},{row['std_err']:.12g},{delta:.12g},true")
    return "\n".join(lines) + "\n"


class TestMcGate:
    def test_rejects_matched_mc_and_accepts_faithful_mc(self):
        workload = WORKLOADS["validate-dense"]
        ref = _reference(workload.name)

        code, text = _run_cli(workload, 11, ["--set", "mc.sum_all_interferers=false"])
        matched = check_output(workload, ref, text, code, workload.work)
        assert matched.failed > 0
        assert matched.max_abs_z > MC_Z

        code, text = _run_cli(workload, 12)
        faithful = check_output(workload, ref, text, code, workload.work)
        assert faithful.failed == 0, faithful
        assert faithful.attempted == 72


class TestAnalyticGate:
    def test_curve_value_perturbed_by_1e9_fails(self):
        workload = WORKLOADS["curve-loc"]
        ref = _reference(workload.name)
        header = ",".join(ref["header"])

        def csv(rows):
            return header + "\n" + "".join(",".join(format(v, ".12g") for v in row) + "\n" for row in rows)

        assert check_output(workload, ref, csv(ref["rows"]), 0, workload.work).failed == 0
        rows = [list(row) for row in ref["rows"]]
        rows[1][3] += 1e-9
        result = check_output(workload, ref, csv(rows), 0, workload.work)
        assert (result.attempted, result.failed) == (12, 1)

    def test_validate_analytic_perturbed_by_1e9_fails(self):
        workload = WORKLOADS["validate-avail"]
        ref = _reference(workload.name)
        clean = check_output(workload, ref, _validate_csv_from_reference(ref), 0, workload.work)
        assert clean.failed == 0
        text = _validate_csv_from_reference(ref, perturb="meo_availability,3", by=1e-9)
        assert check_output(workload, ref, text, 0, workload.work).failed == 1

    def test_crash_missing_row_and_bad_exit_fail(self):
        workload = WORKLOADS["validate-avail"]
        ref = _reference(workload.name)
        text = _validate_csv_from_reference(ref)
        assert check_output(workload, ref, None, None, workload.work).failed == 36
        assert check_output(workload, ref, text, 2, workload.work).failed == 36
        # exit 1 must agree with the pass column, which is all true here
        assert check_output(workload, ref, text, 1, workload.work).failed == 36
        dropped = "".join(line + "\n" for line in text.splitlines() if not line.startswith("leo_availability,2,"))
        assert check_output(workload, ref, dropped, 0, workload.work).failed == 2

    def test_parse_csv_requires_final_newline(self):
        assert parse_csv("a,b\n1,2\n") == (["a", "b"], [["1", "2"]])
        try:
            parse_csv("a,b\n1,2")
        except ValueError:
            return
        raise AssertionError("missing newline accepted")


def _bindings():
    """Every constelsim module attribute and module-level dict entry, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "constelsim" or name.startswith("constelsim."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, dict) and key != "__builtins__":
                    for dict_key, entry in value.items():
                        out[(name, key, dict_key)] = entry
    return out


class TestTracer:
    def test_restores_every_binding(self):
        import constelsim.mc  # noqa: F401 -- load every module the table names

        before = _bindings()
        tracer = Tracer().install()
        try:
            assert constelsim.analytic.sr_cdf is not before[("constelsim.analytic", "sr_cdf")]
            assert constelsim.cli._ANALYTIC[("localizability", "hybrid")] is not before[
                ("constelsim.cli", "_ANALYTIC", ("localizability", "hybrid"))]
            assert tracer.missing == []
        finally:
            tracer.uninstall()
        after = _bindings()
        assert after.keys() == before.keys()
        changed = [key for key in before if after[key] is not before[key]]
        assert changed == []

    def test_missing_names_are_reported_not_raised(self):
        table = {
            "constelsim.mc": {"run_validation": None, "no_such_function": None},
            "constelsim.no_such_module": {"anything": None},
        }
        with Tracer(table) as tracer:
            assert tracer.missing == ["mc.no_such_function", "no_such_module.anything"]
            assert "mc.run_validation" in tracer.stats

    def test_counts_items_and_self_time(self):
        from constelsim.config import default_config

        fading = default_config().leo_fading
        table = {"constelsim.channel": {"sr_cdf": _result_size}}
        with Tracer(table) as tracer:
            constelsim.analytic.sr_cdf(fading, np.linspace(0.1, 2.0, 50))
            constelsim.analytic.sr_cdf(fading, 0.5)
        stat = tracer.stats["channel.sr_cdf"]
        assert (stat.calls, stat.items) == (2, 51)
        assert 0 < stat.self_seconds <= stat.seconds

    def test_traced_and_untraced_csv_identical(self):
        workload = WORKLOADS["validate-avail"]
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            plain = Invocation(workload, 5, Path(tmp), 0)
            traced = Invocation(workload, 5, Path(tmp), 1, "trace")
        assert plain.csv is not None
        assert plain.csv == traced.csv
        assert traced.report["trace"]["functions"]["constellation.sample_bpp"]["calls"] == workload.work


class TestSpeedScale:
    def test_median_unit_time_inside_the_window(self):
        samples = [(0.0, 1.0), (1.0, 2 * NOMINAL_UNIT_S), (1.1, 4 * NOMINAL_UNIT_S), (1.2, 2 * NOMINAL_UNIT_S)]
        assert _scale(samples, (0.5, 1.5)) == 0.5

    def test_short_window_uses_every_unit(self):
        samples = [(t, NOMINAL_UNIT_S * (1 + t)) for t in range(5)]
        assert _scale(samples, (0.5, 1.5)) == 1 / 3


class TestResultLine:
    def test_metrics_match_benchmark_json(self):
        bench = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, *bench["command"][1:],
                                   "--workload", "validate-avail", "--seed", "4", "--seconds", "1",
                                   "--trace", str(trace)],
                                  cwd=REPO_ROOT, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in bench[section]}
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            assert reported == declared

    def test_exits_nonzero_without_program(self):
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            shutil.copytree(REPO_ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curve-loc", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=tmp, capture_output=True, text=True)
        assert proc.returncode != 0
        assert proc.stdout == ""
