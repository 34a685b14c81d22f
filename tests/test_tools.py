"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import json
import math
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import constelsim
from constelsim import analytic, channel, constellation, geom, mc

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Bad ``--set`` entries either tool refuses, and the text its error names.
BAD_SETTINGS = [(["--set", "leo.n_sats"], "'leo.n_sats'"), (["--set", "bogus.key=1"], "'bogus.key'"),
                (["--set", "leo.n_sats=-3"], "n_sats"), (["--set", "rx.pattern=square"], "'square'")]


def untimed(result):
    """A tool's result without its timings, memory peak and page faults,
    which differ run to run."""
    return {key: untimed(value) if isinstance(value, dict) else value for key, value in result.items()
            if "seconds" not in key and key not in ("tracemalloc_peak_mb", "minor_faults_per_trial")}


@pytest.mark.parametrize("tool, argv", [("mc_stages", ["--trials", "20", "--repeat", "1"]), ("quad_rounds", [])])
def test_spaced_set_reads_as_the_cli_does(capsys, tool, argv):
    # The CLI's --set grammar: key and value are stripped around the '='.
    spaced = load_tool(tool).main([*argv, "--set", "leo.n_sats = 500"])
    tight = load_tool(tool).main([*argv, "--set", "leo.n_sats=500"])
    assert untimed(spaced) == untimed(tight)
    assert spaced["overrides"] == {"leo.n_sats": "500"}


def assert_refused(capsys, tool, argv, named):
    """``tool`` exits 2 on ``argv`` through its parser, with one error line
    that names ``named``, and prints nothing to stdout."""
    with pytest.raises(SystemExit) as exit_info:
        load_tool(tool).main(argv)
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0] and "Traceback" not in err


class TestMcStages:
    def test_reports_every_stage_at_200_trials(self, capsys):
        def staged():
            return (mc.sample_bpp_cap, mc.place_in_cap, mc.sample_dsbpp_cap, mc._sinr_passes, mc.sr_sample,
                    mc._link_indices, constellation.orbit_arc)

        originals = staged()
        result = load_tool("mc_stages").main(["--trials", "200", "--repeat", "1", "--set", "leo.altitude_km=2000"])
        assert json.loads(capsys.readouterr().out) == result
        assert (result["trials"], result["seed"], result["overrides"]) == (200, 1, {"leo.altitude_km": "2000"})
        assert result["metrics"] == ["availability", "localizability"]
        seconds = result["seconds"]
        assert list(seconds) == ["sampling", "visibility", "fading", "sinr", "aggregation", "total"]
        assert all(value >= 0 for value in seconds.values())
        assert seconds["sinr"] > 0 and seconds["fading"] > 0 and result["fading_draws_per_trial"] > 0
        # Faults of the reported run alone, a few hundred fresh pages at
        # most, far below this process's count since it started; without
        # the resource module, null.
        faults = result["minor_faults_per_trial"]
        assert 0 <= faults * 200 <= 4096 if load_tool("mc_stages").resource else faults is None
        # One draw per visible satellite; at 2000 km the pairs outnumber them,
        # though beams settle both ways: passing before they take any pair,
        # failing on their nearest others.
        assert result["interferer_pairs_per_trial"] > result["fading_draws_per_trial"]
        assert result["settled_pass_per_trial"] > 0 and result["settled_fail_per_trial"] > 0
        assert result["chunks"] == math.ceil(200 / mc.CHUNK_TRIALS) and result["chunk_trials"] == mc.CHUNK_TRIALS
        assert result["tracemalloc_peak_mb"] > 0 and not tracemalloc.is_tracing()
        # The wrappers are gone once the run ends.
        assert staged() == originals
        assert mc.sr_sample is channel.sr_sample and constellation.orbit_arc is geom.orbit_arc

    def test_availability_only_draws_no_fading(self, capsys, monkeypatch):
        # The campaign of ``validate --metrics availability``: sampling and
        # visibility only, and the visibility stage is the half-angle.
        calls = []

        def half_angle(cap_angle, cos_delta):
            calls.append(np.shape(cos_delta))
            return geom.orbit_arc(cap_angle, cos_delta)

        monkeypatch.setattr(constellation, "orbit_arc", half_angle)
        trials, orbits = 2 * mc.CHUNK_TRIALS + 76, 2
        result = load_tool("mc_stages").main(["--trials", str(trials), "--repeat", "1", "--metrics", "availability",
                                              "--set", f"meo.n_orbits={orbits}"])
        assert json.loads(capsys.readouterr().out) == result
        assert result["metrics"] == ["availability"]
        assert result["seconds"]["sinr"] == result["seconds"]["fading"] == 0
        assert result["fading_draws_per_trial"] == result["interferer_pairs_per_trial"] == 0
        assert result["settled_pass_per_trial"] == result["settled_fail_per_trial"] == 0
        assert result["seconds"]["visibility"] > 0 and result["chunks"] == 3
        # One half-angle call per chunk, one value per (trial, orbit), in the
        # timed run and again in the run under tracemalloc.
        assert calls == ([(mc.CHUNK_TRIALS, orbits)] * 2 + [(76, orbits)]) * 2
        assert constellation.orbit_arc is half_angle

    def test_matched_mode_draws_per_beam(self, capsys, monkeypatch):
        # Approximation-matched mode draws one fading value per serving LEO
        # beam, then one per synthetic interferer, and one per visible MEO
        # satellite: the tool's count is their sum. Chunks of 70 trials.
        calls = []
        sinr_passes, sr_sample = mc._sinr_passes, mc.sr_sample

        def recording(config, link, positions, counts, n_serve, *args, **kwargs):
            calls.append({"counts": counts.sum(), "serving": n_serve.sum(), "draws": []})
            return sinr_passes(config, link, positions, counts, n_serve, *args, **kwargs)

        def drawing(params, rng, size=None):
            calls[-1]["draws"].append(size)
            return sr_sample(params, rng, size)

        monkeypatch.setattr(mc, "_sinr_passes", recording)
        monkeypatch.setattr(mc, "sr_sample", drawing)
        result = load_tool("mc_stages").main(["--trials", "200", "--repeat", "1", "--chunk-trials", "70", "--set",
                                              "leo.altitude_km=2000", "--set", "mc.sum_all_interferers=false"])
        assert json.loads(capsys.readouterr().out) == result and result["chunks"] == 3
        timed, traced = calls[:6], calls[6:]  # the timed run, then the one under tracemalloc
        assert len(traced) == 6 and [call["draws"] for call in traced] == [call["draws"] for call in timed]
        leo, meo = timed[::2], timed[1::2]
        assert all(call["draws"][0] == call["serving"] < call["counts"] for call in leo)
        assert all(call["draws"] == [call["counts"]] for call in meo)
        synthetic = sum(call["draws"][1] for call in leo)
        assert 0 < synthetic < sum(call["serving"] for call in leo)
        assert result["fading_draws_per_trial"] * 200 == sum(call["serving"] for call in leo) + synthetic \
            + sum(call["counts"] for call in meo)

    def test_rejects_unknown_metric(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            load_tool("mc_stages").main(["--trials", "20", "--metrics", "availability,coverage"])
        assert exit_info.value.code == 2 and "--metrics" in capsys.readouterr().err

    def test_faults_are_null_without_resource(self, capsys, monkeypatch):
        tool = load_tool("mc_stages")
        monkeypatch.setattr(tool, "resource", None)
        result = tool.main(["--trials", "20", "--repeat", "1"])
        assert json.loads(capsys.readouterr().out) == result and result["minor_faults_per_trial"] is None

    @pytest.mark.parametrize("argv, named", BAD_SETTINGS + [
        (["--trials", "0"], "n_trials"), (["--seed", "-1"], "master_seed"), (["--chunk-trials", "0"], "--chunk-trials"),
        (["--chunk-trials", "1025"], "--chunk-trials")])
    def test_bad_settings_exit_two(self, capsys, argv, named):
        assert_refused(capsys, "mc_stages", ["--trials", "20", "--repeat", "1", *argv], named)


class TestQuadRounds:
    LABELS = ["interferer count law", "rank coverage", "meo single-satellite localizability"]

    def test_baseline_integrals_take_one_round(self, capsys):
        wrapped = (analytic.integrate_adaptive, analytic._gk21_panels)
        tool = load_tool("quad_rounds")
        result = tool.main([])
        assert json.loads(capsys.readouterr().out) == result
        assert (result["rtol"], result["k_max"], result["overrides"]) == (1e-8, 6, {})
        integrals = result["integrals"]
        assert list(integrals) == self.LABELS
        # One round of four 21-node panels each.
        assert [(i["rounds"], i["nodes"]) for i in integrals.values()] == [(1, 84)] * 3
        assert all(i["seconds"] > 0 for i in integrals.values())
        assert result["seconds"] >= sum(i["seconds"] for i in integrals.values())
        # The wrappers are gone and the caches empty once the run ends.
        assert (analytic.integrate_adaptive, analytic._gk21_panels) == wrapped
        assert {analytic._interferer_law, analytic._leo_rank_probs, analytic._meo_pass_prob,
                channel._series_weights} <= set(tool.CACHES)
        assert [cache.cache_info().currsize for cache in tool.CACHES] == [0] * len(tool.CACHES)

    @pytest.mark.parametrize("argv, named", BAD_SETTINGS + [
        (["--k-max", "0"], "--k-max"), (["--rtol", "-1"], "--rtol"), (["--rtol", "nan"], "--rtol")])
    def test_bad_settings_exit_two(self, capsys, argv, named):
        assert_refused(capsys, "quad_rounds", argv, named)

    def test_counts_every_round(self, capsys):
        # A sinc receive beam's count law needs more than one round.
        result = load_tool("quad_rounds").main(["--set", "rx.pattern=sinc"])
        law = result["integrals"]["interferer count law"]
        assert law["rounds"] > 1 and law["nodes"] > 21 * analytic.FIRST_PANELS and law["nodes"] % 21 == 0


class TestStartupCost:
    def test_reports_every_package_module(self, capsys):
        affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        result = load_tool("startup_cost").main(["--runs", "1"])
        assert json.loads(capsys.readouterr().out) == result
        package = Path(constelsim.__file__).resolve().parent
        names = {"constelsim"} | {f"constelsim.{path.stem}" for path in package.glob("*.py")} - {"constelsim.__init__"}
        assert len(names) == 9 and set(result["modules"]) == names
        for module in result["modules"].values():
            assert module["self_ms"] > 0 and module["compile_ms"] > 0
            assert module["exec_ms"] == pytest.approx(module["self_ms"] - module["compile_ms"], abs=2e-3)
        assert result["runs"] == 1 and result["wall_ms"] > result["total"]["self_ms"] > 0
        # The process's own CPU affinity is restored.
        assert affinity is None or os.sched_getaffinity(0) == affinity

    def test_rejects_no_runs(self, capsys):
        assert_refused(capsys, "startup_cost", ["--runs", "0"], "--runs")


# A hand-written validate CSV with every class, a zero SE, a zero empirical
# value and a non-finite row, and what each row scales to: z, ratio,
# ratio SE and class.
SCALED_ROWS = [
    ("leo_availability,1,0.75,0.5,0.125,0.25,true", 2.0, 1.5, 0.375, "agrees"),
    ("hybrid_availability,1,1,1,0,0,true", None, 1.0, 0.0, "agrees"),
    ("hybrid_availability,2,0.5,0.4921875,0.0009765625,0.0078125,true", 8.0, 0.5 / 0.4921875,
     0.5 * 0.0009765625 / 0.4921875**2, "floor"),
    ("leo_localizability,6,0.0078125,0,0.001953125,0.0078125,true", 4.0, None, None, "floor"),
    ("meo_localizability,1,0.5,nan,nan,nan,true", None, None, None, "floor"),
    ("leo_localizability,3,0.25,0.125,0.0078125,0.125,false", 16.0, 2.0, 0.125, "fails"),
]


class TestRowScales:
    def test_scales_and_classes_every_row(self, tmp_path, capsys):
        mixed, failing = tmp_path / "mixed.csv", tmp_path / "failing.csv"
        header = "metric,K,analytic,empirical,std_err,delta,pass\n"
        mixed.write_text(header + "".join(f"{line}\n" for line, *_ in SCALED_ROWS), encoding="utf-8")
        failing.write_text(header + f"{SCALED_ROWS[-1][0]}\n", encoding="utf-8")
        result = load_tool("row_scales").main([str(mixed), str(failing)])
        assert json.loads(capsys.readouterr().out) == result
        rows = result["files"][str(mixed)]["rows"]
        assert [(row["metric"], row["K"]) for row in rows] == [
            (line.split(",")[0], int(line.split(",")[1])) for line, *_ in SCALED_ROWS]
        assert [(row["z"], row["ratio"], row["ratio_se"], row["class"]) for row in rows] == [
            tuple(want) for _, *want in SCALED_ROWS]
        assert result["files"][str(mixed)]["counts"] == {"agrees": 2, "floor": 3, "fails": 1}
        assert result["files"][str(failing)]["counts"] == {"agrees": 0, "floor": 0, "fails": 1}

    def test_rejects_another_csv(self, tmp_path, capsys):
        other = tmp_path / "curve.csv"
        other.write_text("x,availability_K1\n1000,0.5\n", encoding="utf-8")
        assert_refused(capsys, "row_scales", [str(other)], "not a validate CSV")


class TestSameOutputs:
    def test_flags_a_changed_output(self, tmp_path):
        # Two copies of the package match. A copy that renders the boolean
        # setting true as True differs in emit-config's --out file alone.
        tool = load_tool("same_outputs")
        package = Path(constelsim.__file__).parent
        trees = {}
        for name in ("parent", "change", "broken"):
            trees[name] = tmp_path / name
            shutil.copytree(package, trees[name] / "constelsim", ignore=shutil.ignore_patterns("__pycache__"))
        config = trees["broken"] / "constelsim" / "config.py"
        text = config.read_text(encoding="utf-8")
        assert text.count('"true" if value') == 1
        config.write_text(text.replace('"true" if value', '"True" if value'), encoding="utf-8")
        invocations = {"emit-config": tool.INVOCATIONS["emit-config"]}
        same = tool.compare(str(trees["parent"]), str(trees["change"]), invocations)
        assert same["identical"] and same["invocations"][0]["exit_codes"] == [0, 0]
        differ = tool.compare(str(trees["parent"]), str(trees["broken"]), invocations)
        row = differ["invocations"][0]
        assert not differ["identical"] and not row["identical"] and not row["out"]
        assert row["exit_code"] and row["stdout"] and row["stderr"]

    def test_rejects_a_tree_without_the_package(self, tmp_path, capsys):
        package_root = str(Path(constelsim.__file__).parents[1])
        assert_refused(capsys, "same_outputs", [str(tmp_path), package_root], "no constelsim package")
