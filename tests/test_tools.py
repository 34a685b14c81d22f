"""Smoke tests of the scripts under ``tools/``."""

import importlib.util
import json
import math
from pathlib import Path

from constelsim import channel, constellation, geom, mc

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMcStages:
    def test_reports_every_stage_at_200_trials(self, capsys):
        def staged():
            return (mc.sample_bpp_cap, mc.place_in_cap, mc.sample_dsbpp_cap, mc._sinr_passes, mc.sr_sample,
                    constellation.orbit_arc)

        originals = staged()
        result = load_tool("mc_stages").main(["--trials", "200", "--repeat", "1", "--set", "leo.altitude_km=2000"])
        assert json.loads(capsys.readouterr().out) == result
        assert (result["trials"], result["seed"], result["overrides"]) == (200, 1, {"leo.altitude_km": "2000"})
        seconds = result["seconds"]
        assert list(seconds) == ["sampling", "visibility", "sinr", "aggregation", "total"]
        assert all(value >= 0 for value in seconds.values())
        assert seconds["sinr"] > 0 and result["fading_draws_per_trial"] > 0
        assert result["chunks"] == math.ceil(200 / mc.CHUNK_TRIALS)
        # The wrappers are gone once the run ends.
        assert staged() == originals
        assert mc.sr_sample is channel.sr_sample and constellation.orbit_arc is geom.orbit_arc
