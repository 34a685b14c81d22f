import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from constelsim import cli, mc
from constelsim.analytic import leo_interference_cap
from constelsim.channel import sr_sample
from constelsim.config import build_mc_settings, build_system_config, default_config, load_settings
from constelsim.constellation import (
    cap_positions,
    central_angle_to_target,
    derive_rng,
    sample_bpp,
    sample_bpp_cap,
    sample_dsbpp,
)
from constelsim.mc import CHUNK_TRIALS, McSpec, run_validation, simulate

CFG = default_config()
DENSE = build_system_config(load_settings(overrides={"leo.altitude_km": "2000"}))


def loop_passes(cfg, positions, theta_max, link, k_max, rng):
    """SINR pass flags of one trial's visible satellites, nearest first,
    with every other visible satellite interfering: a per-trial loop over
    full shells, independent of the batched engine."""
    angles = central_angle_to_target(positions)
    visible = positions[np.argsort(angles)][: int((angles <= theta_max).sum())]
    rel = visible - np.array([6371.0, 0.0, 0.0])
    dist_m = np.linalg.norm(rel, axis=1) * 1e3
    units = rel / np.linalg.norm(rel, axis=1, keepdims=True)
    per_watt = link.tx_power_w * link.tx_gain * link.max_rx_gain * link.system_loss \
        * (link.wavelength_m / (4.0 * math.pi)) ** 2
    out = []
    for r in range(min(k_max, len(visible))):
        others = np.arange(len(visible)) != r
        dome = np.arccos(np.clip(units[others] @ units[r], -1.0, 1.0))
        fading = sr_sample(cfg.leo_fading, rng, size=int(others.sum()))
        interference = per_watt * np.sum(cfg.rx_pattern.gain_shape(dome) * fading / dist_m[others] ** 2)
        signal = per_watt * sr_sample(cfg.leo_fading, rng) / dist_m[r] ** 2
        out.append(signal / (link.noise_power_w + interference) > link.sinr_threshold)
    return out


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def assert_summaries_equal(a, b):
    assert a.spec == b.spec and a.estimates.keys() == b.estimates.keys()
    for key in a.estimates:
        for x, y in zip(a.estimates[key], b.estimates[key]):
            assert np.array_equal(x, y, equal_nan=True), key
    assert np.array_equal(a.leo_rank_pass, b.leo_rank_pass) and a.meo_single_pass == b.meo_single_pass


class TestDeterminism:
    def test_same_seed_same_summary(self):
        spec = McSpec(n_trials=400, master_seed=3)
        assert_summaries_equal(simulate(CFG, spec), simulate(CFG, spec))

    def test_seed_changes_summary(self):
        a = simulate(CFG, McSpec(n_trials=400, master_seed=3))
        b = simulate(CFG, McSpec(n_trials=400, master_seed=4))
        assert not np.array_equal(a.leo_rank_pass, b.leo_rank_pass)

    def test_same_seed_same_validate_bytes(self, tmp_path):
        argv = ["validate", "--trials", "300", "--seed", "9"]
        _, first = run(tmp_path, *argv, name="first.csv")
        _, second = run(tmp_path, *argv, name="second.csv")
        assert first == second

    def test_curve_mc_independent_of_jobs(self, tmp_path):
        argv = ["curve", "--metric", "localizability", "--system", "hybrid", "--K", "1,3",
                "--sweep", "n_leo=1000:2000:1000", "--mc", "--trials", "200"]
        code_1, serial = run(tmp_path, *argv, "--jobs", "1", name="serial.csv")
        code_2, parallel = run(tmp_path, *argv, "--jobs", "2", name="parallel.csv")
        assert code_1 == code_2 == 0
        assert serial == parallel

    def test_availability_does_not_depend_on_localizability(self):
        # Geometry and fading come from separate streams per batch, so the
        # second chunk of a batch sees the same geometry either way.
        spec = McSpec(n_trials=2500, master_seed=5, n_batches=2)
        assert spec.n_trials // spec.n_batches > CHUNK_TRIALS
        both = simulate(CFG, spec)
        alone = simulate(CFG, spec, metrics=("availability",))
        for system in ("leo", "meo", "hybrid"):
            assert np.array_equal(both.estimate("availability", system)[0], alone.estimate("availability", system)[0])
        assert np.all(np.isnan(alone.estimate("localizability", "leo")[0]))
        assert np.all(np.isnan(alone.estimate("localizability", "hybrid")[1]))


class ZeroUniforms:
    """A generator whose uniforms are all exactly 0.0; every other draw
    comes from ``rng``."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, size=None):
        return np.zeros(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestSpec:
    @pytest.mark.parametrize("n_batches", [0, 51])
    def test_rejects_batches_outside_trials(self, n_batches):
        with pytest.raises(ValueError):
            McSpec(n_trials=50, n_batches=n_batches)

    @pytest.mark.parametrize("trials, batches", [(1, 1), (3, 3), (20, 20), (100_000, 20)])
    def test_settings_use_up_to_twenty_batches(self, trials, batches):
        spec = build_mc_settings(load_settings(overrides={"mc.n_trials": str(trials)}))
        assert (spec.n_trials, spec.n_batches) == (trials, batches)

    def test_zero_trials_exit_two(self, tmp_path, capsys):
        assert cli.main(["validate", "--trials", "0", "--out", str(tmp_path / "out.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestEstimates:
    def test_leo_availability_matches_binomial(self):
        # Batches of 1500 trials run as more than one chunk.
        spec = McSpec(n_trials=30_000, master_seed=17)
        assert spec.n_trials // spec.n_batches > CHUNK_TRIALS
        summary = simulate(CFG, spec, metrics=("availability",))
        fraction = 0.5 * (1.0 - math.cos(CFG.leo_theta_max))
        exact = binom.sf(np.arange(spec.k_max), CFG.leo.n_sats, fraction)
        values, errors = summary.estimate("availability", "leo")
        assert np.all(np.abs(values - exact) <= 3.0 * errors)

    def test_matched_mode_localizability_rows_pass(self):
        spec = McSpec(n_trials=3000, master_seed=1, sum_all_interferers=False)
        rows = run_validation(CFG, spec, metrics=("localizability",))
        assert len(rows) == 18
        assert all(row.passed for row in rows), [(r.metric, r.k) for r in rows if not r.passed]

    def test_validation_builds_only_the_given_k(self):
        spec = McSpec(n_trials=200, master_seed=1, k_max=4)
        rows = run_validation(CFG, spec, ks=[3])
        assert [(row.metric, row.k) for row in rows] == [
            (f"{system}_{metric}", 3) for metric in ("availability", "localizability")
            for system in ("leo", "meo", "hybrid")]

    @pytest.mark.parametrize("ks", [[0], [5], [2, -1]])
    def test_validation_rejects_k_outside_k_max(self, ks):
        with pytest.raises(ValueError, match="K values"):
            run_validation(CFG, McSpec(n_trials=20, master_seed=1, k_max=4), metrics=("availability",), ks=ks)

    def test_faithful_passes_match_per_trial_loop(self):
        # Two independent samples of the per-rank LEO pass fractions and the
        # mean MEO pass count must agree within sampling noise.
        n_loop = 1500
        leo = np.zeros(3)
        meo = np.zeros(n_loop)
        for trial in range(n_loop):
            rng = derive_rng(99, trial)
            ranks = loop_passes(DENSE, sample_bpp(DENSE.leo, rng), DENSE.leo_theta_max, DENSE.leo_link, 3, rng)
            leo[:len(ranks)] += ranks
            meo_pos = sample_dsbpp(DENSE.meo, rng)
            meo[trial] = sum(loop_passes(DENSE, meo_pos, DENSE.meo_theta_max, DENSE.meo_link, 12, rng))
        leo /= n_loop
        n_mc = 20_000
        summary = simulate(DENSE, McSpec(n_trials=n_mc, master_seed=8, k_max=3))
        se = np.sqrt(leo * (1 - leo) / n_loop + summary.leo_rank_pass * (1 - summary.leo_rank_pass) / n_mc)
        assert np.all(np.abs(summary.leo_rank_pass - leo) <= 4.0 * se + 1e-4)
        meo_mc = summary.meo_single_pass * DENSE.meo.n_sats
        assert abs(meo_mc - meo.mean()) <= 4.0 * meo.std() * math.sqrt(1 / n_loop + 1 / n_mc)

    @staticmethod
    def ragged_beams(seed):
        """Packed positions, visible counts and serving counts of four trials
        with 3, 0, 1 and 5 visible LEO satellites, the first two of each
        serving."""
        counts = np.array([3, 0, 1, 5])
        visible = np.arange(5) < counts[:, None]
        rng = derive_rng(seed)
        cos_theta = 1.0 - rng.random(visible.shape) * (1.0 - math.cos(CFG.leo_theta_max))
        azimuth = 2.0 * math.pi * rng.random(visible.shape)
        positions = cap_positions(CFG.leo.radius_km, cos_theta[visible], azimuth[visible])
        return positions, counts, np.minimum(counts, 2)

    def test_no_fading_drawn_for_missing_beams(self, monkeypatch):
        positions, counts, n_serve = self.ragged_beams(21)
        draws = []

        def counting(params, rng, size=None):
            draws.append(size)
            return sr_sample(params, rng, size)

        monkeypatch.setattr(mc, "sr_sample", counting)
        link = mc._Link(CFG.leo_link, CFG.leo_fading)
        trial, rank, passes = mc._sinr_passes(CFG, link, positions, counts, n_serve, derive_rng(22), faithful=True)
        assert sum(draws) == n_serve.sum() + (n_serve * (counts - 1)).sum() == 17
        assert passes.shape == trial.shape == (n_serve.sum(),) and np.all(rank < n_serve[trial])

    def test_packed_interference_matches_per_beam_sum(self, monkeypatch):
        # With unit fading, each beam's SINR is a plain sum over the other
        # visible satellites; a threshold between the middle two splits the
        # beams.
        positions, counts, n_serve = self.ragged_beams(23)
        monkeypatch.setattr(mc, "sr_sample", lambda params, rng, size=None: np.ones(size))
        link = mc._Link(CFG.leo_link, CFG.leo_fading)
        rel = positions - np.array([6371.0, 0.0, 0.0])
        dist_sq = (np.linalg.norm(rel, axis=-1) * 1e3) ** 2
        units = rel / np.linalg.norm(rel, axis=-1, keepdims=True)
        first = np.cumsum(counts) - counts
        sinr = {}
        for t in range(counts.size):
            for s in range(n_serve[t]):
                others = [first[t] + i for i in range(counts[t]) if i != s]
                dome = np.arccos(np.clip(units[others] @ units[first[t] + s], -1.0, 1.0))
                interference = np.sum(CFG.rx_pattern.gain_shape(dome) / dist_sq[others])
                sinr[t, s] = (1.0 / dist_sq[first[t] + s]) / (link.noise_term + interference)
        ordered = sorted(sinr.values())
        link.threshold = math.sqrt(ordered[len(ordered) // 2 - 1] * ordered[len(ordered) // 2])
        trial, rank, passes = mc._sinr_passes(CFG, link, positions, counts, n_serve, derive_rng(24), faithful=True)
        assert {(t, r): bool(p) for t, r, p in zip(trial, rank, passes)} \
            == {key: value > link.threshold for key, value in sinr.items()}
        assert 0 < passes.sum() < len(sinr)

    def test_matched_interferer_survives_zero_uniforms(self):
        # U = 0 would put the interferer at central angle 0, which
        # dome_from_central rejects. With p_zero = 0 every beam has one.
        rng = derive_rng(4)
        cos_theta, azimuth = sample_bpp_cap(CFG.leo, rng, CFG.leo_geom.horizon_angle, 64)
        visible = cos_theta >= math.cos(CFG.leo_theta_max)
        positions = cap_positions(CFG.leo.radius_km, cos_theta[visible], azimuth[visible])
        counts = visible.sum(axis=1)
        theta_d, _ = leo_interference_cap(CFG)
        link = mc._Link(CFG.leo_link, CFG.leo_fading)
        _, _, passes = mc._sinr_passes(CFG, link, positions, counts, np.minimum(counts, 3), ZeroUniforms(rng),
                                       faithful=False, matched_cap=(theta_d, 0.0))
        assert passes.shape == (np.minimum(counts, 3).sum(),) and passes.dtype == bool

    def test_no_leo_no_meo(self):
        cfg = dataclasses.replace(CFG, leo=dataclasses.replace(CFG.leo, n_sats=0),
                                  meo=dataclasses.replace(CFG.meo, n_orbits=0))
        summary = simulate(cfg, McSpec(n_trials=50, master_seed=2))
        for metric in ("availability", "localizability"):
            for system in ("leo", "meo", "hybrid"):
                assert np.all(summary.estimate(metric, system)[0] == 0.0)


@st.composite
def ragged_counts(draw):
    """Visible counts of up to 12 trials, 0 to 9 each, and serving counts:
    the first ``k_max`` ranks (LEO) or every visible satellite (MEO)."""
    counts = np.array(draw(st.lists(st.integers(0, 9), max_size=12)), dtype=np.intp)
    k_max = draw(st.one_of(st.none(), st.integers(1, 6)))
    return counts, counts.copy() if k_max is None else np.minimum(counts, k_max)


class TestLinkIndices:
    @settings(max_examples=300, deadline=None)
    @given(ragged_counts())
    # Empty trials, lone satellites and counts both sides of k_max; then
    # MEO's every visible satellite serving.
    @example((np.array([0, 1, 0, 7, 2, 1, 6]), np.array([0, 1, 0, 6, 2, 1, 6])))
    @example((np.array([0, 1, 12, 3, 0]), np.array([0, 1, 12, 3, 0])))
    def test_matches_nonzero_over_padded_masks(self, case):
        counts, n_serve = case
        width = int(counts.max(initial=0))
        visible = np.arange(width) < counts[:, None]
        serving = np.arange(width) < n_serve[:, None]
        trial, rank, beam, other = mc._link_indices(counts, n_serve)
        assert np.array_equal(np.stack([trial, rank]), np.stack(np.nonzero(serving)))
        pairs = np.nonzero(serving[:, :, None] & visible[:, None, :] & ~np.eye(width, dtype=bool))
        assert np.array_equal(np.stack([trial[beam], rank[beam], other]), np.stack(pairs))


class TestFewTrials:
    @pytest.mark.parametrize("trials", [1, 3])
    def test_runs_without_warnings(self, tmp_path, trials):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "validate", "--trials", str(trials))
        assert code in (0, 1)
        table = [line.split(",") for line in text.decode().splitlines()[1:]]
        assert len(table) == 36
        loc_se = [row[4] for row in table if row[0].endswith("_localizability")]
        if trials == 1:
            # One trial leaves one non-empty batch, so no batch-means SE.
            assert loc_se == ["inf"] * 18
        else:
            assert all(math.isfinite(float(se)) for se in loc_se)
