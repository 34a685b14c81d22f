import ctypes
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import constelsim
from constelsim import analytic, cli, mc
from constelsim.analytic import KM_TO_M, leo_interference_cap
from constelsim.channel import CosinePattern, FlatTopPattern, SincPattern, sr_sample
from constelsim.config import McSpec, build_mc_settings, build_system_config, default_config, load_settings
from constelsim.constellation import (
    cap_positions,
    central_angle_to_target,
    derive_rng,
    place_in_cap,
    sample_bpp,
    sample_bpp_cap,
    sample_dsbpp_cap,
)
from constelsim.geom import EARTH_RADIUS_KM, cap_fraction, dome_from_central
from constelsim.mc import run_validation, simulate
from constelsim.record import fields, replace

from conftest import nudged

CFG = default_config()
DENSE = build_system_config(load_settings(overrides={"leo.altitude_km": "2000"}))
TARGET_KM = np.array([EARTH_RADIUS_KM, 0.0, 0.0])


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
        fading = sr_sample(cfg.fading, rng, size=int(others.sum()))
        interference = per_watt * np.sum(cfg.rx_pattern.gain_shape(dome) * fading / dist_m[others] ** 2)
        signal = per_watt * sr_sample(cfg.fading, rng) / dist_m[r] ** 2
        out.append(signal / (link.noise_power_w + interference) > link.sinr_threshold)
    return out


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out.read_bytes()


def assert_summaries_equal(a, b):
    assert a.estimates.keys() == b.estimates.keys()
    for key in a.estimates:
        for x, y in zip(a.estimates[key], b.estimates[key]):
            assert np.array_equal(x, y, equal_nan=True), key
    assert np.array_equal(a.leo_rank_pass, b.leo_rank_pass) and a.meo_single_pass == b.meo_single_pass


class TestDeterminism:
    def test_same_seed_same_summary(self):
        spec = McSpec(n_trials=400, master_seed=3, sum_all_interferers=True)
        assert_summaries_equal(simulate(CFG, spec, 6), simulate(CFG, spec, 6))

    def test_seed_changes_summary(self):
        a = simulate(CFG, McSpec(n_trials=400, master_seed=3, sum_all_interferers=True), 6)
        b = simulate(CFG, McSpec(n_trials=400, master_seed=4, sum_all_interferers=True), 6)
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

    def test_availability_does_not_depend_on_localizability(self, monkeypatch):
        # Geometry has its own stream; LEO placement and fading come from the
        # localizability stream, so every chunk sees the same geometry either
        # way.
        monkeypatch.setattr(mc, "CHUNK_TRIALS", 50)
        spec = McSpec(n_trials=2500, master_seed=5, sum_all_interferers=True)
        assert spec.n_trials // spec.n_batches > mc.CHUNK_TRIALS
        both = simulate(CFG, spec, 6)
        alone = simulate(CFG, spec, 6, metrics=("availability",))
        for system in ("leo", "meo", "hybrid"):
            assert np.array_equal(both.estimates["availability", system][0], alone.estimates["availability", system][0])
        assert np.all(np.isnan(alone.estimates["localizability", "leo"][0]))
        assert np.all(np.isnan(alone.estimates["localizability", "hybrid"][1]))


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
    def test_holds_exactly_the_mc_settings(self):
        assert fields(McSpec) == ("n_trials", "master_seed", "sum_all_interferers")

    def test_few_trials_run_one_batch_each(self, monkeypatch):
        # Five trials, five batches of one trial each, all from one geometry
        # stream: the run's estimates and the five batches' compose as one
        # stack of 1 + 5 rows.
        streams, stacks = [], []
        compose = analytic.compose

        def recording_rng(seed, index):
            streams.append((seed, index))
            return derive_rng(seed, index)

        def recording_compose(leo, meo_law, cutoff):
            stacks.append((leo.shape, meo_law.shape))
            return compose(leo, meo_law, cutoff)

        monkeypatch.setattr(mc, "derive_rng", recording_rng)
        monkeypatch.setattr(mc.analytic, "compose", recording_compose)
        simulate(CFG, McSpec(n_trials=5, master_seed=2, sum_all_interferers=True), 2)
        assert streams == [(2, 0)]
        assert stacks == [((6, 2), (6, CFG.meo.n_sats + 1))]

    @pytest.mark.parametrize("trials, batches", [(1, 1), (3, 3), (20, 20), (100_000, 20)])
    def test_settings_use_up_to_twenty_batches(self, trials, batches):
        spec = build_mc_settings(load_settings(overrides={"mc.n_trials": str(trials)}))
        assert (spec.n_trials, spec.n_batches) == (trials, batches)

    def test_simulate_rejects_no_rank(self):
        with pytest.raises(ValueError, match="^k_max must be at least 1$"):
            simulate(CFG, McSpec(n_trials=20, master_seed=1, sum_all_interferers=True), 0)

    def test_zero_trials_exit_two(self, tmp_path, capsys):
        assert cli.main(["validate", "--trials", "0", "--out", str(tmp_path / "out.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err


class TestEstimates:
    def test_leo_availability_matches_binomial(self):
        # Batches of 1500 trials run as more than one chunk.
        spec = McSpec(n_trials=30_000, master_seed=17, sum_all_interferers=True)
        assert spec.n_trials // spec.n_batches > mc.CHUNK_TRIALS
        summary = simulate(CFG, spec, 6, metrics=("availability",))
        fraction = 0.5 * (1.0 - math.cos(CFG.leo_theta_max))
        exact = binom.sf(np.arange(6), CFG.leo.n_sats, fraction)
        values, errors = summary.estimates["availability", "leo"]
        assert np.all(np.abs(values - exact) <= 3.0 * errors)

    def test_matched_mode_localizability_rows_pass(self):
        spec = McSpec(n_trials=3000, master_seed=1, sum_all_interferers=False)
        rows = run_validation(CFG, spec, [1, 2, 3, 4, 5, 6], metrics=("localizability",))
        assert len(rows) == 18
        assert all(row.passed for row in rows), [(r.metric, r.k) for r in rows if not r.passed]

    def test_validation_builds_only_the_given_k(self):
        spec = McSpec(n_trials=200, master_seed=1, sum_all_interferers=True)
        rows = run_validation(CFG, spec, [3])
        assert [(row.metric, row.k) for row in rows] == [
            (f"{system}_{metric}", 3) for metric in ("availability", "localizability")
            for system in ("leo", "meo", "hybrid")]

    # The largest K is k_max, so only an empty list or a K below 1 lies
    # outside [1, k_max].
    @pytest.mark.parametrize("ks", [[0], [], [2, -1]])
    def test_validation_rejects_k_outside_k_max(self, ks):
        with pytest.raises(ValueError, match="K values"):
            spec = McSpec(n_trials=20, master_seed=1, sum_all_interferers=True)
            run_validation(CFG, spec, ks, metrics=("availability",))

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
            meo_pos = sample_dsbpp_cap(DENSE.meo, rng, math.pi, 1, positions=True)[1].T
            meo[trial] = sum(loop_passes(DENSE, meo_pos, DENSE.meo_theta_max, DENSE.meo_link, 12, rng))
        leo /= n_loop
        n_mc = 20_000
        summary = simulate(DENSE, McSpec(n_trials=n_mc, master_seed=8, sum_all_interferers=True), 3)
        se = np.sqrt(leo * (1 - leo) / n_loop + summary.leo_rank_pass * (1 - summary.leo_rank_pass) / n_mc)
        assert np.all(np.abs(summary.leo_rank_pass - leo) <= 4.0 * se + 1e-4)
        meo_mc = summary.meo_single_pass * DENSE.meo.n_sats
        assert abs(meo_mc - meo.mean()) <= 4.0 * meo.std() * math.sqrt(1 / n_loop + 1 / n_mc)

    @staticmethod
    def ragged_beams(seed):
        """Packed positions (x, y and z rows), visible counts and serving
        counts of four trials with 3, 0, 1 and 5 visible LEO satellites, the
        first two of each serving."""
        counts = np.array([3, 0, 1, 5])
        visible = np.arange(5) < counts[:, None]
        rng = derive_rng(seed)
        cos_theta = 1.0 - rng.random(visible.shape) * (1.0 - math.cos(CFG.leo_theta_max))
        azimuth = 2.0 * math.pi * rng.random(visible.shape)
        positions = cap_positions(CFG.leo.radius_km, cos_theta[visible], azimuth[visible])
        return positions, counts, np.minimum(counts, 2)

    def recorded_draws(self, monkeypatch, fading):
        """Pass flags of the beams of ``ragged_beams(21)`` at the default
        link, with the fixed ``fading`` values in place of drawn ones, one
        per packed satellite; the visible counts, the sizes of the fading
        arrays asked for, in order, the number of interferer pairs listed in
        each rank block, each beam's open flag, recomputed from its
        satellite's fading (signal over noise alone above the threshold), and
        its number of other visible satellites."""
        positions, counts, n_serve = self.ragged_beams(21)
        sizes, pairs = [], []
        link, link_indices = CFG.leo_link, mc._link_indices

        def fixed(params, rng, size=None):
            sizes.append(size)
            return np.array(fading[:size], dtype=float)

        def recording_pairs(*args):
            pairs.append(link_indices(*args))
            return pairs[-1]

        monkeypatch.setattr(mc, "sr_sample", fixed)
        monkeypatch.setattr(mc, "_link_indices", recording_pairs)
        trial, rank, passes = mc._sinr_passes(CFG, link, positions, counts, n_serve, derive_rng(22), faithful=True)
        assert passes.shape == trial.shape == (n_serve.sum(),) and np.all(rank < n_serve[trial])
        dist_sq = (np.linalg.norm(positions.T - TARGET_KM, axis=-1) * 1e3) ** 2
        at_beam = np.cumsum(counts)[trial] - counts[trial] + rank
        signal = np.asarray(fading)[at_beam] / dist_sq[at_beam]
        is_open = signal / (link.noise_power_w / link.unit_range_power_w) > link.sinr_threshold
        return passes, counts, sizes, [beam.size for beam, _ in pairs], is_open, counts[trial] - 1

    def test_no_fading_drawn_for_missing_beams(self, monkeypatch):
        # One draw of one value per visible satellite (link), whatever the
        # beams' verdicts. The fading values are fixed, so the verdicts
        # follow from the geometry alone. At unit fading every satellite's
        # signal over noise alone is about 36 to 43, above the threshold of
        # 10, so every beam is open, and only the lone satellite's passes
        # against the all-links bound: the four others take their nearest
        # two others (8 pairs), and trial 3's two beams, which pass on those,
        # take their other two each. A value of 0.1 brings a signal over
        # noise to at most 4.3: at packed index 1 it closes trial 0's second
        # beam, which has two other visible satellites, and at index 5 also
        # trial 3's second, with four more. Closed beams fail and get no
        # pairs.
        unit, closed_1, closed_5 = [1.0] * 9, [1.0, 0.1] + [1.0] * 7, [1.0, 0.1] + [1.0] * 3 + [0.1] + [1.0] * 3
        for fading, block_pairs, closed in [(unit, [8, 4], 0), (closed_1, [6, 4], 1), (closed_5, [4, 2], 2)]:
            passes, counts, sizes, pairs, is_open, others = self.recorded_draws(monkeypatch, fading)
            assert sizes == [counts.sum()] == [9]
            assert pairs == block_pairs and sum(pairs) == others[is_open].sum()
            assert (~is_open).sum() == closed and others[~is_open].sum() == 12 - sum(pairs)
            assert not np.any(passes[~is_open])

    @staticmethod
    def per_beam_sums(positions, counts, n_serve, noise_term, fading=None):
        """SINR and noise-only ratio of every beam, keyed by (trial, rank):
        plain sums over the other visible satellites, each packed satellite
        weighted by its ``fading`` value (unit fading by default)."""
        rel = positions.T - TARGET_KM
        received = (np.ones(len(rel)) if fading is None else fading) \
            / (np.linalg.norm(rel, axis=-1) * 1e3) ** 2
        units = rel / np.linalg.norm(rel, axis=-1, keepdims=True)
        first = np.cumsum(counts) - counts
        sinr, noise_only = {}, {}
        for t in range(counts.size):
            for s in range(n_serve[t]):
                others = [first[t] + i for i in range(counts[t]) if i != s]
                dome = np.arccos(np.clip(units[others] @ units[first[t] + s], -1.0, 1.0))
                interference = np.sum(CFG.rx_pattern.gain_shape(dome) * received[others])
                sinr[t, s] = received[first[t] + s] / (noise_term + interference)
                noise_only[t, s] = received[first[t] + s] / noise_term
        return sinr, noise_only

    def test_packed_interference_matches_per_beam_sum(self, monkeypatch):
        # With unit fading, each beam's SINR is a plain sum over the other
        # visible satellites. At the default noise a threshold between the
        # middle two SINRs splits the beams, and all of them are open. At a
        # thousandfold noise, one between a beam's SINR and its noise-only
        # ratio also closes two beams on noise alone. Every verdict must
        # equal the all-pairs sum's.
        positions, counts, n_serve = self.ragged_beams(23)
        monkeypatch.setattr(mc, "sr_sample", lambda params, rng, size=None: np.ones(size))
        for noise_scale, closed_and_failing_open in [(1.0, (0, 2)), (1000.0, (2, 1))]:
            link = replace(CFG.leo_link, noise_power_w=noise_scale * CFG.leo_link.noise_power_w)
            sinr, noise_only = self.per_beam_sums(positions, counts, n_serve,
                                                  link.noise_power_w / link.unit_range_power_w)
            if noise_scale == 1.0:
                ordered = sorted(sinr.values())
                threshold = math.sqrt(ordered[len(ordered) // 2 - 1] * ordered[len(ordered) // 2])
            else:
                threshold = math.sqrt(sinr[3, 1] * noise_only[3, 1])
            link = replace(link, sinr_threshold=threshold)
            trial, rank, passes = mc._sinr_passes(CFG, link, positions, counts, n_serve, derive_rng(24),
                                                  faithful=True)
            assert {(t, r): bool(p) for t, r, p in zip(trial, rank, passes)} \
                == {key: value > threshold for key, value in sinr.items()}
            assert 0 < passes.sum() < len(sinr)
            closed = [key for key, value in noise_only.items() if value <= threshold]
            failing_open = [key for key, value in sinr.items() if value <= threshold < noise_only[key]]
            assert (len(closed), len(failing_open)) == closed_and_failing_open

    def test_interferers_share_the_serving_fading(self, monkeypatch):
        # Each satellite's one link carries one fading value, distinct per
        # satellite here and fresh on every draw. Every beam's SINR must be
        # the all-pairs sum weighted by those values: in trial 3 the serving
        # ranks 0 and 1 interfere with each other through the very values
        # that serve them. A threshold just below, then just above, each
        # beam's SINR pins every verdict to it.
        positions, counts, n_serve = self.ragged_beams(23)
        drawn = []

        def distinct(params, rng, size=None):
            drawn.append(1.0 + sum(map(len, drawn)) + np.arange(size))
            return drawn[-1]

        monkeypatch.setattr(mc, "sr_sample", distinct)
        link = CFG.leo_link
        sinr, _ = self.per_beam_sums(positions, counts, n_serve, link.noise_power_w / link.unit_range_power_w,
                                     fading=1.0 + np.arange(counts.sum()))
        assert len(sinr) == 5 and (3, 1) in sinr
        for threshold in sorted(value * scale for value in sinr.values() for scale in (1 - 1e-9, 1 + 1e-9)):
            drawn.clear()
            trial, rank, passes = mc._sinr_passes(CFG, replace(link, sinr_threshold=threshold), positions, counts,
                                                  n_serve, derive_rng(24), faithful=True)
            assert {(t, r): bool(p) for t, r, p in zip(trial, rank, passes)} \
                == {key: value > threshold for key, value in sinr.items()}

    def test_matched_interferer_survives_zero_uniforms(self):
        # U = 0 would put the interferer at central angle 0, which
        # dome_from_central rejects. With p_zero = 0 every beam has one.
        rng = derive_rng(4)
        counts = sample_bpp_cap(CFG.leo, rng, CFG.leo_theta_max, 64)
        positions = place_in_cap(CFG.leo.radius_km, CFG.leo_theta_max, counts, rng)
        theta_d, _ = leo_interference_cap(CFG.leo, CFG.rx_pattern)
        _, _, passes = mc._sinr_passes(CFG, CFG.leo_link, positions, counts, np.minimum(counts, 3),
                                       ZeroUniforms(rng), faithful=False, matched_cap=(theta_d, 0.0))
        assert passes.shape == (np.minimum(counts, 3).sum(),) and passes.dtype == bool

    def test_no_leo_no_meo(self):
        cfg = replace(CFG, leo=replace(CFG.leo, n_sats=0),
                                  meo=replace(CFG.meo, n_orbits=0))
        summary = simulate(cfg, McSpec(n_trials=50, master_seed=2, sum_all_interferers=True), 6)
        for metric in ("availability", "localizability"):
            for system in ("leo", "meo", "hybrid"):
                assert np.all(summary.estimates[metric, system][0] == 0.0)


class TestBatchesAcrossChunks:
    def test_estimates_match_per_trial_rebuild(self, monkeypatch):
        # Chunks of 7 trials cut across the 20 batches of 5. Each batch's rank
        # pass fractions and MEO pass-count law are rebuilt trial by trial
        # from the recorded pass flags of every chunk, LEO then MEO.
        n_trials, chunk, size, k_max, n_meo = 100, 7, 5, 4, DENSE.meo.n_sats
        monkeypatch.setattr(mc, "CHUNK_TRIALS", chunk)
        results = []
        sinr_passes = mc._sinr_passes

        def recording(*args, **kwargs):
            results.append(sinr_passes(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(mc, "_sinr_passes", recording)
        summary = simulate(DENSE, McSpec(n_trials=n_trials, master_seed=6, sum_all_interferers=True), k_max)
        assert len(results) == 2 * math.ceil(n_trials / chunk)
        rank_pass = np.zeros((n_trials // size, k_max))
        meo_pmf = np.zeros((n_trials // size, n_meo + 1))
        for c, ((leo_trial, leo_rank, leo_passes), (meo_trial, _, meo_passes)) in enumerate(
                zip(results[::2], results[1::2])):
            for trial in range(min(chunk, n_trials - c * chunk)):
                batch = (c * chunk + trial) // size
                for rank, passed in zip(leo_rank[leo_trial == trial], leo_passes[leo_trial == trial]):
                    rank_pass[batch, rank] += passed
                meo_pmf[batch, int(meo_passes[meo_trial == trial].sum())] += 1
        assert rank_pass.sum() > 0 and np.count_nonzero(meo_pmf[:, 1:]) > 0
        rank_fracs = np.vstack([rank_pass.sum(axis=0) / n_trials, rank_pass / size])
        pmfs = np.vstack([meo_pmf.sum(axis=0) / n_trials, meo_pmf / size])
        composed = np.stack(list(analytic.compose(np.cumprod(rank_fracs, axis=-1), pmfs, n_meo).values()), axis=1)
        se = np.std(composed[1:], axis=0, ddof=1) / math.sqrt(n_trials // size)
        for i, system in enumerate(("leo", "meo", "hybrid")):
            values, errors = summary.estimates["localizability", system]
            assert np.array_equal(values, composed[0, i]) and np.array_equal(errors, se[i]), system
        assert np.array_equal(summary.leo_rank_pass, rank_pass.sum(axis=0) / n_trials)


@st.composite
def ragged_counts(draw):
    """Visible counts of up to 12 trials, 0 to 9 each, serving counts (the
    first ``k_max`` ranks (LEO) or every visible satellite (MEO)), and an
    open flag per serving beam."""
    counts = np.array(draw(st.lists(st.integers(0, 9), max_size=12)), dtype=np.intp)
    k_max = draw(st.one_of(st.none(), st.integers(1, 6)))
    n_serve = counts.copy() if k_max is None else np.minimum(counts, k_max)
    n_beams = int(n_serve.sum())
    is_open = np.array(draw(st.lists(st.booleans(), min_size=n_beams, max_size=n_beams)), dtype=bool)
    return counts, n_serve, is_open


class TestLinkIndices:
    @settings(max_examples=300, deadline=None)
    @given(ragged_counts())
    # Empty trials, lone satellites and counts both sides of k_max, every
    # beam open; then MEO's every visible satellite serving, every other
    # beam open.
    @example((np.array([0, 1, 0, 7, 2, 1, 6]), np.array([0, 1, 0, 6, 2, 1, 6]), np.ones(16, dtype=bool)))
    @example((np.array([0, 1, 12, 3, 0]), np.array([0, 1, 12, 3, 0]), np.arange(16) % 2 == 0))
    def test_matches_nonzero_over_padded_masks(self, case):
        counts, n_serve, is_open = case
        width = int(counts.max(initial=0))
        visible = np.arange(width) < counts[:, None]
        serving = np.arange(width) < n_serve[:, None]
        trial, rank = mc._ragged(n_serve)
        assert np.array_equal(np.stack([trial, rank]), np.stack(np.nonzero(serving)))
        opened = np.zeros_like(serving)
        opened[trial, rank] = is_open
        others = opened[:, :, None] & visible[:, None, :] & ~np.eye(width, dtype=bool)
        # Where each other satellite stands among its beam's others, by rank.
        place = np.arange(width) - (np.arange(width) > np.arange(width)[:, None])
        for block, (start, stop) in [(slice(None), (0, width)), (slice(mc.PREFIX_RANKS), (0, mc.PREFIX_RANKS)),
                                     (slice(mc.PREFIX_RANKS, None), (mc.PREFIX_RANKS, width))]:
            beam, other = mc._link_indices(counts, trial, rank, is_open, block)
            pairs = np.nonzero(others & (start <= place) & (place < stop))
            assert np.array_equal(np.stack([trial[beam], rank[beam], other]), np.stack(pairs))


def all_pairs_sinr(config, link, positions, counts, n_serve, rng):
    """SINR of every serving beam, and its ratio against the sum of every
    other link of its trial at full gain. Each open beam sums all its
    interferers in one ``np.bincount``, and a closed one none: the faithful
    branch of ``mc._sinr_passes`` as it stood before beams were settled
    early, kept as the oracle of their verdicts."""
    trial, rank = mc._ragged(n_serve)
    first = np.cumsum(counts) - counts
    rel = np.ascontiguousarray(positions.T) - TARGET_KM  # einsum's order of sums follows the layout
    dist_km = np.sqrt(np.einsum("sx,sx->s", rel, rel))
    dist_sq = (dist_km * KM_TO_M) ** 2
    at_beam = first[trial] + rank
    received = mc.sr_sample(config.fading, rng, size=dist_sq.size) / dist_sq
    signal = received[at_beam]
    noise_term = link.noise_power_w / link.unit_range_power_w
    beam, other = mc._link_indices(counts, trial, rank, signal / noise_term > link.sinr_threshold, slice(None))
    at_serving, at_other = at_beam[beam], first[trial[beam]] + other
    ux, uy, uz = np.divide(rel.T, dist_km, order="C")
    cos_dome = ux.take(at_serving) * ux.take(at_other) + uy.take(at_serving) * uy.take(at_other) \
        + uz.take(at_serving) * uz.take(at_other)
    np.clip(cos_dome, -1.0, 1.0, out=cos_dome)
    power = config.rx_pattern.gain_shape(np.arccos(cos_dome, out=cos_dome)) * received.take(at_other)
    interference = np.bincount(beam, weights=power, minlength=trial.size)
    total = np.bincount(np.repeat(np.arange(counts.size), counts), weights=received, minlength=counts.size)
    return signal / (noise_term + interference), signal / (noise_term + (total[trial] - signal))


RX_PATTERNS = [CFG.rx_pattern, FlatTopPattern(CFG.rx_pattern.phi_3db), SincPattern(35), CosinePattern(35)]


@st.composite
def settling_cases(draw):
    """Ragged counts with packed positions on the LEO shell drawn from a
    few directions, so that links coincide and gains reach 1; log-uniform
    fading values, one link at times 2^60 times stronger than the rest; a
    receive pattern; and where the threshold goes: within a few ulps of one
    beam's all-pairs SINR or of its ratio against the all-links sum. The
    directions and fading values come from a drawn seed."""
    counts, n_serve, _ = draw(ragged_counts())
    n = int(counts.sum())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = cap_positions(CFG.leo.radius_km, rng.choice([1.0, 0.9999, 0.999, 0.99, 0.95], n),
                              rng.choice([0.0, 1.0, 2.5, 4.0], n))
    fading = 2.0 ** rng.uniform(-12.0, 6.0, n)
    if n and draw(st.booleans()):
        fading[draw(st.integers(0, n - 1))] *= 2.0 ** 60
    anchor = draw(st.tuples(st.integers(0, max(int(n_serve.sum()) - 1, 0)), st.sampled_from(["sinr", "bound"]),
                            st.integers(-4, 4)))
    return counts, n_serve, positions, fading, draw(st.sampled_from(RX_PATTERNS)), anchor


class TestSettledVerdicts:
    @staticmethod
    def verdicts(pattern, threshold, fading, positions, counts, n_serve):
        """Pass flags of ``mc._sinr_passes`` and all-pairs SINRs on one set of
        fading values (the LEO link at ``threshold``)."""
        config = replace(CFG, rx_pattern=pattern)
        link = replace(CFG.leo_link, sinr_threshold=threshold)
        args = (config, link, positions, counts, n_serve, None)
        with mock.patch.object(mc, "sr_sample", lambda params, rng, size=None: fading.copy()):
            trial, rank, passes = mc._sinr_passes(*args, faithful=True)
            sinr, _ = all_pairs_sinr(*args)
        assert np.array_equal(np.stack([trial, rank]), np.stack(mc._ragged(n_serve)))
        return passes, sinr

    @settings(max_examples=200, deadline=None)
    @given(settling_cases())
    # Rank 0 outweighs the rest of its trial by 2^56, so the trial's total
    # less its signal rounds to 0, yet the others' interference is as
    # large as the noise; the threshold sits one ulp above its SINR.
    @example((np.array([3]), np.array([3]), cap_positions(CFG.leo.radius_km, np.array([1.0, 0.999, 0.99]),
                                                          np.array([0.0, 1.0, 2.5])),
              np.array([2.0 ** 56, 1.0, 1.0]), CFG.rx_pattern, (0, "sinr", 1)))
    def test_match_all_pairs_sum(self, case):
        counts, n_serve, positions, fading, pattern, (beam, anchor, ulps) = case
        threshold = CFG.leo_link.sinr_threshold
        if n_serve.sum():
            # Every beam with a positive signal is open at the least threshold.
            with mock.patch.object(mc, "sr_sample", lambda params, rng, size=None: fading.copy()):
                sinr, bound_ratio = all_pairs_sinr(
                    replace(CFG, rx_pattern=pattern),
                    replace(CFG.leo_link, sinr_threshold=5e-324), positions, counts, n_serve, None)
            threshold = max(nudged((sinr if anchor == "sinr" else bound_ratio)[beam], ulps), 5e-324)
        passes, sinr = self.verdicts(pattern, threshold, fading, positions, counts, n_serve)
        assert np.array_equal(passes, sinr > threshold)

    @pytest.mark.parametrize("layout", ["spread", "stacked"])
    def test_thresholds_at_every_sinr(self, layout):
        # Forty 2000 km trials of nine visible satellites, six serving. With
        # the threshold at a beam's all-pairs SINR, or one ulp below it, its
        # verdict flips on a one-ulp change in its interference sum, such as
        # adding the second block's terms as a sum of their own. Spread over
        # the cap under the default beam, the gains vary. Stacked at one
        # point under a flat-top beam, every gain is 1, so each beam's sum
        # lies within rounding of the all-links bound; a margin of one ulp of
        # the trial's total would not cover it.
        rng = derive_rng(31)
        counts = np.full(40, 9)
        positions = place_in_cap(DENSE.leo.radius_km, DENSE.leo_theta_max, counts, rng)
        pattern = CFG.rx_pattern
        if layout == "stacked":
            positions, pattern = np.repeat(positions[:, ::9], 9, axis=1), FlatTopPattern(CFG.rx_pattern.phi_3db)
        fading = sr_sample(DENSE.fading, rng, size=int(counts.sum()))
        n_serve = np.minimum(counts, 6)
        _, sinr = self.verdicts(pattern, 5e-324, fading, positions, counts, n_serve)
        for threshold in np.unique(np.concatenate([sinr, np.nextafter(sinr, 0.0)])):
            passes, _ = self.verdicts(pattern, threshold, fading, positions, counts, n_serve)
            assert np.array_equal(passes, sinr > threshold)

    def test_prefix_and_second_block_failures(self):
        # One trial of five satellites, 1000 km from the target; ranks 0 and
        # 1 serve, and a flat-top beam gives every pair gain 1 or 0. Rank 1
        # is strong and points with ranks 0, 3 and 4; rank 2 lies off every
        # beam. Rank 0 is open but sinks on rank 1, inside its prefix (ranks
        # 1 and 2). Rank 1 passes on its prefix (ranks 0 and 2) and sinks
        # on ranks 3 and 4 in the second block.
        tilt = np.array([0.01, 0.0, 1.0, 0.02, 0.03])
        units = np.stack([np.cos(tilt), np.sin(tilt), np.zeros(5)], axis=-1)
        positions = (TARGET_KM + 1000.0 * units).T
        counts, n_serve = np.array([5]), np.array([2])
        fading = np.array([1.0, 100.0, 1.0, 10.0, 10.0])
        received, noise_term = fading / 1e12, CFG.leo_link.noise_power_w / CFG.leo_link.unit_range_power_w
        threshold = CFG.leo_link.sinr_threshold
        assert received[0] / noise_term > threshold > received[0] / (noise_term + received[1])
        assert received[1] / (noise_term + received[0]) > threshold > received[1] / (
            noise_term + received[0] + received[3] + received[4])
        pattern = FlatTopPattern(CFG.rx_pattern.phi_3db)
        listed = []
        link_indices = mc._link_indices

        def recording(*args):
            listed.append(link_indices(*args))
            return listed[-1]

        with mock.patch.object(mc, "_link_indices", recording):
            passes, sinr = self.verdicts(pattern, threshold, fading, positions, counts, n_serve)
        assert not passes.any() and np.array_equal(passes, sinr > threshold)
        # The settling run lists the prefix pairs of both beams, then the
        # rest of beam 1's; the oracle lists every pair at once.
        (prefix, rest, every) = [np.stack(pairs).T.tolist() for pairs in listed]
        assert (prefix, rest) == ([[0, 1], [0, 2], [1, 0], [1, 2]], [[1, 3], [1, 4]])
        assert every == [[0, 1], [0, 2], [0, 3], [0, 4], [1, 0], [1, 2], [1, 3], [1, 4]]


def parent_sinr_passes(config, link, positions, counts, n_serve, rng, faithful, matched_cap=None):
    """``mc._sinr_passes`` as it stood on ``(n, 3)`` positions: distances by
    an einsum over the positions less the target's, unit vectors
    transposed into rows, and one fading value per visible satellite in
    every mode. Kept as the oracle of the row layout's verdicts."""
    trial, rank = mc._ragged(n_serve)
    first = np.cumsum(counts) - counts
    rel = positions - TARGET_KM
    dist_km = np.sqrt(np.einsum("sx,sx->s", rel, rel))
    dist_sq = (dist_km * KM_TO_M) ** 2
    at_beam = first[trial] + rank
    received = mc.sr_sample(config.fading, rng, size=dist_sq.size) / dist_sq
    signal = received[at_beam]
    noise_term = link.noise_power_w / link.unit_range_power_w
    if faithful:
        owner = np.repeat(np.arange(counts.size), counts)
        total = np.bincount(owner, weights=received, minlength=counts.size)[trial]
        bound = total - signal + counts[trial] * mc.BOUND_MARGIN * total
        settled = signal / (noise_term + bound) > link.sinr_threshold
        pending = (signal / noise_term > link.sinr_threshold) & ~settled
        ux, uy, uz = np.divide(rel.T, dist_km, order="C")
        interference = np.zeros(trial.size)
        for block in (slice(mc.PREFIX_RANKS), slice(mc.PREFIX_RANKS, None)):
            beam, other = mc._link_indices(counts, trial, rank, pending, block)
            at_serving, at_other = at_beam[beam], first[trial[beam]] + other
            cos_dome = ux.take(at_serving) * ux.take(at_other) + uy.take(at_serving) * uy.take(at_other) \
                + uz.take(at_serving) * uz.take(at_other)
            np.clip(cos_dome, -1.0, 1.0, out=cos_dome)
            power = config.rx_pattern.gain_shape(np.arccos(cos_dome, out=cos_dome)) * received.take(at_other)
            np.add.at(interference, beam, power)
            pending &= signal / (noise_term + interference) > link.sinr_threshold
        return trial, rank, settled | pending
    if matched_cap is not None:
        theta_d, p_zero = matched_cap
        present = rng.random(trial.size) >= p_zero
        u = 1.0 - rng.random(trial.size)
        theta_i = 2.0 * np.arcsin(np.sqrt(u * cap_fraction(theta_d)))
        power = np.zeros(trial.size)
        power[present] = mc.sr_sample(config.fading, rng, size=int(present.sum()))
        dome = dome_from_central(config.leo.radius_km, theta_i)
        interference = config.rx_pattern.gain_shape(dome) * power / dist_sq[at_beam]
    else:
        interference = 0.0
    return trial, rank, signal / (noise_term + interference) > link.sinr_threshold


class TestRowLayout:
    @staticmethod
    def verdicts(sinr_passes, draws, args, faithful, matched_cap):
        """``sinr_passes(*args)`` with its fading draws taken, in order,
        from the front of ``draws``; returns its output and the sizes drawn."""
        sizes, queue = [], list(draws)

        def fixed(params, rng, size=None):
            sizes.append(size)
            return queue.pop(0)[:size].copy()

        with mock.patch.object(mc, "sr_sample", fixed):
            out = sinr_passes(*args, derive_rng(7), faithful, matched_cap)
        return out, sizes

    @settings(max_examples=150, deadline=None)
    @given(settling_cases(), st.sampled_from(["faithful", "matched", "no interference"]), st.floats(0.0, 1.0))
    def test_matches_parent_arithmetic(self, case, mode, p_zero):
        # The same trial, rank and pass flags as the parent's (n, 3)
        # arithmetic on the same draws: every visible link's fading in
        # faithful mode, the serving beams' alone otherwise, which the
        # parent read from its draw for every link.
        counts, n_serve, positions, fading, pattern, (beam, anchor, ulps) = case
        config = replace(CFG, rx_pattern=pattern)
        threshold = CFG.leo_link.sinr_threshold
        if n_serve.sum():
            with mock.patch.object(mc, "sr_sample", lambda params, rng, size=None: fading.copy()):
                sinr, bound_ratio = all_pairs_sinr(
                    config, replace(CFG.leo_link, sinr_threshold=5e-324), positions, counts, n_serve, None)
            threshold = max(nudged((sinr if anchor == "sinr" else bound_ratio)[beam], ulps), 5e-324)
        link = replace(CFG.leo_link, sinr_threshold=threshold)
        faithful = mode == "faithful"
        matched_cap = (leo_interference_cap(CFG.leo, pattern)[0], p_zero) if mode == "matched" else None
        trial, rank = mc._ragged(n_serve)
        at_beam = (np.cumsum(counts) - counts)[trial] + rank
        interferers = 2.0 ** np.linspace(-6.0, 6.0, trial.size)
        got, got_sizes = self.verdicts(mc._sinr_passes, [fading if faithful else fading[at_beam], interferers],
                                       (config, link, positions, counts, n_serve), faithful, matched_cap)
        want, want_sizes = self.verdicts(parent_sinr_passes, [fading, interferers],
                                         (config, link, np.ascontiguousarray(positions.T), counts, n_serve),
                                         faithful, matched_cap)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert got_sizes[0] == (counts.sum() if faithful else trial.size) and want_sizes[0] == counts.sum()
        assert got_sizes[1:] == want_sizes[1:]

    def test_matched_mode_draws_one_value_per_beam(self):
        # Trials of 3, 0, 1 and 5 visible satellites, the first two of each
        # serving: nine links, five beams. Faithful mode draws one fading
        # value per link; matched mode one per beam and then one per
        # synthetic interferer, every beam having one at p_zero = 0; without
        # interference one per beam.
        positions, counts, n_serve = TestEstimates.ragged_beams(21)
        theta_d = leo_interference_cap(CFG.leo, CFG.rx_pattern)[0]
        drawn = []

        def recording(params, rng, size=None):
            drawn.append(size)
            return sr_sample(params, rng, size)

        for faithful, matched_cap, sizes in [(True, None, [9]), (False, (theta_d, 0.0), [5, 5]),
                                             (False, (theta_d, 1.0), [5, 0]), (False, None, [5])]:
            drawn.clear()
            with mock.patch.object(mc, "sr_sample", recording):
                _, _, passes = mc._sinr_passes(CFG, CFG.leo_link, positions, counts, n_serve, derive_rng(22),
                                               faithful, matched_cap)
            assert drawn == sizes and passes.shape == (5,)


class TestBatchEnds:
    def test_sizes_differ_by_at_most_one(self):
        # Exact integer ends at every trial count up to 2,000. The former
        # float form, np.linspace(0, n, n_batches + 1).astype(int), cut
        # these counts elsewhere.
        moved = []
        for n in range(1, 2001):
            spec = McSpec(n_trials=n, master_seed=1, sum_all_interferers=True)
            ends = mc._batch_ends(n, spec.n_batches)
            sizes = np.diff(ends, prepend=0)
            assert ends[-1] == n and sizes.size == min(20, n) and sizes.max() - sizes.min() <= 1, n
            if not np.array_equal(ends, np.linspace(0, n, spec.n_batches + 1).astype(int)[1:]):
                moved.append(n)
        assert moved == [164, 328, 656, 676, 1292, 1312, 1332, 1352]


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


# Minor page faults of two localizability runs of one size in a fresh
# process, at 2000 km: three chunks each.
_FAULT_PROBE = """
import resource
from constelsim import mc
from constelsim.config import McSpec, build_system_config, load_settings
config = build_system_config(load_settings(overrides={"leo.altitude_km": "2000"}))
spec = McSpec(n_trials=3 * mc.CHUNK_TRIALS, master_seed=1, sum_all_interferers=True)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mc.simulate(config, spec, 6)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestChunkMemory:
    @pytest.mark.skipif(getattr(ctypes.pythonapi, "mallopt", None) is None, reason="the C library has no mallopt")
    def test_second_run_reuses_the_first_runs_pages(self):
        # With glibc's default thresholds the heap top is trimmed after a
        # chunk frees it, and the next chunk (or run) faults its pages in
        # again: a second run then took as many faults as the first.
        src = str(Path(constelsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True, env=env,
                             check=True, timeout=120).stdout
        first, second = map(int, out.split())
        assert second <= 0.1 * first, (first, second)

    def test_only_localizability_sets_the_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(mc.ctypes, "pythonapi", types.SimpleNamespace(mallopt=mallopt))
        spec = McSpec(n_trials=50, master_seed=3, sum_all_interferers=True)
        simulate(CFG, spec, 3, ("availability",))
        assert calls == []
        simulate(CFG, spec, 3)
        # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3 in glibc's malloc.h.
        assert calls == [(-1, mc.TRIM_THRESHOLD), (-3, mc.MMAP_THRESHOLD)]
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int

    def test_runs_without_mallopt(self, monkeypatch):
        spec = McSpec(n_trials=50, master_seed=3, sum_all_interferers=True)
        want = simulate(CFG, spec, 3)
        monkeypatch.setattr(mc.ctypes, "pythonapi", types.SimpleNamespace())
        got = simulate(CFG, spec, 3)
        assert got.estimates.keys() == want.estimates.keys()
        for key, (values, errors) in want.estimates.items():
            np.testing.assert_array_equal(got.estimates[key][0], values)
            np.testing.assert_array_equal(got.estimates[key][1], errors)
