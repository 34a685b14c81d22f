import math

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, kstest

from constelsim.constellation import (
    LeoShellConfig,
    MeoShellConfig,
    cap_positions,
    central_angle_to_target,
    derive_rng,
    sample_bpp,
    sample_bpp_cap,
    sample_dsbpp,
    sample_dsbpp_cap,
)
from constelsim.config import build_system_config, load_settings

LEO = LeoShellConfig(n_sats=2000, radius_km=7371.0, beam_angle=math.pi / 4)
MEO = MeoShellConfig(n_orbits=2, sats_per_orbit=6, radius_km=26371.0, beam_angle=math.pi / 6)


class TestBpp:
    def test_empty(self):
        cfg = LeoShellConfig(0, 7371.0, math.pi / 4)
        assert sample_bpp(cfg, derive_rng(1)).shape == (0, 3)

    def test_counts_and_norms(self):
        pts = sample_bpp(LEO, derive_rng(2))
        assert pts.shape == (2000, 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms / 7371.0 - 1.0)) < 1e-12

    def test_mean_height_is_unbiased(self):
        # each coordinate of a uniform point has variance R^2/3
        pts = sample_bpp(LEO, derive_rng(3))
        sigma = 7371.0 / math.sqrt(3 * 2000)
        assert abs(pts[:, 2].mean()) < 3 * sigma

    def test_cap_count_fraction(self):
        # fraction within central angle theta of the target is the cap area
        rng = derive_rng(4)
        theta = 0.8
        want = 0.5 * (1 - math.cos(theta))
        hits = 0
        n_draws = 50
        for _ in range(n_draws):
            angles = central_angle_to_target(sample_bpp(LEO, rng))
            hits += int((angles <= theta).sum())
        total = n_draws * LEO.n_sats
        se = math.sqrt(want * (1 - want) / total)
        assert abs(hits / total - want) < 3 * se

    def test_determinism_and_stream_independence(self):
        a = sample_bpp(LEO, derive_rng(99, 5))
        b = sample_bpp(LEO, derive_rng(99, 5))
        c = sample_bpp(LEO, derive_rng(99, 6))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rotation_invariance(self):
        # angles to the pole and to an arbitrary direction follow one law
        pts = sample_bpp(LeoShellConfig(20000, 7371.0, math.pi / 4), derive_rng(8))
        pole = central_angle_to_target(pts, np.array([0.0, 0.0, 1.0]))
        skew_dir = np.array([1.0, 2.0, -0.5])
        skew_dir /= np.linalg.norm(skew_dir)
        skew = central_angle_to_target(pts, skew_dir)
        assert ks_2samp(np.cos(pole), np.cos(skew)).pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            LeoShellConfig(-1, 7371.0, 1.0)
        with pytest.raises(ValueError):
            LeoShellConfig(10, 6000.0, 1.0)
        with pytest.raises(ValueError):
            LeoShellConfig(10, 7371.0, 7.0)


class TestBppCap:
    HORIZON = math.acos(6371.0 / 7371.0)
    FRACTION = 0.5 * (1.0 - math.cos(HORIZON))

    def test_count_mean_and_variance(self):
        n = 20_000
        counts, _ = sample_bpp_cap(LEO, derive_rng(11), self.HORIZON, n)
        mean = LEO.n_sats * self.FRACTION
        var = mean * (1.0 - self.FRACTION)
        assert abs(counts.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) / var - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_cosine_uniform_over_cap(self):
        _, pos = sample_bpp_cap(LEO, derive_rng(12), self.HORIZON, 200, positions=True)
        cos_h = math.cos(self.HORIZON)
        azimuth = np.mod(np.arctan2(pos[:, 2], pos[:, 1]), 2.0 * math.pi)
        assert kstest(pos[:, 0] / LEO.radius_km, "uniform", args=(cos_h, 1.0 - cos_h)).pvalue > 0.01
        assert kstest(azimuth, "uniform", args=(0.0, 2.0 * math.pi)).pvalue > 0.01

    def test_rows_nearest_first(self):
        counts, pos = sample_bpp_cap(LEO, derive_rng(13), self.HORIZON, 50, positions=True)
        assert pos.shape == (counts.sum(), 3) and counts.min() > 1
        # Packed shell by shell; within a shell the cosine never rises.
        shell = np.repeat(np.arange(counts.size), counts)
        steps = np.diff(pos[:, 0] / LEO.radius_km)
        assert np.all(steps[shell[1:] == shell[:-1]] <= 0.0)

    def test_positions_on_shell_inside_cap(self):
        counts, pos = sample_bpp_cap(LEO, derive_rng(14), self.HORIZON, 20, positions=True)
        assert pos.shape == (counts.sum(), 3)
        assert np.max(np.abs(np.linalg.norm(pos, axis=1) / LEO.radius_km - 1.0)) < 1e-12
        angles = central_angle_to_target(pos)
        assert np.max(np.abs(np.cos(angles) - pos[:, 0] / LEO.radius_km)) < 1e-12
        assert np.all(angles <= self.HORIZON + 1e-12)

    def test_empty_shell(self):
        counts, pos = sample_bpp_cap(LeoShellConfig(0, 7371.0, 1.0), derive_rng(15), self.HORIZON, 4, positions=True)
        assert np.array_equal(counts, [0, 0, 0, 0]) and pos.shape == (0, 3)

    def test_matches_out_of_place_draw(self):
        # Same stream, same arithmetic: equal to the last bit.
        for size in (1, 50, 1024):
            got = sample_bpp_cap(LEO, derive_rng(16), self.HORIZON, size, positions=True)
            want = out_of_place_cap_draw(LEO, derive_rng(16), self.HORIZON, size)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

    def test_counts_alone_draw_the_same(self):
        alone, with_positions = derive_rng(17), derive_rng(17)
        counts, none = sample_bpp_cap(LEO, alone, self.HORIZON, 30)
        same_counts, _ = sample_bpp_cap(LEO, with_positions, self.HORIZON, 30, positions=True)
        assert none is None and np.array_equal(counts, same_counts)
        assert alone.random() == with_positions.random()


def out_of_place_cap_draw(config, rng, cap_angle, size):
    """The cap draw with a fresh array at every step, packed shell by shell."""
    counts = rng.binomial(config.n_sats, 0.5 * (1.0 - math.cos(cap_angle)), size=size)
    width = int(counts.max(initial=0))
    live = np.arange(width) < counts[:, None]
    u = np.sort(np.where(live, rng.random((size, width)), np.inf), axis=1)
    azimuth = 2.0 * np.pi * rng.random((size, width))
    return counts, cap_positions(config.radius_km, 1.0 - u[live] * (1.0 - math.cos(cap_angle)), azimuth[live])


def per_orbit_dsbpp(config, rng):
    """The per-orbit construction: draw every inclination, then every
    azimuth, then each orbit's anomalies, and rotate each orbit's flat
    circle about x by its inclination and then about z by its azimuth."""
    inclinations = np.arccos(1.0 - 2.0 * rng.random(config.n_orbits))
    azimuths = 2.0 * np.pi * rng.random(config.n_orbits)
    blocks = []
    for inc, az in zip(inclinations, azimuths):
        anomalies = 2.0 * np.pi * rng.random(config.sats_per_orbit)
        r = config.radius_km
        flat = np.column_stack([r * np.cos(anomalies), r * np.sin(anomalies), np.zeros_like(anomalies)])
        ci, si, ca, sa = math.cos(inc), math.sin(inc), math.cos(az), math.sin(az)
        rot_x = np.array([[1.0, 0.0, 0.0], [0.0, ci, -si], [0.0, si, ci]])
        rot_z = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
        blocks.append(flat @ rot_x.T @ rot_z.T)
    return np.vstack(blocks)


class TestDsbpp:
    def test_matches_per_orbit_construction(self):
        for cfg in (MEO, MeoShellConfig(5, 3, 26371.0, math.pi / 6), MeoShellConfig(1, 1, 26371.0, 1.0)):
            for trial in range(10):
                got = sample_dsbpp(cfg, derive_rng(21, trial))
                want = per_orbit_dsbpp(cfg, derive_rng(21, trial))
                assert got.shape == want.shape == (cfg.n_sats, 3)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_batched_shape_and_coplanarity(self):
        pts = sample_dsbpp(MEO, derive_rng(22), size=50)
        assert pts.shape == (50, 12, 3)
        assert np.max(np.abs(np.linalg.norm(pts, axis=-1) / 26371.0 - 1.0)) < 1e-12
        for shell in pts:
            for orbit in range(MEO.n_orbits):
                block = shell[orbit * 6:(orbit + 1) * 6]
                normal = np.cross(block[0], block[1])
                norm = np.linalg.norm(normal)
                if norm < 1e-6:
                    continue
                assert np.max(np.abs(block @ (normal / norm))) < 1e-9 * 26371.0

    def test_batched_empty(self):
        cfg = MeoShellConfig(0, 6, 26371.0, math.pi / 6)
        assert sample_dsbpp(cfg, derive_rng(1), size=3).shape == (3, 0, 3)

    def test_empty(self):
        cfg = MeoShellConfig(0, 6, 26371.0, math.pi / 6)
        assert sample_dsbpp(cfg, derive_rng(1)).shape == (0, 3)

    def test_counts_and_norms(self):
        pts = sample_dsbpp(MEO, derive_rng(2))
        assert pts.shape == (12, 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms / 26371.0 - 1.0)) < 1e-9

    def test_orbit_coplanarity(self):
        # all points of one orbit lie in the plane of its first two points
        rng = derive_rng(3)
        for _ in range(20):
            pts = sample_dsbpp(MEO, rng)
            for orbit in range(MEO.n_orbits):
                block = pts[orbit * 6:(orbit + 1) * 6]
                normal = np.cross(block[0], block[1])
                norm = np.linalg.norm(normal)
                if norm < 1e-6:
                    continue
                offsets = np.abs(block @ (normal / norm))
                assert np.max(offsets) < 1e-9 * 26371.0

    def test_single_point_marginal_uniform(self):
        # one satellite on one random orbit is uniform on the sphere:
        # chi-square over 48 equal-area bins (8 height slices x 6 sectors)
        cfg = MeoShellConfig(1, 1, 26371.0, math.pi / 6)
        rng = derive_rng(4)
        n = 100_000
        pts = sample_dsbpp(cfg, rng, size=n)[:, 0]
        z_bin = np.minimum((pts[:, 2] / 26371.0 + 1.0) / 2.0 * 8.0, 7.9999).astype(int)
        az = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
        az_bin = np.minimum(az / (2 * math.pi) * 6.0, 5.9999).astype(int)
        counts = np.bincount(z_bin * 6 + az_bin, minlength=48)
        assert chisquare(counts).pvalue > 0.01

    def test_determinism(self):
        a = sample_dsbpp(MEO, derive_rng(7, 1))
        b = sample_dsbpp(MEO, derive_rng(7, 1))
        assert np.array_equal(a, b)


def whole_shells(config, rng, size):
    """``size`` whole MEO shells from the rotation of every satellite's flat
    position, all orbits at once: the arithmetic the packed positions must
    reproduce bit for bit."""
    inclination = np.arccos(1.0 - 2.0 * rng.random((size, config.n_orbits, 1)))
    azimuth = 2.0 * np.pi * rng.random((size, config.n_orbits, 1))
    anomaly = 2.0 * np.pi * rng.random((size, config.n_orbits, config.sats_per_orbit))
    x_flat = config.radius_km * np.cos(anomaly)
    y_flat = config.radius_km * np.sin(anomaly)
    y_tilt = y_flat * np.cos(inclination)
    out = np.stack([x_flat * np.cos(azimuth) - y_tilt * np.sin(azimuth),
                    x_flat * np.sin(azimuth) + y_tilt * np.cos(azimuth),
                    y_flat * np.sin(inclination)], axis=-1)
    return out.reshape(size, config.n_sats, 3)


class TestDsbppCap:
    @pytest.mark.parametrize("overrides", [
        {},
        {"meo.n_orbits": "3", "meo.sats_per_orbit": "4"},
        {"meo.n_orbits": "1", "meo.sats_per_orbit": "1"},
        {"meo.altitude_km": "8000"},
    ])
    def test_matches_whole_shells(self, overrides):
        # 100k shells in ten chunks, both sides on copies of one stream.
        cfg = build_system_config(load_settings(overrides=overrides))
        cap_rng, full_rng = derive_rng(31), derive_rng(31)
        for _ in range(10):
            counts, positions = sample_dsbpp_cap(cfg.meo, cap_rng, cfg.meo_theta_max, 10_000, positions=True)
            full = whole_shells(cfg.meo, full_rng, 10_000)
            visible = central_angle_to_target(full) <= cfg.meo_theta_max
            assert np.array_equal(counts, visible.sum(axis=1))
            assert np.array_equal(positions, full[visible])
        assert cap_rng.random() == full_rng.random()

    def test_whole_shell_sampler_matches(self):
        assert np.array_equal(sample_dsbpp(MEO, derive_rng(34), size=500), whole_shells(MEO, derive_rng(34), 500))
        assert np.array_equal(sample_dsbpp(MEO, derive_rng(35)), whole_shells(MEO, derive_rng(35), 1)[0])

    def test_mask_alone_draws_the_same(self):
        counts, positions = sample_dsbpp_cap(MEO, derive_rng(32), 1.0, 50)
        with_positions, _ = sample_dsbpp_cap(MEO, derive_rng(32), 1.0, 50, positions=True)
        assert positions is None and counts.shape == (50,)
        assert np.array_equal(counts, with_positions)

    def test_empty_shell(self):
        cfg = MeoShellConfig(0, 6, 26371.0, math.pi / 6)
        counts, positions = sample_dsbpp_cap(cfg, derive_rng(33), 1.0, 4, positions=True)
        assert np.array_equal(counts, [0, 0, 0, 0]) and positions.shape == (0, 3)


class TestCentralAngle:
    def test_identities(self):
        d = np.array([1.0, 0.0, 0.0])
        assert central_angle_to_target(np.array([[5.0, 0.0, 0.0]]), d)[0] == pytest.approx(0.0)
        assert central_angle_to_target(np.array([[-2.0, 0.0, 0.0]]), d)[0] == pytest.approx(math.pi)
        assert central_angle_to_target(np.array([[0.0, 3.0, 0.0]]), d)[0] == pytest.approx(math.pi / 2)

    def test_single_vector(self):
        got = central_angle_to_target(np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, 1.0]))
        assert got == pytest.approx(0.0)
