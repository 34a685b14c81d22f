import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare, ks_2samp, kstest

from constelsim import cli
from constelsim.analytic import evaluate
from constelsim.config import LeoShellConfig, MeoShellConfig, build_system_config, load_settings
from constelsim.constellation import (
    MAX_PLACED_SHELLS,
    cap_positions,
    central_angle_to_target,
    derive_rng,
    place_in_cap,
    sample_bpp,
    sample_bpp_cap,
    sample_dsbpp_cap,
)
from constelsim.geom import orbit_arc

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
        # angles to the pole and to an arbitrary direction follow one law:
        # the points are rotated to take each direction to the target
        pts = sample_bpp(LeoShellConfig(20000, 7371.0, math.pi / 4), derive_rng(8))

        def angles_to(direction):
            # A reflection swapping the direction and the x axis, then one
            # fixing the x axis: together a rotation.
            v = direction / np.linalg.norm(direction) - np.array([1.0, 0.0, 0.0])
            rotation = np.diag([1.0, 1.0, -1.0]) @ (np.eye(3) - 2.0 * np.outer(v, v) / (v @ v))
            return central_angle_to_target(pts @ rotation.T)

        pole = angles_to(np.array([0.0, 0.0, 1.0]))
        skew = angles_to(np.array([1.0, 2.0, -0.5]))
        assert ks_2samp(np.cos(pole), np.cos(skew)).pvalue > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            LeoShellConfig(-1, 7371.0, 1.0)
        with pytest.raises(ValueError):
            LeoShellConfig(10, 6000.0, 1.0)
        with pytest.raises(ValueError):
            LeoShellConfig(10, 7371.0, 7.0)


@st.composite
def placed_counts(draw):
    """Per-shell counts of up to ``MAX_PLACED_SHELLS`` shells: mostly empty,
    with up to 12 shells of 1 to 40 points at drawn indices."""
    size = draw(st.integers(0, MAX_PLACED_SHELLS))
    counts = np.zeros(size, dtype=np.intp)
    if size:
        filled = draw(st.dictionaries(st.integers(0, size - 1), st.integers(1, 40), max_size=12))
        counts[list(filled)] = list(filled.values())
    return counts


def per_shell_placement(radius_km, cap_angle, counts, rng):
    """The cap placement with each shell's cosine uniforms sorted by its own
    ``np.sort``, packed shell by shell."""
    u = rng.random(int(counts.sum()))
    ends = np.cumsum(counts)
    u = np.concatenate([np.zeros(0)] + [np.sort(u[end - n:end]) for n, end in zip(counts, ends)])
    azimuth = 2.0 * np.pi * rng.random(u.size)
    return cap_positions(radius_km, 1.0 - u * (1.0 - math.cos(cap_angle)), azimuth)


class TestBppCap:
    HORIZON = math.acos(6371.0 / 7371.0)
    FRACTION = 0.5 * (1.0 - math.cos(HORIZON))

    def drawn(self, seed, size):
        """Counts and packed ``(n, 3)`` positions of ``size`` caps, both from
        one stream."""
        rng = derive_rng(seed)
        counts = sample_bpp_cap(LEO, rng, self.HORIZON, size)
        return counts, place_in_cap(LEO.radius_km, self.HORIZON, counts, rng).T

    def test_count_mean_and_variance(self):
        n = 20_000
        counts = sample_bpp_cap(LEO, derive_rng(11), self.HORIZON, n)
        mean = LEO.n_sats * self.FRACTION
        var = mean * (1.0 - self.FRACTION)
        assert abs(counts.mean() - mean) < 4.0 * math.sqrt(var / n)
        assert abs(counts.var(ddof=1) / var - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_cosine_uniform_over_cap(self):
        _, pos = self.drawn(12, 200)
        cos_h = math.cos(self.HORIZON)
        azimuth = np.mod(np.arctan2(pos[:, 2], pos[:, 1]), 2.0 * math.pi)
        assert kstest(pos[:, 0] / LEO.radius_km, "uniform", args=(cos_h, 1.0 - cos_h)).pvalue > 0.01
        assert kstest(azimuth, "uniform", args=(0.0, 2.0 * math.pi)).pvalue > 0.01

    def test_rows_nearest_first(self):
        counts, pos = self.drawn(13, 50)
        assert pos.T.shape == (3, counts.sum()) and pos.T.flags.c_contiguous and counts.min() > 1
        # Packed shell by shell; within a shell the cosine never rises.
        shell = np.repeat(np.arange(counts.size), counts)
        steps = np.diff(pos[:, 0] / LEO.radius_km)
        assert np.all(steps[shell[1:] == shell[:-1]] <= 0.0)

    def test_positions_on_shell_inside_cap(self):
        counts, pos = self.drawn(14, 20)
        assert pos.shape == (counts.sum(), 3)
        assert np.max(np.abs(np.linalg.norm(pos, axis=1) / LEO.radius_km - 1.0)) < 1e-12
        angles = central_angle_to_target(pos)
        assert np.max(np.abs(np.cos(angles) - pos[:, 0] / LEO.radius_km)) < 1e-12
        assert np.all(angles <= self.HORIZON + 1e-12)

    def test_empty_shell(self):
        rng = derive_rng(15)
        counts = sample_bpp_cap(LeoShellConfig(0, 7371.0, 1.0), rng, self.HORIZON, 4)
        assert np.array_equal(counts, [0, 0, 0, 0])
        assert place_in_cap(7371.0, self.HORIZON, counts, rng).shape == (3, 0)

    def test_matches_out_of_place_draw(self):
        # Same stream, same arithmetic: equal to the last bit.
        for size in (1, 50, MAX_PLACED_SHELLS):
            counts = sample_bpp_cap(LEO, derive_rng(16), self.HORIZON, size)
            got = place_in_cap(LEO.radius_km, self.HORIZON, counts, derive_rng(17))
            want = per_shell_placement(LEO.radius_km, self.HORIZON, counts, derive_rng(17))
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(placed_counts(), st.integers(0, 2**32 - 1))
    # No shells; empty shells about one at the largest count the benchmark's
    # densest workload sees, and about a whole 2000-satellite shell; the
    # last shell index a call takes, alone and after an empty block.
    @example(np.zeros(0, dtype=np.intp), 1)
    @example(np.array([0, 0, 25, 0, 1]), 2)
    @example(np.array([0, 2000, 0]), 3)
    @example(np.eye(1, MAX_PLACED_SHELLS, MAX_PLACED_SHELLS - 1, dtype=np.intp)[0] * 7, 4)
    @example(np.full(MAX_PLACED_SHELLS, 3), 5)
    def test_ragged_sort_matches_per_shell_sort(self, counts, seed):
        got = place_in_cap(LEO.radius_km, self.HORIZON, counts, derive_rng(seed))
        want = per_shell_placement(LEO.radius_km, self.HORIZON, counts, derive_rng(seed))
        assert got.shape == (3, counts.sum())
        np.testing.assert_array_equal(got, want)

    def test_refuses_more_shells_than_its_key_holds(self):
        with pytest.raises(ValueError, match=f"at most {MAX_PLACED_SHELLS} shells"):
            place_in_cap(LEO.radius_km, self.HORIZON, np.ones(MAX_PLACED_SHELLS + 1, dtype=np.intp), derive_rng(6))

    def test_counts_alone_draw_the_same(self):
        # The counts take the binomial draw alone; the placement takes one
        # cosine uniform and one azimuth uniform per point.
        counted, binomial_only = derive_rng(18), derive_rng(18)
        counts = sample_bpp_cap(LEO, counted, self.HORIZON, 30)
        assert np.array_equal(counts, binomial_only.binomial(LEO.n_sats, self.FRACTION, size=30))
        assert counted.random() == binomial_only.random()
        placed, skipped = derive_rng(19), derive_rng(19)
        place_in_cap(LEO.radius_km, self.HORIZON, counts, placed)
        skipped.random(2 * counts.sum())
        assert placed.random() == skipped.random()


def per_orbit_dsbpp(config, rng):
    """The per-orbit construction: draw every s, then every psi, then each
    orbit's anomaly uniforms; build each orbit's normal
    (s, c cos psi, c sin psi) with c = sqrt(1 - s^2), its in-plane axis
    toward the target by projecting the target off the normal, the other
    by a cross product, and place each satellite at its anomaly from the
    first axis."""
    s_all = 1.0 - 2.0 * rng.random(config.n_orbits)
    psis = 2.0 * np.pi * rng.random(config.n_orbits)
    target = np.array([1.0, 0.0, 0.0])
    blocks = []
    for s, psi in zip(s_all, psis):
        c = math.sqrt(1.0 - s * s)
        normal = np.array([s, c * math.cos(psi), c * math.sin(psi)])
        toward = target - s * normal
        toward /= np.linalg.norm(toward)
        across = np.cross(normal, toward)
        anomalies = np.pi * (2.0 * rng.random(config.sats_per_orbit) - 1.0)
        blocks.append(config.radius_km * (np.cos(anomalies)[:, None] * toward + np.sin(anomalies)[:, None] * across))
    return np.vstack(blocks)


class TestDsbpp:
    def test_matches_per_orbit_construction(self):
        for cfg in (MEO, MeoShellConfig(5, 3, 26371.0, math.pi / 6), MeoShellConfig(1, 1, 26371.0, 1.0)):
            for trial in range(10):
                got = sample_dsbpp_cap(cfg, derive_rng(21, trial), math.pi, 1, positions=True)[1].T
                want = per_orbit_dsbpp(cfg, derive_rng(21, trial))
                assert got.shape == want.shape == (cfg.n_sats, 3)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_batched_shape_and_coplanarity(self):
        counts, pts = sample_dsbpp_cap(MEO, derive_rng(22), math.pi, 50, positions=True)
        assert np.array_equal(counts, np.full(50, 12)) and pts.shape == (3, 600)
        pts = pts.T.reshape(50, 12, 3)
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
        counts, pts = sample_dsbpp_cap(cfg, derive_rng(1), math.pi, 3, positions=True)
        assert np.array_equal(counts, np.zeros(3)) and pts.shape == (3, 0)

    def test_empty(self):
        cfg = MeoShellConfig(0, 6, 26371.0, math.pi / 6)
        assert sample_dsbpp_cap(cfg, derive_rng(1), math.pi, 1, positions=True)[1].shape == (3, 0)

    def test_counts_and_norms(self):
        pts = sample_dsbpp_cap(MEO, derive_rng(2), math.pi, 1, positions=True)[1].T
        assert pts.shape == (12, 3)
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms / 26371.0 - 1.0)) < 1e-9

    def test_orbit_coplanarity(self):
        # all points of one orbit lie in the plane of its first two points
        rng = derive_rng(3)
        for _ in range(20):
            pts = sample_dsbpp_cap(MEO, rng, math.pi, 1, positions=True)[1].T
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
        pts = sample_dsbpp_cap(cfg, rng, math.pi, n, positions=True)[1].T
        z_bin = np.minimum((pts[:, 2] / 26371.0 + 1.0) / 2.0 * 8.0, 7.9999).astype(int)
        az = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * math.pi)
        az_bin = np.minimum(az / (2 * math.pi) * 6.0, 5.9999).astype(int)
        counts = np.bincount(z_bin * 6 + az_bin, minlength=48)
        assert chisquare(counts).pvalue > 0.01

    def test_determinism(self):
        a = sample_dsbpp_cap(MEO, derive_rng(7, 1), math.pi, 1, positions=True)[1]
        b = sample_dsbpp_cap(MEO, derive_rng(7, 1), math.pi, 1, positions=True)[1]
        assert np.array_equal(a, b)


def half_angle_cos_sin(angle, scale):
    """``scale`` times the cosine and the sine of ``angle``, through
    t = tan(angle / 2) as the sampler takes them."""
    t = np.tan(0.5 * angle)
    scaled = scale / (1.0 + t * t)
    return scaled * (1.0 - t * t), scaled * (2.0 * t)


def trig_cos_sin(angle, scale):
    """``scale`` times numpy's cosine and sine of ``angle``."""
    return scale * np.cos(angle), scale * np.sin(angle)


def whole_shells(config, rng, size, cos_sin=half_angle_cos_sin):
    """``size`` whole MEO shells, every satellite placed, all orbits at
    once: the arithmetic the packed positions must reproduce bit for bit,
    or, with ``cos_sin=trig_cos_sin``, the cosines and sines taken directly.
    Each anomaly pi (2u - 1) is measured from its orbit's point nearest the
    target."""
    s = 1.0 - 2.0 * rng.random((size, config.n_orbits, 1))
    psi = 2.0 * np.pi * rng.random((size, config.n_orbits, 1))
    anomaly = np.pi * (2.0 * rng.random((size, config.n_orbits, config.sats_per_orbit)) - 1.0)
    cos_delta = np.sqrt((1.0 - s) * (1.0 + s))
    r_cos, r_sin = cos_sin(anomaly, config.radius_km)
    cos_psi, sin_psi = cos_sin(psi, 1.0)
    out = np.stack([cos_delta * r_cos,
                    r_sin * sin_psi - s * cos_psi * r_cos,
                    -(s * sin_psi * r_cos + r_sin * cos_psi)], axis=-1)
    return out.reshape(size, config.n_sats, 3)


def test_sample_command_writes_drawn_shells(tmp_path):
    # ``sample`` places the whole LEO shell in a cap of central angle pi,
    # nearest first, then draws the whole MEO shell, from the seed's stream
    # 0, and writes one row per satellite: MEO rows orbit-major.
    out = tmp_path / "sample.csv"
    assert cli.main(["sample", "--seed", "5", "--set", "leo.n_sats=7", "--out", str(out)]) == 0
    header, *lines = out.read_text(encoding="utf-8").splitlines()
    assert header == "layer,orbit_index,sat_index,x_km,y_km,z_km"
    cfg = build_system_config(load_settings(overrides={"leo.n_sats": "7"}))
    rng = derive_rng(5, 0)
    cos_theta = 1.0 - 2.0 * np.sort(rng.random(7))
    azimuth = 2.0 * np.pi * rng.random(7)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    leo = cfg.leo.radius_km * np.stack([cos_theta, sin_theta * np.cos(azimuth), sin_theta * np.sin(azimuth)], 1)
    meo = whole_shells(cfg.meo, rng, 1)[0]
    want = [("leo", -1, i, pos) for i, pos in enumerate(leo)]
    want += [("meo", *divmod(i, cfg.meo.sats_per_orbit), pos) for i, pos in enumerate(meo)]
    assert len(lines) == len(want) == 7 + 12
    for line, (layer, orbit, sat, pos) in zip(lines, want):
        fields = line.split(",")
        assert fields[:3] == [layer, str(orbit), str(sat)]
        np.testing.assert_allclose([float(v) for v in fields[3:]], pos, rtol=1e-9, atol=0)
    # Nearest first: the x coordinate, the radius times cos(theta), falls.
    leo_x = [float(line.split(",")[3]) for line in lines[:7]]
    assert leo_x == sorted(leo_x, reverse=True)


def wrapped_anomaly_counts(config, rng, cap_angle, size):
    """Per-shell visible counts from the anomaly-wrap sampler: the same
    draws, but each anomaly uniform on [0, 2 pi) from the orbit's axis
    (0, sin psi, -cos psi), a quarter turn before the point nearest the
    target, and its distance from that point wrapped onto [0, pi]."""
    s = 1.0 - 2.0 * rng.random((size, config.n_orbits))
    rng.random((size, config.n_orbits))  # psi: the counts do not depend on it
    anomaly = 2.0 * np.pi * rng.random((size, config.n_orbits, config.sats_per_orbit))
    half = orbit_arc(cap_angle, np.sqrt(1.0 - s * s))
    offset = np.abs(anomaly - 0.5 * np.pi)
    offset = np.minimum(offset, 2.0 * np.pi - offset)
    return (offset <= half[..., None]).sum(axis=(1, 2))


def inclination_node_counts(config, rng, cap_angle, size):
    """Per-shell visible counts from the inclination/node construction:
    each orbit's circle in the xy-plane, tilted about x by an inclination
    of sin/2 density and swung about z by a uniform node, with anomalies
    uniform on [0, 2 pi); a satellite is visible when its own position is
    within ``cap_angle`` of the target (the x axis)."""
    cos_i = 1.0 - 2.0 * rng.random((size, config.n_orbits, 1))
    node = 2.0 * np.pi * rng.random((size, config.n_orbits, 1))
    anomaly = 2.0 * np.pi * rng.random((size, config.n_orbits, config.sats_per_orbit))
    x = np.cos(anomaly) * np.cos(node) - np.sin(anomaly) * cos_i * np.sin(node)
    return (x >= math.cos(cap_angle)).sum(axis=(1, 2))


def count_pmf(sampler, config, seed, cap_angle, n, chunk=20_000):
    """Visible-count frequencies of ``n`` shells from ``sampler``, drawn in
    chunks from one stream."""
    rng = derive_rng(seed)
    counts = np.concatenate([sampler(config, rng, cap_angle, chunk) for _ in range(n // chunk)])
    return np.bincount(counts, minlength=config.n_sats + 1) / n


def sampled_counts(config, rng, cap_angle, size):
    return sample_dsbpp_cap(config, rng, cap_angle, size)[0]


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
            assert np.array_equal(positions.T, full[visible])
        assert cap_rng.random() == full_rng.random()

    @pytest.mark.parametrize("overrides", [{}, {"meo.altitude_km": "8000"}])
    def test_positions_match_direct_cosines(self, overrides):
        # The tangent half-angle moves positions only in their last bits.
        cfg = build_system_config(load_settings(overrides=overrides))
        counts, positions = sample_dsbpp_cap(cfg.meo, derive_rng(42), cfg.meo_theta_max, 20_000, positions=True)
        full = whole_shells(cfg.meo, derive_rng(42), 20_000, cos_sin=trig_cos_sin)
        visible = central_angle_to_target(full) <= cfg.meo_theta_max
        assert np.array_equal(counts, visible.sum(axis=1))
        assert np.max(np.abs(positions.T - full[visible])) <= 1e-9

    def test_whole_shell_sampler_matches(self):
        # A cap of central angle pi holds every satellite.
        for seed, size in ((34, 500), (35, 1)):
            counts, pts = sample_dsbpp_cap(MEO, derive_rng(seed), math.pi, size, positions=True)
            assert np.array_equal(counts, np.full(size, MEO.n_sats))
            assert np.array_equal(pts.T, whole_shells(MEO, derive_rng(seed), size).reshape(-1, 3))

    def test_count_law_matches_anomaly_wrap(self):
        # Two independent samples of 200k shells' visible counts, offsets
        # from the nearest point against wrapped anomalies, must follow one
        # law.
        cfg = build_system_config(load_settings())
        n, chunk = 200_000, 20_000
        offset_rng, wrap_rng = derive_rng(36), derive_rng(37)
        offsets = np.concatenate([sample_dsbpp_cap(cfg.meo, offset_rng, cfg.meo_theta_max, chunk)[0]
                                  for _ in range(n // chunk)])
        wrapped = np.concatenate([wrapped_anomaly_counts(cfg.meo, wrap_rng, cfg.meo_theta_max, chunk)
                                  for _ in range(n // chunk)])
        table = np.stack([np.bincount(offsets, minlength=cfg.meo.n_sats + 1),
                          np.bincount(wrapped, minlength=cfg.meo.n_sats + 1)])
        table = table[:, table.sum(axis=0) > 0]
        assert table.shape[1] >= 8
        assert chi2_contingency(table).pvalue > 0.001

    def test_one_per_orbit_tail_matches_closed_form(self):
        # With one satellite per orbit the satellites are independent and
        # each uniform on the shell, so the paper's binomial law is exact.
        cfg = build_system_config(load_settings(overrides={"meo.n_orbits": "12", "meo.sats_per_orbit": "1"}))
        n = 200_000
        pmf = count_pmf(sampled_counts, cfg.meo, 38, cfg.meo_theta_max, n)
        got = np.cumsum(pmf[::-1])[::-1][1:]
        want = evaluate(cfg, "availability", 12)["meo"]
        se = np.sqrt(want * (1.0 - want) / n)
        assert np.all(np.abs(got - want) <= 4.0 * se), (got - want) / se

    @pytest.mark.parametrize("layout", [(2, 6), (3, 4)])
    def test_count_law_matches_inclination_node(self, layout):
        # Orbits drawn in the target's frame and by inclination and node
        # give one count law: per count, two independent samples of 100k
        # shells agree within 4 SE.
        layers = {"meo.n_orbits": str(layout[0]), "meo.sats_per_orbit": str(layout[1])}
        cfg = build_system_config(load_settings(overrides=layers))
        n = 100_000
        got = count_pmf(sampled_counts, cfg.meo, 39, cfg.meo_theta_max, n)
        want = count_pmf(inclination_node_counts, cfg.meo, 40, cfg.meo_theta_max, n)
        pooled = 0.5 * (got + want)
        se = np.sqrt(2.0 * pooled * (1.0 - pooled) / n)
        assert np.count_nonzero(pooled > 1e-3) >= 8
        assert np.all(np.abs(got - want) <= 4.0 * se), (got - want) / se

    def test_visible_positions_uniform_in_cap(self):
        # On the shell and in the cap. With one satellite per orbit the
        # visible satellites are independent, so the cosine of their central
        # angle is i.i.d. uniform on [cos theta_max, 1].
        theta_max = build_system_config(load_settings()).meo_theta_max
        one_per_orbit = MeoShellConfig(12, 1, 26371.0, math.pi / 6)
        for cfg in (MEO, one_per_orbit):
            counts, pos = sample_dsbpp_cap(cfg, derive_rng(41), theta_max, 2000, positions=True)
            assert pos.shape == (3, counts.sum()) and counts.sum() > 5000
            pos = pos.T
            assert np.max(np.abs(np.linalg.norm(pos, axis=1) / cfg.radius_km - 1.0)) < 1e-12
            assert np.all(central_angle_to_target(pos) <= theta_max + 1e-12)
        cos_max = math.cos(theta_max)
        cosines = pos[:, 0] / one_per_orbit.radius_km
        assert kstest(cosines, "uniform", args=(cos_max, 1.0 - cos_max)).pvalue > 0.01

    def test_mask_alone_draws_the_same(self):
        counts, positions = sample_dsbpp_cap(MEO, derive_rng(32), 1.0, 50)
        with_positions, _ = sample_dsbpp_cap(MEO, derive_rng(32), 1.0, 50, positions=True)
        assert positions is None and counts.shape == (50,)
        assert np.array_equal(counts, with_positions)

    def test_empty_shell(self):
        cfg = MeoShellConfig(0, 6, 26371.0, math.pi / 6)
        counts, positions = sample_dsbpp_cap(cfg, derive_rng(33), 1.0, 4, positions=True)
        assert np.array_equal(counts, [0, 0, 0, 0]) and positions.shape == (3, 0)


class TestCentralAngle:
    def test_identities(self):
        assert central_angle_to_target(np.array([[5.0, 0.0, 0.0]]))[0] == pytest.approx(0.0)
        assert central_angle_to_target(np.array([[-2.0, 0.0, 0.0]]))[0] == pytest.approx(math.pi)
        assert central_angle_to_target(np.array([[0.0, 3.0, 0.0]]))[0] == pytest.approx(math.pi / 2)

    def test_single_vector(self):
        got = central_angle_to_target(np.array([2.0, 0.0, 0.0]))
        assert got == pytest.approx(0.0)
