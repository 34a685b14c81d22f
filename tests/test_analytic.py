import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, chisquare, kstest

import constelsim
import constelsim.analytic as an
from constelsim.analytic import SystemConfig
from constelsim.channel import FlatTopPattern, sr_sf
from constelsim.config import build_system_config, default_config, load_settings
from constelsim.constellation import (
    LeoShellConfig,
    MeoShellConfig,
    central_angle_to_target,
    derive_rng,
    sample_bpp,
    sample_bpp_cap,
    sample_dsbpp,
)
from constelsim.geom import EARTH_RADIUS_KM
from test_geom import max_detect_distance, max_orbit_central_angle

CFG = default_config()


def config_with(**settings_overrides) -> SystemConfig:
    return build_system_config(load_settings(overrides=settings_overrides))


def values(cfg, metric, system, k_max):
    """``metric`` of one system for K = 1..k_max."""
    return an.evaluate(cfg, metric, (system,), k_max)[system]


class KeptUniforms:
    """A generator that keeps the last block of uniforms drawn from ``rng``."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, size=None):
        self.last = self._rng.random(size)
        return self.last

    def __getattr__(self, name):
        return getattr(self._rng, name)


def shell_cosines(rng, batch):
    """Cosines of the central angles to the target of ``batch`` whole
    baseline LEO shells, shape ``(batch, n_sats)``, unsorted, from the
    uniforms ``sample_bpp_cap`` draws for a cap of angle pi (Binomial(N, 1)
    = N points, each with cosine 1 - 2u), without building positions."""
    kept = KeptUniforms(rng)
    counts, _ = sample_bpp_cap(CFG.leo, kept, math.pi, batch)
    assert np.all(counts == CFG.leo.n_sats)
    return 1.0 - 2.0 * kept.last[0]


def with_leo_threshold(cfg, gamma):
    return replace(cfg, leo_link=replace(cfg.leo_link, sinr_threshold=gamma))


def with_meo_threshold(cfg, gamma):
    return replace(cfg, meo_link=replace(cfg.meo_link, sinr_threshold=gamma))


class TestLeoAvailability:
    def test_single_satellite(self):
        cfg = config_with(**{"leo.n_sats": "1"})
        p = 0.5 * (1 - math.cos(cfg.leo_theta_max))
        assert values(cfg, "availability", "leo", 1)[0] == pytest.approx(p, rel=1e-12)

    def test_beyond_population(self):
        assert values(CFG, "availability", "leo", CFG.leo.n_sats + 1)[-1] == 0.0

    def test_baseline_matches_simulation(self):
        # Counting oracle over full constellation draws, whole shells in
        # batches: a cap of angle pi holds Binomial(N, 1) = N satellites.
        rng = derive_rng(31)
        cos_max = math.cos(CFG.leo_theta_max)
        n_draws, batch = 20_000, 250
        hits = sum(
            int(np.count_nonzero((shell_cosines(rng, batch) >= cos_max).sum(axis=1) >= 3))
            for _ in range(n_draws // batch)
        )
        want = values(CFG, "availability", "leo", 3)[2]
        assert want == pytest.approx(0.3706, abs=5e-4)
        se = math.sqrt(want * (1 - want) / n_draws)
        assert abs(hits / n_draws - want) < 3 * se

    def test_monotone_in_k_and_population(self):
        levels = values(CFG, "availability", "leo", 7)
        assert np.all(np.diff(levels) <= 1e-15)
        sizes = [100, 500, 1000, 2000, 4000]
        grown = [values(config_with(**{"leo.n_sats": str(n)}), "availability", "leo", 4)[3] for n in sizes]
        assert all(b >= a - 1e-15 for a, b in zip(grown, grown[1:]))


def meo_exact_count_tail(cfg, k_min):
    """Independent oracle: exact count law of the orbit-based layer.

    Conditions on each orbit's attitude (per-orbit count is binomial in the
    visible arc fraction), integrates the attitude out, and convolves the
    orbits.
    """
    theta_max = cfg.meo_theta_max
    c0 = math.cos(theta_max)
    n_m = cfg.meo.sats_per_orbit

    def arc_fraction(u):
        s = math.sqrt(1 - u * u)
        return 0.0 if s <= c0 else math.acos(c0 / s) / math.pi

    edge = math.sqrt(1 - c0 * c0)
    pmf = np.array([
        quad(lambda u: binom.pmf(j, n_m, arc_fraction(u)) * 0.5, -1, 1,
             points=[-edge, edge], limit=400)[0]
        for j in range(n_m + 1)
    ])
    total = np.array([1.0])
    for _ in range(cfg.meo.n_orbits):
        total = np.convolve(total, pmf)
    return float(total[k_min:].sum())


class TestMeoAvailability:
    def test_single_satellite_value(self):
        p1 = an.meo_single_availability(CFG)
        assert p1 == pytest.approx(0.5 * (1 - math.cos(CFG.meo_theta_max)), abs=1e-9)
        assert p1 == pytest.approx(0.37920442910773194, abs=1e-9)

    def test_single_satellite_simulation(self):
        cfg = config_with(**{"meo.n_orbits": "1", "meo.sats_per_orbit": "1"})
        rng = derive_rng(17)
        n_draws, chunk = 150_000, 10_000
        hits = sum(
            int(np.count_nonzero(central_angle_to_target(sample_dsbpp(cfg.meo, rng, size=chunk)) <= cfg.meo_theta_max))
            for _ in range(n_draws // chunk)
        )
        p1 = an.meo_single_availability(cfg)
        se = math.sqrt(p1 * (1 - p1) / n_draws)
        assert abs(hits / n_draws - p1) < 3 * se

    def test_never_exceeds_cap_mass(self):
        p1 = an.meo_single_availability(CFG)
        assert p1 <= 0.5 * (1 - math.cos(CFG.meo_theta_max)) + 1e-6

    @pytest.mark.parametrize("beam", ["25 deg", "5 deg"])
    def test_single_satellite_matches_tight_quadrature(self, beam):
        # Adaptive QAGS of the visible orbit arc over the inclination window,
        # square-root edges and all; the closed form is the cap fraction.
        cfg = config_with(**{"meo.beam_angle": beam})
        rq, re = cfg.meo.radius_km, EARTH_RADIUS_KM
        d_max = max_detect_distance(rq, cfg.meo_theta_max)
        half_window = math.acos((re * re + rq * rq - d_max * d_max) / (2 * re * rq))
        want, _ = quad(lambda t: max_orbit_central_angle(rq, t, d_max) * math.sin(t) / (4 * math.pi),
                       math.pi / 2 - half_window, math.pi / 2 + half_window,
                       epsabs=1e-14, epsrel=1e-13, limit=400)
        assert an.meo_single_availability(cfg) == pytest.approx(want, abs=1e-12)

    def test_tiny_beam_empty_interval(self):
        cfg = config_with(**{"meo.beam_angle": "1e-5 rad"})
        assert an.meo_single_availability(cfg) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("beam", ["1e-5 rad", "1e-8 rad"])
    def test_tiny_beam_keeps_relative_accuracy(self, beam):
        # Leading terms of the cap fraction sin^2(theta / 2); 1 - cos(theta)
        # cancels to nothing here.
        cfg = config_with(**{"meo.beam_angle": beam})
        theta = cfg.meo_theta_max
        want = theta**2 / 4 * (1 - theta**2 / 12)
        assert an.meo_single_availability(cfg) == pytest.approx(want, rel=1e-13, abs=0)

    def test_degenerate_counts(self):
        cfg = config_with(**{"meo.n_orbits": "1", "meo.sats_per_orbit": "1"})
        got = values(cfg, "availability", "meo", 1)[0]
        assert got == pytest.approx(an.meo_single_availability(cfg), rel=1e-10)

    def test_is_binomial_tail(self):
        p1 = an.meo_single_availability(CFG)
        want = binom.sf(np.arange(6), 12, p1)
        np.testing.assert_allclose(values(CFG, "availability", "meo", 6), want, rtol=1e-12, atol=1e-12)

    def test_orbit_correlation_gap_is_as_documented(self):
        # the closed form ignores that same-orbit satellites share their
        # orbit's visibility arc; against the exact count law the error at
        # the baseline configuration peaks at K = 3
        meo = values(CFG, "availability", "meo", 4)
        gap_k3 = meo[2] - meo_exact_count_tail(CFG, 3)
        gap_k4 = meo[3] - meo_exact_count_tail(CFG, 4)
        assert gap_k3 == pytest.approx(0.0202, abs=0.002)
        assert gap_k4 == pytest.approx(0.0134, abs=0.002)

    def test_exact_for_one_satellite_per_orbit(self):
        # with one satellite per orbit there is nothing to correlate
        cfg = config_with(**{"meo.n_orbits": "12", "meo.sats_per_orbit": "1"})
        meo = values(cfg, "availability", "meo", 6)
        for k in (1, 3, 6):
            assert meo[k - 1] == pytest.approx(meo_exact_count_tail(cfg, k), abs=1e-7)


class TestNMeoMax:
    def test_baseline(self):
        # direct tail oracle: smallest count with exceedance below 1%
        p1 = an.meo_single_availability(CFG)
        k = 0
        while float(binom.sf(k, 12, p1)) > 0.01:
            k += 1
        assert k == 9
        assert an.n_meo_max(CFG) == 9

    def test_no_availability(self):
        cfg = config_with(**{"meo.beam_angle": "1e-5 rad"})
        assert an.n_meo_max(cfg) == 0

    def test_loose_epsilon(self):
        cfg = replace(CFG, epsilon=0.999)
        assert an.n_meo_max(cfg) == 0


class TestBinomialLaws:
    @pytest.mark.parametrize("n", [0, 1, 3, 12, 2000])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.37, 1.0])
    def test_match_scipy_stats(self, n, p):
        law = an.binom_law(n, p)
        # scipy's pmf is exp of log-gamma differences of size up to
        # log(2000!) ~ 1.3e4, each good to a few ulp: ~1e-11 relative.
        np.testing.assert_allclose(law, binom.pmf(np.arange(n + 1), n, p), rtol=1e-10, atol=1e-300)
        # The MEO value of a composition is the law's tail P(N >= K), here
        # for K = 1..n + 2.
        tail = an.compose(np.zeros(n + 2), law, 0)["meo"]
        np.testing.assert_allclose(tail, binom.sf(np.arange(n + 2), n, p), rtol=1e-13, atol=1e-16)


class TestHybridAvailability:
    def test_reduces_to_leo(self):
        got = an.evaluate(config_with(**{"meo.n_orbits": "0"}), "availability", an.SYSTEMS, 6)
        np.testing.assert_allclose(got["hybrid"], got["leo"], rtol=1e-12, atol=1e-12)

    def test_reduces_to_meo_within_epsilon(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        got = an.evaluate(cfg, "availability", an.SYSTEMS, 6)
        assert np.all(got["meo"] - cfg.epsilon <= got["hybrid"])
        assert np.all(got["hybrid"] <= got["meo"] + 1e-12)

    def test_dominates_both_layers(self):
        got = an.evaluate(CFG, "availability", an.SYSTEMS, 6)
        assert np.all(got["hybrid"] >= got["leo"] - CFG.epsilon)
        assert np.all(got["hybrid"] >= got["meo"] - CFG.epsilon)

    def test_monotone_in_k(self):
        assert np.all(np.diff(values(CFG, "availability", "hybrid", 7)) <= 1e-12)

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            an.evaluate(CFG, "availability", ("hybrid",), 0)


def sum_form_contact_pdf(n, k, theta):
    """The rank density assembled term by term from the occupancy CDF
    derivative, kept numerically stable through binomial pmf factors;
    elementwise over an array of angles."""
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    p = 0.5 * (1 - c)
    j = np.arange(k).reshape((k,) + (1,) * theta.ndim)
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket = (n - j) / (1 + c) - j / (1 - c)
        total = np.sin(theta) * np.sum(binom.pmf(j, n, p) * bracket, axis=0)
    at_zero = 0.0 if k > 1 else n * 0.5 * np.sin(theta) * (0.5 * (1 + c)) ** (n - 1)
    return np.where(p > 0.0, total, at_zero)


def rank_pdf(cfg, k, theta):
    """Rank-k contact-angle density of the LEO shell of ``cfg`` at one angle."""
    return float(an.contact_angle_pdfs(cfg.leo.n_sats, cfg.leo_theta_max, k, theta)[k - 1])


class TestContactAngles:
    def test_matches_sum_form(self):
        n = CFG.leo.n_sats
        grid = np.linspace(1e-4, CFG.leo_theta_max, 40)
        got = an.contact_angle_pdfs(n, CFG.leo_theta_max, 6, grid)
        assert got.shape == (6, grid.size)
        for k in (1, 2, 4, 6):
            for theta, value in zip(grid, got[k - 1]):
                assert value == pytest.approx(sum_form_contact_pdf(n, k, float(theta)), rel=1e-9, abs=1e-12)

    def test_every_rank_of_a_small_shell(self):
        # Over the whole sphere every rank of 50 satellites carries mass
        # somewhere, so each cumulative log-coefficient up to C(49, 49) is
        # checked where its rank matters; at each angle the ranks sum to
        # the density of one of the n satellites, n sin(theta) / 2.
        n = 50
        grid = np.linspace(1e-3, math.pi - 1e-3, 60)
        got = an.contact_angle_pdfs(n, math.pi, n, grid)
        for k in range(1, n + 1):
            want = sum_form_contact_pdf(n, k, grid)
            np.testing.assert_allclose(got[k - 1], want, rtol=1e-9, atol=1e-12)
            assert got[k - 1].max() > 0.01
        np.testing.assert_allclose(got.sum(axis=0), n * 0.5 * np.sin(grid), rtol=1e-13)

    def test_rank_one_closed_form(self):
        n = CFG.leo.n_sats
        for theta in (0.001, 0.01, 0.05):
            want = n * 0.5 * math.sin(theta) * (0.5 * (1 + math.cos(theta))) ** (n - 1)
            assert rank_pdf(CFG, 1, theta) == pytest.approx(want, rel=1e-10)

    def test_zero_angle(self):
        theta_max = CFG.leo_theta_max
        got = an.contact_angle_pdfs(CFG.leo.n_sats, theta_max, 3, np.array([-0.01, 0.0, theta_max * 1.01]))
        np.testing.assert_array_equal(got, 0.0)

    def test_mass_equals_availability(self):
        # defective density: total mass is the k-availability tail
        availability = values(CFG, "availability", "leo", 5)
        for k in (1, 2, 5):
            mass, _ = quad(lambda t: rank_pdf(CFG, k, t), 0, CFG.leo_theta_max,
                           epsabs=1e-12, epsrel=1e-10, limit=200)
            assert mass == pytest.approx(availability[k - 1], abs=1e-6)
        closed = 1 - (0.5 * (1 + math.cos(CFG.leo_theta_max))) ** CFG.leo.n_sats
        mass1, _ = quad(lambda t: rank_pdf(CFG, 1, t), 0, CFG.leo_theta_max,
                        epsabs=1e-12, epsrel=1e-10, limit=200)
        assert mass1 == pytest.approx(closed, abs=1e-6)

    def test_histogram_of_ranked_angles(self):
        # small shell so the draws are cheap; compare binned counts of the
        # k-th nearest angle against the density by chi-square
        cfg = config_with(**{"leo.n_sats": "50", "leo.beam_angle": "170 deg"})
        theta_max = cfg.leo_theta_max
        rng = derive_rng(23)
        n_draws = 20_000
        ranked = {1: [], 2: [], 3: []}
        for _ in range(n_draws):
            angles = np.sort(central_angle_to_target(sample_bpp(cfg.leo, rng)))
            for k in ranked:
                if angles[k - 1] <= theta_max:
                    ranked[k].append(angles[k - 1])
        edges = np.linspace(0, theta_max, 13)
        for k, samples in ranked.items():
            samples = np.asarray(samples)
            observed, _ = np.histogram(samples, bins=edges)
            probs = np.array([
                quad(lambda t: rank_pdf(cfg, k, t), a, b, limit=100)[0]
                for a, b in zip(edges[:-1], edges[1:])
            ])
            expected = probs / probs.sum() * len(samples)
            keep = expected > 10
            assert chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum()).pvalue > 0.01

    def test_meo_contact_angle_sampling(self):
        # one satellite's angle, conditioned on detectability, follows the
        # renormalized density
        cfg = config_with(**{"meo.n_orbits": "1", "meo.sats_per_orbit": "1"})
        theta_max = cfg.meo_theta_max
        rng = derive_rng(29)
        angles = central_angle_to_target(sample_dsbpp(cfg.meo, rng, size=40_000))[:, 0]
        samples = angles[angles <= theta_max]
        cap = 1 - math.cos(theta_max)

        def conditional_cdf(t):
            return np.clip((1 - np.cos(t)) / cap, 0.0, 1.0)

        assert kstest(samples, conditional_cdf).pvalue > 0.01

    def test_rank_bounds(self):
        n = CFG.leo.n_sats
        with pytest.raises(ValueError):
            an.contact_angle_pdfs(n, CFG.leo_theta_max, 0, 0.01)
        with pytest.raises(ValueError):
            an.contact_angle_pdfs(n, CFG.leo_theta_max, n + 1, 0.01)


class TestLeoInterferenceCap:
    def test_no_satellites(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        assert an.leo_interference_cap(cfg.leo, cfg.rx_pattern)[1] == 1.0

    def test_baseline_values(self):
        theta_d, p_zero = an.leo_interference_cap(CFG.leo, CFG.rx_pattern)
        assert theta_d == pytest.approx(0.059646355, abs=1e-8)
        assert p_zero == pytest.approx(0.168788705, abs=1e-8)

    def test_empty_cap_fraction_by_simulation(self):
        # fraction of draws leaving a fixed cap of the interference radius
        # empty; the fixed direction (the target's, as the shell is
        # isotropic) plays the serving satellite. Whole shells are drawn in
        # batches as caps of angle pi.
        theta_d, p_zero = an.leo_interference_cap(CFG.leo, CFG.rx_pattern)
        rng = derive_rng(41)
        cos_cut = math.cos(theta_d)
        n_draws, batch = 20_000, 250
        empty = sum(int(np.count_nonzero(shell_cosines(rng, batch).max(axis=1) < cos_cut))
                    for _ in range(n_draws // batch))
        se = math.sqrt(p_zero * (1 - p_zero) / n_draws)
        assert abs(empty / n_draws - p_zero) < 3 * se


class TestLeoLocalizability:
    def test_vanishing_threshold_gives_availability_product(self):
        cfg = with_leo_threshold(CFG, 1e-30)
        probs = an.leo_rank_coverage_probs(cfg, 4)
        np.testing.assert_allclose(probs, values(CFG, "availability", "leo", 4), rtol=0, atol=1e-6)

    def test_huge_threshold_kills_coverage(self):
        cfg = with_leo_threshold(CFG, 1e12)
        assert values(cfg, "localizability", "leo", 2)[1] == pytest.approx(0.0, abs=1e-12)
        # Each rank on its own, not just their product: a survival taken as
        # 1 - cdf floors near 4e-13 here.
        assert np.all(np.abs(an.leo_rank_coverage_probs(cfg, 2)) <= 1e-15)

    def test_rank_probs_decrease(self):
        probs = an.leo_rank_coverage_probs(CFG, 6)
        assert np.all(np.diff(probs) < 0)

    def test_rank_coverage_below_availability(self):
        probs = an.leo_rank_coverage_probs(CFG, 6)
        assert np.all(probs <= values(CFG, "availability", "leo", 6) + 1e-9)

    # leo_rank_coverage_probs(cfg, 3) at rtol 1e-10 (absolute 1e-14) from
    # the scalar nested quad/quad_vec integration this module used before.
    PREVIOUS = {
        "gaussian": [0.5817463647513086, 0.41811399336836075, 0.24178970183986684],
        "flattop": [0.7146676925835307, 0.5143151569465401, 0.29765364524659743],
        "sinc": [0.8463618329366565, 0.6090647568746163, 0.3524801485458057],
        "cosine": [0.8494329972234697, 0.6113087688551061, 0.35379060160163656],
    }

    @pytest.mark.parametrize("pattern", sorted(PREVIOUS))
    def test_matches_previous_integration(self, pattern):
        cfg = config_with(**{"rx.pattern": pattern})
        np.testing.assert_allclose(an.leo_rank_coverage_probs(cfg, 3), self.PREVIOUS[pattern], rtol=0, atol=1e-10)

    def test_strong_line_of_sight_stays_small(self):
        # 848 series terms: the interferer's count law has one row per term,
        # and memory must stay at that times the nodes (a fading rule over a
        # survival grid peaked at 735 MB here).
        # The child reports its own peak in KiB. Linux's VmHWM starts afresh
        # at exec, while ru_maxrss inherits this process's peak across the
        # vfork that starts the child, so ru_maxrss (bytes on macOS) is only
        # the fallback off Linux.
        code = (
            "import resource, sys\n"
            "from constelsim import analytic as an\n"
            "from constelsim.config import build_system_config, load_settings\n"
            "cfg = build_system_config(load_settings(overrides="
            "{'fading.m': '1', 'fading.b0': '0.05', 'fading.omega': '3'}))\n"
            "an.evaluate(cfg, 'localizability', an.SYSTEMS, 8)\n"
            "try:\n"
            "    with open('/proc/self/status') as status:\n"
            "        print(next(int(line.split()[1]) for line in status if line.startswith('VmHWM:')))\n"
            "except OSError:\n"
            "    kib = 1 / 1024 if sys.platform == 'darwin' else 1\n"
            "    print(int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib))\n"
        )
        src = str(Path(constelsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        assert int(proc.stdout) < 200 * 1024

    def test_no_nested_quadrature(self, monkeypatch):
        # One integral for the interferer's count law, one over the serving
        # angle, whatever the number of serving-angle rounds.
        labels = []
        original = an.integrate_adaptive

        def counting(func, a, b, rtol, label):
            labels.append(label)
            return original(func, a, b, rtol, label)

        monkeypatch.setattr(an, "integrate_adaptive", counting)
        an.leo_rank_coverage_probs(config_with(**{"leo.altitude_km": "2000"}), 6)
        assert len(labels) == 2

    def test_trivial_levels(self):
        assert values(config_with(**{"leo.n_sats": "0"}), "localizability", "leo", 1)[0] == 0.0


class TestMeoLocalizability:
    def test_vanishing_threshold_gives_availability(self):
        cfg = with_meo_threshold(CFG, 1e-30)
        want = values(CFG, "availability", "meo", 4)
        np.testing.assert_allclose(values(cfg, "localizability", "meo", 4), want, rtol=0, atol=1e-7)

    def test_huge_threshold(self):
        cfg = with_meo_threshold(CFG, 1e12)
        assert values(cfg, "localizability", "meo", 1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_below_availability(self):
        p1c = an.meo_single_localizability(CFG)
        assert p1c <= an.meo_single_availability(CFG)
        assert p1c == pytest.approx(0.3700, abs=2e-3)

    @pytest.mark.parametrize("overrides", [
        {},
        {"meo.beam_angle": "5 deg", "meo.sinr_threshold": "0.5", "fading.m": "1"},
    ])
    def test_single_matches_tight_quadrature(self, overrides):
        # The one-satellite pass integral against QUADPACK over the serving
        # angle: density sin(theta) / 2 times P(W > x(theta)), with x from
        # the slant range by the law of cosines.
        cfg = config_with(**overrides)
        link, rq, re = cfg.meo_link, cfg.meo.radius_km, EARTH_RADIUS_KM

        def integrand(theta):
            d_sq_m2 = (rq * rq + re * re - 2.0 * rq * re * math.cos(theta)) * 1e6
            x = link.sinr_threshold * link.noise_power_w * d_sq_m2 / link.unit_range_power_w
            return 0.5 * math.sin(theta) * float(sr_sf(cfg.meo_fading, x))

        want, _ = quad(integrand, 0.0, cfg.meo_theta_max, epsabs=1e-14, epsrel=1e-13, limit=400)
        assert an.meo_single_localizability(cfg, rtol=1e-10) == pytest.approx(want, rel=0, abs=1e-10)


class TestHybridLocalizability:
    def test_reduces_to_leo(self):
        got = an.evaluate(config_with(**{"meo.n_orbits": "0"}), "localizability", an.SYSTEMS, 3)
        assert got["hybrid"][2] == pytest.approx(got["leo"][2], rel=1e-9)

    def test_reduces_to_meo_within_epsilon(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        got = an.evaluate(cfg, "localizability", an.SYSTEMS, 4)
        assert np.all(got["meo"] - cfg.epsilon <= got["hybrid"])
        assert np.all(got["hybrid"] <= got["meo"] + 1e-9)

    def test_below_hybrid_availability(self):
        localizability = values(CFG, "localizability", "hybrid", 6)
        assert np.all(localizability <= values(CFG, "availability", "hybrid", 6) + 1e-9)

    def test_monotone_in_k(self):
        assert np.all(np.diff(values(CFG, "localizability", "hybrid", 6)) <= 1e-12)


class TestIntegrateAdaptive:
    COMPONENTS = (
        lambda x: np.exp(-x) * np.cos(3.0 * x),
        np.sqrt,  # square-root edge at 0
        lambda x: 1.0 / (1e-2 + (x - 0.3) ** 2),  # sharp peak inside
    )

    def test_vector_integrand_matches_quad(self):
        got = an.integrate_adaptive(lambda x: np.array([f(x) for f in self.COMPONENTS]), 0.0, 2.0,
                                    1e-12, "vector")
        assert got.shape == (len(self.COMPONENTS),)
        for f, value in zip(self.COMPONENTS, got):
            want, _ = quad(f, 0.0, 2.0, epsabs=1e-14, epsrel=1e-13, limit=400)
            assert value == pytest.approx(want, abs=1e-12)
        scalar = an.integrate_adaptive(np.sin, 0.0, math.pi, 1e-8, "sine")
        assert isinstance(scalar, float) and scalar == pytest.approx(2.0, abs=1e-12)

    def test_failures_raise_with_label(self):
        # No panel count reaches a relative 1e-20 on a square-root edge.
        with pytest.raises(an.QuadratureError, match=f"square root.*{an.MAX_PANELS} panels") as info:
            an.integrate_adaptive(np.sqrt, 0.0, 1.0, 1e-20, "square root")
        assert info.value.label == "square root"
        with pytest.raises(an.QuadratureError, match="non-finite"):
            an.integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-8, "nan")


class TestSystemConfigValidation:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            replace(CFG, epsilon=0.0)
        with pytest.raises(ValueError):
            replace(CFG, epsilon=1.0)


class TestHybridConvolution:
    # Hybrid outputs of the Monte Carlo composition that compose replaced, for
    # LEO rank probabilities 0.9, 0.8, ..., 0.4: a truncated binomial MEO
    # law, a MEO pmf shorter than the cutoff, no MEO layer, and a cutoff
    # below the pmf's end.
    RANKS = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    CASES = [
        (binom.pmf(np.arange(13), 12, 0.37), 9,
         [0.998208364582388, 0.9947496636708102, 0.9800469552101768,
          0.9398675398628596, 0.8601190631999336, 0.7369548370595039]),
        (np.array([0.1, 0.2, 0.3, 0.4]), 6,
         [0.99, 0.952, 0.8644000000000001, 0.7070400000000001, 0.5148, 0.328608]),
        (np.array([1.0]), 0,
         [0.9, 0.7200000000000001, 0.504, 0.3024, 0.1512, 0.060480000000000006]),
        (np.array([0.25, 0.25, 0.5]), 1,
         [0.475, 0.405, 0.30600000000000005, 0.2016, 0.1134, 0.05292]),
    ]

    @pytest.mark.parametrize("meo_pmf, cutoff, want", CASES)
    def test_matches_previous_composition(self, meo_pmf, cutoff, want):
        got = an.compose(np.cumprod(self.RANKS), meo_pmf, cutoff)["hybrid"]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("law_size", [4, 13])
    @pytest.mark.parametrize("cutoff", [0, 2, 12, 20])
    def test_stacked_equals_row_by_row(self, law_size, cutoff):
        # The Monte Carlo composes its whole run and every batch in one
        # call; each row must be exactly the one-case composition.
        rng = np.random.default_rng(law_size + cutoff)
        leo = np.cumprod(rng.random((7, 6)), axis=-1)
        laws = rng.dirichlet(np.ones(law_size), size=7)
        stacked = an.compose(leo, laws, cutoff)
        for i in range(len(leo)):
            row = an.compose(leo[i], laws[i], cutoff)
            for system in an.SYSTEMS:
                assert np.array_equal(stacked[system][i], row[system]), (system, i)


# Each change to the baseline, with the quadrature tolerance and k_max of
# the evaluation, and the caches it must miss: (count law, LEO ranks, MEO).
CACHE_MISSES = {
    "pattern": ({"rx_pattern": FlatTopPattern(CFG.rx_pattern.phi_3db)}, 1e-8, 6, (1, 1, 0)),
    "leo fading": ({"leo_fading": replace(CFG.leo_fading, m=2.0)}, 1e-8, 6, (1, 1, 0)),
    "meo fading": ({"meo_fading": replace(CFG.meo_fading, m=2.0)}, 1e-8, 6, (0, 0, 1)),
    "leo threshold": ({"leo_link": replace(CFG.leo_link, sinr_threshold=5.0)}, 1e-8, 6, (1, 1, 0)),
    "meo threshold": ({"meo_link": replace(CFG.meo_link, sinr_threshold=0.05)}, 1e-8, 6, (0, 0, 1)),
    "rtol": ({}, 1e-9, 6, (1, 1, 1)),
    "k_max": ({}, 1e-8, 5, (0, 1, 0)),
}


class TestLayerCaches:
    @pytest.mark.parametrize("change", sorted(CACHE_MISSES))
    def test_changed_sub_config_misses(self, analytic_caches, change):
        fields, rtol, k_max, misses = CACHE_MISSES[change]
        an.evaluate(CFG, "localizability", an.SYSTEMS, 6)
        cfg = replace(CFG, **fields)
        before = [cache.cache_info().misses for cache in analytic_caches]
        got = an.evaluate(cfg, "localizability", an.SYSTEMS, k_max, rtol)
        assert tuple(cache.cache_info().misses - b for cache, b in zip(analytic_caches, before)) == misses
        for cache in analytic_caches:
            cache.cache_clear()
        want = an.evaluate(cfg, "localizability", an.SYSTEMS, k_max, rtol)
        for system in an.SYSTEMS:
            np.testing.assert_array_equal(got[system], want[system])

    def test_cached_ranks_are_read_only(self):
        probs = an.leo_rank_coverage_probs(CFG, 6)
        with pytest.raises(ValueError):
            probs[0] = 0.0


class TestEvaluate:
    @pytest.mark.parametrize("n_leo", ["2000", "3", "0"])
    @pytest.mark.parametrize("metric", an.METRICS)
    def test_matches_scalar_functions(self, metric, n_leo):
        # All systems and K at once agree with one system and K per call.
        cfg = config_with(**{"leo.n_sats": n_leo})
        got = an.evaluate(cfg, metric, an.SYSTEMS, 8)
        assert list(got) == list(an.SYSTEMS)
        for system in an.SYSTEMS:
            want = [values(cfg, metric, system, k)[k - 1] for k in range(1, 9)]
            np.testing.assert_allclose(got[system], want, rtol=0, atol=1e-12)

    def test_one_rank_coverage_pass(self, monkeypatch):
        calls = []
        original = an.leo_rank_coverage_probs

        def counting(config, k_max, rtol=1e-8):
            calls.append(k_max)
            return original(config, k_max, rtol)

        monkeypatch.setattr(an, "leo_rank_coverage_probs", counting)
        an.evaluate(CFG, "localizability", an.SYSTEMS, 6)
        assert calls == [6]
        an.evaluate(CFG, "localizability", ("hybrid",), 4)
        assert calls == [6, 4]
        an.evaluate(CFG, "localizability", ("meo",), 6)
        an.evaluate(CFG, "availability", an.SYSTEMS, 6)
        assert calls == [6, 4]

    def test_availability_runs_no_quadrature(self, monkeypatch):
        want = an.evaluate(CFG, "availability", an.SYSTEMS, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("availability ran a quadrature")

        monkeypatch.setattr(an, "integrate_adaptive", refuse)
        got = an.evaluate(CFG, "availability", an.SYSTEMS, 8)
        for system in an.SYSTEMS:
            np.testing.assert_array_equal(got[system], want[system])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            an.evaluate(CFG, "coverage", an.SYSTEMS, 6)
        with pytest.raises(ValueError):
            an.evaluate(CFG, "availability", ("geo",), 6)
        with pytest.raises(ValueError):
            an.evaluate(CFG, "availability", an.SYSTEMS, 0)
