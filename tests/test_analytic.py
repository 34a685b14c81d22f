import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, chisquare, kstest

import constelsim.analytic as an
from constelsim.analytic import QuadratureSpec, SystemConfig
from constelsim.channel import GaussianPattern, sr_cdf, sr_pdf, sr_sf
from constelsim.config import build_system_config, default_config, load_settings
from constelsim.constellation import (
    LeoShellConfig,
    MeoShellConfig,
    central_angle_to_target,
    derive_rng,
    sample_bpp,
    sample_dsbpp,
)
from constelsim.geom import max_detect_distance, max_orbit_central_angle

CFG = default_config()


def config_with(**settings_overrides) -> SystemConfig:
    return build_system_config(load_settings(overrides=settings_overrides))


def with_leo_threshold(cfg, gamma):
    return replace(cfg, leo_link=replace(cfg.leo_link, sinr_threshold=gamma))


def with_meo_threshold(cfg, gamma):
    return replace(cfg, meo_link=replace(cfg.meo_link, sinr_threshold=gamma))


class TestLeoAvailability:
    def test_zero_level(self):
        assert an.leo_availability(CFG, 0) == 1.0

    def test_single_satellite(self):
        cfg = config_with(**{"leo.n_sats": "1"})
        p = 0.5 * (1 - math.cos(cfg.leo_theta_max))
        assert an.leo_availability(cfg, 1) == pytest.approx(p, rel=1e-12)

    def test_beyond_population(self):
        assert an.leo_availability(CFG, CFG.leo.n_sats + 1) == 0.0

    def test_baseline_matches_simulation(self):
        # counting oracle over full constellation draws
        rng = derive_rng(31)
        theta_max = CFG.leo_theta_max
        n_draws = 20_000
        hits = 0
        for _ in range(n_draws):
            angles = central_angle_to_target(sample_bpp(CFG.leo, rng))
            hits += int((angles <= theta_max).sum() >= 3)
        want = an.leo_availability(CFG, 3)
        assert want == pytest.approx(0.3706, abs=5e-4)
        se = math.sqrt(want * (1 - want) / n_draws)
        assert abs(hits / n_draws - want) < 3 * se

    def test_monotone_in_k_and_population(self):
        values = [an.leo_availability(CFG, k) for k in range(8)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        sizes = [100, 500, 1000, 2000, 4000]
        grown = [an.leo_availability(config_with(**{"leo.n_sats": str(n)}), 4) for n in sizes]
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
        geom = cfg.meo_geom
        d_max = max_detect_distance(geom, cfg.meo_theta_max)
        rq, re = geom.shell_radius_km, geom.earth_radius_km
        half_window = math.acos((re * re + rq * rq - d_max * d_max) / (2 * re * rq))
        want, _ = quad(lambda t: max_orbit_central_angle(geom, t, d_max) * math.sin(t) / (4 * math.pi),
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
        assert an.meo_availability(CFG, 0) == 1.0
        cfg = config_with(**{"meo.n_orbits": "1", "meo.sats_per_orbit": "1"})
        assert an.meo_availability(cfg, 1) == pytest.approx(an.meo_single_availability(cfg), rel=1e-10)

    def test_is_binomial_tail(self):
        p1 = an.meo_single_availability(CFG)
        for k in range(1, 7):
            assert an.meo_availability(CFG, k) == pytest.approx(float(binom.sf(k - 1, 12, p1)), rel=1e-12)

    def test_orbit_correlation_gap_is_as_documented(self):
        # the closed form ignores that same-orbit satellites share their
        # orbit's visibility arc; against the exact count law the error at
        # the baseline configuration peaks at K = 3
        gap_k3 = an.meo_availability(CFG, 3) - meo_exact_count_tail(CFG, 3)
        gap_k4 = an.meo_availability(CFG, 4) - meo_exact_count_tail(CFG, 4)
        assert gap_k3 == pytest.approx(0.0202, abs=0.002)
        assert gap_k4 == pytest.approx(0.0134, abs=0.002)

    def test_exact_for_one_satellite_per_orbit(self):
        # with one satellite per orbit there is nothing to correlate
        cfg = config_with(**{"meo.n_orbits": "12", "meo.sats_per_orbit": "1"})
        for k in (1, 3, 6):
            assert an.meo_availability(cfg, k) == pytest.approx(meo_exact_count_tail(cfg, k), abs=1e-7)


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
        k = np.arange(-1, n + 3)
        np.testing.assert_allclose(an.binom_sf(k, n, p), binom.sf(k, n, p), rtol=1e-13, atol=1e-16)
        # The pmf is exp of log-gamma differences of size up to
        # log(2000!) ~ 1.3e4, each good to a few ulp: ~1e-11 relative.
        np.testing.assert_allclose(an.binom_pmf(k, n, p), binom.pmf(k, n, p), rtol=1e-10, atol=1e-300)


class TestHybridAvailability:
    def test_reduces_to_leo(self):
        cfg = config_with(**{"meo.n_orbits": "0"})
        for k in (1, 3, 6):
            assert an.hybrid_availability(cfg, k) == pytest.approx(an.leo_availability(cfg, k), rel=1e-12)

    def test_reduces_to_meo_within_epsilon(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        for k in (1, 3, 6):
            hybrid = an.hybrid_availability(cfg, k)
            meo = an.meo_availability(cfg, k)
            assert meo - cfg.epsilon <= hybrid <= meo + 1e-12

    def test_dominates_both_layers(self):
        for k in (1, 3, 6):
            hybrid = an.hybrid_availability(CFG, k)
            assert hybrid >= an.leo_availability(CFG, k) - CFG.epsilon
            assert hybrid >= an.meo_availability(CFG, k) - CFG.epsilon

    def test_monotone_in_k(self):
        values = [an.hybrid_availability(CFG, k) for k in range(1, 8)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_zero_level(self):
        with pytest.raises(ValueError):
            an.hybrid_availability(CFG, 0)


def sum_form_contact_pdf(n, k, theta):
    """The rank density assembled term by term from the occupancy CDF
    derivative, kept numerically stable through binomial pmf factors."""
    c = math.cos(theta)
    p = 0.5 * (1 - c)
    if p <= 0.0:
        return 0.0 if k > 1 else n * 0.5 * math.sin(theta) * (0.5 * (1 + c)) ** (n - 1)
    total = 0.0
    for j in range(k):
        bracket = (n - j) / (1 + c) - j / (1 - c)
        total += float(binom.pmf(j, n, p)) * bracket
    return math.sin(theta) * total


class TestContactAngles:
    def test_matches_sum_form(self):
        n = CFG.leo.n_sats
        grid = np.linspace(1e-4, CFG.leo_theta_max, 40)
        for k in (1, 2, 4, 6):
            for theta in grid:
                want = sum_form_contact_pdf(n, k, float(theta))
                got = an.leo_contact_angle_pdf(CFG, k, float(theta))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_rank_one_closed_form(self):
        n = CFG.leo.n_sats
        for theta in (0.001, 0.01, 0.05):
            want = n * 0.5 * math.sin(theta) * (0.5 * (1 + math.cos(theta))) ** (n - 1)
            assert an.leo_contact_angle_pdf(CFG, 1, theta) == pytest.approx(want, rel=1e-10)

    def test_zero_angle(self):
        assert an.leo_contact_angle_pdf(CFG, 1, 0.0) == 0.0
        assert an.leo_contact_angle_pdf(CFG, 3, 0.0) == 0.0

    def test_mass_equals_availability(self):
        # defective density: total mass is the k-availability tail
        for k in (1, 2, 5):
            mass, _ = quad(lambda t: an.leo_contact_angle_pdf(CFG, k, t), 0, CFG.leo_theta_max,
                           epsabs=1e-12, epsrel=1e-10, limit=200)
            assert mass == pytest.approx(an.leo_availability(CFG, k), abs=1e-6)
        closed = 1 - (0.5 * (1 + math.cos(CFG.leo_theta_max))) ** CFG.leo.n_sats
        mass1, _ = quad(lambda t: an.leo_contact_angle_pdf(CFG, 1, t), 0, CFG.leo_theta_max,
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
                quad(lambda t: an.leo_contact_angle_pdf(cfg, k, t), a, b, limit=100)[0]
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
        samples = []
        for _ in range(40_000):
            angle = float(central_angle_to_target(sample_dsbpp(cfg.meo, rng))[0])
            if angle <= theta_max:
                samples.append(angle)
        cap = 1 - math.cos(theta_max)

        def conditional_cdf(t):
            return np.clip((1 - np.cos(t)) / cap, 0.0, 1.0)

        assert kstest(np.asarray(samples), conditional_cdf).pvalue > 0.01

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            an.leo_contact_angle_pdf(CFG, 0, 0.01)
        with pytest.raises(ValueError):
            an.leo_contact_angle_pdf(CFG, CFG.leo.n_sats + 1, 0.01)


class TestLeoInterferenceCap:
    def test_no_satellites(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        assert an.leo_interference_cap(cfg)[1] == 1.0

    def test_baseline_values(self):
        theta_d, p_zero = an.leo_interference_cap(CFG)
        assert theta_d == pytest.approx(0.059646355, abs=1e-8)
        assert p_zero == pytest.approx(0.168788705, abs=1e-8)

    def test_empty_cap_fraction_by_simulation(self):
        # fraction of draws leaving a fixed cap of the interference radius
        # empty; the fixed direction plays the serving satellite
        theta_d, p_zero = an.leo_interference_cap(CFG)
        rng = derive_rng(41)
        cos_cut = math.cos(theta_d)
        n_draws = 20_000
        empty = 0
        for _ in range(n_draws):
            pts = sample_bpp(CFG.leo, rng)
            cos_sep = pts[:, 2] / CFG.leo.radius_km
            empty += int(np.max(cos_sep) < cos_cut)
        se = math.sqrt(p_zero * (1 - p_zero) / n_draws)
        assert abs(empty / n_draws - p_zero) < 3 * se


class TestFadingRule:
    def test_matches_adaptive_quadrature(self):
        fading = CFG.leo_fading
        nodes, weights = an._fading_rule(fading)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-9)
        w_hi = an._fading_upper_bound(fading)
        for x, c in ((0.0, 0.5), (0.3, 2.0), (1.0, 10.0), (2.5, 0.01)):
            want, _ = quad(lambda w: sr_pdf(fading, w) * (1 - sr_cdf(fading, x + c * w)),
                           0, w_hi, epsabs=1e-13, epsrel=1e-11, limit=300)
            got = float(np.dot(weights, 1 - sr_cdf(fading, x + c * nodes)))
            assert got == pytest.approx(want, abs=1e-9)


class TestLeoLocalizability:
    def test_vanishing_threshold_gives_availability_product(self):
        cfg = with_leo_threshold(CFG, 1e-30)
        probs = an.leo_rank_coverage_probs(cfg, 4)
        for k in range(1, 5):
            assert probs[k - 1] == pytest.approx(an.leo_availability(CFG, k), abs=1e-6)

    def test_huge_threshold_kills_coverage(self):
        cfg = with_leo_threshold(CFG, 1e12)
        assert an.leo_localizability(cfg, 2) == pytest.approx(0.0, abs=1e-12)
        # Each rank on its own, not just their product: a survival taken as
        # 1 - cdf floors near 4e-13 here.
        assert np.all(np.abs(an.leo_rank_coverage_probs(cfg, 2)) <= 1e-15)

    def test_rank_probs_decrease(self):
        probs = an.leo_rank_coverage_probs(CFG, 6)
        assert np.all(np.diff(probs) < 0)

    def test_rank_coverage_below_availability(self):
        probs = an.leo_rank_coverage_probs(CFG, 6)
        for k in range(1, 7):
            assert probs[k - 1] <= an.leo_availability(CFG, k) + 1e-9

    # leo_rank_coverage_probs(cfg, 3) at QuadratureSpec(1e-10, 1e-14) from
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

    def test_survival_grid_is_chunked(self, monkeypatch):
        cfg = config_with(**{"leo.altitude_km": "2000"})
        want = an.leo_rank_coverage_probs(cfg, 6)
        sizes = []

        def recording(fading, w):
            sizes.append(np.size(w))
            return sr_sf(fading, w)

        monkeypatch.setattr(an, "sr_sf", recording)
        monkeypatch.setattr(an, "SF_CHUNK_POINTS", 1000)
        got = an.leo_rank_coverage_probs(cfg, 6)
        assert max(sizes) == 1000
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_trivial_levels(self):
        assert an.leo_localizability(CFG, 0) == 1.0
        assert an.leo_localizability(config_with(**{"leo.n_sats": "0"}), 1) == 0.0


class TestMeoLocalizability:
    def test_vanishing_threshold_gives_availability(self):
        cfg = with_meo_threshold(CFG, 1e-30)
        for k in (1, 4):
            assert an.meo_localizability(cfg, k) == pytest.approx(an.meo_availability(CFG, k), abs=1e-7)

    def test_huge_threshold(self):
        cfg = with_meo_threshold(CFG, 1e12)
        assert an.meo_localizability(cfg, 1) == pytest.approx(0.0, abs=1e-12)

    def test_single_below_availability(self):
        p1c = an.meo_single_localizability(CFG)
        assert p1c <= an.meo_single_availability(CFG)
        assert p1c == pytest.approx(0.3700, abs=2e-3)


class TestHybridLocalizability:
    def test_reduces_to_leo(self):
        cfg = config_with(**{"meo.n_orbits": "0"})
        got = an.hybrid_localizability(cfg, 3)
        assert got == pytest.approx(an.leo_localizability(cfg, 3), rel=1e-9)

    def test_reduces_to_meo_within_epsilon(self):
        cfg = config_with(**{"leo.n_sats": "0"})
        for k in (1, 4):
            hybrid = an.hybrid_localizability(cfg, k)
            meo = an.meo_localizability(cfg, k)
            assert meo - cfg.epsilon <= hybrid <= meo + 1e-9

    def test_below_hybrid_availability(self):
        for k in (1, 3, 6):
            assert an.hybrid_localizability(CFG, k) <= an.hybrid_availability(CFG, k) + 1e-9

    def test_monotone_in_k(self):
        values = [an.hybrid_localizability(CFG, k) for k in range(1, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestIntegrateAdaptive:
    COMPONENTS = (
        lambda x: np.exp(-x) * np.cos(3.0 * x),
        np.sqrt,  # square-root edge at 0
        lambda x: 1.0 / (1e-2 + (x - 0.3) ** 2),  # sharp peak inside
    )

    def test_vector_integrand_matches_quad(self):
        got = an.integrate_adaptive(lambda x: np.array([f(x) for f in self.COMPONENTS]), 0.0, 2.0,
                                    QuadratureSpec(1e-12, 1e-14), "vector")
        assert got.shape == (len(self.COMPONENTS),)
        for f, value in zip(self.COMPONENTS, got):
            want, _ = quad(f, 0.0, 2.0, epsabs=1e-14, epsrel=1e-13, limit=400)
            assert value == pytest.approx(want, abs=1e-12)
        scalar = an.integrate_adaptive(np.sin, 0.0, math.pi, an.DEFAULT_QUADRATURE, "sine")
        assert isinstance(scalar, float) and scalar == pytest.approx(2.0, abs=1e-12)

    def test_failures_raise_with_label(self):
        with pytest.raises(an.QuadratureError, match="square root") as info:
            an.integrate_adaptive(np.sqrt, 0.0, 1.0, QuadratureSpec(1e-12, 1e-14, max_subdivisions=3), "square root")
        assert info.value.label == "square root"
        with pytest.raises(an.QuadratureError, match="non-finite"):
            an.integrate_adaptive(lambda x: np.full_like(x, np.nan), 0.0, 1.0, an.DEFAULT_QUADRATURE, "nan")


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(relative_tolerance=0.0)

    def test_tighter(self):
        spec = QuadratureSpec(1e-6, 1e-10, 100)
        inner = spec.tighter()
        assert inner.relative_tolerance == pytest.approx(1e-7)
        assert inner.absolute_tolerance == pytest.approx(1e-11)
        assert inner.max_subdivisions == 100


class TestSystemConfigValidation:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            replace(CFG, epsilon=0.0)
        with pytest.raises(ValueError):
            replace(CFG, epsilon=1.0)


class TestHybridConvolution:
    # Outputs of the Monte Carlo composition this convolution replaced, for
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
        got = an._hybrid_convolution(np.cumprod(self.RANKS), meo_pmf, cutoff)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestEvaluate:
    @pytest.mark.parametrize("n_leo", ["2000", "3", "0"])
    @pytest.mark.parametrize("metric", an.METRICS)
    def test_matches_scalar_functions(self, metric, n_leo):
        cfg = config_with(**{"leo.n_sats": n_leo})
        got = an.evaluate(cfg, metric, an.SYSTEMS, 8)
        assert list(got) == list(an.SYSTEMS)
        for system in an.SYSTEMS:
            scalar = getattr(an, f"{system}_{metric}")
            want = [scalar(cfg, k) for k in range(1, 9)]
            np.testing.assert_allclose(got[system], want, rtol=0, atol=1e-12)

    def test_one_rank_coverage_pass(self, monkeypatch):
        calls = []
        original = an.leo_rank_coverage_probs

        def counting(config, k_max, quad_spec=an.DEFAULT_QUADRATURE):
            calls.append(k_max)
            return original(config, k_max, quad_spec)

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
