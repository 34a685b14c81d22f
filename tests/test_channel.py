import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad
from scipy.stats import kstest

import constelsim.channel as channel
from constelsim.channel import (
    CosinePattern,
    FlatTopPattern,
    GaussianPattern,
    LinkParams,
    SeriesConvergenceError,
    SincPattern,
    SrFadingParams,
    sr_cdf,
    sr_pdf,
    sr_sample,
    sr_sf,
)
from constelsim.constellation import derive_rng

BASE = SrFadingParams(m=19.4, b0=0.158, omega=1.29)

# Fading parameters whose series converge well inside the term limit.
fading_params = st.builds(
    SrFadingParams,
    m=st.floats(1.0, 25.0),
    b0=st.floats(0.05, 1.0),
    omega=st.floats(0.0, 3.0),
)
# Fading powers as multiples of the mean power.
power_multiples = st.lists(st.floats(0.0, 40.0), min_size=1, max_size=30)


class TestSrCdf:
    def test_zero(self):
        assert sr_cdf(BASE, 0.0) == 0.0

    def test_saturates_to_one(self):
        assert sr_cdf(BASE, 1000.0 * BASE.mean_power) == pytest.approx(1.0, abs=1e-9)

    def test_matches_density_quadrature(self):
        want, _ = quad(lambda w: sr_pdf(BASE, w), 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
        got = sr_cdf(BASE, 1.0)
        assert 0.0 < got < 1.0
        assert got == pytest.approx(want, abs=1e-8)

    def test_non_decreasing(self):
        grid = np.linspace(0.0, 8.0, 300)
        values = sr_cdf(BASE, grid)
        assert np.all(np.diff(values) >= -1e-14)

    def test_truncation_control(self):
        for w in (0.3, 1.0, 2.7):
            assert sr_cdf(BASE, w, tol=1e-12) == pytest.approx(sr_cdf(BASE, w, tol=1e-9), abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sr_cdf(BASE, -0.1)

    def test_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(channel, "_MAX_SERIES_TERMS", 4)
        with pytest.raises(SeriesConvergenceError):
            sr_cdf(BASE, 1.0)

    def test_underflowing_weights_raise(self):
        # c_0 = (2 b0 m / (2 b0 m + omega))^m = (1/6)^1000 is below the
        # smallest double, so every weight the recurrence builds would be 0.
        with pytest.raises(SeriesConvergenceError):
            sr_cdf(SrFadingParams(m=1000.0, b0=0.01, omega=100.0), 1.0)


class TestSeriesProperties:
    @settings(max_examples=100, deadline=None)
    @given(params=fading_params, multiples=power_multiples)
    def test_cdf_monotone_in_unit_interval(self, params, multiples):
        values = sr_cdf(params, np.sort(multiples) * params.mean_power)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) >= -1e-14)

    @settings(max_examples=100, deadline=None)
    @given(params=fading_params, multiples=power_multiples)
    def test_cdf_and_sf_sum_to_one(self, params, multiples):
        w = np.array(multiples) * params.mean_power
        assert np.max(np.abs(sr_cdf(params, w) + sr_sf(params, w) - 1.0)) <= 2e-12


class TestSrSf:
    # P(W > w) for BASE from the complementary series in 50-digit mpmath
    # arithmetic (mpmath.gammainc, regularized upper, 400 terms).
    REFERENCE = {10.0: 9.385405963323896e-07, 30.0: 3.813774897368802e-25}

    def test_zero(self):
        assert sr_sf(BASE, 0.0) == 1.0

    def test_no_line_of_sight_is_exponential(self):
        p = SrFadingParams(m=19.4, b0=0.158, omega=0.0)
        for w in (0.05, 0.4, 1.3, 12.0):
            assert sr_sf(p, w) == pytest.approx(math.exp(-w / 0.316), rel=1e-12)

    def test_complements_cdf(self):
        grid = np.linspace(0.0, 12.0, 400)
        assert np.max(np.abs(sr_cdf(BASE, grid) + sr_sf(BASE, grid) - 1.0)) <= 2e-12

    def test_non_negative_and_non_increasing(self):
        values = sr_sf(BASE, np.linspace(0.0, 60.0, 600))
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) <= 0.0)

    def test_scalar_and_array(self):
        assert isinstance(sr_sf(BASE, 1.0), float)
        grid = np.array([[0.5, 1.0], [2.0, 4.0]])
        values = sr_sf(BASE, grid)
        assert values.shape == grid.shape
        assert values[0, 1] == pytest.approx(sr_sf(BASE, 1.0), rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sr_sf(BASE, -0.1)

    def test_convergence_guard(self, monkeypatch):
        monkeypatch.setattr(channel, "_MAX_SERIES_TERMS", 4)
        with pytest.raises(SeriesConvergenceError):
            sr_sf(BASE, 1.0)

    def test_far_tail_goes_to_zero(self):
        # 1 - sr_cdf floors near 4.3e-13 at every large argument.
        assert sr_sf(BASE, 1e12 * BASE.mean_power) < 1e-15

    def test_one_sided_error_against_reference(self):
        for w, want in self.REFERENCE.items():
            assert 0.0 <= want - sr_sf(BASE, w) <= 1e-12

    def test_poisson_form_matches_gammaincc_sum(self):
        # The same truncated series with the kernel's own cached weights,
        # summed directly as c_z * Q(z + 1, x) over its Z terms.
        weights, _ = channel._series_weights(BASE, channel._SERIES_TOL, channel._MAX_SERIES_TERMS)
        z = np.arange(len(weights), dtype=float)
        # w = 0 is excluded: there sr_sf returns the untruncated value 1.
        w = np.concatenate([np.linspace(0.0, 40.0 * BASE.mean_power, 4001)[1:],
                            [1e3 * BASE.mean_power, 1e6 * BASE.mean_power, 1e12 * BASE.mean_power]])
        want = weights @ special.gammaincc(z[:, None] + 1.0, w[None, :] / (2 * BASE.b0))
        assert np.max(np.abs(sr_sf(BASE, w) - want)) <= 1e-15

    def test_tail_past_exp_underflow(self):
        # Strong line of sight and little scatter: about 850 terms, and
        # P(W > w) is still about 1e-10 where e^{-x} underflows, because the
        # Poisson terms near j = x carry the tail.
        p = SrFadingParams(m=1.0, b0=0.05, omega=3.0)
        weights, _ = channel._series_weights(p, channel._SERIES_TOL, channel._MAX_SERIES_TERMS)
        z = np.arange(len(weights), dtype=float)
        x = np.array([650.0, 699.9, 700.1, 720.0, 740.0, 746.0, 800.0, 1000.0])
        want = weights @ special.gammaincc(z[:, None] + 1.0, x[None, :])
        assert len(weights) > 800 and want[5] > 1e-11
        np.testing.assert_allclose(sr_sf(p, 2 * p.b0 * x), want, rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(sr_cdf(p, 2 * p.b0 * x) + want, 1.0, rtol=0, atol=2e-12)

    def test_convergence_guard_after_cached_call(self, monkeypatch):
        # A cached term count for the default limit must not let a call
        # under a lower limit through.
        sr_sf(BASE, 1.0)
        monkeypatch.setattr(channel, "_MAX_SERIES_TERMS", 4)
        with pytest.raises(SeriesConvergenceError):
            sr_sf(BASE, 1.0)


class TestSrPdf:
    def test_normalization(self):
        total, _ = quad(lambda w: sr_pdf(BASE, w), 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_finite_difference_of_cdf(self):
        h = 1e-6
        for w in (0.1, 0.5, 1.0, 2.0):
            fd = (sr_cdf(BASE, w + h) - sr_cdf(BASE, w - h)) / (2 * h)
            assert sr_pdf(BASE, w) == pytest.approx(fd, rel=1e-6)

    def test_no_line_of_sight_is_exponential(self):
        p = SrFadingParams(m=19.4, b0=0.158, omega=0.0)
        for w in (0.05, 0.4, 1.3):
            assert sr_pdf(p, w) == pytest.approx(math.exp(-w / 0.316) / 0.316, rel=1e-12)
            assert sr_cdf(p, w) == pytest.approx(1 - math.exp(-w / 0.316), rel=1e-12)

    def test_non_negative_and_vectorized(self):
        grid = np.linspace(0.0, 20.0, 500)
        values = sr_pdf(BASE, grid)
        assert values.shape == grid.shape
        assert np.all(values >= 0.0)

    def test_huge_argument_underflows_to_zero(self):
        assert sr_pdf(BASE, 1e9) == 0.0


class TestSrSample:
    def test_matches_cdf(self):
        draws = sr_sample(BASE, derive_rng(123), size=200_000)
        stat = kstest(draws, lambda w: sr_cdf(BASE, w)).statistic
        assert stat < 0.004

    def test_mean(self):
        draws = sr_sample(BASE, derive_rng(5), size=400_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - BASE.mean_power) < 3 * se

    def test_vanishing_scatter_leaves_line_of_sight(self):
        # b0 -> 0 collapses W onto the squared Nakagami amplitude,
        # a Gamma(m, omega/m) with variance omega^2/m
        p = SrFadingParams(m=19.4, b0=1e-12, omega=1.29)
        draws = sr_sample(p, derive_rng(6), size=100_000)
        assert draws.mean() == pytest.approx(1.29, rel=0.01)
        assert draws.var() == pytest.approx(1.29**2 / 19.4, rel=0.05)

    def test_scalar_draw(self):
        w = sr_sample(BASE, derive_rng(7))
        assert isinstance(w, float) and w >= 0


PATTERNS = [
    GaussianPattern(phi_3db=0.13962634015954636),
    FlatTopPattern(phi_3db=0.13962634015954636),
    SincPattern(n_elements=35),
    CosinePattern(n_elements=35),
]


class TestPatterns:
    def test_boresight(self):
        for pat in PATTERNS:
            assert 1513.56 * pat.gain_shape(0.0) == pytest.approx(1513.56, rel=1e-12)

    def test_gaussian_half_power(self):
        pat = PATTERNS[0]
        assert 2.0 * pat.gain_shape(pat.phi_3db) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_effective_edge_gain(self):
        pat = PATTERNS[0]
        assert pat.gain_shape(3 * pat.phi_3db) == pytest.approx(2.0**-9, rel=1e-12)

    def test_sinc_null(self):
        assert 7.0 * PATTERNS[2].gain_shape(1.0 / 35) == pytest.approx(0.0, abs=1e-25)

    def test_even_and_bounded(self):
        phis = np.linspace(-1.5, 1.5, 301)
        for pat in PATTERNS:
            g = 3.3 * pat.gain_shape(phis)
            assert np.all(g <= 3.3 + 1e-12)
            assert np.allclose(g, g[::-1], atol=1e-15)

    def test_effective_ranges(self):
        assert PATTERNS[0].effective_range == pytest.approx(0.41887902047863905)
        assert PATTERNS[1].effective_range == pytest.approx(0.13962634015954636)
        assert PATTERNS[2].effective_range == pytest.approx(3.0 / 35)
        assert PATTERNS[3].effective_range == pytest.approx(1.0 / 35)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPattern(0.0)
        with pytest.raises(ValueError):
            SincPattern(0)


LINK = LinkParams(
    tx_power_w=10 ** 1.5,
    tx_gain=10 ** 3.38,
    max_rx_gain=10 ** 3.18,
    wavelength_m=0.015,
    system_loss=10 ** -0.6,
    noise_power_w=10 ** -9.02 * 1e-3,
    sinr_threshold=10.0,
)


class TestReceivedPower:
    def test_decibel_arithmetic(self):
        # budget at 1000 km, boresight, unit fading, assembled in dB
        got = LINK.unit_range_power_w / 1e6**2
        db = (
            15.0 + 33.8 + 31.8 - 6.0
            + 20 * math.log10(0.015 / (4 * math.pi))
            - 20 * math.log10(1e6)
        )
        assert 10 * math.log10(got) == pytest.approx(db, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinkParams(0.0, 1.0, 1.0, 0.015, 1.0, 1e-12, 1.0)


class TestFadingParamValidation:
    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            SrFadingParams(m=0.0, b0=0.1, omega=1.0)
        with pytest.raises(ValueError):
            SrFadingParams(m=1.0, b0=0.0, omega=1.0)
        with pytest.raises(ValueError):
            SrFadingParams(m=1.0, b0=0.1, omega=-1.0)
        with pytest.raises(ValueError):
            SrFadingParams(m=math.nan, b0=0.1, omega=1.0)
