import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad, quad_vec
from scipy.stats import kstest, poisson

import constelsim.channel as channel
from constelsim.channel import (
    ConvergenceError,
    CosinePattern,
    FlatTopPattern,
    GaussianPattern,
    LinkParams,
    SincPattern,
    SrFadingParams,
    sr_cdf,
    sr_count_pmf,
    sr_sample,
    sr_sf,
)
from constelsim.constellation import derive_rng

from conftest import nudged

BASE = SrFadingParams(m=19.4, b0=0.158, omega=1.29)


def sr_pdf(params: SrFadingParams, w, tol: float = channel._SERIES_TOL):
    """Density of the shadowed-Rician power fading, elementwise over ``w``:
    sum_j c_j pi_j(x) / (2 b0) on the series' own weights, with the dropped
    terms at most ``tol / (2 b0)``."""
    x, c, _, pi = channel._series_terms(params, w, tol)
    return channel._shaped(w, c @ pi / (2.0 * params.b0))


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
        with pytest.raises(ConvergenceError):
            sr_cdf(BASE, 1.0)

    def test_underflowing_weights_raise(self):
        # c_0 = (2 b0 m / (2 b0 m + omega))^m = (1/6)^1000 is below the
        # smallest double, so every weight the recurrence builds would be 0.
        with pytest.raises(ConvergenceError):
            sr_cdf(SrFadingParams(m=1000.0, b0=0.01, omega=100.0), 1.0)


# F(w) to 50 digits: the full series sum_z c_z P(z + 1, w / (2 b0)) in
# 70-digit arithmetic (mpmath), for (m, b0, omega) and w.
CDF_REFERENCES = [
    ((25.0, 0.05, 3.0), 3.1e-06, "8.5286390068711693244790765076652846127604484578214e-14"),
    ((25.0, 0.05, 3.0), 0.001, "2.9276794478449839814807500462862110001460150810906e-11"),
    ((25.0, 0.05, 3.0), 0.1, "9.0377774509329485204462883301198403935496456607058e-8"),
    ((25.0, 0.05, 3.0), 1.0, "3.9389525643157789520272267411128514451658262534986e-3"),
    ((19.4, 0.158, 1.29), 1e-06, "7.7858774974249625417340545860898225886987858492412e-8"),
    ((19.4, 0.158, 1.29), 0.05, "4.6265815385094990887642805929794314264225324469453e-3"),
    ((19.4, 0.158, 1.29), 1.0, "3.1128303280840708389940306183997256020235818015339e-1"),
    ((1.0, 0.05, 3.0), 0.0001, "3.225754423036035604443722025270713470876077661698e-5"),
    ((1.0, 0.05, 3.0), 3.0, "6.2006000076696094134199631625249465061037250558639e-1"),
]


@pytest.mark.parametrize("fading, w, want", CDF_REFERENCES)
def test_cdf_keeps_relative_precision(fading, w, want):
    # A small first weight c_0 (2.8e-9 at m = 25) costs any read-out that
    # subtracts terms up to eight digits at small w.
    assert sr_cdf(SrFadingParams(*fading), w) == pytest.approx(float(want), rel=1e-13, abs=0)


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
        with pytest.raises(ConvergenceError):
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
        with pytest.raises(ConvergenceError):
            sr_sf(BASE, 1.0)


def full_series_weights(params: SrFadingParams, tol: float, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights and tails cut from all ``max_terms`` weights built at
    once: the previous implementation of ``_series_weights``, kept as its
    oracle."""
    beta, m = params._beta, params.m
    z = np.arange(max_terms, dtype=float)
    c0 = math.exp(m * math.log(params._beta_complement))
    c = np.cumprod(np.concatenate(([c0], beta * (m + z[:-1]) / z[1:])))
    if c[0] == 0.0:
        raise ConvergenceError("shadowed-Rician series weights underflow")
    ends = np.arange(16, max_terms + 1, 16)
    ratio = beta * np.maximum(m + ends - 1.0, ends) / ends
    with np.errstate(divide="ignore"):
        bound = np.where(ratio < 1.0, c[ends - 1] * ratio / (1.0 - ratio), np.inf)
    done = np.flatnonzero(bound <= tol)
    if not done.size:
        raise ConvergenceError(f"shadowed-Rician series did not converge within {max_terms} terms")
    c = c[: ends[done[0]]]
    return c, np.ascontiguousarray(np.cumsum(c[::-1])[::-1])


def weights_outcome(build, params: SrFadingParams, tol: float, max_terms: int):
    """The bytes and shapes of ``build``'s weights and tails, or its error
    message."""
    try:
        c, tails = build(params, tol, max_terms)
    except ConvergenceError as exc:
        return str(exc)
    return c.shape, c.tobytes(), tails.shape, tails.tobytes()


class TestSeriesWeights:
    # Fading triples from 16 to past 10,000 series terms, and two whose
    # first weight underflows.
    GRID_M = (0.3, 0.5, 1.0, 2.0, 5.0, 10.0, 19.4, 25.0, 100.0, 1000.0)
    GRID_B0 = (0.01, 0.05, 0.158, 0.5)
    GRID_OMEGA = (0.0, 0.3, 1.29, 100.0)

    @pytest.mark.parametrize("max_terms", [4, 64, 10_000])
    def test_match_the_full_build(self, max_terms):
        # Bit for bit, errors included, at the default tolerance and the
        # test density's tighter one.
        outcomes = Counter()
        for m, b0, omega, tol in itertools.product(self.GRID_M, self.GRID_B0, self.GRID_OMEGA, (1e-12, 1e-16)):
            fading = SrFadingParams(m=m, b0=b0, omega=omega)
            want = weights_outcome(full_series_weights, fading, tol, max_terms)
            assert weights_outcome(channel._series_weights.__wrapped__, fading, tol, max_terms) == want
            outcomes[want if isinstance(want, str) else want[0][0] > 64] += 1
        assert outcomes["shadowed-Rician series weights underflow"] > 0
        if max_terms == 10_000:
            # Cuts within the first build, cuts past it, and refusals.
            refused = f"shadowed-Rician series did not converge within {max_terms} terms"
            assert outcomes[False] and outcomes[True] and outcomes[refused]


class TestPoissonMatrix:
    @pytest.mark.parametrize("n_points", [1, 84, 600])
    def test_matches_the_poisson_law(self, n_points):
        x = np.geomspace(1e-3, 1000.0, n_points)
        j = np.arange(1200.0)[:, None]
        np.testing.assert_allclose(channel._poisson_matrix(x, 1200), poisson.pmf(j, x), rtol=1e-11, atol=1e-300)


def truncated_mixture_pmf(params: SrFadingParams, scale) -> np.ndarray:
    """The count law as the c_z-mixture of NB(z + 1, 1 / (1 + scale)) over
    the Z truncated weights, each term in log space, Z^2 exps per scale:
    the previous implementation of ``sr_count_pmf``, kept as its oracle."""
    c, _ = channel._series_weights(params, channel._SERIES_TOL, channel._MAX_SERIES_TERMS)
    n_terms = c.size
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(2 * n_terms - 1)])
    log_p = -np.log1p(np.ravel(scale))
    with np.errstate(divide="ignore"):
        log_q = np.log(np.ravel(scale)) + log_p  # -inf at scale zero
        # log c_z + (z + 1) log p - log z!: the part of term (i, z) free of i.
        base = (np.log(c) - log_factorials[:n_terms])[:, None] + np.outer(np.arange(1.0, n_terms + 1), log_p)
    out = np.empty((n_terms, log_p.size))
    for i in range(n_terms):
        log_terms = base + (log_factorials[i: i + n_terms] - log_factorials[i])[:, None]
        if i:
            log_terms += i * log_q
        out[i] = np.exp(log_terms).sum(axis=0)
    return out.reshape((n_terms,) + np.shape(scale))


# P(N = count) to 20 digits, from the closed form
# p (1 - beta)^m q^count 2F1(m, count + 1; 1; beta p) in 50-digit arithmetic
# (mpmath), for (m, b0, omega), the scale and the count.
COUNT_REFERENCES = [
    ((0.5, 0.05, 3.0), 704.0, 0, "0.00018173942010325685746"),
    ((0.5, 0.05, 3.0), 704.0, 100, "0.00016929916760760520697"),
    ((0.5, 0.05, 3.0), 704.0, 1000, "0.000099447529801884084131"),
    ((0.5, 0.05, 3.0), 704.0, 1551, "0.000078095525220816415095"),
    ((1.0, 0.05, 3.0), 173.0, 0, "0.00018642803877703207564"),
    ((1.0, 0.05, 3.0), 173.0, 400, "0.00017303037309401561925"),
    ((1.0, 0.05, 3.0), 173.0, 847, "0.00015919439157210217476"),
    ((25.0, 0.158, 3.0), 1e-4, 0, "0.99895130112957708189"),
    ((25.0, 0.158, 3.0), 1e-4, 1, "0.0010480309822245643307"),
    ((25.0, 0.158, 3.0), 1e-4, 2, "6.6755835054469080618e-7"),
    ((19.4, 0.158, 1.29), 0.3, 0, "0.30658209063976419653"),
    ((19.4, 0.158, 1.29), 0.3, 5, "0.0282398956667512399"),
    ((19.4, 0.158, 1.29), 0.3, 31, "1.6719994649448728491e-13"),
    ((2.0, 0.5, 0.0), 10.0, 0, "0.090909090909090909091"),
    ((2.0, 0.5, 0.0), 10.0, 15, "0.021762913579014877126"),
]


class TestSrCountPmf:
    # Baseline fading, then strong line of sight with little scatter at two
    # shapes: 32, 128 and 848 series terms.
    FADINGS = {
        "baseline": BASE,
        "m25": SrFadingParams(m=25.0, b0=0.05, omega=3.0),
        "m1": SrFadingParams(m=1.0, b0=0.05, omega=3.0),
    }
    PAIRS = ((0.0, 0.5), (0.3, 2.0), (1.0, 10.0), (2.5, 0.01), (0.05, 10.0))
    # Fading triples (16 to 1,552 series terms) and scales for the oracle.
    GRID_M = (0.5, 1.0, 2.0, 5.0, 10.0, 19.4, 25.0)
    GRID_B0 = (0.05, 0.158, 0.5, 1.0)
    GRID_OMEGA = (0.0, 0.3, 1.29, 3.0)
    GRID_SCALES = np.concatenate([[0.0], np.logspace(-6, 3, 60)])

    @pytest.mark.parametrize("name", FADINGS)
    def test_matches_quadrature(self, name):
        # P(W > x + c W') for independent W, W', against adaptive quadrature
        # of f(w') P(W > x + c w') over [0, inf), all (x, c) pairs at once.
        # The density of W' is the untruncated one, as the count law is: at
        # the default 1e-12 truncation the reference itself sits 2.8e-13
        # from this integral at m1.
        fading = self.FADINGS[name]
        x, c = (np.array(column) for column in zip(*self.PAIRS))
        want, _ = quad_vec(lambda w: sr_pdf(fading, w, tol=1e-16) * sr_sf(fading, x + c * w), 0.0, np.inf,
                           epsabs=1e-15, epsrel=1e-13, norm="max", limit=500)
        got = [sr_sf(fading, xi, sr_count_pmf(fading, ci)) for xi, ci in self.PAIRS]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", FADINGS)
    def test_is_a_defective_law(self, name):
        fading = self.FADINGS[name]
        pmf = sr_count_pmf(fading, np.array([0.0, 1e-300, 1e-8, 0.3, 10.0, 1e3, 1e8]))
        assert np.all(pmf >= 0.0)
        assert np.all(pmf.sum(axis=0) <= 1.0)

    @pytest.mark.parametrize("name", FADINGS)
    def test_scale_zero_is_no_count(self, name):
        fading = self.FADINGS[name]
        _, tails = channel._series_weights(fading, channel._SERIES_TOL, channel._MAX_SERIES_TERMS)
        pmf = sr_count_pmf(fading, 0.0)
        assert pmf.shape == tails.shape
        assert np.all(pmf[1:] == 0.0)
        assert pmf[0] == 1.0

    @pytest.mark.parametrize("m", GRID_M)
    def test_bounds_the_truncated_mixture(self, m):
        # The law is untruncated, so it lies above the c_z-mixture truncated
        # at Z terms, by at most the dropped weights 1 - T_0 in all. The
        # elementwise slack is the oracle's own rounding: at the 209 of
        # 603,168 entries where the law falls more than 1e-15 below it, the
        # law is within 4.4e-16 of the closed form of COUNT_REFERENCES and
        # the oracle 0.8e-15 to 2.2e-15 above it.
        for b0, omega in itertools.product(self.GRID_B0, self.GRID_OMEGA):
            fading = SrFadingParams(m=m, b0=b0, omega=omega)
            _, tails = channel._series_weights(fading, channel._SERIES_TOL, channel._MAX_SERIES_TERMS)
            pmf = sr_count_pmf(fading, self.GRID_SCALES)
            oracle = truncated_mixture_pmf(fading, self.GRID_SCALES)
            assert np.all(pmf >= oracle - 3e-15)
            assert np.all((pmf - oracle).sum(axis=0) <= 1.0 - tails[0] + 1e-14)
            assert np.all(pmf >= 0.0)
            assert np.all(pmf.sum(axis=0) <= 1.0)

    @pytest.mark.parametrize("fading, scale, count, want", COUNT_REFERENCES)
    def test_keeps_relative_precision(self, fading, scale, count, want):
        # Near r = q the three-term recurrence from G' / G loses relative
        # precision as count / (beta p): 1.4e-10 at the last count of the
        # first fading, 1.1e-11 at the last of the second.
        pmf = sr_count_pmf(SrFadingParams(*fading), scale)
        assert pmf[count] == pytest.approx(float(want), rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", FADINGS)
    def test_unit_count_is_plain_survival(self, name):
        fading = self.FADINGS[name]
        none = np.zeros(sr_count_pmf(fading, 0.0).size)
        none[0] = 1.0
        w = np.linspace(0.0, 20.0 * fading.mean_power, 200)[1:]
        np.testing.assert_array_equal(sr_sf(fading, w, none), sr_sf(fading, w))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sr_count_pmf(BASE, -0.1)
        with pytest.raises(ValueError):
            sr_sf(BASE, 1.0, np.ones(3))


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

    @pytest.mark.parametrize("params", [BASE, SrFadingParams(m=1.0, b0=0.05, omega=0.0)])
    @pytest.mark.parametrize("size", [None, 0, 5, (3, 4)])
    def test_matches_out_of_place_formula(self, params, size):
        # Same draws, same arithmetic, bit for bit: gamma, then the scatter's
        # exponential and its angle's uniform, the angle's cosine and sine
        # through t = tan(phi / 2).
        rng = derive_rng(8)
        shape = () if size is None else size
        los = rng.gamma(params.m, params.omega / params.m, shape) if params.omega > 0 else np.zeros(shape)
        radius = np.sqrt(2.0 * params.b0 * rng.standard_exponential(shape))
        t = np.tan((rng.random(shape) - 0.5) * math.pi)
        scaled = radius / (1.0 + t * t)
        re = np.sqrt(los) + (1.0 - t * t) * scaled
        im = 2.0 * t * scaled
        got_rng = derive_rng(8)
        got = sr_sample(params, got_rng, size)
        assert np.array_equal(got, re * re + im * im)
        assert got_rng.random() == rng.random()


    @pytest.mark.parametrize("uniform", [0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
    def test_polar_scatter_at_the_angle_ends(self, uniform):
        # A uniform of 0 is phi = -pi, where t = tan(-pi / 2) rounds to about
        # -1.6e16; W stays a sum of squares, and (A + R cos phi)^2 +
        # (R sin phi)^2 with numpy's cosine and sine agrees.
        amp_sq, expo = 1.2, np.array([0.0, 1e-300, 0.3, 1.0, 40.0])

        class FixedDraws:
            def gamma(self, shape, scale, size):
                return np.full(size, amp_sq)

            def standard_exponential(self, size):
                return expo.copy()

            def random(self, size):
                return np.full(size, uniform)

        draws = sr_sample(BASE, FixedDraws(), size=expo.size)
        phi = math.pi * (2.0 * uniform - 1.0)
        radius = np.sqrt(2.0 * BASE.b0 * expo)
        want = (math.sqrt(amp_sq) + radius * math.cos(phi)) ** 2 + (radius * math.sin(phi)) ** 2
        assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))
        np.testing.assert_allclose(draws, want, rtol=1e-12, atol=1e-14)

    def test_huge_scatter_stays_non_negative(self):
        p = SrFadingParams(m=1.0, b0=1e300, omega=1.0)
        draws = sr_sample(p, derive_rng(9), size=100_000)
        assert np.all(draws >= 0.0) and np.all(np.isfinite(draws))
        assert draws.mean() == pytest.approx(p.mean_power, rel=0.02)


PATTERNS = [
    GaussianPattern(phi_3db=0.13962634015954636),
    FlatTopPattern(phi_3db=0.13962634015954636),
    SincPattern(n_elements=35),
    CosinePattern(n_elements=35),
]


@st.composite
def pattern_and_angle(draw):
    """A receive pattern of any shape, with a drawn beamwidth or element
    count, and a dome angle in [0, pi]: zero, a subnormal, within a few ulps
    of a lobe edge, or anywhere."""
    kind = draw(st.sampled_from([GaussianPattern, FlatTopPattern, SincPattern, CosinePattern]))
    if kind in (GaussianPattern, FlatTopPattern):
        pattern = kind(draw(st.floats(1e-4, 1.0)))
        edges = [pattern.phi_3db, pattern.effective_range]
    else:
        pattern = kind(draw(st.integers(1, 200)))
        edges = [k / pattern.n_elements for k in (0.5, 1, 2, 3)]  # half width, nulls and sidelobe edges
    near_edge = st.tuples(st.sampled_from(edges), st.integers(-4, 4)).map(lambda edge: nudged(*edge))
    angle = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.2250738585072014e-308), near_edge,
                           st.floats(0.0, math.pi)))
    return pattern, min(angle, math.pi)


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

    # The SINR engine's surely-passing bound rests on fl(g r) <= r, so on
    # every gain shape lying in [0, 1] at every dome angle in [0, pi].
    @settings(max_examples=200, deadline=None)
    @given(pattern_and_angle(), st.floats(5e-324, 1e300))
    @example((SincPattern(35), 0.0), 1.0)
    @example((SincPattern(1), 5e-324), 1.0)
    @example((CosinePattern(35), 1.0 / 35), 1.0)
    @example((GaussianPattern(1e-4), 2.2250738585072014e-308), 1.0)
    def test_shape_lies_in_unit_interval(self, case, received):
        pattern, angle = case
        # Scalars and arrays take different numpy loops; both must hold.
        gains = np.append(pattern.gain_shape(np.array([angle, -angle])), pattern.gain_shape(angle))
        assert np.all((gains >= 0.0) & (gains <= 1.0)), gains
        assert np.all(gains * received <= received)

    # Every pattern refuses each bad value of its parameter with the one
    # message of that parameter's check.
    BAD_VALUES = {
        GaussianPattern: ((0.0, -1.0, math.inf, math.nan), "phi_3db must be positive and finite"),
        FlatTopPattern: ((0.0, -1.0, math.inf, math.nan), "phi_3db must be positive and finite"),
        SincPattern: ((0, -1), "n_elements must be at least 1"),
        CosinePattern: ((0, -1), "n_elements must be at least 1"),
    }

    def test_validation(self):
        def refusal(pattern, value):
            try:
                pattern(value)
            except ValueError as exc:
                return str(exc)
            return None

        cases = [(pattern, value, message) for pattern, (values, message) in self.BAD_VALUES.items()
                 for value in values]
        found = {(pattern.__name__, repr(value)): refusal(pattern, value) for pattern, value, _ in cases}
        assert found == {(pattern.__name__, repr(value)): message for pattern, value, message in cases}


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
