"""Radio-layer models: shadowed-Rician fading, receive patterns, link budget.

Shadowed-Rician power fading describes a Nakagami-distributed line-of-sight
amplitude plus circular Gaussian scatter. Its CDF is the series

    F(w) = (2 b0 m / (2 b0 m + Omega))^m
           * sum_z (m)_z / z! * beta^z * P(z + 1, w / (2 b0)),

with beta = Omega / (2 b0 m + Omega) and P the regularized lower incomplete
gamma function; the density is its exact term-by-term derivative. Both series
are truncated by a geometric tail bound.

The weights (2 b0 m / (2 b0 m + Omega))^m (m)_z / z! beta^z sum to one, so
the survival function has the complementary series

    1 - F(w) = (2 b0 m / (2 b0 m + Omega))^m
               * sum_z (m)_z / z! * beta^z * Q(z + 1, w / (2 b0)),

with Q = 1 - P the regularized upper incomplete gamma function. Upper tails
must be summed this way: the CDF series is truncated at an absolute tail
bound of 1e-12, so ``1 - F`` floors near 4e-13 and cannot resolve any
survival below about 1e-12, while the complementary series goes to zero with
the true tail.

For integer z, Q(z + 1, x) = P(Poisson(x) <= z) = sum_{j<=z} pi_j(x) with
pi_j(x) = x^j e^{-x} / j!. Swapping the order of summation turns the series
truncated after Z terms, exactly, into

    sum_{z<Z} c_z Q(z + 1, x) = sum_{j<Z} pi_j(x) T_j,   T_j = sum_{z=j}^{Z-1} c_z,

so the survival needs only Poisson probabilities, computed in log space,
against weight tails that depend on the fading parameters alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

_MAX_SERIES_TERMS = 10_000
_SERIES_TOL = 1e-12


class SeriesConvergenceError(RuntimeError):
    """Raised when the fading series fails to meet its tail bound."""


@dataclass(frozen=True)
class SrFadingParams:
    """Shadowed-Rician triple: Nakagami shape m, scatter half-power b0,
    line-of-sight average power omega."""

    m: float
    b0: float
    omega: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m, self.b0, self.omega))):
            raise ValueError("fading parameters must be finite")
        if self.m <= 0 or self.b0 <= 0 or self.omega < 0:
            raise ValueError("require m > 0, b0 > 0, omega >= 0")

    @property
    def mean_power(self) -> float:
        return self.omega + 2.0 * self.b0

    @property
    def _beta(self) -> float:
        return self.omega / (2.0 * self.b0 * self.m + self.omega)

    @property
    def _log_prefactor(self) -> float:
        return self.m * math.log(2.0 * self.b0 * self.m / (2.0 * self.b0 * self.m + self.omega))


@dataclass(frozen=True)
class LinkParams:
    """One layer's link budget, all linear units (W, m, ratios)."""

    tx_power_w: float
    tx_gain: float
    max_rx_gain: float
    wavelength_m: float
    system_loss: float
    noise_power_w: float
    sinr_threshold: float

    def __post_init__(self):
        values = (
            self.tx_power_w, self.tx_gain, self.max_rx_gain, self.wavelength_m,
            self.system_loss, self.noise_power_w, self.sinr_threshold,
        )
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("link parameters must be positive and finite")


def _series_coeffs(params: SrFadingParams, z: np.ndarray) -> np.ndarray:
    """log of (m)_z / z! * beta^z, Pochhammer via log-gamma (m need not be
    an integer)."""
    m = params.m
    beta = params._beta
    log_poch = special.gammaln(m + z) - special.gammaln(m) - special.gammaln(z + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_beta_pow = np.where(z == 0, 0.0, z * (math.log(beta) if beta > 0 else -np.inf))
    return log_poch + log_beta_pow


def _sr_series(params: SrFadingParams, w, density: bool, tol: float) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("fading power must be non-negative")
    shape = w.shape
    x = np.ravel(w / (2.0 * params.b0))
    if x.size == 0:
        return np.zeros(shape)
    beta = params._beta
    prefactor = math.exp(params._log_prefactor)
    if density:
        # The density is bounded by exp(-x (1 - beta)) times slowly varying
        # factors; past this point it underflows and the series would churn.
        x_cut = (745.0 + 200.0 + abs(params._log_prefactor)) / (1.0 - beta)
        if np.any(x > x_cut):
            out = np.zeros(x.size)
            live = x <= x_cut
            if live.any():
                out[live] = _sr_series(params, 2.0 * params.b0 * x[live], density=True, tol=tol)
            return out.reshape(shape)
    x_max = float(np.max(x))
    total = np.zeros_like(x)
    block = 16
    z0 = 0
    while z0 < _MAX_SERIES_TERMS:
        z = np.arange(z0, z0 + block, dtype=float)
        log_c = _series_coeffs(params, z)
        if density:
            # d/dw P(z+1, x) = x^z e^{-x} / Gamma(z+1) / (2 b0)
            with np.errstate(divide="ignore", invalid="ignore"):
                log_x_pow = np.where(z[:, None] == 0, 0.0, z[:, None] * np.log(np.where(x > 0, x, 1.0)))
                log_x_pow = np.where((z[:, None] > 0) & (x == 0), -np.inf, log_x_pow)
            log_term = (
                log_c[:, None] + log_x_pow - x[None, :]
                - special.gammaln(z + 1.0)[:, None] - math.log(2.0 * params.b0)
            )
            terms = np.exp(log_term)
        else:
            terms = np.exp(log_c)[:, None] * special.gammainc(z[:, None] + 1.0, x[None, :])
        total += terms.sum(axis=0)
        z_next = z0 + block
        # Successive terms shrink at least geometrically once this ratio
        # drops below one; the remaining tail is then bounded by the last
        # term times ratio / (1 - ratio).
        ratio = beta * (params.m + z_next) / (z_next + 1.0)
        if density:
            ratio = ratio * x_max / (z_next + 1.0)
        if ratio < 1.0:
            tail_bound = prefactor * float(np.max(terms[-1])) * ratio / (1.0 - ratio)
            if tail_bound <= tol:
                return (prefactor * total).reshape(shape)
        z0 = z_next
    raise SeriesConvergenceError(
        f"shadowed-Rician series did not converge within {_MAX_SERIES_TERMS} terms"
    )


def sr_cdf(params: SrFadingParams, w, tol: float = _SERIES_TOL):
    """CDF of the shadowed-Rician power fading, elementwise over ``w``.

    Its truncation error is absolute, so ``1 - sr_cdf`` cannot resolve
    survival probabilities below about ``tol``; use :func:`sr_sf` for upper
    tails.
    """
    out = np.minimum(_sr_series(params, w, density=False, tol=tol), 1.0)
    return float(out) if np.isscalar(w) or np.ndim(w) == 0 else out


def _sf_term_count(params: SrFadingParams, max_terms: int) -> int:
    """Number of complementary-series terms whose dropped weights, times the
    prefactor, sum to at most ``_SERIES_TOL``."""
    beta = params._beta
    prefactor = math.exp(params._log_prefactor)
    block = 16
    z_end = block
    while z_end <= max_terms:
        # Q <= 1, so the tail is bounded by the weights' own tail. Their
        # ratio beta (m + z) / (z + 1) tends to beta monotonically, so its
        # supremum past the last term z_end - 1 is at one end or the other.
        ratio = beta * max(params.m + z_end - 1.0, float(z_end)) / z_end
        if ratio < 1.0:
            last = math.exp(float(_series_coeffs(params, np.array(z_end - 1.0))))
            if prefactor * last * ratio / (1.0 - ratio) <= _SERIES_TOL:
                return z_end
        z_end += block
    raise SeriesConvergenceError(
        f"shadowed-Rician series did not converge within {max_terms} terms"
    )


@lru_cache(maxsize=32)
def _sf_poisson_weights(params: SrFadingParams, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """lgamma(j + 1) and the weight tails T_j = prefactor * sum_{z=j}^{Z-1}
    c_z for j < Z, the ``sr_sf`` term count. Keyed on the term limit too, so
    a lowered limit is never bypassed by a cached result."""
    z = np.arange(_sf_term_count(params, max_terms), dtype=float)
    weights = np.exp(params._log_prefactor + _series_coeffs(params, z))
    return special.gammaln(z + 1.0), np.cumsum(weights[::-1])[::-1]


def sr_sf(params: SrFadingParams, w):
    """Survival function P(W > w) of the shadowed-Rician power fading,
    elementwise over ``w``, summed as the complementary series in its
    Poisson form.

    The series is truncated once its tail is bounded by 1e-12
    (``_SERIES_TOL``). Every term is non-negative, so up to rounding the
    error is one-sided: 0 <= P(W > w) - sr_sf(w) <= 1e-12. The number of
    terms does not depend on ``w``, so the result is non-increasing in ``w``
    and reaches zero with the true tail.
    """
    w_arr = np.asarray(w, dtype=float)
    if np.any(w_arr < 0):
        raise ValueError("fading power must be non-negative")
    x = np.ravel(w_arr / (2.0 * params.b0))
    log_factorial, tails = _sf_poisson_weights(params, _MAX_SERIES_TERMS)
    j = np.arange(len(tails), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_poisson = j[:, None] * np.log(x)[None, :] - x[None, :] - log_factorial[:, None]
        out = np.minimum(tails @ np.exp(log_poisson), 1.0)
    # At x = 0 every Q is one and the full weights sum to one.
    out = np.where(x == 0.0, 1.0, out).reshape(w_arr.shape)
    return float(out) if np.isscalar(w) or np.ndim(w) == 0 else out


def sr_pdf(params: SrFadingParams, w, tol: float = _SERIES_TOL):
    """Density of the shadowed-Rician power fading, elementwise over ``w``."""
    out = _sr_series(params, w, density=True, tol=tol)
    return float(out) if np.isscalar(w) or np.ndim(w) == 0 else out


def sr_sample(params: SrFadingParams, rng: np.random.Generator, size=None):
    """Draw fading powers W = |a + n|^2 with a Nakagami-m line-of-sight
    amplitude (E[a^2] = omega) and complex scatter of per-component
    variance b0. The power so built has exactly the CDF of :func:`sr_cdf`."""
    shape = () if size is None else size
    los_power = rng.gamma(shape=params.m, scale=params.omega / params.m, size=shape) \
        if params.omega > 0 else np.zeros(shape)
    amp = np.sqrt(los_power)
    scale = math.sqrt(params.b0)
    re = amp + scale * rng.standard_normal(shape)
    im = scale * rng.standard_normal(shape)
    w = re * re + im * im
    return float(w) if size is None else w


# ---------------------------------------------------------------------------
# Receive antenna patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPattern:
    """Gaussian main lobe, half-power beamwidth phi_3db."""

    phi_3db: float

    def __post_init__(self):
        if self.phi_3db <= 0:
            raise ValueError("phi_3db must be positive")

    def gain_shape(self, phi):
        phi = np.asarray(phi, dtype=float)
        return np.exp2(-(phi / self.phi_3db) ** 2)

    @property
    def effective_range(self) -> float:
        # Beyond 3 beamwidths the gain has fallen by 2^-9.
        return 3.0 * self.phi_3db


@dataclass(frozen=True)
class FlatTopPattern:
    phi_3db: float

    def __post_init__(self):
        if self.phi_3db <= 0:
            raise ValueError("phi_3db must be positive")

    def gain_shape(self, phi):
        phi = np.asarray(phi, dtype=float)
        return np.where(np.abs(phi) <= self.phi_3db, 1.0, 0.0)

    @property
    def effective_range(self) -> float:
        return self.phi_3db


@dataclass(frozen=True)
class SincPattern:
    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")

    def gain_shape(self, phi):
        # np.sinc(x) = sin(pi x)/(pi x), so this is sin^2(pi Na phi)/(pi Na phi)^2.
        return np.sinc(self.n_elements * np.asarray(phi, dtype=float)) ** 2

    @property
    def effective_range(self) -> float:
        # Main lobe plus first sidelobe.
        return 3.0 / self.n_elements


@dataclass(frozen=True)
class CosinePattern:
    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")

    def gain_shape(self, phi):
        phi = np.asarray(phi, dtype=float)
        shape = np.cos(np.pi * self.n_elements * phi / 2.0) ** 2
        return np.where(np.abs(phi) <= 1.0 / self.n_elements, shape, 0.0)

    @property
    def effective_range(self) -> float:
        return 1.0 / self.n_elements


AntennaPattern = GaussianPattern | FlatTopPattern | SincPattern | CosinePattern


def rx_gain(pattern: AntennaPattern, max_gain: float, phi):
    """Receive gain at dome angle ``phi`` off boresight."""
    out = max_gain * pattern.gain_shape(phi)
    return float(out) if np.ndim(phi) == 0 else out


def effective_beam_range(pattern: AntennaPattern) -> float:
    """Dome angle beyond which received interference is treated as negligible."""
    return pattern.effective_range


def received_power(link: LinkParams, rx_gain_value: float, distance_m: float, fading: float) -> float:
    """Free-space received power in watts at slant range ``distance_m``.

    Callers enforce the detectability cutoff (zero beyond the maximum
    detectable range); this is the bare link equation.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    factor = (link.wavelength_m / (4.0 * math.pi)) ** 2
    return link.tx_power_w * link.tx_gain * rx_gain_value * link.system_loss * factor * fading / distance_m**2
