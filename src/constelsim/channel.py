"""Radio-layer models: shadowed-Rician fading, receive patterns, link budget.

Shadowed-Rician power fading describes a Nakagami-distributed line-of-sight
amplitude plus circular Gaussian scatter (Abdi et al., IEEE TWC 2003). With
x = w / (2 b0), its CDF is the mixture of Gamma CDFs

    F(w) = sum_z c_z P(z + 1, x),   c_z = (2 b0 m / (2 b0 m + Omega))^m
                                          * (m)_z / z! * beta^z,

with beta = Omega / (2 b0 m + Omega) and P the regularized lower incomplete
gamma function. The weights c_z sum to one and obey
c_{z+1} = c_z beta (m + z) / (z + 1).

For integer z, P(z + 1, x) = P(Poisson(x) > z), so swapping the order of
summation turns the series truncated after Z terms, exactly, into sums over
the Poisson probabilities pi_j(x) = x^j e^{-x} / j!, j < Z:

    survival  1 - F(w) = sum_j T_j pi_j(x),      T_j = sum_{z=j}^{Z-1} c_z,
    density   f(w)     = sum_j c_j pi_j(x) / (2 b0),
    CDF       F(w)     = T_0 (1 - e^{-x}) - sum_{j>=1} T_j pi_j(x).

One kernel serves all three. The weights c and their tails T depend on the
fading parameters alone and are cached; Z is the smallest multiple of 16
whose dropped weights sum to at most the tolerance. The Poisson
probabilities are built by the recurrence pi_j = pi_{j-1} x / j, one
multiply per term and point. Every term is non-negative, so the truncated
survival and CDF each err on the low side by at most the tolerance.
Upper tails come from the survival read-out, never from ``1 - F``: that
floors near the tolerance, while the survival goes to zero with the true
tail. The CDF takes 1 - e^{-x} as ``-expm1(-x)``, so at small x its terms
cancel only down to about c_0 x and its relative error stays near
eps / c_0 (exact when Omega = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    @property
    def unit_range_power_w(self) -> float:
        """Received power in watts at 1 m slant range, boresight receive gain
        and unit fading: P_t G_t G_r L (lambda / 4 pi)^2."""
        return self.tx_power_w * self.tx_gain * self.max_rx_gain * self.system_loss \
            * (self.wavelength_m / (4.0 * math.pi)) ** 2


@lru_cache(maxsize=32)
def _series_weights(params: SrFadingParams, tol: float, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights c_z and tails T_j = sum_{z=j}^{Z-1} c_z for j, z < Z, the
    smallest multiple of 16 terms whose dropped weights sum to at most
    ``tol``. Keyed on the term limit too, so a lowered limit is never
    bypassed by a cached result."""
    beta, m = params._beta, params.m
    z = np.arange(max_terms, dtype=float)
    c = np.cumprod(np.concatenate(([math.exp(params._log_prefactor)], beta * (m + z[:-1]) / z[1:])))
    if c[0] == 0.0:
        raise SeriesConvergenceError("shadowed-Rician series weights underflow")
    # The ratio c_{z+1} / c_z = beta (m + z) / (z + 1) tends to beta
    # monotonically, so its supremum past the last kept term Z - 1 is at one
    # end or the other, and the dropped weights sum to at most
    # c_{Z-1} r / (1 - r).
    ends = np.arange(16, max_terms + 1, 16)
    ratio = beta * np.maximum(m + ends - 1.0, ends) / ends
    with np.errstate(divide="ignore"):
        bound = np.where(ratio < 1.0, c[ends - 1] * ratio / (1.0 - ratio), np.inf)
    done = np.flatnonzero(bound <= tol)
    if not done.size:
        raise SeriesConvergenceError(
            f"shadowed-Rician series did not converge within {max_terms} terms"
        )
    c = c[: ends[done[0]]]
    # Contiguous, not a reversed view: BLAS takes no negative strides, and
    # numpy's fallback for ``tails @ pi`` runs ten times slower.
    tails = np.ascontiguousarray(np.cumsum(c[::-1])[::-1])
    c.flags.writeable = tails.flags.writeable = False  # shared by every caller
    return c, tails


# Past this x, e^{-x} nears the end of the normal floats, so pi_0 would lose
# precision (or underflow, past x = 745) while later terms need not.
_LOG_SPACE_X = 700.0


def _poisson_matrix(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Poisson probabilities pi_j(x) = x^j e^{-x} / j!, shape
    ``(n_terms, x.size)``, built upward by pi_j = pi_{j-1} x / j, and taken
    in log space for x past ``_LOG_SPACE_X``."""
    pi = np.empty((n_terms, x.size))
    pi[0] = np.exp(-x)
    for j in range(1, n_terms):
        np.multiply(pi[j - 1], x, out=pi[j])
        pi[j] *= 1.0 / j
    far = x > _LOG_SPACE_X
    if far.any():
        j = np.arange(n_terms, dtype=float)
        log_factorial = np.array([math.lgamma(k + 1.0) for k in j])
        pi[:, far] = np.exp(j[:, None] * np.log(x[far]) - x[far] - log_factorial[:, None])
    return pi


def _series_terms(params: SrFadingParams, w, tol: float):
    """x = w / (2 b0) as a flat array, the weights and tails, and the
    Poisson matrix at x."""
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("fading power must be non-negative")
    x = np.ravel(w / (2.0 * params.b0))
    c, tails = _series_weights(params, tol, _MAX_SERIES_TERMS)
    return x, c, tails, _poisson_matrix(x, len(c))


def _shaped(w, out: np.ndarray):
    """``out`` in the shape of ``w``, a float for a scalar ``w``."""
    return float(out[0]) if np.ndim(w) == 0 else out.reshape(np.shape(w))


def sr_cdf(params: SrFadingParams, w, tol: float = _SERIES_TOL):
    """CDF of the shadowed-Rician power fading, elementwise over ``w``.

    Its truncation error is absolute, so ``1 - sr_cdf`` cannot resolve
    survival probabilities below about ``tol``; use :func:`sr_sf` for upper
    tails.
    """
    x, _, tails, pi = _series_terms(params, w, tol)
    out = tails[0] * -np.expm1(-x) - tails[1:] @ pi[1:]
    return _shaped(w, np.clip(out, 0.0, 1.0))


def sr_sf(params: SrFadingParams, w):
    """Survival function P(W > w) of the shadowed-Rician power fading,
    elementwise over ``w``.

    The series is truncated once its dropped weights sum to at most 1e-12
    (``_SERIES_TOL``), so up to rounding the error is one-sided:
    0 <= P(W > w) - sr_sf(w) <= 1e-12. The number of terms does not depend
    on ``w``, so the result is non-increasing in ``w`` and reaches zero with
    the true tail. At w = 0 it is exactly one.
    """
    x, _, tails, pi = _series_terms(params, w, _SERIES_TOL)
    return _shaped(w, np.where(x == 0.0, 1.0, np.minimum(tails @ pi, 1.0)))


def sr_pdf(params: SrFadingParams, w, tol: float = _SERIES_TOL):
    """Density of the shadowed-Rician power fading, elementwise over ``w``;
    the dropped terms are at most ``tol / (2 b0)``."""
    x, c, _, pi = _series_terms(params, w, tol)
    return _shaped(w, c @ pi / (2.0 * params.b0))


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


# Each pattern's ``effective_range`` is the dome angle beyond which received
# interference is treated as negligible.
AntennaPattern = GaussianPattern | FlatTopPattern | SincPattern | CosinePattern
