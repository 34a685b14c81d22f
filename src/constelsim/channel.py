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
    CDF       F(w)     = sum_{j>=1} H_j pi_j(x) + T_0 P(Poisson(x) >= Z),
                                                 H_j = sum_{z<j} c_z.

One kernel serves both. The weights c and their tails T depend on the
fading parameters alone and are cached; Z is the smallest multiple of 16
whose dropped weights sum to at most the tolerance. The Poisson
probabilities are one running product, pi_j = pi_{j-1} (x / j), one
multiply per term and point. Every term is non-negative, so the truncated
survival and CDF each err on the low side by at most the tolerance.
Upper tails come from the survival read-out, never from ``1 - F``: that
floors near the tolerance, while the survival goes to zero with the true
tail. The CDF is a sum of positive terms as well, so small CDF values keep
their relative precision.

An independent faded power V in the threshold enters the same form as a
count: if Poisson(x + V / (2 b0)) = Poisson(x) + N, then
P(W > w + V) = sum_k pi_k(x) sum_i P_i T_{i+k}, P_i = P(N = i), again with
non-negative terms. For V = a W', W' / (2 b0) is Gamma(z + 1) given z, so N
mixes NB(z + 1, p), p = 1 / (1 + a), over c_z, and a mixture of such laws
over a (an interferer at a random angle, or none) is again a count law. With
q = 1 - p and r = q / (1 - beta p), the log of N's generating function
p (1 - beta r)^m (1 - q s)^(m - 1) / (1 - r s)^m gives n P_n = U_n + m D_n,
where U_n = q (U_{n-1} + P_{n-1}) and D_n = r D_{n-1} + (r - q) (U_{n-1} +
P_{n-1}) start at 0: O(Z) per scale, all terms non-negative. The law is
untruncated, cut at Z, and keeps the survival's one-sided bound for
P(W > w + V): no T_j is short by more than the dropped weights.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geom import half_angle_cos_sin
from .record import record

_MAX_SERIES_TERMS = 10_000
_SERIES_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """The fading series or an adaptive quadrature missed its tolerance."""


@record
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
    def _beta_complement(self) -> float:  # 1 - beta, without cancellation
        return 2.0 * self.b0 * self.m / (2.0 * self.b0 * self.m + self.omega)


@record
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
        if not all(math.isfinite(v) and v > 0 for v in vars(self).values()):
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
    c0 = math.exp(m * math.log(params._beta_complement))
    if c0 == 0.0:
        raise ConvergenceError("shadowed-Rician series weights underflow")
    # Built on 64, 128, ... terms until a cut is found. ``cumprod`` runs in
    # sequence, so each build is bit for bit the first terms of the full one.
    n_terms = min(64, max_terms)
    while True:
        z = np.arange(n_terms, dtype=float)
        c = np.cumprod(np.concatenate(([c0], beta * (m + z[:-1]) / z[1:])))
        # The ratio c_{z+1} / c_z = beta (m + z) / (z + 1) tends to beta
        # monotonically, so its supremum past the last kept term Z - 1 is at
        # one end or the other, and the dropped weights sum to at most
        # c_{Z-1} r / (1 - r).
        ends = np.arange(16, n_terms + 1, 16)
        ratio = beta * np.maximum(m + ends - 1.0, ends) / ends
        with np.errstate(divide="ignore"):
            bound = np.where(ratio < 1.0, c[ends - 1] * ratio / (1.0 - ratio), np.inf)
        done = np.flatnonzero(bound <= tol)
        if done.size:
            break
        if n_terms == max_terms:
            raise ConvergenceError(
                f"shadowed-Rician series did not converge within {max_terms} terms"
            )
        n_terms = min(2 * n_terms, max_terms)
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
    ``(n_terms, x.size)``, built as one running product down the rows
    e^{-x}, x (1 / 1), x (1 / 2), ..., and taken in log space for x past
    ``_LOG_SPACE_X``."""
    pi = np.empty((n_terms, x.size))
    pi[0] = np.exp(-x)
    np.multiply(x, (1.0 / np.arange(1, n_terms))[:, None], out=pi[1:])
    np.cumprod(pi, axis=0, out=pi)
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
    x, c, tails, pi = _series_terms(params, w, tol)
    out = np.cumsum(c)[:-1] @ pi[1:] + tails[0] * _poisson_upper(x, pi)
    return _shaped(w, np.minimum(out, 1.0))


def _poisson_upper(x: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """P(Poisson(x) >= Z) for the Z rows of the Poisson matrix ``pi``. Past
    the mean the probability is at least about a half, and one minus the
    rows' sum is exact enough. Below it, the recurrence runs on past the
    last row, as a sum of positive terms, until the rest cannot matter."""
    n_terms = pi.shape[0]
    upper = np.empty_like(x)
    past = x >= n_terms
    upper[past] = np.maximum(1.0 - pi[:, past].sum(axis=0), 0.0)
    near = x[~past]
    term, total = pi[-1, ~past], np.zeros(near.size)
    j = n_terms
    while True:
        term = term * near / j
        total += term
        j += 1
        # The ratios x / j fall with j, so the rest is at most
        # term * r / (1 - r) for the next ratio r < 1.
        r = near / j
        if np.all(term * r <= 2.0**-54 * (1.0 - r) * total):
            break
    upper[~past] = total
    return upper


def sr_sf(params: SrFadingParams, w, counts=None):
    """Survival function P(W > w) of the shadowed-Rician power fading,
    elementwise over ``w``; given the law ``counts`` of the count that stands
    for an independent power V (one value per series term, as from
    :func:`sr_count_pmf`), P(W > w + V).

    The series is truncated once its dropped weights sum to at most 1e-12
    (``_SERIES_TOL``), so up to rounding the error is one-sided:
    0 <= P(W > w) - sr_sf(w) <= 1e-12. The number of terms does not depend
    on ``w``, so the result is non-increasing in ``w`` and reaches zero with
    the true tail. Without ``counts`` it is exactly one at w = 0.
    """
    x, _, tails, pi = _series_terms(params, w, _SERIES_TOL)
    if counts is None:
        return _shaped(w, np.where(x == 0.0, 1.0, np.minimum(tails @ pi, 1.0)))
    if np.shape(counts) != tails.shape:
        raise ValueError(f"counts must hold one value per series term ({tails.size})")
    # sum_i counts_i T_{i+k} for each k, with T_j = 0 past the last term.
    shifted = np.convolve(counts[::-1], tails)[tails.size - 1:]
    return _shaped(w, np.minimum(shifted @ pi, 1.0))


def sr_count_pmf(params: SrFadingParams, scale):
    """Law of N = Poisson(scale * W / (2 b0)) for a shadowed-Rician power W,
    shape ``(Z,) + shape(scale)``: row i is P(N = i), i < Z, of the
    untruncated law (exactly e_0 at scale zero) by the module docstring's
    recurrence, and :func:`sr_sf` keeps its one-sided bound with it. A
    column whose rounded sum exceeds one is scaled down until it does not."""
    a = np.asarray(scale, dtype=float)
    if np.any(a < 0):
        raise ValueError("scale must be non-negative")
    n_terms = _series_weights(params, _SERIES_TOL, _MAX_SERIES_TERMS)[0].size
    m, beta, x = params.m, params._beta, a.ravel()
    p, r = 1.0 / (1.0 + x), x / (x + params._beta_complement)
    q, gap = x * p, beta * r * p  # gap = r - q
    out = np.empty((n_terms, x.size))
    out[0] = p * np.exp(m * np.log1p(-beta * r))
    u = d = 0.0
    for n in range(1, n_terms):
        t = u + out[n - 1]
        u, d = q * t, r * d + gap * t
        out[n] = (u + m * d) / n
    while np.any((total := out.sum(axis=0)) > 1.0):
        out[:, total > 1.0] /= total[total > 1.0]
    return out.reshape((n_terms,) + a.shape)


def sr_sample(params: SrFadingParams, rng: np.random.Generator, size=None):
    """Draw fading powers W = |A + n|^2 with a Nakagami-m line-of-sight
    amplitude A (E[A^2] = omega) and complex scatter n of per-component
    variance b0. The power so built has exactly the CDF of :func:`sr_cdf`.

    The scatter is drawn in polar form: its modulus R = sqrt(2 b0 E), E a
    standard exponential, and its angle phi uniform on [-pi, pi), which by
    Box-Muller is the law of two independent normals. Then
    W = (A + R cos phi)^2 + (R sin phi)^2, a sum of squares, so never
    negative; R cos phi and R sin phi come from
    :func:`~constelsim.geom.half_angle_cos_sin`. Random draws happen in a
    fixed order: one gamma per value for A^2 (none when omega is 0), then
    one exponential per value, then one uniform per value for phi.
    """
    # A scalar is drawn as one value: a ufunc gives a 0-d array operand back
    # as a scalar, which the in-place steps below cannot take as ``out``.
    shape = (1,) if size is None else size
    amp = rng.gamma(shape=params.m, scale=params.omega / params.m, size=shape) \
        if params.omega > 0 else np.zeros(shape)
    np.sqrt(amp, out=amp)
    radius = rng.standard_exponential(shape)
    radius *= 2.0 * params.b0
    np.sqrt(radius, out=radius)
    phi = rng.random(shape)
    phi -= 0.5
    phi *= 2.0 * math.pi
    in_phase, quadrature = half_angle_cos_sin(phi, radius)  # R cos phi, R sin phi
    in_phase += amp
    in_phase *= in_phase
    quadrature *= quadrature
    in_phase += quadrature
    return float(in_phase[0]) if size is None else in_phase


# ---------------------------------------------------------------------------
# Receive antenna patterns
# ---------------------------------------------------------------------------

# Each pattern takes one parameter, and patterns that share it share its check.
def _check_phi_3db(pattern):
    if not 0 < pattern.phi_3db < math.inf:
        raise ValueError("phi_3db must be positive and finite")


def _check_n_elements(pattern):
    if pattern.n_elements < 1:
        raise ValueError("n_elements must be at least 1")


@record
class GaussianPattern:
    """Gaussian main lobe, half-power beamwidth phi_3db."""

    phi_3db: float
    __post_init__ = _check_phi_3db

    def gain_shape(self, phi):
        phi = np.asarray(phi, dtype=float)
        return np.exp2(-(phi / self.phi_3db) ** 2)

    @property
    def effective_range(self) -> float:
        # Beyond 3 beamwidths the gain has fallen by 2^-9.
        return 3.0 * self.phi_3db


@record
class FlatTopPattern:
    phi_3db: float
    __post_init__ = _check_phi_3db

    def gain_shape(self, phi):
        phi = np.asarray(phi, dtype=float)
        return np.where(np.abs(phi) <= self.phi_3db, 1.0, 0.0)

    @property
    def effective_range(self) -> float:
        return self.phi_3db


@record
class SincPattern:
    n_elements: int
    __post_init__ = _check_n_elements

    def gain_shape(self, phi):
        # np.sinc(x) = sin(pi x)/(pi x), so this is sin^2(pi Na phi)/(pi Na phi)^2.
        return np.sinc(self.n_elements * np.asarray(phi, dtype=float)) ** 2

    @property
    def effective_range(self) -> float:
        # Main lobe plus first sidelobe.
        return 3.0 / self.n_elements


@record
class CosinePattern:
    n_elements: int
    __post_init__ = _check_n_elements

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
