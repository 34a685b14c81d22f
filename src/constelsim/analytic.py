"""Closed-form availability and localizability probabilities.

Availability counts satellites within the maximum detectable central angle,
and needs no quadrature. A single satellite of either shell is uniform on its
sphere: a LEO point by construction, a MEO satellite because its orbit normal
and its anomaly are both uniform. So it is detectable with the area fraction
sin^2(theta_max / 2) of the detectable cap. The LEO count is binomial (points
are independent), the MEO count binomial with the same single-satellite
probability (ignoring that one orbit's satellites share its attitude), and
hybrid constellations take a convolution of the two, truncated at the
smallest MEO count whose exceedance probability drops below ``epsilon``.

Localizability additionally requires each beam-associated satellite to clear
its layer's SINR threshold. Both layers take one pass integral
(:func:`_pass_integral`): over the serving angle theta, a satellite's
contact-angle density times its survival P(W > x(theta) + V). For the
k-th nearest of n satellites uniform on a shell, the density is
n sin(theta) / 2 * P(Binomial(n - 1, f(theta)) = k - 1), with f the cap
fraction, by the identity k C(n, k) = n C(n - 1, k - 1)
(:func:`contact_angle_pdfs`, all ranks in one array). The LEO layer
integrates every rank at once. A MEO satellite is one satellite uniform on
its shell (n = 1, density sin(theta) / 2), and the binomial count law does
the rest. MEO beams are noise limited, V = 0. LEO beams see a
zero-or-one interferer mixture: with probability ``p_zero`` no other
satellite falls inside the receive beam's effective range, otherwise a
single interferer is placed uniformly in that cap and its power is taken at
the serving satellite's range. Its fading and angle reduce to one count law
V in the fading series (:func:`~constelsim.channel.sr_count_pmf`),
averaged over the cap by one vector-valued integral per config, so no
integral is nested.

:func:`evaluate` returns one metric for every K = 1..k_max at once. It builds
the LEO values for all K (a binomial tail, or the running product of the
per-rank probabilities) and the MEO count law (binomial in the
single-satellite probability), and :func:`compose` turns them into the LEO,
MEO and hybrid arrays. The Monte Carlo estimates compose through the same
function.

A sweep repeats each layer's inputs across its points, so the three
integrals sit behind bounded ``lru_cache`` helpers keyed by only what they
read, and return read-only arrays. The interferer's count law reads the LEO
radius, the receive pattern, the LEO fading and threshold, theta_d and
rtol, but no LEO count (only ``p_zero`` does, mixed in after). The LEO rank
probabilities read the LEO shell, link and fading, the pattern, k_max and
rtol. The MEO pass probability reads the MEO radius, theta_max, the MEO
link and fading and rtol, but no MEO count.

Every integral goes through :func:`integrate_adaptive`, a globally adaptive
Gauss-Kronrod 10/21 rule (QUADPACK's pair) that evaluates its integrand on
arrays of nodes and integrates vector-valued integrands on one shared
partition. The binomial law (:func:`binom_law`) is built by a ratio
recurrence out from its mode, so the module needs nothing beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    AntennaPattern,
    LinkParams,
    SrFadingParams,
    sr_cdf,  # noqa: F401 -- unused; perfbench/tests/test_bench.py traces it here
    sr_count_pmf,
    sr_sf,
)
from .constellation import LeoShellConfig, MeoShellConfig
from .geom import EARTH_RADIUS_KM, central_from_dome, dome_from_central, max_central_angle

KM_TO_M = 1e3


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""

    def __init__(self, label: str, estimate: float, error: float, detail: str = ""):
        self.label = label
        self.estimate = estimate
        self.error = error
        msg = f"quadrature '{label}' did not converge: estimate {estimate}, error {error}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


# Most panels integrate_adaptive may use before it gives up.
MAX_PANELS = 200


# Gauss-Kronrod 10/21 pair on [-1, 1] (QUADPACK's dqk21; Piessens et al.,
# 1983): the positive Kronrod nodes, outermost first, with the Gauss nodes
# at odd positions, and their weights. The rule is symmetric about 0.
_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_HALF_KRONROD = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_HALF_GAUSS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# All 21 nodes in ascending order; the 10 Gauss nodes are _GK_NODES[1::2].
_GK_NODES = np.concatenate([-_HALF_NODES, [0.0], _HALF_NODES[::-1]])
_GK_KRONROD = np.concatenate([_HALF_KRONROD, [0.149445554002916905664936468389821], _HALF_KRONROD[::-1]])
_GK_GAUSS = np.concatenate([_HALF_GAUSS, _HALF_GAUSS[::-1]])


def _gk21_panels(func, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod estimates, shape ``(..., n)``, and error estimates, shape
    ``(n,)``, of the integrals of ``func`` over the panels [lo, hi].

    ``func`` is called once, on all 21 * n nodes. The error is QUADPACK's:
    the Kronrod-Gauss gap scaled against the integrand's spread about its
    mean, floored at 50 eps times the integral of |func|, taken per
    component and then its largest over the components.
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    values = np.asarray(func(nodes.ravel()), dtype=float)
    values = values.reshape(values.shape[:-1] + nodes.shape)
    kronrod = values @ _GK_KRONROD
    gap = np.abs(kronrod - values[..., 1::2] @ _GK_GAUSS)
    spread = np.abs(values - 0.5 * kronrod[..., None]) @ _GK_KRONROD
    with np.errstate(divide="ignore", invalid="ignore"):
        error = np.where(spread > 0, spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5), gap)
    error = np.maximum(error, 50.0 * np.finfo(float).eps * (np.abs(values) @ _GK_KRONROD))
    return kronrod * half, (error * half).reshape(-1, lo.size).max(axis=0)


def integrate_adaptive(func, a: float, b: float, rtol: float, label: str):
    """Integral of ``func`` over [a, b] by globally adaptive Gauss-Kronrod
    10/21 quadrature; raises :class:`QuadratureError` on failure.

    ``func`` maps an array of nodes, shape ``(m,)``, to values of shape
    ``(..., m)``; the result has shape ``(...)``, a float for a scalar
    integrand. All components share one partition of [a, b]. Each round
    bisects the panels with the largest error estimates, as many as it
    takes for the others to hold at most half the tolerance, and evaluates
    ``func`` once on every new node. It stops when the summed error is within
    max(1e-4 * rtol, rtol * largest |component|), and fails when that would
    take more than ``MAX_PANELS`` panels or the integrand is not finite.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value, error = _gk21_panels(func, lo, hi)
    while True:
        total = value.sum(axis=-1)
        scale = float(np.max(np.abs(total)))
        total_error = float(error.sum())
        if not math.isfinite(total_error):
            raise QuadratureError(label, scale, total_error, detail="non-finite integrand")
        tol = max(1e-4 * rtol, rtol * scale)
        if total_error <= tol:
            return float(total) if total.ndim == 0 else total
        room = MAX_PANELS - lo.size
        if room <= 0:
            raise QuadratureError(label, scale, total_error, detail=f"{lo.size} panels")
        order = np.argsort(-error)
        rest = np.append(np.cumsum(error[order][::-1])[::-1][1:], 0.0)
        split, keep = np.split(order, [min(int(np.argmax(rest <= 0.5 * tol)) + 1, room)])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_value, new_error = _gk21_panels(func, new_lo, new_hi)
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[..., keep], new_value], axis=-1)
        error = np.concatenate([error[keep], new_error])


@dataclass(frozen=True)
class SystemConfig:
    """Full two-layer system description, all linear units."""

    leo: LeoShellConfig
    meo: MeoShellConfig
    leo_link: LinkParams
    meo_link: LinkParams
    leo_fading: SrFadingParams
    meo_fading: SrFadingParams
    rx_pattern: AntennaPattern
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not self.rx_pattern.effective_range < math.pi / 2:
            raise ValueError(f"receive pattern's effective range must lie below pi/2, got "
                             f"{self.rx_pattern.effective_range} rad")

    @property
    def leo_theta_max(self) -> float:
        return max_central_angle(self.leo.radius_km, self.leo.beam_angle)

    @property
    def meo_theta_max(self) -> float:
        return max_central_angle(self.meo.radius_km, self.meo.beam_angle)


def _cap_fraction(theta):
    """Area fraction of the spherical cap with central half-angle theta,
    elementwise: (1 - cos(theta)) / 2 in the form sin^2(theta / 2), which
    does not cancel at small theta."""
    return np.sin(0.5 * theta) ** 2


def _noise_threshold(link: LinkParams, shell_radius_km: float, theta) -> np.ndarray:
    """Fading power a satellite at central angle theta on the shell must
    exceed to clear the SINR threshold over noise alone.

    The SINR condition 'received power over (I + noise) exceeds the
    threshold' rearranges to W > q(theta) * (I + noise), with q the
    threshold times the squared slant range over the unit-range power.
    """
    rq, re = shell_radius_km, EARTH_RADIUS_KM
    d_sq_m2 = (rq * rq + re * re - 2.0 * rq * re * np.cos(theta)) * KM_TO_M**2
    return link.sinr_threshold * d_sq_m2 / link.unit_range_power_w * link.noise_power_w


# ---------------------------------------------------------------------------
# Availability
# ---------------------------------------------------------------------------

def meo_single_availability(config: SystemConfig) -> float:
    """Probability that one given MEO satellite is detectable.

    In the doubly stochastic model the orbit normal is uniform on the sphere
    and the anomaly uniform along the orbit, so the satellite itself is
    uniform on the shell: averaged over the attitude, its orbit's visible arc
    fraction equals the cap fraction sin^2(theta_max / 2).
    """
    return float(_cap_fraction(config.meo_theta_max))


def n_meo_max(config: SystemConfig) -> int:
    """Smallest satellite count whose exceedance probability is below
    epsilon; zero for an empty MEO layer.

    Convolution sums over MEO counts are truncated here; the neglected mass
    is at most epsilon.
    """
    n = config.meo.n_sats
    # The tail is non-increasing in K, so this counts the K below the first
    # one whose tail is at most epsilon.
    return int(np.count_nonzero(tail(binom_law(n, meo_single_availability(config)), n) > config.epsilon))


def binom_law(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) pmf for k = 0..n, from the ratio
    P(k + 1) / P(k) = (n - k) / (k + 1) * p / (1 - p) run out from the mode
    in both directions, then normalised. Every value is a product of
    positive ratios, with no cancellation, so far tails keep their relative
    accuracy."""
    if n == 0 or p in (0.0, 1.0):
        out = np.zeros(n + 1)
        out[n if p == 1.0 else 0] = 1.0
        return out
    mode = int((n + 1) * p)
    odds = p / (1.0 - p)
    up = np.arange(mode, n, dtype=float)  # P(k + 1) / P(k) for these k
    down = np.arange(mode, 0, -1, dtype=float)  # P(k - 1) / P(k) for these k
    pmf = np.empty(n + 1)
    pmf[mode:] = np.cumprod(np.concatenate(([1.0], (n - up) / (up + 1.0) * odds)))
    pmf[:mode] = np.cumprod(down / (n - down + 1.0) / odds)[::-1]
    return pmf / pmf.sum()


def tail(law: np.ndarray, k_max: int) -> np.ndarray:
    """P(N >= K) for K = 1..k_max, where N has the pmf ``law`` on 0, 1, ...
    along its last axis (leading axes broadcast); summed from the far end,
    so small tails keep their relative accuracy, and zero past the law's
    end."""
    tail = np.cumsum(law[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    pad = np.zeros(tail.shape[:-1] + (max(0, k_max - tail.shape[-1]),))
    return np.concatenate([tail, pad], axis=-1)[..., :k_max]


def compose(leo: np.ndarray, meo_law: np.ndarray, cutoff: int) -> dict[str, np.ndarray]:
    """LEO, MEO and hybrid values for K = 1..k_max, keyed by system, along
    the last axis; leading axes broadcast, so a stack of cases composes in
    one call.

    ``leo[..., K - 1]`` is the probability that the LEO layer alone supplies
    K satellites (zero past the LEO population), and ``meo_law`` is the law
    of the MEO count; the MEO value is its tail. The hybrid counts MEO
    satellites first: with ``j`` of them, the LEO layer must supply the
    remaining ``K - j``. Counts beyond ``cutoff`` are dropped (their total
    mass is below epsilon by construction), and so are counts the law does
    not cover.
    """
    k_max = leo.shape[-1]
    hybrid = np.zeros(np.broadcast_shapes(leo.shape, meo_law.shape[:-1] + (k_max,)))
    for j in range(min(cutoff, meo_law.shape[-1] - 1) + 1):
        # LEO value for K - j, zero where j >= K (those K are covered below).
        shifted = np.concatenate([np.zeros(leo.shape[:-1] + (j,)), leo], axis=-1)[..., :k_max]
        hybrid += shifted * meo_law[..., j, None]
    hybrid += tail(meo_law[..., : cutoff + 1], k_max)
    return {"leo": leo, "meo": tail(meo_law, k_max), "hybrid": hybrid}


# ---------------------------------------------------------------------------
# Contact angle densities
# ---------------------------------------------------------------------------

def contact_angle_pdfs(n: int, theta_max: float, k_max: int, theta) -> np.ndarray:
    """Densities of the central angle to the k-th nearest of ``n``
    satellites uniform on their shell, for k = 1..k_max, shape
    ``(k_max,) + shape(theta)``.

    The rank-k density is the derivative of P(Binomial(n, f(theta)) >= k),
    with f the cap fraction; by k C(n, k) = n C(n - 1, k - 1) it is
    n sin(theta) / 2 * P(Binomial(n - 1, f(theta)) = k - 1). It is
    defective on [0, theta_max], where it integrates to the probability that
    a k-th satellite is detectable at all, and zero outside [0, theta_max].
    """
    if not 1 <= k_max <= n:
        raise ValueError(f"ranks must lie in [1, {n}], got k_max = {k_max}")
    theta = np.asarray(theta, dtype=float)
    p = _cap_fraction(theta)
    j = np.arange(1, k_max)  # log C(n - 1, k - 1) is the sum of log((n - j) / j) over j < k
    log_comb = np.concatenate([[0.0], np.cumsum(np.log((n - j) / j))])
    k = np.arange(1, k_max + 1).reshape((k_max,) + (1,) * theta.ndim)
    with np.errstate(divide="ignore", invalid="ignore"):
        body = np.exp(math.log(n) + log_comb.reshape(k.shape) + (k - 1) * np.log(p) + (n - k) * np.log1p(-p))
    # p = 0 only at theta = 0, where the rank-1 body tends to n and higher
    # ranks vanish; the sin factor zeroes the density either way.
    density = np.where(p > 0, body, np.where(k == 1, float(n), 0.0)) * 0.5 * np.sin(theta)
    return np.where((theta >= 0) & (theta <= theta_max), density, 0.0)


# ---------------------------------------------------------------------------
# Interference cap
# ---------------------------------------------------------------------------

def leo_interference_cap(leo: LeoShellConfig, pattern: AntennaPattern) -> tuple[float, float]:
    """Interference cap of a LEO beam: the central half-angle ``theta_d`` of
    the cap around the serving satellite that the receive beam's effective
    range maps to, and the probability ``p_zero`` that no LEO satellite
    falls inside it."""
    theta_d = central_from_dome(leo.radius_km, pattern.effective_range)
    return theta_d, (0.5 * (1.0 + math.cos(theta_d))) ** leo.n_sats


# ---------------------------------------------------------------------------
# Localizability
# ---------------------------------------------------------------------------

def _pass_integral(n, radius_km, theta_max, link, fading, counts, k_max, rtol, label) -> np.ndarray:
    """Probabilities that the k-th nearest of ``n`` satellites on the shell
    of radius ``radius_km`` is detectable and clears the SINR threshold,
    for k = 1..k_max: the integral over [0, theta_max] of the contact-angle
    densities times P(W > x(theta) + V), with x the noise threshold and V
    the count law ``counts`` (no interference when it is None). All ranks share
    one vector-valued :func:`integrate_adaptive` pass, so the survival
    series is evaluated once per node."""
    def integrand(theta):
        x = _noise_threshold(link, radius_km, theta)
        return contact_angle_pdfs(n, theta_max, k_max, theta) * sr_sf(fading, x, counts)

    return np.clip(integrate_adaptive(integrand, 0.0, theta_max, rtol, label), 0.0, 1.0)


def leo_rank_coverage_probs(config: SystemConfig, k_max: int, rtol: float = 1e-8) -> np.ndarray:
    """Per-rank probabilities that the k-th nearest LEO satellite is
    detectable and clears the SINR threshold, for k = 1..k_max (read-only).

    The interferer adds gamma * gain_shape(dome(theta_i)) * W_i to the
    threshold, with path loss taken at the serving range, so its count law
    in the fading series (:func:`sr_count_pmf`) does not depend on the
    serving angle. The mixture's law, p_zero e_0 plus (1 - p_zero) times
    its cap average, is one vector-valued integral per config at 10x
    tighter tolerance; the pass integral over the serving angle is the
    other.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _leo_rank_probs(config.leo, config.leo_link, config.leo_fading, config.rx_pattern, k_max, rtol)


@lru_cache(maxsize=32)
def _leo_rank_probs(leo, link, fading, pattern, k_max, rtol) -> np.ndarray:
    out = np.zeros(k_max)
    if leo.n_sats > 0:
        theta_d, p_zero = leo_interference_cap(leo, pattern)
        counts = (1.0 - p_zero) * _interferer_law(leo.radius_km, pattern, fading, link.sinr_threshold, theta_d, rtol)
        counts[0] += p_zero
        ranks = min(k_max, leo.n_sats)
        out[:ranks] = _pass_integral(leo.n_sats, leo.radius_km, max_central_angle(leo.radius_km, leo.beam_angle),
                                     link, fading, counts, ranks, rtol, "rank coverage")
    out.flags.writeable = False  # shared by every caller
    return out


@lru_cache(maxsize=32)
def _interferer_law(radius_km, pattern, fading, threshold, theta_d, rtol) -> np.ndarray:
    """Cap average of one interferer's count law, without ``p_zero``."""
    cap = 2.0 * _cap_fraction(theta_d)

    def over_angle(theta_i):
        shape = pattern.gain_shape(dome_from_central(radius_km, theta_i))
        return sr_count_pmf(fading, threshold * shape) * (np.sin(theta_i) / cap)

    law = integrate_adaptive(over_angle, 0.0, theta_d, rtol / 10, "interferer count law")
    law.flags.writeable = False
    return law


def meo_single_localizability(config: SystemConfig, rtol: float = 1e-8) -> float:
    """Probability that one MEO satellite is detectable and clears its
    (noise-limited) SNR threshold: the pass integral of a one-satellite
    shell, whose contact-angle density is sin(theta) / 2."""
    return _meo_pass_prob(config.meo.radius_km, config.meo_theta_max, config.meo_link, config.meo_fading, rtol)


@lru_cache(maxsize=32)
def _meo_pass_prob(radius_km, theta_max, link, fading, rtol) -> float:
    return float(_pass_integral(1, radius_km, theta_max, link, fading, None, 1, rtol,
                                "meo single-satellite localizability")[0])


# ---------------------------------------------------------------------------
# All-K evaluation
# ---------------------------------------------------------------------------

METRICS = ("availability", "localizability")
SYSTEMS = ("leo", "meo", "hybrid")


def evaluate(
    config: SystemConfig,
    metric: str,
    systems: tuple[str, ...],
    k_max: int,
    rtol: float = 1e-8,
) -> dict[str, np.ndarray]:
    """Closed-form ``metric`` for K = 1..k_max, one array per system.

    It builds the LEO values, the MEO count law and the truncation cutoff
    once, and :func:`compose` derives every system from them. LEO
    availability is the binomial tail of the detectable count, and LEO
    localizability the running product of the per-rank probabilities from
    one rank-coverage pass (zero past the LEO population); the MEO count is
    binomial in the single-satellite probability. A layer no requested
    system needs keeps the neutral values: no LEO satellite, a MEO count of
    zero, and no MEO counts mixed in.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric '{metric}'")
    if not set(systems) <= set(SYSTEMS):
        raise ValueError(f"systems must be drawn from {SYSTEMS}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    leo, meo_law, cutoff = np.zeros(k_max), np.array([1.0]), 0
    if "leo" in systems or "hybrid" in systems:
        if metric == "availability":
            leo = tail(binom_law(config.leo.n_sats, _cap_fraction(config.leo_theta_max)), k_max)
        else:
            leo = np.cumprod(leo_rank_coverage_probs(config, k_max, rtol))
    if "meo" in systems or "hybrid" in systems:
        if metric == "availability":
            p1 = meo_single_availability(config)
        else:
            p1 = meo_single_localizability(config, rtol)
        meo_law, cutoff = binom_law(config.meo.n_sats, p1), n_meo_max(config)
    out = compose(leo, meo_law, cutoff)
    return {system: out[system] for system in systems}
