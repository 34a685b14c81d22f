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
its layer's SINR threshold. LEO beams see a zero-or-one interferer mixture:
with probability ``p_zero`` no other satellite falls inside the receive
beam's effective range, otherwise a single interferer is placed uniformly in
that cap and its power is taken at the serving satellite's range. MEO beams
are noise limited.

:func:`evaluate` returns one metric for every K = 1..k_max at once. It runs
one rank-coverage pass per config, whose per-rank probabilities give the LEO
values for all K, computes the MEO single-satellite probabilities once, and
mixes the layers in one convolution. The per-K functions
(``leo_availability`` ... ``hybrid_localizability``) read their value off it.

Every integral goes through :func:`integrate_adaptive`, a globally adaptive
Gauss-Kronrod 10/21 rule (QUADPACK's pair) that evaluates its integrand on
arrays of nodes and integrates vector-valued integrands on one shared
partition. The rank-coverage pass is three array expressions: the serving
angle carries every rank at once, the interferer angle is one vector-valued
integral over all serving-angle nodes, and the interferer's fading is a
fixed 64-node rule. The binomial laws (:func:`binom_sf`,
:func:`binom_pmf`) read one pmf built by a ratio recurrence out from its
mode, so the module needs nothing beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import (
    AntennaPattern,
    LinkParams,
    SrFadingParams,
    sr_cdf,  # noqa: F401 -- unused; perfbench/tests/test_bench.py traces it here
    sr_pdf,
    sr_sf,
)
from .constellation import LeoShellConfig, MeoShellConfig
from .geom import (
    SphereGeometry,
    central_from_dome,
    dome_from_central,
    max_central_angle,
)

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


@dataclass(frozen=True)
class QuadratureSpec:
    relative_tolerance: float = 1e-8
    absolute_tolerance: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.relative_tolerance <= 0 or self.absolute_tolerance <= 0:
            raise ValueError("tolerances must be positive")

    def tighter(self, factor: float = 10.0) -> "QuadratureSpec":
        """Spec for an inner integral nested under this one."""
        return replace(
            self,
            relative_tolerance=self.relative_tolerance / factor,
            absolute_tolerance=self.absolute_tolerance / factor,
        )


DEFAULT_QUADRATURE = QuadratureSpec()


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


def integrate_adaptive(func, a: float, b: float, spec: QuadratureSpec, label: str):
    """Integral of ``func`` over [a, b] by globally adaptive Gauss-Kronrod
    10/21 quadrature; raises :class:`QuadratureError` on failure.

    ``func`` maps an array of nodes, shape ``(m,)``, to values of shape
    ``(..., m)``; the result has shape ``(...)``, a float for a scalar
    integrand. All components share one partition of [a, b]. Each round
    bisects the panels with the largest error estimates, as many as it
    takes for the others to hold at most half the tolerance, and evaluates
    ``func`` once on every new node. It stops when the summed error is within
    max(absolute tolerance, relative tolerance * largest |component|), and
    fails when that would take more than ``spec.max_subdivisions`` panels or
    the integrand is not finite.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    value, error = _gk21_panels(func, lo, hi)
    while True:
        total = value.sum(axis=-1)
        scale = float(np.max(np.abs(total)))
        total_error = float(error.sum())
        if not math.isfinite(total_error):
            raise QuadratureError(label, scale, total_error, detail="non-finite integrand")
        tol = max(spec.absolute_tolerance, spec.relative_tolerance * scale)
        if total_error <= tol:
            return float(total) if total.ndim == 0 else total
        room = spec.max_subdivisions - lo.size
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

    @property
    def leo_geom(self) -> SphereGeometry:
        return SphereGeometry(self.leo.radius_km)

    @property
    def meo_geom(self) -> SphereGeometry:
        return SphereGeometry(self.meo.radius_km)

    @property
    def leo_theta_max(self) -> float:
        return max_central_angle(self.leo_geom, self.leo.beam_angle)

    @property
    def meo_theta_max(self) -> float:
        return max_central_angle(self.meo_geom, self.meo.beam_angle)


def _cap_fraction(theta):
    """Area fraction of the spherical cap with central half-angle theta,
    elementwise: (1 - cos(theta)) / 2 in the form sin^2(theta / 2), which
    does not cancel at small theta."""
    return np.sin(0.5 * theta) ** 2


def _slant_range_sq_m2(geom: SphereGeometry, theta) -> np.ndarray:
    rq, re = geom.shell_radius_km, geom.earth_radius_km
    d_sq_km2 = rq * rq + re * re - 2.0 * rq * re * np.cos(theta)
    return d_sq_km2 * KM_TO_M**2


def _snr_threshold_scale(link: LinkParams, geom: SphereGeometry, theta) -> np.ndarray:
    """Fading power that must be exceeded per watt of (interference + noise).

    The SINR condition 'received power over (I + noise) exceeds the
    threshold' rearranges to W > q(theta) * (I + noise) with this q.
    """
    return link.sinr_threshold * _slant_range_sq_m2(geom, theta) / link.unit_range_power_w


# ---------------------------------------------------------------------------
# Availability
# ---------------------------------------------------------------------------

def leo_availability(config: SystemConfig, k_min: int) -> float:
    """Probability that at least ``k_min`` LEO satellites are detectable."""
    if k_min < 0:
        raise ValueError("k_min must be non-negative")
    return _at_level(config, "availability", "leo", k_min)


def meo_single_availability(config: SystemConfig) -> float:
    """Probability that one given MEO satellite is detectable.

    In the doubly stochastic model the orbit normal is uniform on the sphere
    and the anomaly uniform along the orbit, so the satellite itself is
    uniform on the shell: averaged over the attitude, its orbit's visible arc
    fraction equals the cap fraction sin^2(theta_max / 2).
    """
    return float(_cap_fraction(config.meo_theta_max))


def meo_availability(config: SystemConfig, k_min: int) -> float:
    """Probability that at least ``k_min`` MEO satellites are detectable.

    Satellites are treated as independent with the single-satellite
    probability; same-orbit correlation is ignored.
    """
    if k_min < 0:
        raise ValueError("k_min must be non-negative")
    return _at_level(config, "availability", "meo", k_min)


def n_meo_max(config: SystemConfig) -> int:
    """Smallest satellite count whose exceedance probability is below
    epsilon; zero for an empty MEO layer.

    Convolution sums over MEO counts are truncated here; the neglected mass
    is at most epsilon.
    """
    n = config.meo.n_sats
    # The tail is non-increasing in k, so this counts the k below the first
    # one whose tail is at most epsilon.
    return int(np.count_nonzero(binom_sf(np.arange(n), n, meo_single_availability(config)) > config.epsilon))


def _binom_law(n: int, p: float) -> np.ndarray:
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


def binom_sf(k, n: int, p: float):
    """P(X > k) for X ~ Binomial(n, p), elementwise over integer ``k``:
    one for k < 0, zero for k >= n."""
    k = np.asarray(k)
    tail = np.append(np.cumsum(_binom_law(n, p)[::-1])[::-1], 0.0)  # P(X >= j), j = 0..n+1
    return np.where(k < 0, 1.0, tail[np.clip(k + 1, 0, n + 1).astype(int)])


def binom_pmf(k, n: int, p: float):
    """P(X = k) for X ~ Binomial(n, p), elementwise over integer ``k``; zero
    outside [0, n]."""
    k = np.asarray(k)
    return np.where((k >= 0) & (k <= n), _binom_law(n, p)[np.clip(k, 0, n).astype(int)], 0.0)


def _hybrid_convolution(leo: np.ndarray, meo_pmf: np.ndarray, cutoff: int) -> np.ndarray:
    """Mix per-K LEO values with a MEO count distribution, for K = 1..len(leo).

    ``leo[K - 1]`` is the probability that the LEO layer alone supplies K
    satellites (zero past the LEO population). With ``j`` MEO satellites
    counted, the LEO layer must supply the remaining ``K - j``; counts
    beyond ``cutoff`` are dropped (their total mass is below epsilon by
    construction), and so are counts ``meo_pmf`` does not cover.
    """
    k_max = len(leo)
    total = np.zeros(k_max)
    for j in range(min(cutoff, len(meo_pmf) - 1) + 1):
        # LEO value for K - j, zero where j >= K (those K are covered below).
        total += np.concatenate([np.zeros(j), leo])[:k_max] * meo_pmf[j]
    return total + np.array([meo_pmf[k: cutoff + 1].sum() for k in range(1, k_max + 1)])


def hybrid_availability(config: SystemConfig, k_min: int) -> float:
    """Probability that LEO and MEO layers together provide ``k_min``
    detectable satellites."""
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    return _at_level(config, "availability", "hybrid", k_min)


# ---------------------------------------------------------------------------
# Contact angle densities
# ---------------------------------------------------------------------------

def leo_contact_angle_pdf(config: SystemConfig, k: int, theta):
    """Density of the central angle to the k-th nearest LEO satellite.

    Derivative of the binomial occupancy CDF of the cap of half-angle theta;
    defective on [0, theta_max] (it integrates to the probability that a
    k-th satellite is detectable at all). Zero outside the support.
    """
    n = config.leo.n_sats
    if not 1 <= k <= n:
        raise ValueError(f"rank k must lie in [1, {n}]")
    theta = np.asarray(theta, dtype=float)
    p = _cap_fraction(theta)
    log_comb = math.log(math.comb(n, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_body = math.log(k) + log_comb + (k - 1) * np.log(p) + (n - k) * np.log1p(-p)
        body = np.exp(log_body)
    # p = 0 only at theta = 0, where the k = 1 body tends to n and higher
    # ranks vanish; the sin factor zeroes the density either way.
    limit_at_zero = float(n) if k == 1 else 0.0
    density = np.where(p > 0, body, limit_at_zero) * 0.5 * np.sin(theta)
    in_support = (theta >= 0) & (theta <= config.leo_theta_max)
    out = np.where(in_support, density, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Interference cap
# ---------------------------------------------------------------------------

def leo_interference_cap(config: SystemConfig) -> tuple[float, float]:
    """Interference cap of a LEO beam: the central half-angle ``theta_d`` of
    the cap around the serving satellite that the receive beam's effective
    range maps to, and the probability ``p_zero`` that no LEO satellite
    falls inside it."""
    theta_d = central_from_dome(config.leo_geom, config.rx_pattern.effective_range)
    return theta_d, (0.5 * (1.0 + math.cos(theta_d))) ** config.leo.n_sats


# ---------------------------------------------------------------------------
# Localizability
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _fading_upper_bound(fading: SrFadingParams) -> float:
    """w beyond which the fading survival probability is below 1e-11."""
    hi = fading.mean_power
    while sr_sf(fading, hi) > 1e-11:
        hi *= 2.0
    return hi


@lru_cache(maxsize=32)
def _fading_rule(fading: SrFadingParams, n_nodes: int = 64) -> tuple:
    """Gauss-Legendre rule for expectations against the fading density.

    Returns nodes w_j and weights that absorb the density, so
    E[phi(W)] = sum_j weight_j * phi(w_j) for smooth phi, up to the truncated
    tail mass (< 1e-11) and the rule's own error; verified against adaptive
    quadrature in the test suite.
    """
    w_hi = _fading_upper_bound(fading)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_nodes)
    w = 0.5 * w_hi * (nodes + 1.0)
    weights = 0.5 * w_hi * gl_weights * sr_pdf(fading, w)
    return w, weights


# Largest number of points passed to one sr_sf call. Its Poisson-term matrix
# has one row per series term and one column per point, so this bounds the
# memory of the rank-coverage grid at any number of nodes.
SF_CHUNK_POINTS = 65_536


def _chunked_sf(fading: SrFadingParams, w: np.ndarray) -> np.ndarray:
    """``sr_sf`` over ``w`` of any size, at most ``SF_CHUNK_POINTS`` per call."""
    flat = w.ravel()
    parts = [sr_sf(fading, flat[i: i + SF_CHUNK_POINTS]) for i in range(0, flat.size, SF_CHUNK_POINTS)]
    return np.concatenate(parts).reshape(w.shape)


def _leo_sinr_pass_function(config: SystemConfig, quad_spec: QuadratureSpec):
    """Build P_pass(theta): probability that a LEO beam served from central
    angle theta clears the SINR threshold under the interference mixture,
    elementwise over an array of serving angles.

    The interferer's contribution enters the threshold argument as
    gamma * gain_shape(dome(theta_i)) * W_i, with path loss taken at the
    serving range. For all serving angles at once, the interferer-angle
    expectation is one vector-valued :func:`integrate_adaptive` call at 10x
    tighter tolerance, so they share one partition of the interferer cap.
    The expectation over the interferer's fading uses the fixed fading rule,
    so each round of that integral evaluates one (serving angle x interferer
    angle x fading node) grid of survivals, in pieces of at most
    ``SF_CHUNK_POINTS``.
    """
    geom = config.leo_geom
    fading = config.leo_fading
    link = config.leo_link
    theta_d, p_zero = leo_interference_cap(config)
    cap = 1.0 - math.cos(theta_d)
    inner_spec = quad_spec.tighter()
    w_nodes, w_weights = _fading_rule(fading)
    gamma_w = link.sinr_threshold * w_nodes

    def p_pass(theta: np.ndarray) -> np.ndarray:
        x = _snr_threshold_scale(link, geom, theta) * link.noise_power_w
        noise_only = _chunked_sf(fading, x)
        if p_zero >= 1.0:
            return noise_only

        def over_angle(theta_i):
            shape = config.rx_pattern.gain_shape(dome_from_central(geom, theta_i))
            survival = _chunked_sf(fading, x[:, None, None] + shape[:, None] * gamma_w) @ w_weights
            return survival * np.sin(theta_i) / cap

        interfered = integrate_adaptive(
            over_angle, 0.0, theta_d, inner_spec,
            label="interferer angle expectation",
        )
        return p_zero * noise_only + (1.0 - p_zero) * interfered

    return p_pass


def leo_rank_coverage_probs(config: SystemConfig, k_max: int, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> np.ndarray:
    """Per-rank probabilities that the k-th nearest LEO satellite is
    detectable and clears the SINR threshold, for k = 1..k_max.

    All ranks share one vector-valued :func:`integrate_adaptive` pass over
    the serving angle, so the expensive SINR factor is evaluated once per
    node, and each round evaluates it on all its new nodes at once.
    """
    n = config.leo.n_sats
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ranks = [k for k in range(1, min(k_max, n) + 1)]
    if not ranks:
        return np.zeros(k_max)
    p_pass = _leo_sinr_pass_function(config, quad_spec)

    def integrand(theta):
        densities = np.array([leo_contact_angle_pdf(config, k, theta) for k in ranks])
        return densities * p_pass(theta)

    result = integrate_adaptive(integrand, 0.0, config.leo_theta_max, quad_spec, label="rank coverage")
    out = np.zeros(k_max)
    out[: len(ranks)] = np.clip(result, 0.0, 1.0)
    return out


def leo_localizability(config: SystemConfig, k_min: int, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Probability that the k_min nearest LEO satellites all clear their
    SINR thresholds (per-rank probabilities multiplied)."""
    if k_min < 0:
        raise ValueError("k_min must be non-negative")
    if k_min > config.leo.n_sats:
        return 0.0  # without running a pass over every rank
    return _at_level(config, "localizability", "leo", k_min, quad_spec)


def meo_single_localizability(config: SystemConfig, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Probability that one MEO satellite is detectable and clears its
    (noise-limited) SNR threshold."""
    geom = config.meo_geom
    link = config.meo_link
    fading = config.meo_fading
    theta_max = config.meo_theta_max
    if theta_max <= 0:
        return 0.0

    def integrand(theta):
        x = _snr_threshold_scale(link, geom, theta) * link.noise_power_w
        return 0.5 * np.sin(theta) * sr_sf(fading, x)

    return integrate_adaptive(integrand, 0.0, theta_max, quad_spec, label="meo single-satellite localizability")


def meo_localizability(config: SystemConfig, k_min: int, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Probability that at least ``k_min`` MEO satellites are localizable."""
    if k_min < 0:
        raise ValueError("k_min must be non-negative")
    return _at_level(config, "localizability", "meo", k_min, quad_spec)


def hybrid_localizability(config: SystemConfig, k_min: int, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Localizability of the two-layer system: MEO satellites are used first,
    LEO ranks fill the remainder; same convolution and truncation as
    hybrid availability."""
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    return _at_level(config, "localizability", "hybrid", k_min, quad_spec)


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
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> dict[str, np.ndarray]:
    """Closed-form ``metric`` for K = 1..k_max, one array per system.

    The LEO values are built once and the hybrid values derived from them:
    availability is the binomial tail of the detectable count, and
    localizability the running product of the per-rank probabilities from
    one rank-coverage pass (zero past the LEO population). That pass runs
    only when ``"leo"`` or ``"hybrid"`` is requested. The MEO
    single-satellite probability and the truncation cutoff are computed
    once, and one convolution covers every K.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric '{metric}'")
    if not set(systems) <= set(SYSTEMS):
        raise ValueError(f"systems must be drawn from {SYSTEMS}")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    ks = np.arange(1, k_max + 1)
    out = {}
    if "leo" in systems or "hybrid" in systems:
        n = config.leo.n_sats
        if metric == "availability":
            out["leo"] = binom_sf(ks - 1, n, _cap_fraction(config.leo_theta_max))
        else:
            out["leo"] = np.zeros(k_max)
            k_eff = min(k_max, n)
            if k_eff >= 1:
                out["leo"][:k_eff] = np.cumprod(leo_rank_coverage_probs(config, k_eff, quad_spec))
    if "meo" in systems or "hybrid" in systems:
        n = config.meo.n_sats
        if metric == "availability":
            p1 = meo_single_availability(config)
        else:
            p1 = meo_single_localizability(config, quad_spec)
        out["meo"] = binom_sf(ks - 1, n, p1)
        if "hybrid" in systems:
            cutoff = n_meo_max(config)
            pmf = binom_pmf(np.arange(cutoff + 1), n, p1)
            out["hybrid"] = _hybrid_convolution(out["leo"], pmf, cutoff)
    return {system: out[system] for system in systems}


def _at_level(config: SystemConfig, metric: str, system: str, k_min: int, quad_spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """One value of :func:`evaluate`; at least zero satellites is certain."""
    if k_min == 0:
        return 1.0
    return float(evaluate(config, metric, (system,), k_min, quad_spec)[system][k_min - 1])
