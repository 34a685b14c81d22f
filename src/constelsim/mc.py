"""Monte Carlo simulation of the full system model.

Every trial draws fresh constellations and an independent shadowed-Rician
fading value per link, and evaluates the SINR of every visible MEO
satellite and of the ``k_max`` nearest LEO satellites with exact ranges.
Interference is same-layer only: the two layers use different carriers.

Trials run as arrays. The LEO shell is drawn only inside the horizon cap
(:func:`~constelsim.constellation.sample_bpp_cap`): a binomial point process
puts a Binomial(N, cap fraction) count there, each point uniform in the cap,
so the restricted draw has the exact law of the full shell where it
matters. The cap is a superset of the visible cap, because the detection
angle never exceeds the horizon angle, and satellites outside the visible
cap neither serve nor interfere. The visibility test still runs on the drawn
geometry. The cap sampler returns each trial's satellites nearest first, so
the visible ones form a prefix; the MEO satellites get one argsort by
central angle. Ragged visible sets are padded to the chunk's largest and
masked, so the K nearest ranks and the interferer set come from the same
sorted arrays.

RNG contract. Batch ``b`` of the ``spec.n_batches`` batch-means batches
draws its geometry from ``derive_rng(master_seed, b)`` and its fading from
that stream's first spawned child, in sub-chunks of at most
``CHUNK_TRIALS`` trials (a module constant, so memory stays bounded at any
trial count). ``McSpec`` requires 1 <= n_batches <= n_trials, and the CLI
runs n_batches = min(20, n_trials). Results therefore depend on the config,
``master_seed`` and ``n_trials`` only, and availability estimates do not
depend on whether localizability is simulated too.

Two interference modes exist. The faithful default sums every visible
same-layer satellite with its exact range and exact dome-angle receive gain.
The approximation-matched mode (``sum_all_interferers=False``) reproduces the
closed-form interference model instead: per beam, an interferer is present
with the closed form's cap-occupancy probability and its angle is drawn
uniformly over the cap, independent of the rest of the constellation, with
the serving satellite's own range and the zenith-mapped dome gain. Reading
the interferer off the real constellation cannot reproduce the closed form:
conditioning on the serving satellite being the k-th nearest skews the cap
occupancy (for the nearest satellite the cap overlaps the empty region
around the target), which moves per-rank pass rates by several percent.

The availability estimates are plain trial fractions. The localizability
estimates mirror the closed-form metric, which multiplies per-rank
probabilities: per-rank pass fractions are estimated and composed exactly as
the analytic expressions compose theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import KM_TO_M, SYSTEMS, SystemConfig, QuadratureSpec, DEFAULT_QUADRATURE
from .channel import LinkParams, SrFadingParams, sr_sample
from .constellation import (
    TARGET_DIRECTION,
    cap_positions,
    central_angle_to_target,
    derive_rng,
    sample_bpp_cap,
    sample_dsbpp,
)
from .geom import EARTH_RADIUS_KM, dome_from_central

# Largest number of trials drawn as one array.
CHUNK_TRIALS = 1024

_TARGET_KM = TARGET_DIRECTION * EARTH_RADIUS_KM


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo run controls: trial count, seed, largest K, interference
    mode and the number of batch-means batches."""

    n_trials: int = 100_000
    master_seed: int = 1
    k_max: int = 6
    sum_all_interferers: bool = True
    n_batches: int = 20

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        if not 1 <= self.n_batches <= self.n_trials:
            raise ValueError("n_batches must lie in [1, n_trials]")


class _Link:
    """Per-layer constants of SINR = (W_s / l_s^2) / (noise_term + sum shape_i W_i / l_i^2)."""

    def __init__(self, link: LinkParams, fading: SrFadingParams):
        self.noise_term = link.noise_power_w / link.unit_range_power_w
        self.threshold = link.sinr_threshold
        self.fading = fading


def _nearest_first(positions: np.ndarray, theta_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's satellites sorted by central angle, cut to the largest
    visible count, and the mask of the visible ones."""
    angles = central_angle_to_target(positions)
    order = np.argsort(angles, axis=1)
    width = int((angles <= theta_max).sum(axis=1).max(initial=0))
    nearest = order[:, :width]
    visible = np.take_along_axis(angles, nearest, axis=1) <= theta_max
    return np.take_along_axis(positions, nearest[..., None], axis=1), visible


def _fading(link: _Link, rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    """Independent fading powers where ``mask`` is set, zero elsewhere."""
    out = np.zeros(mask.shape)
    out[mask] = sr_sample(link.fading, rng, size=int(mask.sum()))
    return out


def _sinr_passes(config, link, positions, visible, n_serve, rng, faithful, matched_cap=None) -> np.ndarray:
    """Pass flags of the first ``n_serve`` satellites of each trial's
    visible-first set, shape ``(trials, n_serve)``.

    Faithful interference sums every other visible satellite. Otherwise a
    ``matched_cap`` of (theta_d, p_zero) synthesizes the closed form's one
    interferer, and without one there is no interference. Padding entries
    may hold NaN positions; every use of them is masked.
    """
    rel = positions - _TARGET_KM
    dist_km = np.linalg.norm(rel, axis=-1)
    dist_sq = (dist_km * KM_TO_M) ** 2
    serving = visible[:, :n_serve]
    signal = _fading(link, rng, serving) / dist_sq[:, :n_serve]
    if faithful:
        units = rel / dist_km[..., None]
        cos_dome = np.einsum("bkx,bmx->bkm", units[:, :n_serve], units)
        gain = config.rx_pattern.gain_shape(np.arccos(np.clip(cos_dome, -1.0, 1.0)))
        others = visible[:, None, :] & ~np.eye(n_serve, visible.shape[1], dtype=bool)
        interference = np.where(others, gain * _fading(link, rng, others) / dist_sq[:, None, :], 0.0).sum(axis=-1)
    elif matched_cap is not None:
        # Present with probability 1 - p_zero, angle uniform over the cap,
        # serving-range path loss, zenith-mapped dome gain. The angle solves
        # 1 - cos(theta_i) = U (1 - cos(theta_d)) in half-angle form. U is
        # drawn on (0, 1], so the angle is positive as dome_from_central
        # requires (an arccos form rounds to 0 for tiny U).
        theta_d, p_zero = matched_cap
        present = serving & (rng.random(serving.shape) >= p_zero)
        u = 1.0 - rng.random(serving.shape)
        theta_i = 2.0 * np.arcsin(np.sqrt(u) * math.sin(0.5 * theta_d))
        dome = dome_from_central(config.leo_geom, theta_i)
        interference = config.rx_pattern.gain_shape(dome) * _fading(link, rng, present) / dist_sq[:, :n_serve]
    else:
        interference = 0.0
    return serving & (signal / (link.noise_term + interference) > link.threshold)


@dataclass
class SimulationSummary:
    """Aggregated Monte Carlo estimates with standard errors.

    ``estimates`` maps each (metric, system) to its values and standard
    errors, arrays indexed by K - 1 for K = 1..k_max. Availability values
    are plain fractions with binomial standard errors; localizability values
    are composed from per-rank and per-satellite fractions (matching the
    closed-form metric) with batch-means standard errors, and are NaN when
    localizability was not simulated.
    """

    spec: McSpec
    estimates: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    leo_rank_pass: np.ndarray  # marginal per-rank pass fractions
    meo_single_pass: float  # marginal per-satellite pass fraction

    def estimate(self, metric: str, system: str) -> tuple[np.ndarray, np.ndarray]:
        """Values and standard errors of one metric for one system."""
        return self.estimates[metric, system]


def _proportion_se(p, n: float) -> np.ndarray:
    """Binomial standard error with a one-count smoothing of the variance
    term, so a handful of trials reports a wide (not zero) uncertainty."""
    p_tilde = (np.asarray(p) * n + 1.0) / (n + 2.0)
    return np.sqrt(p_tilde * (1.0 - p_tilde) / n)


def simulate(
    config: SystemConfig,
    spec: McSpec,
    metrics: tuple[str, ...] = ("availability", "localizability"),
) -> SimulationSummary:
    """Run the Monte Carlo campaign and aggregate all estimators.

    Availability is always estimated. Without ``"localizability"`` in
    ``metrics`` no fading is drawn and the localizability entries are NaN.
    """
    want_loc = "localizability" in metrics
    k_max = spec.k_max
    ks = np.arange(1, k_max + 1)
    n_meo = config.meo.n_sats
    faithful = spec.sum_all_interferers
    leo_link = _Link(config.leo_link, config.leo_fading)
    meo_link = _Link(config.meo_link, config.meo_fading)
    matched_cap = None if faithful else analytic.leo_interference_cap(config)
    horizon = config.leo_geom.horizon_angle
    cos_leo_max = math.cos(config.leo_theta_max)

    sizes = np.diff(np.linspace(0, spec.n_trials, spec.n_batches + 1).astype(int))
    avail_tail = np.zeros((len(sizes), 3, k_max))  # leo, meo, hybrid counts >= K
    rank_pass = np.zeros((len(sizes), k_max))
    meo_pmf = np.zeros((len(sizes), n_meo + 1))
    for b, size in enumerate(sizes):
        geo_rng = derive_rng(spec.master_seed, b)
        fading_rng = geo_rng.spawn(1)[0]
        for start in range(0, size, CHUNK_TRIALS):
            n = min(CHUNK_TRIALS, size - start)
            cos_theta, azimuth = sample_bpp_cap(config.leo, geo_rng, horizon, n)
            leo_vis = cos_theta >= cos_leo_max  # nearest first, so a prefix
            leo_vis = leo_vis[:, :int(leo_vis.sum(axis=1).max(initial=0))]
            meo_pos, meo_vis = _nearest_first(sample_dsbpp(config.meo, geo_rng, size=n), config.meo_theta_max)
            n_leo, n_meo_vis = leo_vis.sum(axis=1), meo_vis.sum(axis=1)
            counts = np.stack([n_leo, n_meo_vis, n_leo + n_meo_vis], axis=1)
            avail_tail[b] += (counts[:, :, None] >= ks).sum(axis=0)
            if want_loc:
                width = leo_vis.shape[1]
                leo_pos = cap_positions(config.leo.radius_km, cos_theta[:, :width], azimuth[:, :width])
                n_serve = min(k_max, width)
                rank_pass[b, :n_serve] += _sinr_passes(
                    config, leo_link, leo_pos, leo_vis, n_serve, fading_rng, faithful, matched_cap).sum(axis=0)
                meo_pass = _sinr_passes(config, meo_link, meo_pos, meo_vis, meo_vis.shape[1], fading_rng, faithful)
                meo_pmf[b] += np.bincount(meo_pass.sum(axis=1), minlength=n_meo + 1)

    n = float(spec.n_trials)
    avail = avail_tail.sum(axis=0) / n
    cutoff = n_meo if faithful else analytic.n_meo_max(config)

    def single_pass(pmf):
        return float(np.dot(np.arange(n_meo + 1), pmf) / n_meo) if n_meo else 0.0

    def loc_estimates(rank_fracs, pmf):
        """LEO, MEO and hybrid localizability from per-rank pass fractions
        and the MEO pass-count distribution."""
        leo = np.cumprod(rank_fracs)
        if faithful:
            # Empirical MEO count distribution, untruncated.
            return leo, np.array([pmf[k:].sum() for k in ks]), analytic._hybrid_convolution(leo, pmf, n_meo)
        # Approximation-matched mode: binomial composition with the empirical
        # marginal, truncated exactly like the closed form (the cutoff is
        # taken from the closed form, not re-estimated, so its discreteness
        # cannot flip on sampling noise).
        if not n_meo:
            return leo, np.zeros(k_max), analytic._hybrid_convolution(leo, np.array([1.0]), cutoff)
        p = single_pass(pmf)
        pmf_fit = analytic.binom_pmf(np.arange(n_meo + 1), n_meo, p)
        return leo, analytic.binom_sf(ks - 1, n_meo, p), analytic._hybrid_convolution(leo, pmf_fit, cutoff)

    loc = se = [np.full(k_max, np.nan)] * 3
    if want_loc:
        loc = loc_estimates(rank_pass.sum(axis=0) / n, meo_pmf.sum(axis=0) / n)
        # Batch-means standard errors for the composed estimators.
        per_batch = [loc_estimates(rank_pass[b] / s, meo_pmf[b] / s) for b, s in enumerate(sizes) if s > 0]
        if len(per_batch) < 2:
            se = [np.full(k_max, np.inf)] * 3
        else:
            se = list(np.std(np.array(per_batch), axis=0, ddof=1) / math.sqrt(len(per_batch)))

    estimates = {("availability", system): (p, _proportion_se(p, n)) for system, p in zip(SYSTEMS, avail)}
    estimates.update({("localizability", system): pair for system, pair in zip(SYSTEMS, zip(loc, se))})
    return SimulationSummary(
        spec, estimates,
        leo_rank_pass=rank_pass.sum(axis=0) / n,
        meo_single_pass=single_pass(meo_pmf.sum(axis=0) / n),
    )


@dataclass
class ValidationRow:
    metric: str
    k: int
    analytic: float
    empirical: float
    std_err: float
    delta: float
    tolerance: float
    passed: bool


def run_validation(
    config: SystemConfig,
    spec: McSpec,
    quad_spec: QuadratureSpec = DEFAULT_QUADRATURE,
    metrics: tuple[str, ...] = ("availability", "localizability"),
    systems: tuple[str, ...] = ("leo", "meo", "hybrid"),
) -> list[ValidationRow]:
    """Compare every closed-form expression against the simulation.

    Availability rows pass at |delta| <= max(0.01, 3 SE); localizability rows
    at |delta| <= max(0.02, 3 SE), tightened to 3 SE in approximation-matched
    mode.
    """
    summary = simulate(config, spec, metrics)
    rows: list[ValidationRow] = []
    for metric in metrics:
        closed_forms = analytic.evaluate(config, metric, systems, spec.k_max, quad_spec)
        for system in systems:
            values, errors = summary.estimate(metric, system)
            for k in range(1, spec.k_max + 1):
                ana = float(closed_forms[system][k - 1])
                emp = float(values[k - 1])
                se = float(errors[k - 1])
                delta = ana - emp
                if metric == "availability":
                    tol = max(0.01, 3.0 * se)
                elif spec.sum_all_interferers:
                    tol = max(0.02, 3.0 * se)
                else:
                    tol = 3.0 * se
                rows.append(ValidationRow(
                    metric=f"{system}_{metric}",
                    k=k,
                    analytic=ana,
                    empirical=emp,
                    std_err=se,
                    delta=delta,
                    tolerance=tol,
                    passed=abs(delta) <= tol,
                ))
    return rows


def validation_csv(rows: list[ValidationRow]) -> str:
    lines = ["metric,K,analytic,empirical,std_err,delta,pass"]
    for row in rows:
        lines.append(
            f"{row.metric},{row.k},{row.analytic:.12g},{row.empirical:.12g},"
            f"{row.std_err:.12g},{row.delta:.12g},{'true' if row.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"
