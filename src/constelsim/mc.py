"""Monte Carlo simulation of the full system model.

Every trial draws fresh constellations, associates up to ``k_max`` beams
(available MEO satellites first, then nearest LEO satellites), draws an
independent shadowed-Rician fading value per link, and evaluates each beam's
SINR with exact ranges. Interference is same-layer only: the two layers use
different carriers.

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
the analytic expressions compose theirs. The joint "all beams pass in one
trial" fractions are also reported for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from . import analytic
from .analytic import SystemConfig, QuadratureSpec, DEFAULT_QUADRATURE
from .channel import sr_sample
from .constellation import (
    TARGET_DIRECTION,
    central_angle_to_target,
    derive_rng,
    sample_bpp,
    sample_dsbpp,
)
from .geom import EARTH_RADIUS_KM, dome_from_central

KM_TO_M = 1e3


@dataclass(frozen=True)
class McSpec:
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
        if not 2 <= self.n_batches <= self.n_trials:
            object.__setattr__(self, "n_batches", max(2, min(self.n_batches, self.n_trials)))


@dataclass
class TrialResult:
    """Outcome of a single trial."""

    n_leo_available: int
    n_meo_available: int
    per_rank_sinr_pass: list[bool]  # LEO beam ranks 1..k_max
    n_meo_localizable: int
    beam_layers: list[str]  # association order under MEO-first assignment
    hybrid_all_pass: list[bool]  # joint pass at levels 1..k_max
    seed_info: int


class _LayerGeometry:
    """Precomputed per-layer constants for the SINR evaluation."""

    def __init__(self, shell_cfg, link, fading, geom, theta_max):
        self.shell_cfg = shell_cfg
        self.link = link
        self.fading = fading
        self.geom = geom
        self.theta_max = theta_max
        # SINR = (W_s / l_s^2) / (noise_term + sum shape_i W_i / l_i^2)
        amp = link.tx_power_w * link.tx_gain * link.max_rx_gain * link.system_loss \
            * (link.wavelength_m / (4.0 * math.pi)) ** 2
        self.noise_term = link.noise_power_w / amp


def _distances_m(positions: np.ndarray) -> np.ndarray:
    target = TARGET_DIRECTION * EARTH_RADIUS_KM
    return np.linalg.norm(positions - target, axis=1) * KM_TO_M


def _unit_from_target(positions: np.ndarray) -> np.ndarray:
    target = TARGET_DIRECTION * EARTH_RADIUS_KM
    rel = positions - target
    return rel / np.linalg.norm(rel, axis=1, keepdims=True)


class _Simulator:
    def __init__(self, config: SystemConfig, spec: McSpec):
        self.config = config
        self.spec = spec
        self.leo = _LayerGeometry(
            config.leo, config.leo_link, config.leo_fading, config.leo_geom, config.leo_theta_max,
        )
        self.meo = _LayerGeometry(
            config.meo, config.meo_link, config.meo_fading, config.meo_geom, config.meo_theta_max,
        )
        self.pattern = config.rx_pattern
        # Effective receive cap around the serving satellite, central angle.
        self.theta_d_leo, self.p_zero_leo = analytic.leo_interference_cap(config)

    # -- single-layer beam evaluation ------------------------------------

    def _leo_rank_passes(self, positions, angles, rng) -> np.ndarray:
        """Pass/fail of the LEO beams at ranks 1..k_max (nearest first)."""
        k_max = self.spec.k_max
        layer = self.leo
        n = len(angles)
        passes = np.zeros(k_max, dtype=bool)
        if n == 0:
            return passes
        k_eff = min(k_max, n)
        nearest = np.argpartition(angles, k_eff - 1)[:k_eff] if k_eff < n else np.arange(n)
        nearest = nearest[np.argsort(angles[nearest])]
        visible = angles <= layer.theta_max
        if not visible[nearest[0]]:
            return passes
        dist_m = _distances_m(positions)
        if self.spec.sum_all_interferers:
            vis_idx = np.flatnonzero(visible)
            units = _unit_from_target(positions[vis_idx])
        for rank_pos, sat in enumerate(nearest):
            if not visible[sat]:
                break
            w_serving = sr_sample(layer.fading, rng)
            signal = w_serving / dist_m[sat] ** 2
            if self.spec.sum_all_interferers:
                others = vis_idx[vis_idx != sat]
                if others.size:
                    serving_unit = _unit_from_target(positions[sat][None, :])[0]
                    unit_others = units[np.searchsorted(vis_idx, others)]
                    cos_dome = np.clip(unit_others @ serving_unit, -1.0, 1.0)
                    shapes = self.pattern.gain_shape(np.arccos(cos_dome))
                    w_int = sr_sample(layer.fading, rng, size=others.size)
                    interference = float(np.sum(shapes * w_int / dist_m[others] ** 2))
                else:
                    interference = 0.0
            else:
                interference = self._matched_interference(dist_m[sat], rng)
            sinr = signal / (layer.noise_term + interference)
            passes[rank_pos] = sinr > layer.link.sinr_threshold
        return passes

    def _matched_interference(self, serving_dist_m, rng) -> float:
        """Single synthesized interferer following the closed-form mixture:
        present with probability 1 - p_zero, angle uniform over the cap,
        serving-range path loss, zenith-mapped dome gain."""
        layer = self.leo
        if rng.random() < self.p_zero_leo:
            return 0.0
        cos_theta_i = 1.0 - rng.random() * (1.0 - math.cos(self.theta_d_leo))
        theta_i = math.acos(min(1.0, cos_theta_i))
        if theta_i <= 0.0:
            shape = 1.0
        else:
            shape = float(self.pattern.gain_shape(dome_from_central(layer.geom, theta_i)))
        w_int = sr_sample(layer.fading, rng)
        return shape * w_int / serving_dist_m ** 2

    def _meo_passes(self, positions, angles, rng) -> np.ndarray:
        """Per-satellite availability-and-SNR pass flags for the MEO layer."""
        layer = self.meo
        visible = angles <= layer.theta_max
        n_vis = int(visible.sum())
        passes = np.zeros(len(angles), dtype=bool)
        if n_vis == 0:
            return passes
        vis_idx = np.flatnonzero(visible)
        dist_m = _distances_m(positions[vis_idx])
        w_serving = sr_sample(layer.fading, rng, size=n_vis)
        signal = w_serving / dist_m**2
        if self.spec.sum_all_interferers and n_vis > 1:
            units = _unit_from_target(positions[vis_idx])
            cos_dome = np.clip(units @ units.T, -1.0, 1.0)
            shapes = self.pattern.gain_shape(np.arccos(cos_dome))
            w_matrix = sr_sample(layer.fading, rng, size=(n_vis, n_vis))
            contrib = shapes * w_matrix / dist_m[None, :] ** 2
            np.fill_diagonal(contrib, 0.0)
            interference = contrib.sum(axis=1)
        else:
            interference = np.zeros(n_vis)
        sinr = signal / (layer.noise_term + interference)
        passes[vis_idx] = sinr > layer.link.sinr_threshold
        return passes

    # -- one full trial ---------------------------------------------------

    def run_trial(self, trial_index: int) -> TrialResult:
        rng = derive_rng(self.spec.master_seed, trial_index)
        k_max = self.spec.k_max
        leo_pos = sample_bpp(self.config.leo, rng)
        meo_pos = sample_dsbpp(self.config.meo, rng)
        leo_angles = central_angle_to_target(leo_pos) if len(leo_pos) else np.empty(0)
        meo_angles = central_angle_to_target(meo_pos) if len(meo_pos) else np.empty(0)

        n_leo_avail = int((leo_angles <= self.leo.theta_max).sum()) if len(leo_pos) else 0
        n_meo_avail = int((meo_angles <= self.meo.theta_max).sum()) if len(meo_pos) else 0

        rank_passes = self._leo_rank_passes(leo_pos, leo_angles, rng) if len(leo_pos) else np.zeros(k_max, bool)
        meo_sat_passes = self._meo_passes(meo_pos, meo_angles, rng) if len(meo_pos) else np.zeros(0, bool)
        n_meo_loc = int(meo_sat_passes.sum())

        # MEO-first association: available MEO satellites by angle, then LEO ranks.
        beam_layers = ["meo"] * min(n_meo_avail, k_max)
        beam_layers += ["leo"] * (k_max - len(beam_layers))
        if len(meo_pos) and n_meo_avail:
            avail_idx = np.flatnonzero(meo_angles <= self.meo.theta_max)
            avail_sorted = avail_idx[np.argsort(meo_angles[avail_idx])]
            meo_beam_passes = meo_sat_passes[avail_sorted]
        else:
            meo_beam_passes = np.zeros(0, bool)

        hybrid_all = []
        for level in range(1, k_max + 1):
            n_meo_beams = min(n_meo_avail, level)
            n_leo_beams = level - n_meo_beams
            ok = bool(np.all(meo_beam_passes[:n_meo_beams]))
            if n_leo_beams > 0:
                ok = ok and bool(np.all(rank_passes[:n_leo_beams]))
            hybrid_all.append(ok)

        return TrialResult(
            n_leo_available=n_leo_avail,
            n_meo_available=n_meo_avail,
            per_rank_sinr_pass=[bool(b) for b in rank_passes],
            n_meo_localizable=n_meo_loc,
            beam_layers=beam_layers,
            hybrid_all_pass=hybrid_all,
            seed_info=trial_index,
        )


@dataclass
class SimulationSummary:
    """Aggregated Monte Carlo estimates with standard errors.

    Availability entries are plain fractions with binomial standard errors;
    localizability entries are composed from per-rank and per-satellite
    fractions (matching the closed-form metric) with batch-means standard
    errors. Arrays are indexed by K - 1 for K = 1..k_max.
    """

    spec: McSpec
    n_meo_sats: int
    leo_avail: np.ndarray
    meo_avail: np.ndarray
    hybrid_avail: np.ndarray
    leo_avail_se: np.ndarray
    meo_avail_se: np.ndarray
    hybrid_avail_se: np.ndarray
    leo_loc: np.ndarray
    meo_loc: np.ndarray
    hybrid_loc: np.ndarray
    leo_loc_se: np.ndarray
    meo_loc_se: np.ndarray
    hybrid_loc_se: np.ndarray
    leo_rank_pass: np.ndarray  # marginal per-rank pass fractions
    meo_single_pass: float  # marginal per-satellite pass fraction
    meo_single_avail: float
    leo_loc_joint: np.ndarray  # all-ranks-pass trial fractions (diagnostic)
    hybrid_loc_joint: np.ndarray
    elapsed_s: float = 0.0


def _batch_slices(n_trials: int, n_batches: int) -> np.ndarray:
    edges = np.linspace(0, n_trials, n_batches + 1).astype(int)
    return edges


def _proportion_se(p, n: float) -> np.ndarray:
    """Binomial standard error with a one-count smoothing of the variance
    term, so a handful of trials reports a wide (not zero) uncertainty."""
    p_tilde = (np.asarray(p) * n + 1.0) / (n + 2.0)
    return np.sqrt(p_tilde * (1.0 - p_tilde) / n)


def simulate(config: SystemConfig, spec: McSpec) -> SimulationSummary:
    """Run the full Monte Carlo campaign and aggregate all estimators."""
    import time as _time

    start = _time.time()
    sim = _Simulator(config, spec)
    k_max = spec.k_max
    n_meo = config.meo.n_sats
    n_b = spec.n_batches
    edges = _batch_slices(spec.n_trials, n_b)

    leo_tail = np.zeros((n_b, k_max))
    meo_tail = np.zeros((n_b, k_max))
    hyb_tail = np.zeros((n_b, k_max))
    rank_pass = np.zeros((n_b, k_max))
    meo_loc_tail = np.zeros((n_b, k_max))
    meo_loc_pmf = np.zeros((n_b, n_meo + 1))
    meo_avail_sum = np.zeros(n_b)
    leo_joint = np.zeros((n_b, k_max))
    hyb_joint = np.zeros((n_b, k_max))
    batch_sizes = np.diff(edges)

    batch = 0
    for trial in range(spec.n_trials):
        while trial >= edges[batch + 1]:
            batch += 1
        res = sim.run_trial(trial)
        ks = np.arange(1, k_max + 1)
        leo_tail[batch] += res.n_leo_available >= ks
        meo_tail[batch] += res.n_meo_available >= ks
        hyb_tail[batch] += (res.n_leo_available + res.n_meo_available) >= ks
        rank_pass[batch] += res.per_rank_sinr_pass
        meo_loc_tail[batch] += res.n_meo_localizable >= ks
        meo_loc_pmf[batch, res.n_meo_localizable] += 1
        meo_avail_sum[batch] += res.n_meo_available
        joint = np.cumprod(res.per_rank_sinr_pass)
        leo_joint[batch] += joint
        hyb_joint[batch] += res.hybrid_all_pass

    n = float(spec.n_trials)

    def pooled(mat):
        return mat.sum(axis=0) / n

    def binom_se(p):
        return _proportion_se(p, n)

    leo_avail = pooled(leo_tail)
    meo_avail = pooled(meo_tail)
    hyb_avail = pooled(hyb_tail)
    rank_fracs = pooled(rank_pass)
    pmf_total = meo_loc_pmf.sum(axis=0) / n
    meo_single_pass = float(np.dot(np.arange(n_meo + 1), pmf_total) / n_meo) if n_meo else 0.0
    meo_single_avail = float(meo_avail_sum.sum() / n / n_meo) if n_meo else 0.0

    k_values = list(range(1, k_max + 1))
    if spec.sum_all_interferers:
        # Honest mode: empirical MEO count distribution, untruncated.
        meo_loc = pooled(meo_loc_tail)
        hyb_loc = analytic._hybrid_convolution(np.cumprod(rank_fracs), pmf_total, n_meo)
        cutoff = n_meo
    else:
        # Approximation-matched mode: binomial composition with the
        # empirical marginals, truncated exactly like the closed form
        # (the cutoff is taken from the closed form, not re-estimated, so
        # its discreteness cannot flip on sampling noise).
        cutoff = analytic.n_meo_max(config) if n_meo else 0
        pmf_fit = binom.pmf(np.arange(n_meo + 1), n_meo, meo_single_pass) if n_meo else np.array([1.0])
        meo_loc = np.array([float(binom.sf(k - 1, n_meo, meo_single_pass)) for k in k_values]) \
            if n_meo else np.zeros(k_max)
        hyb_loc = analytic._hybrid_convolution(np.cumprod(rank_fracs), pmf_fit, cutoff)
    leo_loc = np.cumprod(rank_fracs)

    # Batch-means standard errors for the composed estimators.
    def batch_estimates(fn):
        vals = []
        for b in range(n_b):
            size = batch_sizes[b]
            if size == 0:
                continue
            vals.append(fn(b, float(size)))
        return np.array(vals)

    def se_from_batches(mat_fn):
        vals = batch_estimates(mat_fn)
        if len(vals) < 2:
            return np.full(k_max, np.inf)
        return np.std(vals, axis=0, ddof=1) / math.sqrt(len(vals))

    leo_loc_se = se_from_batches(lambda b, size: np.cumprod(rank_pass[b] / size))
    if spec.sum_all_interferers:
        meo_loc_se = se_from_batches(lambda b, size: meo_loc_tail[b] / size)
        hyb_loc_se = se_from_batches(
            lambda b, size: analytic._hybrid_convolution(
                np.cumprod(rank_pass[b] / size), meo_loc_pmf[b] / size, n_meo)
        )
    else:
        def matched_batch(b, size):
            p_pass = float(np.dot(np.arange(n_meo + 1), meo_loc_pmf[b] / size) / n_meo) if n_meo else 0.0
            pmf_b = binom.pmf(np.arange(n_meo + 1), n_meo, p_pass) if n_meo else np.array([1.0])
            return analytic._hybrid_convolution(np.cumprod(rank_pass[b] / size), pmf_b, cutoff)

        meo_loc_se = se_from_batches(
            lambda b, size: np.array([
                float(binom.sf(k - 1, n_meo, float(np.dot(np.arange(n_meo + 1), meo_loc_pmf[b] / size) / n_meo)))
                for k in k_values]) if n_meo else np.zeros(k_max)
        )
        hyb_loc_se = se_from_batches(matched_batch)

    return SimulationSummary(
        spec=spec,
        n_meo_sats=n_meo,
        leo_avail=leo_avail,
        meo_avail=meo_avail,
        hybrid_avail=hyb_avail,
        leo_avail_se=binom_se(leo_avail),
        meo_avail_se=binom_se(meo_avail),
        hybrid_avail_se=binom_se(hyb_avail),
        leo_loc=leo_loc,
        meo_loc=meo_loc,
        hybrid_loc=hyb_loc,
        leo_loc_se=leo_loc_se,
        meo_loc_se=meo_loc_se,
        hybrid_loc_se=hyb_loc_se,
        leo_rank_pass=rank_fracs,
        meo_single_pass=meo_single_pass,
        meo_single_avail=meo_single_avail,
        leo_loc_joint=pooled(leo_joint),
        hybrid_loc_joint=pooled(hyb_joint),
        elapsed_s=_time.time() - start,
    )


def simulate_availability(config: SystemConfig, spec: McSpec) -> SimulationSummary:
    """Availability-only campaign (no fading or SINR work)."""
    import time as _time

    start = _time.time()
    k_max = spec.k_max
    n_b = spec.n_batches
    edges = _batch_slices(spec.n_trials, n_b)
    leo_tail = np.zeros((n_b, k_max))
    meo_tail = np.zeros((n_b, k_max))
    hyb_tail = np.zeros((n_b, k_max))
    meo_avail_sum = 0.0
    theta_leo = config.leo_theta_max
    theta_meo = config.meo_theta_max
    ks = np.arange(1, k_max + 1)

    batch = 0
    for trial in range(spec.n_trials):
        while trial >= edges[batch + 1]:
            batch += 1
        rng = derive_rng(spec.master_seed, trial)
        leo_pos = sample_bpp(config.leo, rng)
        meo_pos = sample_dsbpp(config.meo, rng)
        n_leo = int((central_angle_to_target(leo_pos) <= theta_leo).sum()) if len(leo_pos) else 0
        n_meo = int((central_angle_to_target(meo_pos) <= theta_meo).sum()) if len(meo_pos) else 0
        leo_tail[batch] += n_leo >= ks
        meo_tail[batch] += n_meo >= ks
        hyb_tail[batch] += (n_leo + n_meo) >= ks
        meo_avail_sum += n_meo

    n = float(spec.n_trials)
    leo_avail = leo_tail.sum(axis=0) / n
    meo_avail = meo_tail.sum(axis=0) / n
    hyb_avail = hyb_tail.sum(axis=0) / n

    def binom_se(p):
        return _proportion_se(p, n)

    zeros = np.zeros(k_max)
    return SimulationSummary(
        spec=spec,
        n_meo_sats=config.meo.n_sats,
        leo_avail=leo_avail,
        meo_avail=meo_avail,
        hybrid_avail=hyb_avail,
        leo_avail_se=binom_se(leo_avail),
        meo_avail_se=binom_se(meo_avail),
        hybrid_avail_se=binom_se(hyb_avail),
        leo_loc=zeros.copy(),
        meo_loc=zeros.copy(),
        hybrid_loc=zeros.copy(),
        leo_loc_se=zeros.copy(),
        meo_loc_se=zeros.copy(),
        hybrid_loc_se=zeros.copy(),
        leo_rank_pass=zeros.copy(),
        meo_single_pass=0.0,
        meo_single_avail=float(meo_avail_sum / n / config.meo.n_sats) if config.meo.n_sats else 0.0,
        leo_loc_joint=zeros.copy(),
        hybrid_loc_joint=zeros.copy(),
        elapsed_s=_time.time() - start,
    )


simulate_localizability = simulate


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
    want_loc = "localizability" in metrics
    summary = simulate(config, spec) if want_loc else simulate_availability(config, spec)
    k_values = list(range(1, spec.k_max + 1))
    rows: list[ValidationRow] = []

    empirical = {
        ("availability", "leo"): (summary.leo_avail, summary.leo_avail_se),
        ("availability", "meo"): (summary.meo_avail, summary.meo_avail_se),
        ("availability", "hybrid"): (summary.hybrid_avail, summary.hybrid_avail_se),
        ("localizability", "leo"): (summary.leo_loc, summary.leo_loc_se),
        ("localizability", "meo"): (summary.meo_loc, summary.meo_loc_se),
        ("localizability", "hybrid"): (summary.hybrid_loc, summary.hybrid_loc_se),
    }

    for metric in metrics:
        closed_forms = analytic.evaluate(config, metric, systems, spec.k_max, quad_spec)
        for system in systems:
            values, errors = empirical[(metric, system)]
            for k in k_values:
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
