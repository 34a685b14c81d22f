"""Monte Carlo simulation of the full system model.

Every trial draws fresh constellations and an independent shadowed-Rician
fading value per link, and evaluates the SINR of every visible MEO
satellite and of the ``k_max`` nearest LEO satellites with exact ranges.
Interference is same-layer only: the two layers use different carriers.

Trials run as arrays, and the engine touches only what can be seen. Each
layer comes out of its sampler as per-trial visible counts and, when
localizability runs, the positions of the visible satellites, packed trial
by trial. The LEO shell is drawn only inside the visible cap
(:func:`~constelsim.constellation.sample_bpp_cap` at the detection angle): a
binomial point process puts a Binomial(N, cap fraction) count there, each
point uniform in the cap, so the restricted draw has the exact law of the
full shell where it matters, since satellites outside the visible cap
neither serve nor interfere. A trial's LEO satellites come nearest first,
so its K nearest ranks are its first K. The MEO shell is drawn whole, orbit
by orbit (:func:`~constelsim.constellation.sample_dsbpp_cap`), and a
satellite is visible when its anomaly lies on its orbit's arc within the
detection angle. MEO beams carry no rank, so every visible MEO satellite
serves, in orbit-major order.

The SINR works on links, never on padded boxes. From the counts alone,
:func:`_ragged` lists every (trial, rank) serving beam, trial by trial and
then rank by rank. A beam is open when its signal clears the threshold over
noise alone; a closed beam fails whatever the interference, so only open
beams take interferers. :func:`_link_indices` lists every (open beam, other
visible satellite) pair, beam by beam and then by the other's rank, so
fading is drawn only for links that exist and can change a verdict.
Per-rank pass counts and per-trial MEO pass counts come back through
``np.bincount``.

RNG contract. Batch ``b`` of the min(20, n_trials) batch-means batches
draws its geometry from ``derive_rng(master_seed, b)`` and its fading from
that stream's first spawned child, in sub-chunks of at most
``CHUNK_TRIALS`` trials (a module constant, so memory stays bounded at any
trial count). Each chunk draws the LEO cap, then the whole MEO shell, from
the geometry stream and then, with localizability, the LEO links' fading
and the MEO links' from the fading stream. Per layer, the serving beams'
fading comes first, one value per beam; in faithful mode the interferers'
follows, one value per (open beam, other visible satellite) pair in
:func:`_link_indices` order. Which beams are open depends on the serving
draws, so the interferer draws are fewer than one per pair but each verdict
is the same function of independent draws as with every pair drawn, and
every estimator keeps its law. Results therefore depend on the config,
``master_seed``, ``n_trials`` and ``k_max`` only, and availability
estimates do not depend on whether localizability is simulated too.

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
probabilities: per-rank pass fractions and the MEO pass-count law are
estimated and go through the closed forms' own
:func:`~constelsim.analytic.compose`, the whole run and every batch in one
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .analytic import KM_TO_M, SYSTEMS, SystemConfig
from .channel import LinkParams, SrFadingParams, sr_sample
from .constellation import TARGET_DIRECTION, derive_rng, sample_bpp_cap, sample_dsbpp_cap
from .geom import EARTH_RADIUS_KM, dome_from_central

# Largest number of trials drawn as one array.
CHUNK_TRIALS = 1024

_TARGET_KM = TARGET_DIRECTION * EARTH_RADIUS_KM


@dataclass(frozen=True)
class McSpec:
    """Monte Carlo run settings, the ``mc.*`` keys: trial count, master seed
    and interference mode."""

    n_trials: int = 100_000
    master_seed: int = 1
    sum_all_interferers: bool = True

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    @property
    def n_batches(self) -> int:
        """Number of batch-means batches."""
        return min(20, self.n_trials)


def _ragged(sizes: np.ndarray):
    """Owner of each of ``sizes.sum()`` items, owner by owner, and its index
    within its owner."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _link_indices(counts: np.ndarray, trial: np.ndarray, rank: np.ndarray, is_open: np.ndarray):
    """Interferer pairs of the open serving beams of trials whose packed
    visible satellites number ``counts``.

    Beam ``i`` serves trial ``trial[i]`` at rank ``rank[i]``, as
    :func:`_ragged` lists them from the serving counts, and ``is_open[i]``
    says whether it takes interferers. Returns the beam (an index into those)
    and the other satellite's rank of every (open beam, other visible
    satellite) pair, beam by beam and then by the other's rank.
    """
    beam, other = _ragged((counts[trial] - 1) * is_open)
    other += other >= rank[beam]
    return beam, other


def _sinr_passes(config, link: LinkParams, fading: SrFadingParams, positions, counts, n_serve, rng, faithful,
                 matched_cap=None):
    """Trial, rank and pass flag of every serving beam of one layer, trial
    by trial and then rank by rank. ``positions`` holds each trial's
    ``counts`` visible satellites, packed trial by trial; the first
    ``n_serve`` of each trial serve. A beam passes when
    SINR = (W_s / l_s^2) / (noise / unit-range power + sum shape_i W_i / l_i^2)
    exceeds the link's threshold.

    One fading value is drawn per serving beam. Faithful interference sums
    every other visible satellite, but only for the open beams: those whose
    signal clears the threshold over noise alone. A closed beam fails
    whatever the interference, since a non-negative term added to the
    denominator cannot raise the ratio (rounded addition and division keep
    that order), so its verdict needs no interferer. One fading value is
    drawn per (open beam, other visible satellite) pair, in
    :func:`_link_indices` order. Otherwise a ``matched_cap`` of (theta_d,
    p_zero) synthesizes the closed form's one interferer, and without one
    there is no interference.
    """
    trial, rank = _ragged(n_serve)
    first = np.cumsum(counts) - counts  # packed row of each trial's rank 0
    rel = positions - _TARGET_KM
    dist_km = np.sqrt(np.einsum("sx,sx->s", rel, rel))
    dist_sq = (dist_km * KM_TO_M) ** 2
    at_beam = first[trial] + rank
    signal = sr_sample(fading, rng, size=trial.size) / dist_sq[at_beam]
    noise_term = link.noise_power_w / link.unit_range_power_w
    if faithful:
        beam, other = _link_indices(counts, trial, rank, signal / noise_term > link.sinr_threshold)
        at_serving, at_other = at_beam[beam], first[trial[beam]] + other
        # Unit vectors as contiguous x, y and z rows, so each pair's cosine
        # is three products of 1-D gathers.
        ux, uy, uz = np.divide(rel.T, dist_km, order="C")
        cos_dome = ux.take(at_serving) * ux.take(at_other) + uy.take(at_serving) * uy.take(at_other) \
            + uz.take(at_serving) * uz.take(at_other)
        np.clip(cos_dome, -1.0, 1.0, out=cos_dome)
        power = config.rx_pattern.gain_shape(np.arccos(cos_dome, out=cos_dome)) \
            * sr_sample(fading, rng, size=beam.size) / dist_sq[at_other]
        interference = np.bincount(beam, weights=power, minlength=trial.size)
    elif matched_cap is not None:
        # Present with probability 1 - p_zero, angle uniform over the cap,
        # serving-range path loss, zenith-mapped dome gain. The angle solves
        # 1 - cos(theta_i) = U (1 - cos(theta_d)) in half-angle form. U is
        # drawn on (0, 1], so the angle is positive as dome_from_central
        # requires (an arccos form rounds to 0 for tiny U).
        theta_d, p_zero = matched_cap
        present = rng.random(trial.size) >= p_zero
        u = 1.0 - rng.random(trial.size)
        theta_i = 2.0 * np.arcsin(np.sqrt(u) * math.sin(0.5 * theta_d))
        power = np.zeros(trial.size)
        power[present] = sr_sample(fading, rng, size=int(present.sum()))
        dome = dome_from_central(config.leo.radius_km, theta_i)
        interference = config.rx_pattern.gain_shape(dome) * power / dist_sq[at_beam]
    else:
        interference = 0.0
    return trial, rank, signal / (noise_term + interference) > link.sinr_threshold


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

    estimates: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]
    leo_rank_pass: np.ndarray  # marginal per-rank pass fractions
    meo_single_pass: float  # marginal per-satellite pass fraction


def _proportion_se(p, n: float) -> np.ndarray:
    """Binomial standard error with a one-count smoothing of the variance
    term, so a handful of trials reports a wide (not zero) uncertainty."""
    p_tilde = (np.asarray(p) * n + 1.0) / (n + 2.0)
    return np.sqrt(p_tilde * (1.0 - p_tilde) / n)


def simulate(
    config: SystemConfig,
    spec: McSpec,
    k_max: int,
    metrics: tuple[str, ...] = ("availability", "localizability"),
) -> SimulationSummary:
    """Run the Monte Carlo campaign and aggregate all estimators at
    K = 1..k_max.

    Availability is always estimated. Without ``"localizability"`` in
    ``metrics`` no fading is drawn and the localizability entries are NaN.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    want_loc = "localizability" in metrics
    n_meo = config.meo.n_sats
    faithful = spec.sum_all_interferers
    matched_cap = None if faithful else analytic.leo_interference_cap(config.leo, config.rx_pattern)

    sizes = np.diff(np.linspace(0, spec.n_trials, spec.n_batches + 1).astype(int))
    avail_hist = np.zeros(3 * (k_max + 1))  # trials per count up to k_max: leo, meo, hybrid
    row_start = (k_max + 1) * np.arange(3)[:, None]
    rank_pass = np.zeros((len(sizes), k_max))
    meo_pmf = np.zeros((len(sizes), n_meo + 1))
    for b, size in enumerate(sizes):
        geo_rng = derive_rng(spec.master_seed, b)
        fading_rng = geo_rng.spawn(1)[0] if want_loc else None
        for start in range(0, size, CHUNK_TRIALS):
            n = min(CHUNK_TRIALS, size - start)
            n_leo, leo_pos = sample_bpp_cap(config.leo, geo_rng, config.leo_theta_max, n, positions=want_loc)
            n_meo_vis, meo_pos = sample_dsbpp_cap(config.meo, geo_rng, config.meo_theta_max, n, positions=want_loc)
            capped = np.minimum([n_leo, n_meo_vis, n_leo + n_meo_vis], k_max) + row_start
            avail_hist += np.bincount(capped.ravel(), minlength=avail_hist.size)
            if want_loc:
                _, rank, passes = _sinr_passes(config, config.leo_link, config.leo_fading, leo_pos, n_leo,
                                               np.minimum(n_leo, k_max), fading_rng, faithful, matched_cap)
                rank_pass[b] += np.bincount(rank[passes], minlength=k_max)
                trial, _, passes = _sinr_passes(config, config.meo_link, config.meo_fading, meo_pos, n_meo_vis,
                                                n_meo_vis, fading_rng, faithful)
                meo_pmf[b] += np.bincount(np.bincount(trial[passes], minlength=n), minlength=n_meo + 1)

    n = float(spec.n_trials)
    avail = analytic.tail(avail_hist.reshape(3, k_max + 1), k_max) / n
    cutoff = n_meo if faithful else analytic.n_meo_max(config)

    def single_pass(pmf):
        return float(np.dot(np.arange(n_meo + 1), pmf) / n_meo) if n_meo else 0.0

    loc = se = [np.full(k_max, np.nan)] * 3
    if want_loc:
        # Row 0 holds the whole run's fractions, the rest one batch each, so
        # one composition serves the estimates and their batch-means
        # standard errors. Faithful mode composes the empirical count law,
        # untruncated. Approximation-matched mode composes its binomial fit,
        # truncated exactly like the closed form (the cutoff is taken from
        # the closed form, not re-estimated, so its discreteness cannot flip
        # on sampling noise).
        rank_fracs = np.vstack([rank_pass.sum(axis=0) / n, rank_pass / sizes[:, None]])
        pmfs = np.vstack([meo_pmf.sum(axis=0) / n, meo_pmf / sizes[:, None]])
        laws = pmfs if faithful else np.array([analytic.binom_law(n_meo, single_pass(pmf)) for pmf in pmfs])
        composed = np.stack(list(analytic.compose(np.cumprod(rank_fracs, axis=-1), laws, cutoff).values()), axis=1)
        loc, per_batch = list(composed[0]), composed[1:]
        if len(per_batch) < 2:
            se = [np.full(k_max, np.inf)] * 3
        else:
            se = list(np.std(per_batch, axis=0, ddof=1) / math.sqrt(len(per_batch)))

    estimates = {("availability", system): (p, _proportion_se(p, n)) for system, p in zip(SYSTEMS, avail)}
    estimates.update({("localizability", system): pair for system, pair in zip(SYSTEMS, zip(loc, se))})
    return SimulationSummary(
        estimates,
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
    ks: list[int],
    rtol: float = 1e-8,
    metrics: tuple[str, ...] = analytic.METRICS,
) -> list[ValidationRow]:
    """Compare every closed-form expression against the simulation at the
    given K, in ascending order; the largest sets how many LEO ranks the
    simulation draws.

    Availability rows pass at |delta| <= max(0.01, 3 SE); localizability rows
    at |delta| <= max(0.02, 3 SE), tightened to 3 SE in approximation-matched
    mode.
    """
    if not ks or min(ks) < 1:
        raise ValueError(f"K values must be given and at least 1, got {ks}")
    ks, k_max = sorted(ks), max(ks)
    summary = simulate(config, spec, k_max, metrics)
    rows: list[ValidationRow] = []
    for metric in metrics:
        closed_forms = analytic.evaluate(config, metric, SYSTEMS, k_max, rtol)
        for system in SYSTEMS:
            values, errors = summary.estimates[metric, system]
            for k in ks:
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
