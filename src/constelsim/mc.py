"""Monte Carlo simulation of the full system model.

Every trial draws fresh constellations and an independent shadowed-Rician
fading value per link, and evaluates the SINR of every visible MEO
satellite and of the ``k_max`` nearest LEO satellites with exact ranges.
Interference is same-layer only: the two layers use different carriers.

Trials run as arrays, and the engine touches only what can be seen. Each
layer comes out of its sampler as per-trial visible counts, and the
positions of the visible satellites, packed trial by trial as one row each
of x, y and z, are built only when localizability runs. The LEO shell is
drawn only inside the visible cap, counts first
(:func:`~constelsim.constellation.sample_bpp_cap` at the detection angle): a
binomial point process puts a Binomial(N, F) count there, F the cap law
:func:`~constelsim.geom.cap_fraction`, each point uniform in the cap
(:func:`~constelsim.constellation.place_in_cap`), so the restricted draw is
exact where it matters: satellites outside the visible cap neither serve nor
interfere. A trial's LEO satellites come nearest first, so its K nearest
ranks are its first K. The MEO shell is drawn whole, orbit by orbit
(:func:`~constelsim.constellation.sample_dsbpp_cap`), and a satellite is
visible when its anomaly lies on its orbit's arc within the detection angle.
MEO beams carry no rank, so every visible MEO satellite serves, in
orbit-major order.

The SINR works on links, never on padded boxes. Each visible satellite has
one link to the target and so one fading value, which serves as its beam's
signal and as its interference on every other beam of the trial alike.
From the counts alone, :func:`_ragged` lists every (trial, rank) serving
beam, trial by trial and then rank by rank. A beam is open when its signal
clears the threshold over noise alone; a closed beam fails whatever the
interference, so only open beams take interferers. Two more rules settle
open beams with as few pairs as keep every verdict bit for bit what the sum
over all pairs gives. Every gain shape lies in [0, 1], so the other links of
the trial at full gain bound a beam's interference; an open beam that
passes against that bound, widened by a margin rounding cannot cross,
passes without any pair. The rest sum their interferers by rank in two
blocks, the nearest ``PREFIX_RANKS`` other ranks first: a beam that fails on
those fails on its whole sum, so only the beams that still pass go on, onto
the same running sums. :func:`_link_indices` lists the (beam, other visible
satellite) pairs of one block, beam by beam and then by the other's rank, so
the gain geometry is computed only for pairs that can change a verdict.
Per-rank pass counts and per-trial MEO pass counts come back through
``np.bincount``.

RNG contract. A run draws its geometry from one stream,
``derive_rng(master_seed, 0)``, and, when localizability runs, everything
else from that stream's first spawned child, the localizability stream. Both
serve the whole run in chunks of ``CHUNK_TRIALS`` trials, 1024, the last
chunk taking the rest (a module constant, so memory stays bounded at any
trial count), and a chunk may span batch boundaries. Each chunk draws from
the geometry stream the LEO cap counts, then every MEO orbit's s, then every
orbit's azimuth psi (both as
:func:`~constelsim.constellation.sample_dsbpp_cap` defines them), then one
anomaly uniform per MEO satellite. With localizability it then draws from
the localizability stream the visible LEO satellites' placement in the cap
(:func:`~constelsim.constellation.place_in_cap`): one cosine uniform per
visible satellite, trial by trial, then one azimuth uniform per visible
satellite. Then come the LEO links' fading and then the MEO links'. In
faithful mode that is one value per visible satellite, in packed order;
approximation-matched mode reads only the serving beams' links and draws one
value per beam, in beam order, then its synthetic interferers. Each block of
fading values is drawn as :func:`~constelsim.channel.sr_sample` defines it:
one gamma per value for the line-of-sight power, then one exponential per
value for the scatter's modulus, then one uniform per value for its angle.
A beam's verdict reads its own satellite's value and, in faithful mode, the
other visible satellites' values of its trial: always distinct, independent
draws. So each beam's pass law, and with it every per-rank LEO pass
fraction and per-satellite MEO pass probability, is what it would be with a
fresh draw per pair; only the joint law of the beams within a trial follows
the shared links, as the system model has it. Results therefore depend on
the config, ``master_seed``, ``n_trials`` and ``k_max`` only, and
availability estimates do not depend on whether localizability is
simulated too: an availability-only run draws the same geometry stream and
no placement.

Memory. A localizability run first fixes glibc's trim and mmap thresholds
(``TRIM_THRESHOLD`` and ``MMAP_THRESHOLD``, through mallopt(3)), far above a
chunk's working set and its largest array, so the heap keeps the pages that
one chunk frees for the next rather than returning them to the system and
faulting them in again. The thresholds are process-wide and stay set after
``simulate`` returns: glibc cannot report the values they replace, and a
later run reuses the same pages. Nothing is set where the C library has no
mallopt, nor by an availability-only run, whose few faults would not repay
the call. No draw and no result depends on the thresholds.

The batch-means batches are the n_batches = min(20, n_trials) contiguous
trial ranges of near-equal size, batch b ending at trial
(b + 1) * n_trials // n_batches in exact integer arithmetic. Every trial
carries its batch's label, so per-batch rank pass counts and MEO pass-count
laws fill from one ``np.bincount`` per chunk, keyed by (batch, rank) and by
(batch, count).

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

import ctypes
import math

import numpy as np

from . import analytic
from .analytic import KM_TO_M, SYSTEMS
from .channel import LinkParams, sr_sample
from .config import McSpec, SystemConfig
from .constellation import derive_rng, place_in_cap, sample_bpp_cap, sample_dsbpp_cap
from .geom import EARTH_RADIUS_KM, cap_fraction, dome_from_central
from .record import record

# Largest number of trials drawn as one array, at most MAX_PLACED_SHELLS,
# the most trials one LEO placement orders. In a pinned sweep, chunks of 768
# and 1024 ran the baseline's simulate about 14% and 19% faster than 512,
# the three were alike at 2000 km, and the tracemalloc peak grows in
# proportion. In fresh processes, as the benchmark runs them, 1024 is the
# smallest of the three with which the dense workload's end-to-end gain
# held in every set of pairs (BENCH_coordinate_rows.json).
CHUNK_TRIALS = 1024
# Other ranks that every unsettled open beam sums first; only the beams that
# still pass on them sum the rest (see _sinr_passes).
PREFIX_RANKS = 2
# Width of the surely-passing bound's margin, relative to the trial's total
# received power and per visible satellite (see _sinr_passes).
BOUND_MARGIN = 2.0 ** -40
# glibc allocator thresholds that a localizability run sets (see
# _keep_chunk_memory). Free memory at the top of the heap is returned to the
# system only past TRIM_THRESHOLD bytes, far above a chunk's working set
# (2.25 MB traced at leo.altitude_km=2000), and only blocks of at least
# MMAP_THRESHOLD bytes get their own mapping, far above a chunk's largest
# array (its LEO rows, about 221 KB there).
TRIM_THRESHOLD = 64 * 2**20
MMAP_THRESHOLD = 16 * 2**20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers, from glibc's malloc.h


def _ragged(sizes: np.ndarray):
    """Owner of each of ``sizes.sum()`` items, owner by owner, and its index
    within its owner."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _link_indices(counts: np.ndarray, trial: np.ndarray, rank: np.ndarray, is_open: np.ndarray, block: slice):
    """Interferer pairs of the open serving beams of trials whose packed
    visible satellites number ``counts``.

    Beam ``i`` serves trial ``trial[i]`` at rank ``rank[i]``, as
    :func:`_ragged` lists them from the serving counts, and ``is_open[i]``
    says whether it takes interferers. Each beam's other visible satellites
    are taken by rank, and ``block``, a slice without a step, picks a run of
    them: ``slice(2)`` the first two, ``slice(2, None)`` the rest. Returns
    the beam (an index into those) and the other satellite's rank of every
    (open beam, other visible satellite in the block) pair, beam by beam and
    then by the other's rank.
    """
    open_beam = np.flatnonzero(is_open)
    n_other = counts[trial[open_beam]] - 1
    start = block.start or 0
    stop = n_other if block.stop is None else np.minimum(n_other, block.stop)
    owner, other = _ragged(np.maximum(stop - start, 0))
    beam = open_beam[owner]
    other += start
    other += other >= rank[beam]
    return beam, other


def _sinr_passes(config, link: LinkParams, positions, counts, n_serve, rng, faithful, matched_cap=None):
    """Trial, rank and pass flag of every serving beam of one layer, trial
    by trial and then rank by rank. ``positions`` holds each trial's
    ``counts`` visible satellites as x, y and z rows, packed trial by trial;
    the first ``n_serve`` of each trial serve. A beam passes when
    SINR = (W_s / l_s^2) / (noise / unit-range power + sum shape_i W_i / l_i^2)
    exceeds the link's threshold.

    In faithful mode one fading value is drawn per visible satellite, in
    packed order: one per link, since a satellite reaches the target over
    one channel whether it serves or interferes. Otherwise only the serving
    satellites' links are read, and one value is drawn per beam, in beam
    order. Faithful interference sums every other visible
    satellite, each with its own link's power, but only for the open beams:
    those whose signal clears the threshold over noise alone. A closed beam
    fails whatever the interference, since a non-negative term added to the
    denominator cannot raise the ratio (rounded addition and division keep
    that order), so its verdict needs no interferer. Each beam's verdict is
    a function of distinct independent draws, its own and the others', so
    its law is the one a fresh draw per (beam, interferer) pair would give;
    beams of one trial share the draws they share physically. Otherwise a
    ``matched_cap`` of (theta_d, p_zero) synthesizes the closed form's one
    interferer, and without one there is no interference.

    Faithful mode settles the open beams in two more rules, each keeping
    every verdict bit for bit what the one all-pairs sum gives.

    Surely passing. Every gain shape lies in [0, 1], so fl(g r) <= r, and
    rounded addition is monotone: a beam's rounded pair sum I is at most the
    same sum of its others' received powers r. Write u = 2^-53, n for the
    trial's visible count, T for the exact sum of its received powers,
    S = T - signal for the others' and gamma_k = k u / (1 - k u). Summed in
    order, I <= S (1 + gamma_(n-2)), and the trial's ``total`` lies within
    gamma_(n-1) T of T; the rounded ``total - signal`` adds at most
    u (1 + gamma_(n-1)) T more. So I exceeds ``total - signal`` by at most
    about 2 n u T. The bound adds ``counts[trial] * BOUND_MARGIN * total``,
    2^13 n u times ``total``; the margin's product and the bound's sum round
    off at most 2 u T between them, so the margin covers the excess some
    2000-fold at any count with n u < 0.01. (It assumes ``total`` above
    2^-980, where the margin's product would underflow; received powers lie
    hundreds of decades above.) ``total`` is at least ``signal``, so the
    bound is non-negative and only open beams settle. A beam that clears the
    threshold against the bound clears it against I, since the rounded sum
    with noise and the division keep order: it passes without any pair.

    Surely failing. The other open beams sum their others by rank, as the
    all-pairs sum does: first the nearest ``PREFIX_RANKS`` others for every
    such beam, then the rest for the beams that still pass, added onto the
    same running sums (``np.add.at`` adds in order). Every term is
    non-negative and rounded addition never lowers a sum, so a beam that
    fails on its prefix fails on its whole sum, and a beam that goes on
    ends with the all-pairs sum bit for bit.
    """
    trial, rank = _ragged(n_serve)
    first = np.cumsum(counts) - counts  # packed index of each trial's rank 0
    at_beam = first[trial] + rank
    x, y, z = positions
    x = x - EARTH_RADIUS_KM  # the target sits at (EARTH_RADIUS_KM, 0, 0)
    # Summed x, z, y: the order numpy's einsum takes over a C-ordered
    # (n, 3) array, which the tests' reference arithmetic uses.
    dist_km = np.sqrt(x * x + z * z + y * y)
    dist_sq = (dist_km * KM_TO_M) ** 2
    noise_term = link.noise_power_w / link.unit_range_power_w
    if not faithful:
        beam_sq = dist_sq[at_beam]
        signal = sr_sample(config.fading, rng, size=trial.size) / beam_sq
        if matched_cap is None:
            return trial, rank, signal / noise_term > link.sinr_threshold
        # Present with probability 1 - p_zero, angle uniform over the cap
        # (cap_fraction(theta_i) = U cap_fraction(theta_d)), serving-range
        # path loss, zenith-mapped dome gain. U is drawn on (0, 1], so the
        # arcsin form gives a positive angle, as dome_from_central requires;
        # an arccos form rounds to 0 for tiny U.
        theta_d, p_zero = matched_cap
        present = rng.random(trial.size) >= p_zero
        u = 1.0 - rng.random(trial.size)
        theta_i = 2.0 * np.arcsin(np.sqrt(u * cap_fraction(theta_d)))
        power = np.zeros(trial.size)
        power[present] = sr_sample(config.fading, rng, size=int(present.sum()))
        dome = dome_from_central(config.leo.radius_km, theta_i)
        interference = config.rx_pattern.gain_shape(dome) * power / beam_sq
        return trial, rank, signal / (noise_term + interference) > link.sinr_threshold
    received = sr_sample(config.fading, rng, size=dist_sq.size) / dist_sq  # W / l^2 of every visible satellite
    signal = received[at_beam]
    # Received power of every visible link of each beam's trial.
    owner = np.repeat(np.arange(counts.size), counts)
    total = np.bincount(owner, weights=received, minlength=counts.size)[trial]
    bound = total - signal + counts[trial] * BOUND_MARGIN * total
    settled = signal / (noise_term + bound) > link.sinr_threshold
    pending = (signal / noise_term > link.sinr_threshold) & ~settled
    # Unit vectors as x, y and z rows, so each pair's cosine is three
    # products of 1-D gathers.
    ux, uy, uz = x / dist_km, y / dist_km, z / dist_km
    interference = np.zeros(trial.size)
    for block in (slice(PREFIX_RANKS), slice(PREFIX_RANKS, None)):
        beam, other = _link_indices(counts, trial, rank, pending, block)
        at_serving, at_other = at_beam[beam], first[trial[beam]] + other
        cos_dome = ux.take(at_serving) * ux.take(at_other) + uy.take(at_serving) * uy.take(at_other) \
            + uz.take(at_serving) * uz.take(at_other)
        np.clip(cos_dome, -1.0, 1.0, out=cos_dome)
        power = config.rx_pattern.gain_shape(np.arccos(cos_dome, out=cos_dome)) * received.take(at_other)
        np.add.at(interference, beam, power)
        pending &= signal / (noise_term + interference) > link.sinr_threshold
    return trial, rank, settled | pending


def _keep_chunk_memory():
    """Fix glibc's trim and mmap thresholds at ``TRIM_THRESHOLD`` and
    ``MMAP_THRESHOLD`` through mallopt(3), for the rest of the process (see
    the module docstring); nothing where the C library has no mallopt."""
    mallopt = getattr(ctypes.pythonapi, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _batch_ends(n_trials: int, n_batches: int) -> np.ndarray:
    """End trial (exclusive) of each batch, b * n_trials // n_batches for
    the b-th of b = 1..n_batches, in exact integer arithmetic, so batch
    sizes differ by at most one."""
    return np.array([b * n_trials // n_batches for b in range(1, n_batches + 1)])


@record
class SimulationSummary:
    """Aggregated Monte Carlo estimates with standard errors.

    ``estimates`` maps each (metric, system) to its values and standard
    errors, arrays indexed by K - 1 for K = 1..k_max. Availability values
    are plain fractions with binomial standard errors; localizability values
    are composed from per-rank and per-satellite fractions (matching the
    closed-form metric) with batch-means standard errors, and are NaN when
    localizability was not simulated.

    Records compare field values with ``==``, so a summary equals only
    itself (see :mod:`constelsim.record`); tests compare summaries field by
    field (``tests/test_mc.py::assert_summaries_equal``).
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

    ends = _batch_ends(spec.n_trials, spec.n_batches)
    sizes = np.diff(ends, prepend=0)
    geo_rng = derive_rng(spec.master_seed, 0)
    loc_rng = geo_rng.spawn(1)[0] if want_loc else None
    if want_loc:
        _keep_chunk_memory()
    avail_hist = np.zeros(3 * (k_max + 1))  # trials per count up to k_max: leo, meo, hybrid
    row_start = (k_max + 1) * np.arange(3)[:, None]
    rank_pass = np.zeros(sizes.size * k_max)  # passes per (batch, rank)
    meo_pmf = np.zeros(sizes.size * (n_meo + 1))  # trials per (batch, MEO pass count)
    for start in range(0, spec.n_trials, CHUNK_TRIALS):
        n = min(CHUNK_TRIALS, spec.n_trials - start)
        n_leo = sample_bpp_cap(config.leo, geo_rng, config.leo_theta_max, n)
        n_meo_vis, meo_pos = sample_dsbpp_cap(config.meo, geo_rng, config.meo_theta_max, n, positions=want_loc)
        capped = np.minimum([n_leo, n_meo_vis, n_leo + n_meo_vis], k_max) + row_start
        avail_hist += np.bincount(capped.ravel(), minlength=avail_hist.size)
        if want_loc:
            batch = np.searchsorted(ends, np.arange(start, start + n), side="right")
            leo_pos = place_in_cap(config.leo.radius_km, config.leo_theta_max, n_leo, loc_rng)
            trial, rank, passes = _sinr_passes(config, config.leo_link, leo_pos, n_leo, np.minimum(n_leo, k_max),
                                               loc_rng, faithful, matched_cap)
            rank_pass += np.bincount(batch[trial[passes]] * k_max + rank[passes], minlength=rank_pass.size)
            trial, _, passes = _sinr_passes(config, config.meo_link, meo_pos, n_meo_vis, n_meo_vis, loc_rng,
                                            faithful)
            meo_passes = np.bincount(trial[passes], minlength=n)
            meo_pmf += np.bincount(batch * (n_meo + 1) + meo_passes, minlength=meo_pmf.size)
    rank_pass, meo_pmf = rank_pass.reshape(sizes.size, k_max), meo_pmf.reshape(sizes.size, n_meo + 1)

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


@record
class ValidationRow:
    metric: str
    k: int
    analytic: float
    empirical: float
    std_err: float
    delta: float
    passed: bool


def run_validation(
    config: SystemConfig,
    spec: McSpec,
    ks: list[int],
    rtol: float = analytic.RTOL,
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
    # Closed forms first: a configuration they refuse costs no simulation.
    closed = {metric: analytic.evaluate(config, metric, k_max, rtol) for metric in metrics}
    summary = simulate(config, spec, k_max, metrics)
    rows: list[ValidationRow] = []
    for metric, closed_forms in closed.items():
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
                    passed=abs(delta) <= tol,
                ))
    return rows

