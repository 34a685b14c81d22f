"""Random constellation generators.

LEO shells are homogeneous binomial point processes on a sphere: a fixed
number of satellites placed i.i.d. uniformly. MEO shells are generated
orbit-first: each orbit normal is uniform on the sphere (drawn as its
component s along the target, uniform on [-1, 1], and its azimuth about the
target), and a fixed number of satellites is placed at independent uniform
anomalies along each orbit.

The cap samplers return positions in kilometres as ``(3, n)`` arrays: one
row each of x, y and z, with the target on the x axis, so the engine reads
each coordinate as one contiguous array; ``.T`` is the ``(n, 3)`` view. MEO
points are ordered orbit-major: satellite ``j`` of orbit ``i`` is point
``i * sats_per_orbit + j``.

The Monte Carlo engine draws whole batches of shells at once, and of each
shell only the part that can be seen, counts first. For LEO,
:func:`sample_bpp_cap` draws only the number of satellites in the visible
cap: no satellite outside it can serve or interfere, and the binomial
cap-count law makes the restricted draw exact. :func:`place_in_cap` places
them, i.i.d. uniform in the cap and nearest first within each shell, one
cosine uniform per point, on a stream of the caller's choosing, so a caller
that reads only counts draws no placement. For MEO, :func:`sample_dsbpp_cap`
draws every orbit and one uniform per satellite, since the orbits couple the
satellites. Whether the target sees a satellite depends only on its orbit's
s and its own anomaly: the orbit's visible part is one arc about its point
nearest the target, so no satellite needs a position or a distance to be
found visible. It returns the per-shell visible counts and, only when asked,
the visible satellites' positions packed shell by shell. At central angle
pi, :func:`place_in_cap` places a whole LEO shell, nearest first, and
:func:`sample_dsbpp_cap` draws a whole MEO shell. :func:`sample_bpp` and
:func:`central_angle_to_target` serve the benchmark's traced visible-LEO
statistics and the tests' independent check of ``geom.cap_fraction``.
"""

from __future__ import annotations

import numpy as np
# numpy imports its random package lazily, on first use; importing it here
# keeps that cost in start-up rather than in the first Monte Carlo batch.
import numpy.random  # noqa: F401

from .config import LeoShellConfig, MeoShellConfig
from .geom import cap_fraction, half_angle_cos_sin, orbit_arc

# The ground target used throughout; the point processes are isotropic, so
# fixing it loses no generality.
TARGET_DIRECTION = np.array([1.0, 0.0, 0.0])
# Most shells one place_in_cap call orders: its sort key holds a shell's
# index in the 10 bits above a uniform's 53-bit numerator.
MAX_PLACED_SHELLS = 2**10


def derive_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Independent, reproducible substream, such as one Monte Carlo batch's.

    Keyed on (master_seed, index) through the seed-sequence spawn mechanism,
    so distinct indices never share state and the same pair always
    reproduces the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def sample_bpp(config: LeoShellConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the LEO shell: n_sats points i.i.d. uniform on the sphere."""
    n = config.n_sats
    polar = np.arccos(1.0 - 2.0 * rng.random(n))
    azimuth = 2.0 * np.pi * rng.random(n)
    sin_p = np.sin(polar)
    out = np.empty((n, 3))
    out[:, 0] = sin_p * np.cos(azimuth)
    out[:, 1] = sin_p * np.sin(azimuth)
    out[:, 2] = np.cos(polar)
    out *= config.radius_km
    return out


def sample_dsbpp_cap(
    config: MeoShellConfig, rng: np.random.Generator, cap_angle: float, size: int, positions: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw ``size`` MEO shells, random orbits with uniform anomalies along
    each, and mark the satellites within central angle ``cap_angle`` of the
    target.

    An orbit's normal n is uniform, so s = n . target, the sine of the
    target's angle delta from the orbit plane, is uniform on [-1, 1], and
    the normal's azimuth psi about the target is uniform. The orbit is
    within the cap on one arc about its point nearest the target
    (:func:`~constelsim.geom.orbit_arc`), and a satellite is visible when
    its anomaly a, uniform on [-pi, pi) from that point, is within the
    arc's half-angle. Random draws happen in a fixed order: every s, every
    psi, then one anomaly uniform per satellite, orbit by orbit, each block
    shell by shell, so a given (config, stream, size) triple is
    reproducible and does not depend on ``cap_angle`` or ``positions``.

    Returns the per-shell visible counts and, with ``positions``, the
    ``(3, counts.sum())`` positions of the visible satellites only, shell by
    shell in orbit-major order (otherwise None). With c = cos(delta), the
    orbit's normal is (s, c cos psi, c sin psi), and the satellite at
    anomaly a sits at radius times (c cos a, sin a sin psi - s cos psi cos a,
    -(s sin psi cos a + sin a cos psi)). The cosines and sines come from
    :func:`~constelsim.geom.half_angle_cos_sin`, once per orbit for psi and
    once per visible satellite for a.
    """
    s = 1.0 - 2.0 * rng.random((size, config.n_orbits))
    psi = 2.0 * np.pi * rng.random((size, config.n_orbits))
    u = rng.random((size, config.n_orbits, config.sats_per_orbit))
    cos_delta = np.sqrt((1.0 - s) * (1.0 + s))
    # The anomaly is pi (2u - 1), so |anomaly| <= half is |u - 1/2| <= half / (2 pi).
    visible = np.abs(u - 0.5) <= orbit_arc(cap_angle, cos_delta)[..., None] * (0.5 / np.pi)
    # A product with ones counts each shell's flags faster than count_nonzero.
    counts = (visible.reshape(size, config.n_sats) @ np.ones(config.n_sats)).astype(np.intp)
    if not positions:
        return counts, None
    flat = np.flatnonzero(visible)
    orbit = flat // config.sats_per_orbit
    cos_psi, sin_psi = half_angle_cos_sin(psi, 1.0)
    s, cos_delta, cos_psi, sin_psi = (a.take(orbit) for a in (s, cos_delta, cos_psi, sin_psi))
    r_cos, r_sin = half_angle_cos_sin(2.0 * np.pi * (u.take(flat) - 0.5), config.radius_km)
    out = np.empty((3, flat.size))
    out[0] = cos_delta * r_cos
    out[1] = r_sin * sin_psi - s * cos_psi * r_cos
    out[2] = -(s * sin_psi * r_cos + r_sin * cos_psi)
    return counts, out


def sample_bpp_cap(config: LeoShellConfig, rng: np.random.Generator, cap_angle: float, size: int) -> np.ndarray:
    """Number of points of each of ``size`` independent LEO shells that lie
    within central angle ``cap_angle`` of the target.

    A binomial point process puts Binomial(n_sats, F(cap_angle)) of its
    points in the cap, with F the cap law :func:`~constelsim.geom.cap_fraction`,
    each uniform in the cap and independent of the count, so these counts and
    :func:`place_in_cap` together give the exact law of the shell restricted
    to the cap.
    """
    return rng.binomial(config.n_sats, cap_fraction(cap_angle), size=size)


def place_in_cap(radius_km: float, cap_angle: float, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Positions of points i.i.d. uniform in the cap of central angle
    ``cap_angle`` about the target on a shell of radius ``radius_km``,
    ``counts[s]`` of them for shell ``s``, at most ``MAX_PLACED_SHELLS``
    shells.

    Random draws happen in a fixed order: one uniform per point, shell by
    shell, for the cosines of the central angles, then one azimuth uniform
    per point. Returns the ``(3, counts.sum())`` positions, shell by shell
    and by increasing central angle within a shell.
    """
    if counts.size > MAX_PLACED_SHELLS:
        raise ValueError(f"at most {MAX_PLACED_SHELLS} shells are placed at once, got {counts.size}")
    # Generator.random returns k / 2^53 with an integer k below 2^53, so the
    # shell index placed above k makes one int64 key per point, below 2^63
    # for up to 2^10 shells, and a single sort of the keys orders every
    # shell's uniforms exactly. Ascending uniforms give descending cosines;
    # the azimuths are i.i.d., so they need no reordering.
    key = (rng.random(int(counts.sum())) * 2.0**53).astype(np.int64)
    key += np.repeat(np.arange(counts.size, dtype=np.int64) << 53, counts)
    key.sort()
    key &= 2**53 - 1
    cos_theta = 1.0 - key * 2.0**-53 * (2.0 * cap_fraction(cap_angle))
    return cap_positions(radius_km, cos_theta, 2.0 * np.pi * rng.random(cos_theta.size))


def cap_positions(radius_km: float, cos_theta: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Positions (km, leading axis of 3: x, y and z) of points on a shell
    given in polar coordinates about ``TARGET_DIRECTION`` (the x axis): the
    cosine of the central angle and the azimuth."""
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return radius_km * np.stack([cos_theta, *half_angle_cos_sin(azimuth, sin_theta)])


def central_angle_to_target(positions: np.ndarray, target_direction: np.ndarray = TARGET_DIRECTION) -> np.ndarray:
    """Central angle (radians, in [0, pi]) between each satellite and the
    target; ``positions`` has the coordinates on its last axis."""
    norms = np.linalg.norm(positions, axis=-1)
    cos_theta = positions @ target_direction / np.where(norms > 0, norms, 1.0)
    return np.arccos(np.clip(cos_theta, -1.0, 1.0))
