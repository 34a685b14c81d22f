"""Random constellation generators.

LEO shells are homogeneous binomial point processes on a sphere: a fixed
number of satellites placed i.i.d. uniformly. MEO shells are generated
orbit-first: each orbit normal is uniform on the sphere (inclination density
sin/2, azimuth uniform), and a fixed number of satellites is placed at
independent uniform anomalies along each orbit.

Positions are returned as ``(n, 3)`` float arrays in kilometres. MEO points
are ordered orbit-major: satellite ``j`` of orbit ``i`` sits at row
``i * sats_per_orbit + j``.

The Monte Carlo engine draws whole batches of shells at once, and of each
shell only the part that can be seen. Both cap samplers return per-shell
visible counts and, only when asked, the positions of the visible
satellites packed shell by shell. For LEO, :func:`sample_bpp_cap` draws
only the visible cap: no satellite outside it can serve or interfere, and
the binomial cap-count law makes the restricted draw exact. Its positions
come nearest first within each shell. For MEO, :func:`sample_dsbpp_cap`
draws every orbit and anomaly, since the orbits couple the satellites, but
decides visibility from the anomaly alone: each orbit's visible part is one
arc about the target, so no satellite needs a position, or a distance, to
be found visible. :func:`sample_bpp` and :func:`sample_dsbpp` still draw
whole shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy imports its random package lazily, on first use; importing it here
# keeps that cost in start-up rather than in the first Monte Carlo batch.
import numpy.random  # noqa: F401

from .geom import EARTH_RADIUS_KM, orbit_arc

# The ground target used throughout; the point processes are isotropic, so
# fixing it loses no generality.
TARGET_DIRECTION = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class LeoShellConfig:
    n_sats: int
    radius_km: float
    beam_angle: float  # full width of the transmit cone, radians

    def __post_init__(self):
        if self.n_sats < 0:
            raise ValueError("n_sats must be non-negative")
        if not EARTH_RADIUS_KM < self.radius_km < math.inf:
            raise ValueError("LEO shell radius must be finite and exceed the Earth radius")
        if not 0 < self.beam_angle < 2 * math.pi:
            raise ValueError("beam angle must lie in (0, 2*pi)")


@dataclass(frozen=True)
class MeoShellConfig:
    n_orbits: int
    sats_per_orbit: int
    radius_km: float
    beam_angle: float

    def __post_init__(self):
        if self.n_orbits < 0 or self.sats_per_orbit < 0:
            raise ValueError("orbit and satellite counts must be non-negative")
        if not EARTH_RADIUS_KM < self.radius_km < math.inf:
            raise ValueError("MEO shell radius must be finite and exceed the Earth radius")
        if not 0 < self.beam_angle < 2 * math.pi:
            raise ValueError("beam angle must lie in (0, 2*pi)")

    @property
    def n_sats(self) -> int:
        return self.n_orbits * self.sats_per_orbit


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


def sample_dsbpp(config: MeoShellConfig, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw the MEO shell, as :func:`sample_dsbpp_cap` draws it, whole: shape
    ``(n_sats, 3)``, or ``(n, n_sats, 3)`` for n shells with ``size=n``."""
    _, positions = sample_dsbpp_cap(config, rng, math.pi, 1 if size is None else size, positions=True)
    return positions.reshape((() if size is None else (size,)) + (config.n_sats, 3))


def sample_dsbpp_cap(
    config: MeoShellConfig, rng: np.random.Generator, cap_angle: float, size: int, positions: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw ``size`` MEO shells, random orbits with uniform anomalies along
    each, and mark the satellites within central angle ``cap_angle`` of the
    target.

    Each orbit circle starts in the xy-plane, is tilted about the x-axis by
    its inclination (sin/2 density), then swung about the z-axis by its
    azimuth (uniform). Random draws happen in a fixed order: all
    inclinations, all azimuths, then the anomalies orbit by orbit, each
    block shell by shell, so a given (config, stream, size) triple is
    reproducible and does not depend on ``cap_angle`` or ``positions``.

    Returns the per-shell visible counts and, with ``positions``, the
    ``(counts.sum(), 3)`` positions of the visible satellites, shell by
    shell in orbit-major order (otherwise None). Visibility takes no
    position: the part of an orbit within the cap is one arc
    (:func:`~constelsim.geom.orbit_arc`), and a satellite is visible when
    its anomaly lies on its orbit's arc. Positions are built for visible
    satellites only.
    """
    inclination = np.arccos(1.0 - 2.0 * rng.random((size, config.n_orbits)))
    azimuth = 2.0 * np.pi * rng.random((size, config.n_orbits))
    anomaly = 2.0 * np.pi * rng.random((size, config.n_orbits, config.sats_per_orbit))
    cos_i, cos_az, sin_az = np.cos(inclination), np.cos(azimuth), np.sin(azimuth)
    centre, half = orbit_arc(cap_angle, cos_az, -cos_i * sin_az)
    # anomaly - centre lies in (-pi, 3 pi); the arc test wants it wrapped.
    offset = anomaly - centre[..., None]
    offset = np.minimum(np.abs(offset), np.abs(offset - 2.0 * np.pi))
    visible = offset <= half[..., None]
    counts = visible.sum(axis=(1, 2))
    if not positions:
        return counts, None
    flat = np.flatnonzero(visible)
    orbit = flat // config.sats_per_orbit
    cos_i, sin_i, cos_az, sin_az = (a.take(orbit) for a in (cos_i, np.sin(inclination), cos_az, sin_az))
    x_flat = config.radius_km * np.cos(anomaly.take(flat))
    y_flat = config.radius_km * np.sin(anomaly.take(flat))
    y_tilt = y_flat * cos_i
    out = np.empty((flat.size, 3))
    out[:, 0] = x_flat * cos_az - y_tilt * sin_az
    out[:, 1] = x_flat * sin_az + y_tilt * cos_az
    out[:, 2] = y_flat * sin_i
    return counts, out


def sample_bpp_cap(
    config: LeoShellConfig, rng: np.random.Generator, cap_angle: float, size: int, positions: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Draw the part of ``size`` independent LEO shells that lies within
    central angle ``cap_angle`` of the target.

    A binomial point process puts Binomial(n_sats, f) of its points in a cap
    of area fraction f = (1 - cos cap_angle) / 2, each uniform in the cap, so
    this is the exact law of the shell restricted to the cap. Random draws
    happen in a fixed order: the counts, then ``(size, largest count)``
    uniforms for the cosines of the central angles, then as many for the
    azimuths about the target axis, whether or not ``positions`` is set.

    Returns the per-shell counts and, with ``positions``, the
    ``(counts.sum(), 3)`` positions of the points, shell by shell and by
    increasing central angle within a shell (otherwise None).
    """
    counts = rng.binomial(config.n_sats, 0.5 * (1.0 - math.cos(cap_angle)), size=size)
    width = int(counts.max(initial=0))
    u, azimuth = rng.random((2, size, width))
    if not positions:
        return counts, None
    # Ascending uniforms give descending cosines; the azimuths are i.i.d.,
    # so they need no reordering.
    live = np.arange(width) < counts[:, None]
    u[~live] = np.inf
    u.sort(axis=1)
    cos_theta = 1.0 - u[live] * (1.0 - math.cos(cap_angle))
    return counts, cap_positions(config.radius_km, cos_theta, 2.0 * np.pi * azimuth[live])


def cap_positions(radius_km: float, cos_theta: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Positions (km, trailing axis of 3) of points on a shell given in
    polar coordinates about ``TARGET_DIRECTION`` (the x axis): the cosine of
    the central angle and the azimuth."""
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return radius_km * np.stack([cos_theta, sin_theta * np.cos(azimuth), sin_theta * np.sin(azimuth)], axis=-1)


def central_angle_to_target(positions: np.ndarray, target_direction: np.ndarray = TARGET_DIRECTION) -> np.ndarray:
    """Central angle (radians, in [0, pi]) between each satellite and the
    target; ``positions`` has the coordinates on its last axis."""
    norms = np.linalg.norm(positions, axis=-1)
    cos_theta = positions @ target_direction / np.where(norms > 0, norms, 1.0)
    return np.arccos(np.clip(cos_theta, -1.0, 1.0))
