"""Random constellation generators.

LEO shells are homogeneous binomial point processes on a sphere: a fixed
number of satellites placed i.i.d. uniformly. MEO shells are generated
orbit-first: each orbit normal is uniform on the sphere (inclination density
sin/2, azimuth uniform), and a fixed number of satellites is placed at
independent uniform anomalies along each orbit.

Positions are returned as ``(n, 3)`` float arrays in kilometres. MEO points
are ordered orbit-major: satellite ``j`` of orbit ``i`` sits at row
``i * sats_per_orbit + j``.

The Monte Carlo engine draws whole batches of shells at once. With
``size=n``, :func:`sample_dsbpp` returns ``(n, n_sats, 3)``: n independent
shells, drawn in the same per-block order as a single one. For LEO the
engine draws only the visible cap, through :func:`sample_bpp_cap`: no
satellite outside it can serve or interfere, and the binomial cap-count law
makes the restricted draw exact. That sampler returns polar coordinates
about the target, which :func:`cap_positions` turns into positions.
:func:`sample_bpp` still draws a whole shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy imports its random package lazily, on first use; importing it here
# keeps that cost in start-up rather than in the first Monte Carlo batch.
import numpy.random  # noqa: F401

from .geom import EARTH_RADIUS_KM

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
    """Draw the MEO shell: random orbits, uniform anomalies along each.

    Each orbit circle starts in the xy-plane, is tilted about the x-axis by
    its inclination (sin/2 density), then swung about the z-axis by its
    azimuth (uniform). Random draws happen in a fixed order: all
    inclinations, all azimuths, then the anomalies orbit by orbit, so a
    given (config, stream, size) triple is reproducible. With ``size=n`` the
    draws cover n shells at once, each block in that order along the
    trailing axes, and the result has shape ``(n, n_sats, 3)``.
    """
    shape = () if size is None else (size,)
    n_orbits, per_orbit = config.n_orbits, config.sats_per_orbit
    inclination = np.arccos(1.0 - 2.0 * rng.random(shape + (n_orbits,)))[..., None]
    azimuth = 2.0 * np.pi * rng.random(shape + (n_orbits,))[..., None]
    anomaly = 2.0 * np.pi * rng.random(shape + (n_orbits, per_orbit))
    x_flat = config.radius_km * np.cos(anomaly)
    y_flat = config.radius_km * np.sin(anomaly)
    y_tilt = y_flat * np.cos(inclination)
    out = np.empty(shape + (n_orbits, per_orbit, 3))
    out[..., 0] = x_flat * np.cos(azimuth) - y_tilt * np.sin(azimuth)
    out[..., 1] = x_flat * np.sin(azimuth) + y_tilt * np.cos(azimuth)
    out[..., 2] = y_flat * np.sin(inclination)
    return out.reshape(shape + (n_orbits * per_orbit, 3))


def sample_bpp_cap(
    config: LeoShellConfig, rng: np.random.Generator, cap_angle: float, size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the part of ``size`` independent LEO shells that lies within
    central angle ``cap_angle`` of the target, nearest first.

    A binomial point process puts Binomial(n_sats, f) of its points in a cap
    of area fraction f = (1 - cos cap_angle) / 2, each uniform in the cap, so
    this is the exact law of the shell restricted to the cap. Points are
    returned in polar coordinates about the target direction: the cosine of
    the central angle and the azimuth about the target axis, both of shape
    ``(size, largest count)``. Row i holds shell i's satellites by
    increasing central angle, then NaN padding.
    """
    counts = rng.binomial(config.n_sats, 0.5 * (1.0 - math.cos(cap_angle)), size=size)
    width = int(counts.max(initial=0))
    padding = np.arange(width) >= counts[:, None]
    # Ascending uniforms give descending cosines; the azimuths are i.i.d.,
    # so they need no reordering. In place, so that each draw allocates
    # only its two outputs.
    u = rng.random((size, width))
    u[padding] = np.inf
    u.sort(axis=1)
    u[padding] = np.nan
    u *= -(1.0 - math.cos(cap_angle))
    u += 1.0  # now the cosine of the central angle
    azimuth = rng.random((size, width))
    azimuth *= 2.0 * np.pi
    azimuth[padding] = np.nan
    return u, azimuth


def cap_positions(radius_km: float, cos_theta: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Positions (km, trailing axis of 3) of points on a shell given in the
    polar coordinates of :func:`sample_bpp_cap`, whose axis is
    ``TARGET_DIRECTION`` (the x axis)."""
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    return radius_km * np.stack([cos_theta, sin_theta * np.cos(azimuth), sin_theta * np.sin(azimuth)], axis=-1)


def central_angle_to_target(positions: np.ndarray, target_direction: np.ndarray = TARGET_DIRECTION) -> np.ndarray:
    """Central angle (radians, in [0, pi]) between each satellite and the
    target; ``positions`` has the coordinates on its last axis."""
    norms = np.linalg.norm(positions, axis=-1)
    cos_theta = positions @ target_direction / np.where(norms > 0, norms, 1.0)
    return np.arccos(np.clip(cos_theta, -1.0, 1.0))
