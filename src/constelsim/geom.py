"""Spherical geometry of satellite shells seen from a ground target.

All angles are in radians and all lengths in kilometres unless a name says
otherwise. Central angles are measured at the Earth's centre, dome angles at
the ground target.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_KM = 6371.0


def _radius_ratio(shell_radius_km: float) -> float:
    """Re/Rq of a shell of radius ``shell_radius_km``, which must be finite
    and at least the Earth's radius."""
    if not EARTH_RADIUS_KM <= shell_radius_km < math.inf:
        raise ValueError(f"shell radius {shell_radius_km} km must be finite and at least {EARTH_RADIUS_KM} km")
    return EARTH_RADIUS_KM / shell_radius_km


def max_central_angle(shell_radius_km: float, beam_angle: float) -> float:
    """Largest central angle at which a satellite is still detectable.

    A satellite is detectable when the target sits inside its transmit cone of
    full width ``beam_angle`` and the sight line clears the Earth. Whichever
    constraint binds first gives the limit: the horizon angle
    acos(Re/Rq) once the beam is wide enough, otherwise the beam-limited
    angle asin(Rq*sin(beam/2)/Re) - beam/2.
    """
    ratio = _radius_ratio(shell_radius_km)
    if not math.isfinite(beam_angle) or beam_angle <= 0:
        raise ValueError(f"beam angle must be positive and finite, got {beam_angle}")
    if beam_angle >= 2 * math.pi:
        raise ValueError(f"beam angle must be below 2*pi, got {beam_angle}")
    if shell_radius_km == EARTH_RADIUS_KM:
        # Degenerate shell on the surface: both branches collapse.
        return 0.0
    if beam_angle >= 2 * math.asin(ratio):
        return math.acos(ratio)
    half = beam_angle / 2
    return math.asin(math.sin(half) / ratio) - half


def orbit_arc(cap_angle: float, along, across):
    """Centre and half-angle of the part of a circular orbit that lies within
    central angle ``cap_angle`` of the target, elementwise.

    The orbit is the great circle cos(a) e1 + sin(a) e2 of anomaly a, and
    ``along`` and ``across`` are the target direction's components on e1
    and e2. The cosine of the central angle at anomaly a is then
    cos(delta) cos(a - centre), where delta is the target's angle from the
    orbit plane, cos(delta) = hypot(along, across) (a form that does not
    cancel) and centre = atan2(across, along). The orbit is within the cap
    where |a - centre| (wrapped to [-pi, pi]) is at most the half-angle
    arccos(cos(cap_angle) / cos(delta)). The half-angle is -1 where the
    orbit has no point in the cap, cos(delta) < cos(cap_angle).
    """
    cos_delta = np.hypot(along, across)
    centre = np.arctan2(across, along)
    cos_cap = math.cos(cap_angle)
    # cos(delta) = 0 is an orbit face-on to the target; the floor keeps the
    # ratio finite there, and its sign carries the answer.
    ratio = cos_cap / np.maximum(cos_delta, np.finfo(float).tiny)
    half = np.arccos(np.clip(ratio, -1.0, 1.0))
    return centre, np.where(ratio > 1.0, -1.0, half)


def dome_from_central(shell_radius_km: float, theta):
    """Dome angle at the target between the zenith satellite and one offset
    by central angle ``theta`` on the same shell of radius
    ``shell_radius_km``, elementwise over ``theta``.

    Equals acot(cot(theta) - (Re/Rq)*sqrt(1 + cot(theta)^2)); evaluated in
    atan2 form, which is exact for theta in (0, pi) and has no cotangent
    blow-up. A scalar ``theta`` gives a float.
    """
    _radius_ratio(shell_radius_km)
    theta_arr = np.asarray(theta, dtype=float)
    bad = ~(np.isfinite(theta_arr) & (theta_arr > 0))
    if bad.any():
        raise ValueError(f"central angle must be positive, got {theta_arr[bad].flat[0]}")
    if np.any(theta_arr >= math.pi):
        raise ValueError(f"central angle must be below pi, got {theta_arr[theta_arr >= math.pi].flat[0]}")
    rq = shell_radius_km
    out = np.arctan2(rq * np.sin(theta_arr), rq * np.cos(theta_arr) - EARTH_RADIUS_KM)
    return float(out) if out.ndim == 0 else out


def central_from_dome(shell_radius_km: float, phi_max: float) -> float:
    """Central angle whose dome angle at the target equals ``phi_max``, on
    a shell of radius ``shell_radius_km`` above the Earth's surface.

    Inverse of :func:`dome_from_central` on phi in (0, pi/2): the positive
    root of the quadratic obtained from the sine rule,
    cot(theta) = (u + rho*sqrt(1 + u^2 - rho^2)) / (1 - rho^2)
    with u = cot(phi_max) and rho = Re/Rq.
    """
    rho = _radius_ratio(shell_radius_km)
    if shell_radius_km == EARTH_RADIUS_KM:
        raise ValueError("shell radius must exceed earth radius")
    if not 0 < phi_max < math.pi / 2:
        raise ValueError(f"dome angle must lie in (0, pi/2), got {phi_max}")
    u = 1.0 / math.tan(phi_max)
    t = (u + rho * math.sqrt(1 + u * u - rho * rho)) / (1 - rho * rho)
    return math.atan2(1.0, t)
