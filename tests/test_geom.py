import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constelsim.analytic import integrate_adaptive
from constelsim.geom import (
    EARTH_RADIUS_KM,
    cap_fraction,
    central_from_dome,
    dome_from_central,
    half_angle_cos_sin,
    max_central_angle,
    orbit_arc,
)

# Shell radii (km) of the baseline MEO and LEO layers.
MEO = 26371.0
LEO = 7371.0

# Slack for cosine arguments that drift past +/-1 through roundoff.
_COS_EPS = 1e-12


def horizon_angle(shell_radius_km: float) -> float:
    """Central angle at which the shell drops below the target's horizon."""
    return math.acos(EARTH_RADIUS_KM / shell_radius_km)


def max_detect_distance(shell_radius_km: float, theta_max: float) -> float:
    """Slant range (km) matching a central angle, by the law of cosines."""
    if not 0 <= theta_max <= math.pi:
        raise ValueError(f"central angle must lie in [0, pi], got {theta_max}")
    rq, re = shell_radius_km, EARTH_RADIUS_KM
    return math.sqrt(rq * rq + re * re - 2 * rq * re * math.cos(theta_max))


def max_orbit_central_angle(shell_radius_km: float, inclination: float, d_max_km: float) -> float:
    """Arc (as central angle, up to 2*pi) of one orbit lying within range.

    For a circular orbit whose normal makes angle ``inclination`` with the
    target direction, returns the central angle spanned by orbit points whose
    slant range to the target is at most ``d_max_km``. Zero when the orbit
    never comes within range. An oracle for :func:`orbit_arc` built from
    slant ranges instead of central angles.
    """
    if not 0 <= inclination <= math.pi:
        raise ValueError(f"inclination must lie in [0, pi], got {inclination}")
    if d_max_km <= 0:
        raise ValueError(f"d_max must be positive, got {d_max_km}")
    rq, re = shell_radius_km, EARTH_RADIUS_KM
    closest = (re * re + rq * rq - d_max_km * d_max_km) / (2 * re * rq)
    if closest < -1 - _COS_EPS:
        raise ValueError(f"d_max {d_max_km} km exceeds the largest possible separation")
    if closest >= 1:
        # Range shorter than the closest possible approach: nothing reachable.
        return 0.0
    crit = math.acos(max(closest, -1.0))
    if abs(inclination - math.pi / 2) > crit:
        return 0.0
    sin_inc = math.sin(inclination)
    arg = closest / sin_inc
    if abs(arg) > 1 + _COS_EPS:
        raise ValueError(
            f"inconsistent inputs: cosine argument {arg} outside [-1, 1] "
            f"for inclination {inclination}, d_max {d_max_km}"
        )
    return 2 * math.acos(min(1.0, max(-1.0, arg)))


def visible_3d(sat_pos, target_pos, half_beam):
    """Direct 3-D visibility: the sight line clears the Earth and the target
    sits inside the transmit cone."""
    d = target_pos - sat_pos
    t = -np.dot(sat_pos, d) / np.dot(d, d)
    t = min(1.0, max(0.0, t))
    if np.linalg.norm(sat_pos + t * d) < EARTH_RADIUS_KM * (1 - 1e-12):
        return False
    nadir = -sat_pos / np.linalg.norm(sat_pos)
    ang = math.acos(np.clip(np.dot(d / np.linalg.norm(d), nadir), -1.0, 1.0))
    return ang <= half_beam + 1e-15


def theta_max_bisect(radius, beam_angle):
    lo, hi = 0.0, math.pi
    target = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        sat = np.array([radius * math.cos(mid), radius * math.sin(mid), 0.0])
        if visible_3d(sat, target, beam_angle / 2):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMaxCentralAngle:
    def test_refuses_surface_shell(self):
        # The shell settings refuse this radius too, so no config reaches it.
        for phi in (0.1, math.pi / 4, 3.0):
            with pytest.raises(ValueError, match="shell radius"):
                max_central_angle(EARTH_RADIUS_KM, phi)

    def test_meo_horizon_branch(self):
        # wide beam: the horizon limits, not the beam
        assert 2 * math.asin(EARTH_RADIUS_KM / MEO) < math.pi / 6
        got = max_central_angle(MEO, math.pi / 6)
        assert got == pytest.approx(math.acos(6371.0 / 26371.0), abs=1e-15)
        # 3-D oracle; the horizon transition is quadratic, so the bisection
        # localizes it only to ~1e-6
        assert got == pytest.approx(theta_max_bisect(26371.0, math.pi / 6), abs=1e-5)

    def test_leo_beam_limited_branch(self):
        got = max_central_angle(LEO, math.pi / 4)
        assert got == pytest.approx(0.0659641485939313, abs=1e-12)
        assert got == pytest.approx(theta_max_bisect(7371.0, math.pi / 4), abs=1e-9)

    def test_branch_continuity(self):
        # the beam-limited branch approaches the horizon value like the
        # square root of the offset, so the gap at offset eps is ~sqrt(eps)
        boundary = 2 * math.asin(EARTH_RADIUS_KM / LEO)
        lo = max_central_angle(LEO, boundary * (1 - 1e-9))
        hi = max_central_angle(LEO, boundary * (1 + 1e-9))
        assert lo <= hi + 1e-12
        assert lo == pytest.approx(hi, abs=1e-4)
        assert max_central_angle(LEO, boundary * (1 - 1e-13)) == pytest.approx(hi, abs=1e-6)
        assert hi == pytest.approx(horizon_angle(LEO), abs=1e-12)

    def test_monotone_in_beam_and_radius(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            phi = rng.uniform(0.01, 2.0)
            d_phi = rng.uniform(0.0, 0.5)
            r = rng.uniform(6500.0, 45000.0)
            d_r = rng.uniform(0.0, 5000.0)
            assert max_central_angle(r, phi + d_phi) >= max_central_angle(r, phi) - 1e-12
            assert max_central_angle(r + d_r, phi) >= max_central_angle(r, phi) - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            max_central_angle(LEO, 0.0)
        with pytest.raises(ValueError):
            max_central_angle(LEO, -1.0)
        with pytest.raises(ValueError):
            max_central_angle(LEO, math.inf)
        with pytest.raises(ValueError, match=r"^beam angle must be below 2\*pi, got 6.283185307179586$"):
            max_central_angle(LEO, 2 * math.pi)
        for radius in (6000.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="shell radius"):
                max_central_angle(radius, math.pi / 4)

    def test_visibility_oracle_agreement(self):
        # 1000 random satellite positions per shell: the analytic cutoff must
        # agree with the direct 3-D test with zero mismatches
        rng = np.random.default_rng(7)
        target = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        for radius, beam in ((7371.0, math.pi / 4), (26371.0, math.pi / 6)):
            theta_cut = max_central_angle(radius, beam)
            mismatches = 0
            for _ in range(500):
                z = 1 - 2 * rng.random()
                az = 2 * math.pi * rng.random()
                s = math.sqrt(1 - z * z)
                sat = radius * np.array([z, s * math.cos(az), s * math.sin(az)])
                theta = math.acos(np.clip(sat[0] / radius, -1, 1))
                if abs(theta - theta_cut) < 1e-9:
                    continue
                if visible_3d(sat, target, beam / 2) != (theta <= theta_cut):
                    mismatches += 1
            assert mismatches == 0


class TestMaxDetectDistance:
    def test_degenerate_angles(self):
        assert max_detect_distance(MEO, 0.0) == pytest.approx(26371.0 - 6371.0, abs=1e-9)
        assert max_detect_distance(MEO, math.pi) == pytest.approx(26371.0 + 6371.0, abs=1e-9)

    def test_explicit_coordinates(self):
        theta = 1.3267910964275538
        sat = 26371.0 * np.array([math.cos(theta), math.sin(theta), 0.0])
        direct = np.linalg.norm(sat - np.array([6371.0, 0.0, 0.0]))
        got = max_detect_distance(MEO, theta)
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(25589.8417345633, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            max_detect_distance(MEO, -0.1)
        with pytest.raises(ValueError):
            max_detect_distance(MEO, 3.5)


def orbit_arc_oracle(r, inclination, d_max, n=200_000):
    """Brute-force arc scan: fraction of the orbit circle of radius ``r``
    within range."""
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    flat = np.column_stack([r * np.cos(t), r * np.sin(t), np.zeros(n)])
    ci, si = math.cos(inclination), math.sin(inclination)
    rot_x = np.array([[1, 0, 0], [0, ci, -si], [0, si, ci]])
    pts = flat @ rot_x.T
    # orbit normal starts at +z and tilts by the inclination; the target sits
    # on the +z axis for this scan (inclination is defined against it)
    target = np.array([0.0, 0.0, EARTH_RADIUS_KM])
    dist = np.linalg.norm(pts - target, axis=1)
    return 2 * math.pi * float(np.mean(dist <= d_max))


class TestMaxOrbitCentralAngle:
    def test_polar_orbit_doubles_theta_max(self):
        theta_max = max_central_angle(MEO, math.pi / 6)
        d_max = max_detect_distance(MEO, theta_max)
        got = max_orbit_central_angle(MEO, math.pi / 2, d_max)
        assert got == pytest.approx(2 * theta_max, rel=1e-12)
        assert got == pytest.approx(orbit_arc_oracle(MEO, math.pi / 2, d_max), abs=2e-4)

    def test_face_on_orbit_is_empty(self):
        d_max = max_detect_distance(MEO, 1.0)
        assert max_orbit_central_angle(MEO, 0.0, d_max) == 0.0
        assert max_orbit_central_angle(MEO, math.pi, d_max) == 0.0

    def test_critical_boundary_continuity(self):
        d_max = max_detect_distance(MEO, 0.9)
        rq, re = MEO, EARTH_RADIUS_KM
        crit = math.acos((re * re + rq * rq - d_max * d_max) / (2 * re * rq))
        just_inside = max_orbit_central_angle(MEO, math.pi / 2 - crit + 1e-9, d_max)
        assert just_inside == pytest.approx(0.0, abs=1e-3)
        assert max_orbit_central_angle(MEO, math.pi / 2 - crit - 1e-9, d_max) == 0.0

    def test_random_orbits_match_arc_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            theta_max = rng.uniform(0.1, 1.3)
            d_max = max_detect_distance(MEO, theta_max)
            inc = rng.uniform(0.0, math.pi)
            got = max_orbit_central_angle(MEO, inc, d_max)
            want = orbit_arc_oracle(MEO, inc, d_max)
            assert got == pytest.approx(want, abs=3e-4)

    def test_polar_orbit_dominates(self):
        d_max = max_detect_distance(MEO, 1.0)
        best = max_orbit_central_angle(MEO, math.pi / 2, d_max)
        for inc in np.linspace(0, math.pi, 57):
            assert max_orbit_central_angle(MEO, inc, d_max) <= best + 1e-12

    def test_short_range_returns_zero(self):
        # closer than the shell ever gets: empty arc, not an error
        assert max_orbit_central_angle(MEO, math.pi / 2, 1.0) == 0.0

    def test_rejects_inconsistent_distance(self):
        with pytest.raises(ValueError):
            max_orbit_central_angle(MEO, math.pi / 2, 40000.0)

    def test_rejects_bad_inclination(self):
        with pytest.raises(ValueError):
            max_orbit_central_angle(MEO, -0.1, 20000.0)


class TestOrbitArc:
    """``orbit_arc`` against the slant-range oracle above. An orbit whose
    normal n has s = n . target passes the target at angle delta from its
    plane, sin(delta) = s, and its normal makes angle arccos(s) with the
    target direction."""

    def test_polar_orbit_doubles_theta_max(self):
        theta_max = max_central_angle(MEO, math.pi / 6)
        half = orbit_arc(theta_max, 1.0)
        assert half == pytest.approx(theta_max, rel=1e-12)
        want = max_orbit_central_angle(MEO, math.pi / 2, max_detect_distance(MEO, theta_max))
        assert 2.0 * half == pytest.approx(want, rel=1e-12)

    def test_face_on_orbit_is_empty(self):
        # cos(delta) = 0 exactly: no divide warning, which pytest would raise.
        half = orbit_arc(1.0, np.zeros(2))
        assert np.all(half < 0)
        assert max_orbit_central_angle(MEO, 0.0, max_detect_distance(MEO, 1.0)) == 0.0

    def test_random_orbits_match_oracle(self):
        rng = np.random.default_rng(12)
        got, want = [], []
        for _ in range(25):
            theta_max = rng.uniform(0.1, 1.3)
            s = 1.0 - 2.0 * rng.random()
            half = orbit_arc(theta_max, math.sqrt((1.0 - s) * (1.0 + s)))
            got.append(max(2.0 * half, 0.0))
            want.append(max_orbit_central_angle(MEO, math.acos(s), max_detect_distance(MEO, theta_max)))
        assert 0 < np.count_nonzero(got) < 25
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_centre_is_nearest_point(self):
        # Scan random orbits, each built from its normal with an arbitrary
        # in-plane basis: the arc within the cap is centred on the orbit's
        # point nearest the target, at central angle delta, and spans twice
        # the half-angle.
        rng = np.random.default_rng(13)
        anomaly = np.linspace(-math.pi, math.pi, 20001)
        step = 2 * math.pi / 20000
        for _ in range(50):
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            first = np.cross(normal, rng.normal(size=3))
            first /= np.linalg.norm(first)
            cos_angle = first[0] * np.cos(anomaly) + np.cross(normal, first)[0] * np.sin(anomaly)
            cos_delta = math.sqrt(1.0 - normal[0] ** 2)
            assert cos_angle.max() == pytest.approx(cos_delta, abs=1e-6)
            half = orbit_arc(0.5, cos_delta)
            inside = anomaly[cos_angle >= math.cos(0.5)]
            if half < 0:
                assert inside.size == 0
                continue
            nearest = anomaly[np.argmax(cos_angle)]
            offset = np.angle(np.exp(1j * (inside - nearest)))
            assert np.max(np.abs(offset)) == pytest.approx(half, abs=2 * step)
            assert inside.size * step == pytest.approx(2.0 * half, abs=3 * step)


@pytest.mark.parametrize("scale", [1.0, MEO])
def test_half_angle_cos_sin_matches_numpy(scale):
    # From just inside -pi through pi/2, and a tiny angle whose half-angle
    # tangent squares to zero: within one unit in the last place of the
    # scale, and exact where the angle is 0 or tiny.
    angle = np.array([-math.pi * (1.0 - 2.0**-53), -math.pi / 2, 0.0, 1e-300, math.pi / 2])
    cos, sin = half_angle_cos_sin(angle, scale)
    np.testing.assert_allclose(cos, scale * np.cos(angle), rtol=2.0**-52, atol=scale * 2.0**-52)
    np.testing.assert_allclose(sin, scale * np.sin(angle), rtol=2.0**-52, atol=scale * 2.0**-52)
    assert sin[3] == scale * 1e-300 and cos[2] == cos[3] == scale


class TestCapLaws:
    """geom's two visibility laws agree. A uniform orbit normal makes
    s = sin(delta) uniform on [0, 1], and averaged over s the fraction of the
    orbit within central angle theta, max(orbit_arc, 0) / pi, is the
    probability that a uniform point lies there, cap_fraction(theta)."""

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, max_central_angle(MEO, math.pi / 6), math.pi / 2, 2.0, 3.0])
    def test_orbit_arc_averages_to_cap_fraction(self, theta):
        def fraction(s):
            return np.maximum(orbit_arc(theta, np.sqrt((1.0 - s) * (1.0 + s))), 0.0) / math.pi

        # The arc has a square-root edge at s = sin(theta); s = sin(theta)
        # (1 - t^2) smooths it. Beyond the edge the fraction is 0, or 1 for
        # theta past pi / 2, where the whole orbit is in the cap.
        edge = math.sin(theta)
        inner = integrate_adaptive(lambda t: fraction(edge * (1.0 - t * t)) * 2.0 * edge * t, 0.0, 1.0, 1e-13,
                                   "arc below the edge")
        outer = integrate_adaptive(fraction, edge, 1.0, 1e-13, "arc beyond the edge")
        assert outer == pytest.approx(1.0 - edge if theta > math.pi / 2 else 0.0, rel=0, abs=1e-15)
        assert inner + outer == pytest.approx(cap_fraction(theta), rel=0, abs=1e-10)


class TestDomeCentralConversions:
    def test_small_angle_limit(self):
        assert dome_from_central(LEO, 1e-6) == pytest.approx(0.0, abs=1e-4)
        assert central_from_dome(LEO, 1e-6) == pytest.approx(0.0, abs=1e-6)

    def test_frozen_pair(self):
        # effective beam range of the baseline Gaussian pattern
        assert central_from_dome(LEO, 0.41888) == pytest.approx(0.0596465087487113, abs=1e-12)
        assert dome_from_central(LEO, 0.0596465087487113) == pytest.approx(0.41888, abs=1e-10)

    def test_dome_by_3d_construction(self):
        # serving satellite at the target's zenith, second satellite offset
        target = np.array([6371.0, 0.0, 0.0])
        serving = np.array([7371.0, 0.0, 0.0])
        for theta in (0.01, 0.0597, 0.2, 0.5):
            other = 7371.0 * np.array([math.cos(theta), math.sin(theta), 0.0])
            u1 = (serving - target) / np.linalg.norm(serving - target)
            u2 = (other - target) / np.linalg.norm(other - target)
            want = math.acos(float(np.clip(np.dot(u1, u2), -1, 1)))
            assert dome_from_central(LEO, theta) == pytest.approx(want, abs=1e-12)

    def test_inversion_by_bisection(self):
        for phi in (0.05, 0.2, 0.41888, 1.0):
            lo, hi = 1e-12, math.pi - 1e-9
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if dome_from_central(LEO, mid) < phi:
                    lo = mid
                else:
                    hi = mid
            assert central_from_dome(LEO, phi) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_roundtrips(self):
        horizon = horizon_angle(LEO)
        for theta in np.linspace(1e-4, horizon, 60):
            phi = dome_from_central(LEO, float(theta))
            if phi >= math.pi / 2:
                continue
            assert central_from_dome(LEO, phi) == pytest.approx(float(theta), abs=1e-10)
        for phi in np.linspace(1e-3, math.pi / 2 - 1e-6, 60):
            theta = central_from_dome(LEO, float(phi))
            assert dome_from_central(LEO, theta) == pytest.approx(float(phi), abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(altitude=st.floats(100.0, 40_000.0), fraction=st.floats(1e-6, 1.0 - 1e-6))
    def test_dome_inverts_central(self, altitude, fraction):
        radius = EARTH_RADIUS_KM + altitude
        phi = fraction * math.pi / 2
        assert dome_from_central(radius, central_from_dome(radius, phi)) == pytest.approx(phi, abs=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(
        altitude=st.floats(100.0, 40_000.0),
        fractions=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=8),
    )
    def test_central_inverts_dome(self, altitude, fractions):
        # Below the horizon angle the dome angle stays under pi/2. An array
        # maps elementwise, as each of its angles does alone.
        radius = EARTH_RADIUS_KM + altitude
        thetas = np.array(fractions) * horizon_angle(radius)
        domes = dome_from_central(radius, thetas)
        assert isinstance(domes, np.ndarray) and domes.shape == thetas.shape
        for theta, phi in zip(thetas, domes):
            alone = dome_from_central(radius, float(theta))
            assert isinstance(alone, float)
            assert phi == pytest.approx(alone, rel=1e-15, abs=1e-15)
            assert central_from_dome(radius, float(phi)) == pytest.approx(theta, abs=1e-10)

    def test_strictly_increasing(self):
        grid = np.linspace(1e-4, horizon_angle(LEO), 200)
        values = [dome_from_central(LEO, float(t)) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejections(self):
        with pytest.raises(ValueError):
            dome_from_central(LEO, 0.0)
        for bad in (0.0, -0.1, math.pi, math.nan):
            with pytest.raises(ValueError):
                dome_from_central(LEO, np.array([0.1, bad, 0.2]))
        with pytest.raises(ValueError):
            central_from_dome(LEO, 0.0)
        with pytest.raises(ValueError):
            central_from_dome(LEO, math.pi / 2)
        with pytest.raises(ValueError):
            central_from_dome(EARTH_RADIUS_KM, 0.3)
        for radius in (6000.0, math.inf):
            with pytest.raises(ValueError, match="shell radius"):
                central_from_dome(radius, 0.3)
            with pytest.raises(ValueError, match="shell radius"):
                dome_from_central(radius, 0.1)
