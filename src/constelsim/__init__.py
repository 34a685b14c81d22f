"""Availability and localizability analysis of LEO/MEO satellite constellations.

Closed-form probability expressions for randomly deployed constellations
(binomial point process LEO shells, orbit-based MEO shells) together with a
Monte Carlo simulator of the same system model used to validate every
expression.
"""

from .geom import EARTH_RADIUS_KM

__all__ = ["EARTH_RADIUS_KM"]
__version__ = "0.1.0"
