"""Configuration: baseline values, file parsing, canonical emission.

The file format is flat ``section.key = value`` text. Values may carry a
unit suffix (``dBW``, ``dBm``, ``dBi``, ``dB``, ``deg``, ``rad``); decibel
quantities are converted to linear on parse and everything is stored linear
internally. Altitudes are given in km above the surface and converted to
shell radii. ``#`` starts a comment.
"""

from __future__ import annotations

import math

from .analytic import SystemConfig
from .channel import (
    CosinePattern,
    FlatTopPattern,
    GaussianPattern,
    LinkParams,
    SincPattern,
    SrFadingParams,
)
from .constellation import LeoShellConfig, MeoShellConfig
from .geom import EARTH_RADIUS_KM
from .mc import McSpec


class ConfigError(ValueError):
    """Bad configuration file or option."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# Baseline system: a 2000-satellite LEO shell at 1000 km with 45-degree
# transmit cones on the 20 GHz band, plus a 12-satellite MEO layer (2 orbits
# of 6) at 20000 km on the 1.579 GHz band, Gaussian receive pattern with an
# 8-degree half-power beamwidth.
_DEFAULTS: dict[str, str] = {
    "leo.n_sats": "2000",
    "leo.altitude_km": "1000",
    "leo.beam_angle": "45 deg",
    "leo.tx_power": "15 dBW",
    "leo.tx_gain": "33.8 dBi",
    "leo.max_rx_gain": "31.8 dBi",
    "leo.wavelength_m": "0.0150",
    "leo.system_loss": "-6 dB",
    "leo.noise_power": "-90.2 dBm",
    "leo.sinr_threshold": "10 dB",
    "meo.n_orbits": "2",
    "meo.sats_per_orbit": "6",
    "meo.altitude_km": "20000",
    "meo.beam_angle": "30 deg",
    "meo.tx_power": "18 dBW",
    "meo.tx_gain": "24.1 dBi",
    "meo.max_rx_gain": "5 dBi",
    "meo.wavelength_m": "0.190",
    "meo.system_loss": "-6 dB",
    "meo.noise_power": "-103.9 dBm",
    "meo.sinr_threshold": "-16 dB",
    "fading.m": "19.4",
    "fading.b0": "0.158",
    "fading.omega": "1.29",
    "rx.pattern": "gaussian",
    "rx.phi_3db": "8 deg",
    "rx.n_elements": "35",
    "epsilon": "0.01",
    "mc.n_trials": "100000",
    "mc.master_seed": "1",
    "mc.sum_all_interferers": "true",
}

_KNOWN_KEYS = set(_DEFAULTS)

_UNIT_SUFFIXES = ("dBW", "dBm", "dBi", "dB", "deg", "rad")


def _parse_value(key: str, raw: str) -> float | str | bool:
    raw = raw.strip()
    if key == "rx.pattern":
        pattern = raw.lower()
        if pattern not in ("gaussian", "flattop", "sinc", "cosine"):
            raise ConfigError(f"unknown antenna pattern '{raw}'")
        return pattern
    if key == "mc.sum_all_interferers":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"boolean expected for {key}, got '{raw}'")
    unit = None
    for suffix in _UNIT_SUFFIXES:
        if raw.endswith(suffix):
            unit = suffix
            raw = raw[: -len(suffix)].strip()
            break
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key}: '{raw}'") from exc
    if unit == "dBm":
        return db_to_linear(value) * 1e-3
    if unit in ("dBW", "dBi", "dB"):
        return db_to_linear(value)
    if unit == "deg":
        return math.radians(value)
    return value


def parse_config_text(text: str, base: dict | None = None) -> dict:
    """Parse ``key = value`` lines into a flat settings dict over defaults."""
    settings = dict(base) if base is not None else {k: _parse_value(k, v) for k, v in _DEFAULTS.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        settings[key] = _parse_value(key, raw)
    return settings


def load_settings(path: str | None = None, overrides: dict[str, str] | None = None) -> dict:
    """Settings from defaults, then an optional file, then explicit overrides."""
    settings = {k: _parse_value(k, v) for k, v in _DEFAULTS.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read '{path}': {getattr(exc, 'strerror', None) or exc}") from exc
        settings = parse_config_text(text, base=settings)
    for key, raw in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        settings[key] = _parse_value(key, str(raw))
    return settings


def _integer(settings: dict, key: str) -> int:
    """``settings[key]`` as an int; it must be finite and integral."""
    if not float(settings[key]).is_integer():
        raise ConfigError(f"{key} must be a whole number, got {settings[key]!r}")
    return int(settings[key])


def _build_pattern(settings: dict):
    pattern = settings["rx.pattern"]
    phi_3db = settings["rx.phi_3db"]
    n_elements = _integer(settings, "rx.n_elements")
    if pattern == "gaussian":
        return GaussianPattern(phi_3db)
    if pattern == "flattop":
        return FlatTopPattern(phi_3db)
    if pattern == "sinc":
        return SincPattern(n_elements)
    return CosinePattern(n_elements)


def _link(settings: dict, layer: str) -> LinkParams:
    """One layer's link budget from its ``<layer>.*`` keys, which carry the
    field names except for the two powers' ``_w``."""
    names = ("tx_gain", "max_rx_gain", "wavelength_m", "system_loss", "sinr_threshold")
    return LinkParams(tx_power_w=settings[f"{layer}.tx_power"], noise_power_w=settings[f"{layer}.noise_power"],
                      **{name: settings[f"{layer}.{name}"] for name in names})


def build_system_config(settings: dict) -> SystemConfig:
    try:
        fading = SrFadingParams(
            m=settings["fading.m"], b0=settings["fading.b0"], omega=settings["fading.omega"],
        )
        return SystemConfig(
            leo=LeoShellConfig(
                n_sats=_integer(settings, "leo.n_sats"),
                radius_km=EARTH_RADIUS_KM + settings["leo.altitude_km"],
                beam_angle=settings["leo.beam_angle"],
            ),
            meo=MeoShellConfig(
                n_orbits=_integer(settings, "meo.n_orbits"),
                sats_per_orbit=_integer(settings, "meo.sats_per_orbit"),
                radius_km=EARTH_RADIUS_KM + settings["meo.altitude_km"],
                beam_angle=settings["meo.beam_angle"],
            ),
            leo_link=_link(settings, "leo"),
            meo_link=_link(settings, "meo"),
            leo_fading=fading,
            meo_fading=fading,
            rx_pattern=_build_pattern(settings),
            epsilon=settings["epsilon"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_mc_settings(settings: dict) -> McSpec:
    """Monte Carlo run spec from the ``mc.*`` keys."""
    n_trials, master_seed = _integer(settings, "mc.n_trials"), _integer(settings, "mc.master_seed")
    try:
        return McSpec(n_trials=n_trials, master_seed=master_seed,
                      sum_all_interferers=bool(settings["mc.sum_all_interferers"]))
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc


def default_config() -> SystemConfig:
    return build_system_config(load_settings())


def emit_settings(settings: dict) -> str:
    """Canonical re-emission: linear units, radians, and floats in their
    shortest exact form (``repr``).

    Parsing the emitted text reproduces the same settings exactly.
    """
    lines = []
    for key in _DEFAULTS:
        value = settings[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, str):
            rendered = value
        elif float(value).is_integer() and abs(value) < 1e15:
            rendered = str(int(value))
        else:
            rendered = repr(float(value))
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
