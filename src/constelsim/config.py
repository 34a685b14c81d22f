"""Configuration: the settings types, each checking its values, baseline
values (the only defaults), file parsing and canonical emission.

The file format is flat ``section.key = value`` text. Values may carry a
unit suffix (``dBW``, ``dBm``, ``dBi``, ``dB``, ``deg``, ``rad``); decibel
quantities are converted to linear on parse and everything is stored linear
internally. Altitudes are given in km above the surface and converted to
shell radii. ``#`` starts a comment. Every text, from a file, ``--set`` or a
sweep point, becomes a value in :func:`_parse_value` alone; counts are exact
integers, and a fractional, non-finite or unit-suffixed count is refused.
"""

from __future__ import annotations

import contextlib
import math

from .channel import (
    AntennaPattern,
    CosinePattern,
    FlatTopPattern,
    GaussianPattern,
    LinkParams,
    SincPattern,
    SrFadingParams,
)
from .geom import EARTH_RADIUS_KM, max_central_angle
from .record import record


class ConfigError(ValueError):
    """Bad configuration file or option."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _check_shell(layer: str, radius_km: float, beam_angle: float):
    if not EARTH_RADIUS_KM < radius_km < math.inf:
        raise ValueError(f"{layer} shell radius must be finite and exceed the Earth radius")
    if not 0 < beam_angle < 2 * math.pi:
        raise ValueError("beam angle must lie in (0, 2*pi)")


@record
class LeoShellConfig:
    n_sats: int
    radius_km: float
    beam_angle: float  # full width of the transmit cone, radians

    def __post_init__(self):
        if self.n_sats < 0:
            raise ValueError("n_sats must be non-negative")
        _check_shell("LEO", self.radius_km, self.beam_angle)


@record
class MeoShellConfig:
    n_orbits: int
    sats_per_orbit: int
    radius_km: float
    beam_angle: float

    def __post_init__(self):
        if self.n_orbits < 0 or self.sats_per_orbit < 0:
            raise ValueError("orbit and satellite counts must be non-negative")
        _check_shell("MEO", self.radius_km, self.beam_angle)

    @property
    def n_sats(self) -> int:
        return self.n_orbits * self.sats_per_orbit


@record
class SystemConfig:
    """Full two-layer system description, all linear units."""

    leo: LeoShellConfig
    meo: MeoShellConfig
    leo_link: LinkParams
    meo_link: LinkParams
    fading: SrFadingParams
    rx_pattern: AntennaPattern
    epsilon: float

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not self.rx_pattern.effective_range < math.pi / 2:
            raise ValueError(f"receive pattern's effective range must lie below pi/2, got "
                             f"{self.rx_pattern.effective_range} rad")

    @property
    def leo_fading(self) -> SrFadingParams:  # read only by perfbench/tests/test_bench.py:152
        return self.fading

    @property
    def leo_theta_max(self) -> float:
        return max_central_angle(self.leo.radius_km, self.leo.beam_angle)

    @property
    def meo_theta_max(self) -> float:
        return max_central_angle(self.meo.radius_km, self.meo.beam_angle)


def _checked_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError("mc: master_seed must be non-negative")
    return seed


@record
class McSpec:
    """Monte Carlo run settings, the ``mc.*`` keys: trial count, master seed
    and interference mode."""

    n_trials: int
    master_seed: int
    sum_all_interferers: bool

    def __post_init__(self):
        if self.n_trials < 1:
            raise ConfigError("mc: n_trials must be at least 1")
        _checked_seed(self.master_seed)

    @property
    def n_batches(self) -> int:
        """Number of batch-means batches."""
        return min(20, self.n_trials)


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

# Each unit suffix and its conversion to the linear unit stored.
_UNITS = {"dBW": db_to_linear, "dBm": lambda db: db_to_linear(db) * 1e-3, "dBi": db_to_linear, "dB": db_to_linear,
          "deg": math.radians, "rad": float}

_COUNTS = frozenset(("leo.n_sats", "meo.n_orbits", "meo.sats_per_orbit", "rx.n_elements", "mc.n_trials",
                     "mc.master_seed"))

# Each receive pattern's class and the setting it is built from.
_PATTERNS = {"gaussian": (GaussianPattern, "rx.phi_3db"), "flattop": (FlatTopPattern, "rx.phi_3db"),
             "sinc": (SincPattern, "rx.n_elements"), "cosine": (CosinePattern, "rx.n_elements")}


def _parse_value(key: str, raw: str) -> float | int | str | bool:
    raw = text = raw.strip()
    if key == "rx.pattern":
        pattern = raw.lower()
        if pattern not in _PATTERNS:
            raise ConfigError(f"unknown antenna pattern '{raw}'")
        return pattern
    if key == "mc.sum_all_interferers":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"boolean expected for {key}, got '{raw}'")
    unit = next((suffix for suffix in _UNITS if raw.endswith(suffix)), None)
    if unit is not None:
        raw = raw[: -len(unit)].strip()
    elif key in _COUNTS:
        with contextlib.suppress(ValueError):
            return int(raw)  # an integer literal is taken exactly, any other count through the float
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value for {key}: '{raw}'") from exc
    if key in _COUNTS:
        if unit is not None or not value.is_integer():
            raise ConfigError(f"{key} must be a whole number, got '{text}'")
        return int(value)
    return value if unit is None else _UNITS[unit](value)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a flat settings dict over defaults."""
    settings = {k: _parse_value(k, v) for k, v in _DEFAULTS.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line}'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        settings[key] = _parse_value(key, raw)
    return settings


def load_settings(path: str | None = None, overrides: dict[str, str] | None = None) -> dict:
    """Settings from defaults, then an optional file, then explicit overrides."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read '{path}': {getattr(exc, 'strerror', None) or exc}") from exc
    return apply_overrides(parse_config_text(text), overrides or {})


def parse_assignments(items) -> dict[str, str]:
    """``KEY=VALUE`` entries, as ``--set`` takes them: each stripped key to its stripped value text."""
    out = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, value = (part.strip() for part in item.split("=", 1))
        out[key] = value
    return out


def apply_overrides(settings: dict, overrides: dict[str, str]) -> dict:
    """A copy of loaded ``settings`` with each key of ``overrides`` parsed from its text."""
    out = dict(settings)
    for key, raw in overrides.items():
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown key '{key}'")
        out[key] = _parse_value(key, str(raw))
    return out


def _link(settings: dict, layer: str) -> LinkParams:
    """One layer's link budget from its ``<layer>.*`` keys, which carry the
    field names except for the two powers' ``_w``."""
    names = ("tx_gain", "max_rx_gain", "wavelength_m", "system_loss", "sinr_threshold")
    return LinkParams(tx_power_w=settings[f"{layer}.tx_power"], noise_power_w=settings[f"{layer}.noise_power"],
                      **{name: settings[f"{layer}.{name}"] for name in names})


def build_system_config(settings: dict) -> SystemConfig:
    pattern, pattern_key = _PATTERNS[settings["rx.pattern"]]
    try:
        return SystemConfig(
            leo=LeoShellConfig(
                n_sats=settings["leo.n_sats"],
                radius_km=EARTH_RADIUS_KM + settings["leo.altitude_km"],
                beam_angle=settings["leo.beam_angle"],
            ),
            meo=MeoShellConfig(
                n_orbits=settings["meo.n_orbits"],
                sats_per_orbit=settings["meo.sats_per_orbit"],
                radius_km=EARTH_RADIUS_KM + settings["meo.altitude_km"],
                beam_angle=settings["meo.beam_angle"],
            ),
            leo_link=_link(settings, "leo"),
            meo_link=_link(settings, "meo"),
            fading=SrFadingParams(m=settings["fading.m"], b0=settings["fading.b0"], omega=settings["fading.omega"]),
            rx_pattern=pattern(settings[pattern_key]),
            epsilon=settings["epsilon"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_mc_settings(settings: dict) -> McSpec:
    """Monte Carlo run spec from the ``mc.*`` keys."""
    return McSpec(n_trials=settings["mc.n_trials"], master_seed=settings["mc.master_seed"],
                  sum_all_interferers=bool(settings["mc.sum_all_interferers"]))


def build_master_seed(settings: dict) -> int:
    """The Monte Carlo master seed alone, from ``mc.master_seed``, for a
    command that draws but runs no trials."""
    return _checked_seed(settings["mc.master_seed"])


def default_config() -> SystemConfig:
    return build_system_config(load_settings())


def emit_settings(settings: dict) -> str:
    """Canonical re-emission: linear units, radians, integers exactly, and
    floats in their shortest exact form (``repr``).

    Parsing the emitted text reproduces the same settings exactly.
    """
    lines = []
    for key in _DEFAULTS:
        value = settings[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (str, int)):
            rendered = str(value)
        elif float(value).is_integer() and abs(value) < 1e15:
            rendered = str(int(value))
        else:
            rendered = repr(float(value))
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
