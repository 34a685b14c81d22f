"""The record types: ``constelsim.record`` gives the settings and result
types the construction, equality, hashing and ``repr`` that they had as
dataclasses, and refuses what a dataclass call would refuse."""

import os
import pickle
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import constelsim
from constelsim.channel import CosinePattern, FlatTopPattern, GaussianPattern, LinkParams, SincPattern, SrFadingParams
from constelsim.config import LeoShellConfig, McSpec, MeoShellConfig, SystemConfig, build_mc_settings, default_config
from constelsim.config import load_settings
from constelsim.mc import SimulationSummary, ValidationRow
from constelsim.record import fields, record, replace

CFG = default_config()
SPEC = build_mc_settings(load_settings())
PHI = CFG.rx_pattern.phi_3db
SUMMARY = SimulationSummary(estimates={("availability", "leo"): (np.array([0.5]), np.array([0.125]))},
                            leo_rank_pass=np.array([0.25]), meo_single_pass=0.75)
ROW = ValidationRow(metric="leo_availability", k=1, analytic=0.5, empirical=0.5, std_err=0.125, delta=0.0,
                    passed=True)

LEO_LINK = ("LinkParams(tx_power_w=31.622776601683793, tx_gain=2398.83291901949, max_rx_gain=1513.5612484362086, "
            "wavelength_m=0.015, system_loss=0.251188643150958, noise_power_w=9.54992586021437e-13, "
            "sinr_threshold=10.0)")
MEO_LINK = ("LinkParams(tx_power_w=63.09573444801933, tx_gain=257.03957827688646, max_rx_gain=3.1622776601683795, "
            "wavelength_m=0.19, system_loss=0.251188643150958, noise_power_w=4.073802778041122e-14, "
            "sinr_threshold=0.025118864315095794)")
LEO = "LeoShellConfig(n_sats=2000, radius_km=7371.0, beam_angle=0.7853981633974483)"
MEO = "MeoShellConfig(n_orbits=2, sats_per_orbit=6, radius_km=26371.0, beam_angle=0.5235987755982988)"
FADING = "SrFadingParams(m=19.4, b0=0.158, omega=1.29)"
GAUSSIAN = "GaussianPattern(phi_3db=0.13962634015954636)"

# Each type at baseline values and its ``repr`` as a dataclass gave it.
REPRS = {
    "SrFadingParams": (CFG.fading, FADING),
    "LinkParams": (CFG.leo_link, LEO_LINK),
    "GaussianPattern": (CFG.rx_pattern, GAUSSIAN),
    "FlatTopPattern": (FlatTopPattern(PHI), "FlatTopPattern(phi_3db=0.13962634015954636)"),
    "SincPattern": (SincPattern(35), "SincPattern(n_elements=35)"),
    "CosinePattern": (CosinePattern(35), "CosinePattern(n_elements=35)"),
    "LeoShellConfig": (CFG.leo, LEO),
    "MeoShellConfig": (CFG.meo, MEO),
    "SystemConfig": (CFG, f"SystemConfig(leo={LEO}, meo={MEO}, leo_link={LEO_LINK}, meo_link={MEO_LINK}, "
                          f"fading={FADING}, rx_pattern={GAUSSIAN}, epsilon=0.01)"),
    "McSpec": (SPEC, "McSpec(n_trials=100000, master_seed=1, sum_all_interferers=True)"),
    "SimulationSummary": (SUMMARY, "SimulationSummary(estimates={('availability', 'leo'): (array([0.5]), "
                                   "array([0.125]))}, leo_rank_pass=array([0.25]), meo_single_pass=0.75)"),
    "ValidationRow": (ROW, "ValidationRow(metric='leo_availability', k=1, analytic=0.5, empirical=0.5, "
                           "std_err=0.125, delta=0.0, passed=True)"),
}
# The settings types, each of whose fields hashes.
SETTINGS = [SrFadingParams, LinkParams, GaussianPattern, FlatTopPattern, SincPattern, CosinePattern, LeoShellConfig,
            MeoShellConfig, SystemConfig, McSpec]
SETTINGS_VALUES = [REPRS[cls.__name__][0] for cls in SETTINGS]
RECORD_VALUES = [value for value, _ in REPRS.values()]


@record
class Tagged:
    """A record with a string field, whose hash differs between processes."""

    tag: str
    value: float


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_is_the_dataclass_form(name):
    value, text = REPRS[name]
    assert type(value).__name__ == name and repr(value) == text


def test_every_record_type_is_pinned():
    assert sorted(REPRS) == sorted(cls.__name__ for cls in SETTINGS + [SimulationSummary, ValidationRow])


def test_equality_needs_the_same_type():
    gaussian, flat = GaussianPattern(PHI), FlatTopPattern(PHI)
    assert gaussian == GaussianPattern(PHI) and hash(gaussian) == hash(GaussianPattern(PHI))
    assert gaussian != flat and flat != gaussian and gaussian != PHI and gaussian != (PHI,)
    calls = []

    @lru_cache(maxsize=8)
    def shape_at(pattern):
        calls.append(pattern)
        return float(pattern.gain_shape(PHI * 1.5))

    assert shape_at(gaussian) != shape_at(flat)
    assert shape_at(GaussianPattern(PHI)) == shape_at(gaussian) and shape_at.cache_info().currsize == 2
    assert calls == [gaussian, flat]


def test_equal_values_are_equal_and_hash_alike():
    rebuilt = default_config()
    assert rebuilt is not CFG and rebuilt == CFG and hash(rebuilt) == hash(CFG)
    assert replace(CFG, epsilon=0.02) != CFG
    assert replace(CFG, leo=replace(CFG.leo, n_sats=1999)) != CFG


@pytest.mark.parametrize("value", RECORD_VALUES, ids=[type(value).__name__ for value in RECORD_VALUES])
def test_frozen_types_refuse_set_and_delete(value):
    # Every record is frozen.
    name = fields(value)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        setattr(value, "other", 1)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == before


def test_result_types_hash_by_their_fields():
    # A row's fields all hash.
    row = replace(ROW, passed=False)
    assert row != ROW and replace(row, passed=True) == ROW and hash(replace(row, passed=True)) == hash(ROW)
    assert {ROW: 1}[replace(ROW)] == 1


@pytest.mark.parametrize("value", [SUMMARY], ids=["SimulationSummary"])
def test_other_types_are_unhashable(value):
    # A summary is frozen too, but its dict of estimates does not hash.
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(value)


def summary():
    return SimulationSummary(estimates={("availability", "leo"): (np.array([0.5, 0.25]), np.array([0.125, 0.0625]))},
                             leo_rank_pass=np.array([0.25, 0.5]), meo_single_pass=0.75)


def test_a_summary_equals_only_itself():
    # Fields compare with ``==``, and two summaries' arrays compare element
    # by element, so tests compare summaries field by field.
    first, second = summary(), summary()
    assert first == first and second == second
    with pytest.raises(ValueError, match="ambiguous"):
        assert first == second
    assert first != SimulationSummary({}, first.leo_rank_pass, first.meo_single_pass)


@pytest.mark.parametrize("value", SETTINGS_VALUES + [ROW], ids=[cls.__name__ for cls in SETTINGS] + ["ValidationRow"])
def test_hash_stores_nothing(value):
    hash(value)
    assert sorted(vars(value)) == sorted(fields(value))


# A record takes all its fields by position or all by keyword.
REFUSAL = r"^SrFadingParams\(\) takes m, b0, omega, all by position or all by keyword$"


def test_replace_runs_the_checks_again():
    with pytest.raises(ValueError, match="epsilon"):
        replace(CFG, epsilon=1.0)
    with pytest.raises(ValueError, match="n_sats"):
        replace(CFG.leo, n_sats=-1)
    assert replace(CFG.fading) == CFG.fading
    assert replace(CFG.fading, m=2.0) == SrFadingParams(2.0, 0.158, 1.29)
    with pytest.raises(TypeError, match=REFUSAL):
        replace(CFG.fading, q=2.0)


@pytest.mark.parametrize("args, kwargs", [
    ((1.0, 0.5), {}),
    ((), {"m": 1.0, "omega": 1.0}),
    ((1.0, 0.5, 1.0, 2.0), {}),
    ((1.0, 0.5), {"m": 1.0, "omega": 1.0}),
    ((), {"m": 1.0, "b0": 0.5, "sigma": 1.0}),
    ((), {"m": 1.0, "b0": 0.5, "omega": 1.0, "sigma": 1.0}),
], ids=["args0-kwargs0-missing arguments: omega", "args1-kwargs1-missing arguments: b0",
        "args2-kwargs2-takes 3 arguments but 4 were given", "args3-kwargs3-multiple values for argument 'm'",
        "args4-kwargs4-unexpected keyword argument 'sigma'", "args5-kwargs5-unexpected keyword argument 'sigma'"])
def test_bad_arguments_are_refused(args, kwargs):
    with pytest.raises(TypeError, match=REFUSAL):
        SrFadingParams(*args, **kwargs)


def test_positional_and_keyword_arguments_agree():
    want = SrFadingParams(m=1.0, b0=0.5, omega=2.0)
    assert SrFadingParams(1.0, 0.5, 2.0) == want
    assert SrFadingParams(omega=2.0, b0=0.5, m=1.0) == want
    with pytest.raises(TypeError, match=REFUSAL):
        SrFadingParams(1.0, 0.5, omega=2.0)
    assert fields(want) == fields(SrFadingParams) == ("m", "b0", "omega")


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("name", fields(LinkParams))
def test_every_link_field_is_checked(name, value):
    # The check reads the record's own fields, so it skips none of them.
    with pytest.raises(ValueError, match="^link parameters must be positive and finite$"):
        replace(CFG.leo_link, **{name: value})


def test_a_class_default_is_refused():
    with pytest.raises(TypeError, match="Defaulted fields take no default: count"):
        @record
        class Defaulted:
            name: str
            count: int = 0

    @record
    class Described:
        """Methods and properties are no fields."""

        size: int

        @property
        def doubled(self):
            return 2 * self.size

    assert fields(Described) == ("size",) and Described(3).doubled == 6


@pytest.mark.parametrize("value", SETTINGS_VALUES, ids=[cls.__name__ for cls in SETTINGS])
def test_pickle_round_trip_is_equal(value):
    # ``curve --jobs N`` sends the configuration to its worker processes.
    hash(value)
    copy = pickle.loads(pickle.dumps(value))
    assert copy is not value and copy == value and repr(copy) == repr(value) and hash(copy) == hash(value)
    with pytest.raises(AttributeError):
        setattr(copy, fields(copy)[0], None)


def test_pickle_round_trip_of_a_result_row():
    hash(ROW)
    copy = pickle.loads(pickle.dumps(ROW))
    assert sorted(vars(copy)) == sorted(fields(ROW)) and copy == ROW and hash(copy) == hash(ROW)


def test_pickle_carries_no_hash_between_processes():
    # Hashed and pickled under one string-hash seed, looked up under another.
    paths = [str(Path(__file__).resolve().parent), str(Path(constelsim.__file__).resolve().parents[1])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))}
    dump = ("import pickle, sys\n"
            "from test_record import Tagged\n"
            "value = Tagged('leo', 1.5)\n"
            "print(hash(value))\n"
            "sys.stdout.write(pickle.dumps({value: 'found'}).hex())\n")
    load = ("import pickle, sys\n"
            "from test_record import Tagged\n"
            "table = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "print(hash(Tagged('leo', 1.5)), table[Tagged('leo', 1.5)])\n")
    first = subprocess.run([sys.executable, "-c", dump], capture_output=True, text=True, check=True, timeout=120,
                           env={**env, "PYTHONHASHSEED": "1"})
    hash_one, data = first.stdout.split("\n", 1)
    second = subprocess.run([sys.executable, "-c", load], input=data, capture_output=True, text=True, check=True,
                            timeout=120, env={**env, "PYTHONHASHSEED": "2"})
    hash_two, found = second.stdout.split()
    assert hash_one != hash_two and found == "found"
