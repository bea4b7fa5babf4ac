"""The config schema: non-finite numbers and key_seed are rejected with the
offending path, and parse/serialize invert each other on every mode."""

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.cli import main
from ddiqkd.config import CovertAttackMode, _schema, load_config, parse_config, serialize_config
from ddiqkd.errors import ConfigError, ValidationError

COVERT = {"kind": "covert"}
BLINDING = {"kind": "blinding"}

# (document with X where the non-finite value goes, path the error names)
NUMERIC_PATHS = [
    ({"eta_expected": "X"}, "eta_expected"),
    ({"basis_choice_prob": "X"}, "basis_choice_prob"),
    ({"bob_bit_bias": "X"}, "bob_bit_bias"),
    ({"signal_wavelength_nm": "X"}, "signal_wavelength_nm"),
    ({"alpha": "X"}, "alpha"),
    ({"channel": {"transmittance": "X"}}, "channel.transmittance"),
    ({"detectors": {"efficiency": "X"}}, "detectors.efficiency"),
    ({"detectors": {"efficiency": {"1550": "X"}}}, "detectors.efficiency"),
    ({"detectors": {"dark_count_prob": "X"}}, "detectors.dark_count_prob"),
    ({"detectors": {"blind_threshold": "X"}}, "detectors.blind_threshold"),
    ({"detectors": {"blind_threshold": {"1310": 1.0, "1550": "X"}}}, "detectors.blind_threshold"),
    ({"detectors": [{}, {}, {"blind_threshold": "X"}, {}]}, "detectors[2].blind_threshold"),
    ({"mode": dict(COVERT, eta_true="X")}, "mode.eta_true"),
    ({"mode": dict(COVERT, target_report_rate="X")}, "mode.target_report_rate"),
    ({"mode": dict(COVERT, trojan={"readout_success_prob": "X"})},
     "mode.trojan.readout_success_prob"),
    ({"mode": dict(BLINDING, pulse_power="X")}, "mode.pulse_power"),
    ({"mode": dict(BLINDING, wavelength_nm="X")}, "mode.wavelength_nm"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[1550.0, "X"], power_grid=[2.0])},
     "mode.wavelength_grid[1]"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[1550.0], power_grid=["X"])},
     "mode.power_grid[0]"),
]


def _put(doc, value):
    """The document with every "X" replaced by value."""
    if doc == "X":
        return value
    if isinstance(doc, dict):
        return {k: _put(v, value) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_put(v, value) for v in doc]
    return doc


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("doc,path", NUMERIC_PATHS)
def test_non_finite_number_rejected_naming_its_path(doc, path, value):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(_put(doc, value))


@pytest.mark.parametrize("key", ["nan", "inf", "-Infinity"])
def test_non_finite_wavelength_key_rejected(key):
    with pytest.raises(ConfigError, match=r"detectors\.efficiency: wavelength key"):
        parse_config({"detectors": {"efficiency": {key: 0.2}}})


@pytest.mark.parametrize("doc,message", [
    ({"channel": {"transmittance": 2}}, "channel: transmittance must be in [0,1], got 2.0"),
    ({"detectors": [{}, {}, {"efficiency": 1.5}, {}]}, "detectors[2]: efficiency at 1550.0 nm must be in [0,1]"),
    ({"eta_expected": 10**400}, "eta_expected: integer too large for a float"),
    ({"eta_expected": "0.2"}, "eta_expected: expected a number, got '0.2'"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid="1550", power_grid=[2.0])},
     "mode.wavelength_grid: expected a list of numbers, got '1550'"),
    ({"detectors": {"efficiency": "0.2"}}, "detectors.efficiency: expected a number or wavelength table"),
    ({"detectors": {"efficiency": {}}}, "detectors.efficiency: wavelength table must not be empty"),
    ({"detectors": {"efficiency": {"red": 0.2}}}, "detectors.efficiency: wavelength key 'red' is not a number"),
    ({"channel": 0.5}, "channel: expected an object, got 0.5"),
    ({"mode": dict(COVERT, trojan=1.0)}, "mode.trojan: expected an object, got 1.0"),
    ({"detectors": [{}, {}, 0.2, {}]}, "detectors[2]: expected an object, got 0.2"),
    ({"mode": "covert"}, "mode: expected an object with a 'kind' field, got 'covert'"),
    ({"detectors": 0.2}, "detectors: expected an object or a list of 4 objects, got 0.2"),
    ({"detectors": [{}, {}, {}]}, "detectors: need 1 shared or 4 per-detector blocks, got 3"),
    ({"mode": dict(COVERT, trojan={"readout_success_prob": 1.5})},
     "mode.trojan: readout_success_prob must be in [0,1], got 1.5"),
    ({"mode": dict(COVERT, trojan={"readout_success_prob": -0.1})},
     "mode.trojan: readout_success_prob must be in [0,1], got -0.1"),
    ({"detectors": {"blind_threshold": 0}}, "detectors: blind_threshold at 1550.0 nm must be > 0, got 0.0"),
    ({"detectors": [{}, {"blind_threshold": {"1310": -1.0}}, {}, {}]},
     "detectors[1]: blind_threshold at 1310.0 nm must be > 0, got -1.0"),
    ({"mode": dict(BLINDING, pulse_power=0)}, "mode: pulse_power must be > 0, got 0.0"),
    ({"signal_wavelength_nm": 0}, "config: signal_wavelength_nm must be > 0, got 0.0"),
    ({"mode": dict(BLINDING, wavelength_nm=-3)}, "mode: wavelength_nm must be > 0, got -3.0"),
    ({"mode": dict(BLINDING, wavelength_nm=0)}, "mode: wavelength_nm must be > 0, got 0.0"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[1550, -1], power_grid=[2.0])},
     "mode: wavelength_grid entries must be > 0, got -1.0"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[0, 1550], power_grid=[2.0])},
     "mode: wavelength_grid entries must be > 0, got 0.0"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[1550], power_grid=[2.0, -1.0])},
     "mode: power_grid entries must be > 0, got -1.0"),
    ({"mode": dict(BLINDING, optimize=True, wavelength_grid=[1550], power_grid=[])},
     "mode: optimize=True needs non-empty wavelength and power grids"),
    ({"detectors": {"efficiency": {"-1550": 0.2}}}, "detectors: efficiency wavelengths must be > 0 nm, got -1550.0"),
    ({"detectors": [{}, {}, {}, {"blind_threshold": {"1550": 1.0, "0": 1.0}}]},
     "detectors[3]: blind_threshold wavelengths must be > 0 nm, got 0.0"),
    # the bounds on each factor of the covert unit's detection probability and
    # on its target rate, which covert's rate functions rely on unchecked
    ({"channel": {"transmittance": -0.1}}, "channel: transmittance must be in [0,1], got -0.1"),
    ({"detectors": {"efficiency": 1.5}}, "detectors: efficiency at 1550.0 nm must be in [0,1], got 1.5"),
    ({"detectors": {"efficiency": -0.2}}, "detectors: efficiency at 1550.0 nm must be in [0,1], got -0.2"),
    ({"detectors": {"dark_count_prob": 1.5}}, "detectors: dark_count_prob must be in [0,1], got 1.5"),
    ({"detectors": {"dark_count_prob": -0.1}}, "detectors: dark_count_prob must be in [0,1], got -0.1"),
    ({"mode": dict(COVERT, eta_true=0)}, "mode: eta_true must be in (0,1], got 0.0"),
    ({"mode": dict(COVERT, eta_true=1.5)}, "mode: eta_true must be in (0,1], got 1.5"),
    ({"mode": dict(COVERT, target_report_rate=0)}, "mode: target_report_rate must be > 0, got 0.0"),
    ({"mode": dict(COVERT, target_report_rate=-0.02)}, "mode: target_report_rate must be > 0, got -0.02"),
    ({"eta_expected": 1.5}, "config: eta_expected must be in [0,1], got 1.5"),
    ({"eta_expected": -0.2}, "config: eta_expected must be in [0,1], got -0.2"),
    ({"basis_choice_prob": 1.5}, "config: basis_choice_prob must be in [0,1], got 1.5"),
    ({"bob_bit_bias": -0.5}, "config: bob_bit_bias must be in [0,1], got -0.5"),
    # the bounds analyze's rate check and pulse search rely on unchecked
    ({"n_slots": 0}, "config: n_slots must be >= 1 and < 2**63, got 0"),
    ({"alpha": 0}, "config: alpha must be in (0,1), got 0.0"),
    ({"alpha": 1}, "config: alpha must be in (0,1), got 1.0"),
    ({"mode": dict(BLINDING, pulse_power=-2.0)}, "mode: pulse_power must be > 0, got -2.0"),
    ({"signal_wavelength_nm": -1550}, "config: signal_wavelength_nm must be > 0, got -1550.0"),
])
def test_range_error_names_its_path(doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(doc)


def test_schema_refuses_a_field_with_no_kind():
    # a field's kind follows from its annotation text, so a new field whose
    # annotation no kind covers fails when its class's schema is resolved
    @dataclasses.dataclass(frozen=True)
    class Probe:
        power: "float"
        phase: "complex"

    with pytest.raises(TypeError, match=re.escape("Probe: no config kind for annotation 'complex'")):
        _schema(Probe)


def test_repeated_wavelength_key_rejected():
    with pytest.raises(ConfigError, match=re.escape("detectors.efficiency: wavelength key '1550.0' repeats")):
        parse_config({"detectors": {"efficiency": {"1550": 0.2, "1550.0": 0.9}}})


@pytest.mark.parametrize("doc", [
    {"double_click_policy": "discard_and_count"},
    {"mode": {"kind": "blinding", "enabled": False}},
])
def test_removed_fields_are_unknown(doc):
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(doc)


def test_run_with_nan_pulse_power_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.json"
    # json.dumps writes the NaN literal that json.load accepts
    path.write_text(json.dumps({"n_slots": 100, "mode": dict(BLINDING, pulse_power=float("nan"))}))
    assert "NaN" in path.read_text()
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mode.pulse_power" in err
    assert not out.exists()


@pytest.mark.parametrize("key_seed", [-1, 2**64])
def test_key_seed_out_of_range_rejected(key_seed):
    with pytest.raises(ValidationError, match="key_seed"):
        CovertAttackMode(key_seed=key_seed)
    with pytest.raises(ConfigError, match="key_seed"):
        parse_config({"mode": dict(COVERT, key_seed=key_seed)})
    assert CovertAttackMode(key_seed=2**64 - 1).key_seed == 2**64 - 1


def test_run_and_sweep_with_negative_key_seed_exit_1(tmp_path, capsys):
    path = tmp_path / "covert.json"
    path.write_text(json.dumps({"n_slots": 100, "channel": {"transmittance": 0.1},
                                "mode": dict(COVERT, key_seed=-1)}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"parameters": {"channel.transmittance": [0.1]}}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert main(["sweep", "--config", str(path), "--grid", str(grid),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") and "key_seed" in line for line in err)


def test_config_and_grid_files_share_one_reader(tmp_path, capsys):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"n_slots": 100, "note": "\xe9"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(latin))
    good = tmp_path / "good.json"
    good.write_text("{}")
    assert main(["sweep", "--config", str(latin), "--grid", str(good),
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert main(["sweep", "--config", str(good), "--grid", str(latin),
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error: config {latin}") and err[1].startswith(f"error: grid {latin}")


unit = st.floats(0.0, 1.0)
positive = st.floats(1e-6, 10.0)
wavelength = st.floats(200.0, 2000.0)


def tables(values):
    """A scalar, or a table keyed the way JSON writes numbers, no two keys
    naming the same wavelength."""
    keys = st.one_of(wavelength.map(str), st.integers(200, 2000).map(str))
    pairs = st.lists(st.tuples(keys, values), min_size=1, max_size=3, unique_by=lambda kv: float(kv[0]))
    return st.one_of(values, pairs.map(dict))


detector_block = st.fixed_dictionaries({}, optional={
    "efficiency": tables(unit),
    "dark_count_prob": unit,
    "blind_threshold": tables(positive),
})

modes = st.one_of(
    st.just({}),
    st.just({"kind": "honest"}),
    st.just({"kind": "intercept_resend"}),
    st.fixed_dictionaries({"kind": st.just("covert")}, optional={
        "eta_true": st.floats(1e-6, 1.0),
        "key_seed": st.integers(0, 2**64 - 1),
        "keyed": st.booleans(),
        "target_report_rate": st.one_of(st.none(), st.floats(1e-6, 1.0)),
        "trojan": st.fixed_dictionaries({}, optional={"readout_success_prob": unit}),
    }),
    st.fixed_dictionaries({
        "kind": st.just("blinding"),
        "optimize": st.booleans(),
        "wavelength_grid": st.lists(wavelength, min_size=1, max_size=3),
        "power_grid": st.lists(positive, min_size=1, max_size=3),
    }, optional={"pulse_power": positive, "wavelength_nm": wavelength}),
)

documents = st.fixed_dictionaries({}, optional={
    "n_slots": st.integers(1, 10**6),
    "seed": st.integers(0, 2**64 - 1),
    "channel": st.fixed_dictionaries({}, optional={"transmittance": unit}),
    "detectors": st.one_of(detector_block, st.lists(detector_block, min_size=4, max_size=4)),
    "eta_expected": unit,
    "basis_choice_prob": unit,
    "bob_bit_bias": unit,
    "signal_wavelength_nm": wavelength,
    "alpha": st.floats(1e-6, 1.0, exclude_max=True),
    "mode": modes,
})


@settings(max_examples=300, deadline=None)
@given(documents)
def test_parse_inverts_serialize(doc):
    config = parse_config(doc)
    canonical = serialize_config(config)
    assert parse_config(canonical) == config
    assert json.loads(json.dumps(canonical, allow_nan=False)) == canonical
    assert serialize_config(parse_config(canonical)) == canonical
