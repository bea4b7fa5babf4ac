import dataclasses
import json

import pytest

from ddiqkd.config import (
    ChannelSpec,
    DetectorSpec,
    SessionConfig,
    config_digest,
    load_config,
    parse_config,
    serialize_config,
)
from ddiqkd.errors import ConfigError, ValidationError
from ddiqkd.protocol import run_session

COVERT_DOC = {
    "n_slots": 5000,
    "seed": 3,
    "channel": {"transmittance": 0.1},
    "eta_expected": 0.2,
    "mode": {
        "kind": "covert",
        "eta_true": 0.9,
        "key_seed": 11,
        "keyed": True,
        "trojan": {"readout_success_prob": 0.8},
    },
}

BLINDING_DOC = {
    "seed": 4,
    "detectors": [
        {"efficiency": 0.2, "blind_threshold": {"1550": 0.9, "1310": 1.1}},
        {"efficiency": 0.2, "blind_threshold": 1.3},
        {"efficiency": 0.2, "blind_threshold": 1.3},
        {"efficiency": 0.2, "blind_threshold": 0.9},
    ],
    "mode": {
        "kind": "blinding",
        "optimize": True,
        "wavelength_grid": [1550.0, 1310.0],
        "power_grid": [1.5, 2.0, 2.5],
    },
}


def test_empty_doc_gives_defaults():
    assert parse_config({}) == SessionConfig()


def test_scalar_or_absent_table_is_keyed_at_the_default_wavelength():
    shared = parse_config({"signal_wavelength_nm": 1310.0,
                           "detectors": {"efficiency": 0.3, "blind_threshold": 1.2}})
    assert all(d.efficiency == {1550.0: 0.3} and d.blind_threshold == {1550.0: 1.2}
               for d in shared.detectors)
    assert serialize_config(shared)["detectors"][0]["efficiency"] == {"1550.0": 0.3}
    # an absent table is the dataclass default, also at 1550 nm
    listed = parse_config({"signal_wavelength_nm": 1310.0, "detectors": [
        {"efficiency": 0.3}, {}, {"blind_threshold": 1.2}, {"efficiency": {"800": 0.1}},
    ]})
    assert [d.efficiency for d in listed.detectors] == [
        {1550.0: 0.3}, {1550.0: 0.2}, {1550.0: 0.2}, {800.0: 0.1},
    ]
    assert [d.blind_threshold for d in listed.detectors] == [{1550.0: 1.0}] * 2 + [
        {1550.0: 1.2}, {1550.0: 1.0},
    ]
    absent = parse_config({"signal_wavelength_nm": 1310.0})
    assert absent.detectors == (DetectorSpec(),) * 4
    assert all(d.efficiency == {1550.0: 0.2} and d.blind_threshold == {1550.0: 1.0}
               for d in absent.detectors)


# sessions whose detector tables are given as numbers or left out: honest
# with dark counts, intercept-resend with mixed detectors, blinding that
# optimizes over two wavelengths, and covert with no detectors block
TABLE_DEFAULTS = {"efficiency": 0.2, "blind_threshold": 1.0}  # DetectorSpec's
SCALAR_TABLE_DOCS = {
    "honest_dark": {
        "seed": 5, "channel": {"transmittance": 0.3},
        "detectors": {"efficiency": 0.5, "dark_count_prob": 0.01},
        "eta_expected": 0.5, "mode": {"kind": "honest"},
    },
    "intercept_resend": {
        "seed": 6, "channel": {"transmittance": 0.3},
        "detectors": [
            {"efficiency": 0.6, "dark_count_prob": 0.002},
            {},
            {"efficiency": {"1310": 0.3, "1550": 0.5}, "blind_threshold": 1.4},
            {"efficiency": 0.4},
        ],
        "eta_expected": 0.4, "mode": {"kind": "intercept_resend"},
    },
    "blinding_optimized": {
        "seed": 7,
        "detectors": [
            {"blind_threshold": {"1310": 1.1, "1550": 0.9}},
            {"blind_threshold": 1.3},
            {"efficiency": 0.3, "blind_threshold": 1.3},
            {"blind_threshold": 0.9},
        ],
        "mode": {"kind": "blinding", "optimize": True, "wavelength_grid": [1310.0, 1550.0],
                 "power_grid": [1.0, 1.5, 2.0, 2.5, 3.0]},
    },
    "covert": dict(COVERT_DOC, seed=8),
}


def keyed_tables(doc, key):
    """doc with every detector table given as a number or left out written
    as the one-entry table {key: value}."""
    blocks = doc.get("detectors", {})
    shared = isinstance(blocks, dict)
    tables = [
        dict(block, **{
            name: {key: block.get(name, default)}
            for name, default in TABLE_DEFAULTS.items() if not isinstance(block.get(name), dict)
        })
        for block in ([blocks] if shared else blocks)
    ]
    return dict(doc, detectors=tables[0] if shared else tables)


def session_bytes(doc):
    transcript, report = run_session(parse_config(doc))
    columns = b"".join(
        getattr(transcript, f.name).tobytes() for f in dataclasses.fields(transcript) if f.name != "n_slots"
    )
    return columns, report


@pytest.mark.parametrize("signal", [800.0, 1310.0, 1550.0])
@pytest.mark.parametrize("name", sorted(SCALAR_TABLE_DOCS))
def test_lookups_do_not_depend_on_the_table_key(name, signal):
    """A number or an absent table gives its value at every wavelength:
    the session is the same, byte for byte, when that value is written as a
    table keyed at the signal wavelength or at 1550 nm."""
    doc = dict(SCALAR_TABLE_DOCS[name], n_slots=3000, signal_wavelength_nm=signal)
    columns, report = session_bytes(doc)
    for key in (f"{signal:g}", "1550"):
        assert session_bytes(keyed_tables(doc, key)) == (columns, report)


def test_field_range_error_names_the_field():
    with pytest.raises(ConfigError, match="efficiency"):
        parse_config({"detectors": {"efficiency": 1.5}})


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="config"):
        parse_config({"slots": 100})
    with pytest.raises(ConfigError, match="channel"):
        parse_config({"channel": {"loss": 0.5}})
    with pytest.raises(ConfigError, match="mode"):
        parse_config({"mode": {"kind": "honest", "power": 2.0}})


def test_unknown_mode_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"mode": {"kind": "quantum_cloning"}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError):
        parse_config({"n_slots": "many"})
    with pytest.raises(ConfigError):
        parse_config({"n_slots": 2.5})
    with pytest.raises(ConfigError):
        parse_config({"n_slots": 0})
    with pytest.raises(ConfigError):
        parse_config({"mode": {"kind": "covert", "keyed": "yes"}})
    with pytest.raises(ConfigError):
        parse_config([1, 2])


def test_seed_argument_overrides_document():
    config = parse_config({"seed": 3}, seed=99)
    assert config.seed == 99
    assert parse_config({"seed": 3}).seed == 3


@pytest.mark.parametrize(
    "doc",
    [
        {},
        COVERT_DOC,
        BLINDING_DOC,
        {"mode": {"kind": "intercept_resend"}},
        {"mode": {"kind": "covert", "keyed": False, "target_report_rate": 0.015}},
    ],
)
def test_serialize_round_trip(doc):
    config = parse_config(doc)
    assert parse_config(serialize_config(config)) == config
    # canonical form is json-serializable and stable
    blob = json.dumps(serialize_config(config), sort_keys=True)
    assert json.loads(blob) == serialize_config(config)


def test_digest_ignores_seed_but_not_substance():
    a = parse_config(COVERT_DOC)
    b = parse_config(COVERT_DOC, seed=1234)
    assert config_digest(a) == config_digest(b)
    changed = dict(COVERT_DOC, eta_expected=0.25)
    assert config_digest(parse_config(changed)) != config_digest(a)
    assert len(config_digest(a)) == 64


def test_load_config(tmp_path):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(COVERT_DOC))
    assert load_config(str(path)) == parse_config(COVERT_DOC)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_wavelength_tables_survive_round_trip():
    config = parse_config(BLINDING_DOC)
    assert config.detectors[0].threshold_at(1310.0) == 1.1
    assert config.detectors[0].threshold_at(1550.0) == 0.9
    again = parse_config(serialize_config(config))
    assert again.detectors[0].threshold_at(1310.0) == 1.1


def test_channel_spec_range():
    ChannelSpec(0.0)
    ChannelSpec(1.0)
    with pytest.raises(ValidationError):
        ChannelSpec(1.01)
    with pytest.raises(ValidationError):
        ChannelSpec(-0.1)


def test_detector_spec_validation():
    with pytest.raises(ValidationError):
        DetectorSpec({1550.0: 1.5}, 0.0, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec({1550.0: 0.2}, -0.1, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec({}, 0.0, {1550.0: 1.0})
    with pytest.raises(ValidationError, match="blind_threshold table must not be empty"):
        DetectorSpec({1550.0: 0.2}, 0.0, {})


def test_wavelength_lookup_nearest_with_low_tie():
    d = DetectorSpec({800.0: 0.05, 1550.0: 0.2}, 0.0, {800.0: 0.4, 1550.0: 1.0})
    assert d.efficiency_at(1550.0) == 0.2
    assert d.efficiency_at(900.0) == 0.05
    assert d.threshold_at(10_000.0) == 1.0
    assert d.efficiency_at(1175.0) == 0.05  # equidistant: lower wavelength wins
