"""Covert sessions at the size of a real sweep: announce against the
one-slot rule, the policy's thinning, the report's decoder on a fresh key
draw, and the unit's announcements against an honest unit's clicks on the
same seed.

The hypothesis test in test_covert_bulk.py draws at most 80 candidates. Here
the candidates are those that 10,000-slot covert sessions hand the reporter,
at every transmittance of configs/sweep_transmittance.json, keyed and
unkeyed, thinned at the acceptance that the session's feasibility gate
sets. Each session's candidates are checked as drawn and shifted by one
slot. The shift flips every slot's parity, so each announcement's next
candidate comes from the other parity's next-candidate array, and one of
the two copies starts at an even slot and the other at an odd one.
announce's memory is checked on a 300,000-candidate set.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_covert_bulk import reference_announce

from ddiqkd import protocol
from ddiqkd.config import DetectorSpec, HonestMode, TrojanProbe, parse_config
from ddiqkd.covert import announce, key_bits

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TRANSMITTANCES = json.loads((CONFIGS / "sweep_transmittance.json").read_text())["parameters"][
    "channel.transmittance"
]


def session_config(transmittance, keyed):
    """configs/covert_keyed.json at 10,000 slots."""
    config = parse_config(json.loads((CONFIGS / "covert_keyed.json").read_text()))
    return replace(
        config, n_slots=10_000,
        channel=replace(config.channel, transmittance=transmittance),
        mode=replace(config.mode, keyed=keyed),
    )


def session_inputs(config, monkeypatch):
    """The arguments a session of config hands announce, and the
    session's transcript."""
    calls = []

    def record(slots, bits, keys):
        calls.append((slots, bits, keys))
        return announce(slots, bits, keys)

    monkeypatch.setattr(protocol, "announce", record)
    transcript, _ = protocol.run_session(config)
    (call,) = calls
    return call, transcript


def honest_twin(config):
    """An honest unit with the covert unit's real detectors, four at
    eta_true with no dark counts, on the same seed."""
    detector = DetectorSpec({config.signal_wavelength_nm: config.mode.eta_true})
    return replace(config, mode=HonestMode(), detectors=(detector,) * 4)


@pytest.mark.parametrize("keyed", [True, False])
@pytest.mark.parametrize("transmittance", TRANSMITTANCES)
def test_announce_matches_reference_at_sweep_size(transmittance, keyed, monkeypatch):
    (slots, bits, keys), _ = session_inputs(session_config(transmittance, keyed), monkeypatch)
    first_parities = set()
    for shift in (0, 1):
        shifted = slots + shift
        first_parities.add(int(shifted[0]) % 2)
        bulk = announce(shifted, bits, keys).tolist()
        assert bulk == reference_announce(shifted, bits, keys).tolist()
        assert len(bulk) > transmittance * 1000
    assert first_parities == {0, 1}


@pytest.mark.parametrize("transmittance", TRANSMITTANCES)
def test_policy_thins_the_honest_clicks(transmittance, monkeypatch):
    # readout never fails in configs/covert_keyed.json, so each candidate
    # is one of the twin's clicks kept by a trial at acceptance q, and the
    # first of them is announced
    config = session_config(transmittance, keyed=True)
    q = protocol._covert_acceptance(config, config.mode)
    assert config.mode.trojan.readout_success_prob == 1.0 and 0.0 < q < 1.0
    (candidates, _, _), transcript = session_inputs(config, monkeypatch)
    clicks = np.flatnonzero(protocol.run_session(honest_twin(config))[0].detected)
    assert np.isin(candidates, clicks).all()
    assert abs(len(candidates) - q * len(clicks)) < 5 * math.sqrt(len(clicks) * q * (1 - q))
    assert transcript.reported_slots()[0] == candidates[0]


def test_policy_keeps_every_click_at_acceptance_one(monkeypatch):
    # at the top rate 2p/(4-p) with p = 1 the acceptance is exactly 1, so
    # no candidate is thinned and the candidates are the twin's clicks
    config = session_config(1.0, keyed=True)
    config = replace(config, mode=replace(config.mode, eta_true=1.0, target_report_rate=2 / 3))
    assert protocol._covert_acceptance(config, config.mode) == 1.0
    (candidates, _, _), _ = session_inputs(config, monkeypatch)
    clicks = np.flatnonzero(protocol.run_session(honest_twin(config))[0].detected)
    assert np.array_equal(candidates, clicks)


@pytest.mark.parametrize("transmittance", [TRANSMITTANCES[0], TRANSMITTANCES[-1]])
def test_report_key_draw_matches_a_fresh_draw(transmittance):
    # the reporter reads one key bit per candidate; with the key draw
    # dropped, the report's decoder draws afresh from key_seed one bit per
    # gap, the same prefix, and so gives the same report
    config = session_config(transmittance, keyed=True)
    transcript, report = protocol.run_session(config)
    assert report.reported > 10
    protocol._key_draw = (0, np.zeros(0, dtype=np.int8))
    assert protocol.build_report(config, transcript) == report
    assert len(protocol._key_draw[1]) == report.reported - 1


@pytest.mark.parametrize("readout", [1.0, 0.7])
@pytest.mark.parametrize("keyed", [True, False])
@pytest.mark.parametrize("transmittance", TRANSMITTANCES)
def test_covert_unit_announces_honest_clicks(transmittance, keyed, readout):
    # the covert unit's real detectors are four at eta_true with no dark
    # counts: an honest unit with those detectors, on the same seed, clicks
    # where it clicks, and each announcement is one of those clicks with
    # the outcome the honest unit announces there
    config = session_config(transmittance, keyed)
    config = replace(config, mode=replace(config.mode, trojan=TrojanProbe(readout)))
    covert_t, _ = protocol.run_session(config)
    honest_t, _ = protocol.run_session(honest_twin(config))
    assert np.array_equal(covert_t.detected, honest_t.detected)
    announced = covert_t.reported_slots()
    assert len(announced) > transmittance * 1000
    assert (honest_t.reported[announced] >= 0).all()
    assert np.array_equal(covert_t.reported[announced], honest_t.reported[announced])


def test_announce_memory_per_candidate():
    # a dense keyed session: about 300,000 candidates out of 1M slots. The
    # two next-candidate tables, the key bits used and the announced list
    # stay under 64 B per candidate at announce's traced peak
    rng = np.random.default_rng(2024)
    slots = np.flatnonzero(rng.random(1_000_000) < 0.3)
    bits = rng.integers(0, 2, len(slots), dtype=np.int8)
    keys = key_bits(5, len(slots))
    tracemalloc.start()
    try:
        announced = announce(slots, bits, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(announced) > len(slots) // 3
    assert peak <= 64 * len(slots)
