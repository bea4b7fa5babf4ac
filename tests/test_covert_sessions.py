"""Covert sessions at the size of a real sweep: announce against the
one-slot rule, and the report's decoder on a fresh key draw.

The hypothesis test in test_covert_bulk.py draws at most 80 candidates. Here
the candidates are those that 10,000-slot covert sessions hand the reporter,
at every transmittance of configs/sweep_transmittance.json, keyed and
unkeyed, with the thinning acceptance that the session's feasibility gate
sets, so the jumps reach deep into both parity runs. Each session's
candidates are checked as drawn and shifted by one slot, so that one of the
two starts at an even slot and the other at an odd one.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_covert_bulk import reference_announce

from ddiqkd import protocol
from ddiqkd.config import parse_config
from ddiqkd.covert import announce

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


def session_inputs(transmittance, keyed, monkeypatch):
    """The arguments a session_config session hands announce, and the state
    of the session generator at that call."""
    config = session_config(transmittance, keyed)
    calls = []

    def record(slots, bits, keys, q, rng):
        calls.append((slots, bits, keys, q, rng.bit_generator.state))
        return announce(slots, bits, keys, q, rng)

    monkeypatch.setattr(protocol, "announce", record)
    protocol.run_session(config)
    (call,) = calls
    return call


def announced_and_state(rule, slots, bits, keys, q, state):
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    announced = rule(slots, bits, keys, q, rng)
    return np.asarray(announced).tolist(), rng.bit_generator.state


@pytest.mark.parametrize("keyed", [True, False])
@pytest.mark.parametrize("transmittance", TRANSMITTANCES)
def test_announce_matches_reference_at_sweep_size(transmittance, keyed, monkeypatch):
    slots, bits, keys, q, state = session_inputs(transmittance, keyed, monkeypatch)
    assert 0.0 < q < 1.0
    first_parities = set()
    for shift in (0, 1):
        shifted = slots + shift
        first_parities.add(int(shifted[0]) % 2)
        bulk = announced_and_state(announce, shifted, bits, keys, q, state)
        reference = announced_and_state(reference_announce, shifted, bits, keys, q, state)
        assert bulk == reference
        assert len(bulk[0]) > transmittance * 1000
    assert first_parities == {0, 1}


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
