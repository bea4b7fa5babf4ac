"""The bulk covert reporter and decoder against their one-slot specification.

announce must announce the slots that the one-slot rule, applied to each
candidate in turn, announces; the session thins the candidates before
announce sees them, so the rule draws nothing. eve_decode must match a
per-pair decoder.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddiqkd import protocol
from ddiqkd.config import parse_config
from ddiqkd.covert import announce, eve_decode, key_bits
from ddiqkd.protocol import Transcript, run_session

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_announce(slots, bits, keys):
    """The one-slot rule, candidate by candidate in slot order. The first
    candidate is announced. After that a candidate is announced when its
    gap to the last announcement has the parity that encodes the pending
    bit under the gap's key bit (key 0: even for 1, odd for 0; key 1 flips
    it). Announcement k takes key bit k for the gap after it."""
    keys = np.asarray(keys).tolist()
    announced = []
    for slot, bit in zip(np.asarray(slots).tolist(), np.asarray(bits).tolist()):
        if announced:
            if (slot - last) % 2 != pending ^ gap_key ^ 1:
                continue
        gap_key = keys[len(announced)]
        announced.append(slot)
        last, pending = slot, bit
    return np.array(announced, dtype=np.int64)


def run(rule, key_seed, slots, bits):
    """rule's announced slots; key_seed None stands for keying off."""
    n = len(slots)
    keys = np.zeros(n, dtype=np.int64) if key_seed is None else key_bits(key_seed, n)
    return rule(slots, bits, keys).tolist()


@st.composite
def candidate_sets(draw):
    """Strictly increasing slots with receiver bits; sometimes all of one
    parity."""
    slots = sorted(draw(st.sets(st.integers(0, 400), max_size=80)))
    parity = draw(st.sampled_from([None, 0, 1]))
    if parity is not None:
        slots = [2 * s + parity for s in slots]
    bits = draw(st.lists(st.integers(0, 1), min_size=len(slots), max_size=len(slots)))
    return slots, bits


@settings(max_examples=400, deadline=None)
@given(cands=candidate_sets(), key_seed=st.one_of(st.none(), st.integers(0, 2**32)))
@example(cands=([], []), key_seed=42)
@example(cands=([7], [1]), key_seed=42)
@example(cands=([3, 8], [0, 1]), key_seed=None)
@example(cands=([3, 8], [1, 0]), key_seed=42)
@example(cands=(list(range(0, 200, 2)), [1] * 100), key_seed=None)
@example(cands=(list(range(1, 201, 2)), [0] * 100), key_seed=None)
@example(cands=(list(range(1, 201, 2)), [0] * 100), key_seed=42)
def test_announce_matches_reference(cands, key_seed):
    slots, bits = cands
    slots = np.array(slots, dtype=np.int64)
    bits = np.array(bits, dtype=np.int8)
    assert run(announce, key_seed, slots, bits) == run(reference_announce, key_seed, slots, bits)


def reference_decode(slots, keys):
    """Per-pair decoder: even gap -> 1, odd gap -> 0, XOR the key bit."""
    return [int(((b - a) % 2 == 0) ^ key) for a, b, key in zip(slots, slots[1:], keys)]


@settings(max_examples=200, deadline=None)
@given(
    slots=st.sets(st.integers(0, 10**6), max_size=200).map(sorted),
    keyed=st.booleans(),
    key_seed=st.integers(0, 2**32),
)
def test_eve_decode_matches_per_pair_reference(slots, keyed, key_seed):
    n = max(len(slots) - 1, 0)
    keys = key_bits(key_seed, n) if keyed else np.zeros(n, dtype=np.int64)
    decoded = eve_decode(slots, keys)
    assert decoded.tolist() == reference_decode(slots, keys.tolist())
    assert decoded.dtype == np.int64


def transcript_arrays(t: Transcript):
    return {
        name: getattr(t, name).tolist()
        for name in ("alice_basis", "alice_bit", "bob_basis", "bob_bit", "arrived",
                     "detected", "reported", "double_click", "eve_basis", "eve_bit")
    }


@pytest.mark.parametrize("name", ["covert_keyed", "covert_unkeyed_biased"])
def test_long_session_matches_reference(name, monkeypatch):
    config = parse_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    config = replace(config, n_slots=200_000, channel=replace(config.channel, transmittance=0.8))
    t, report = run_session(config)
    monkeypatch.setattr(protocol, "announce", reference_announce)
    t_ref, report_ref = run_session(config)
    assert len(t.reported_slots()) > 10_000
    assert transcript_arrays(t) == transcript_arrays(t_ref)
    assert report == report_ref
