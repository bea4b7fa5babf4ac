"""The bulk covert reporter and decoder against their one-slot specification.

CovertReporter.announce must announce the slots that calling observe on each
candidate in turn announces, and leave the session generator, the key stream
and the reporter's state exactly where that loop leaves them, so that every
draw after it is unchanged. eve_decode must match a per-pair decoder.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddiqkd.config import parse_config
from ddiqkd.covert import CovertReporter, NullKeyStream, ParityKeyStream, eve_decode
from ddiqkd.errors import ValidationError
from ddiqkd.protocol import Transcript, run_session

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KEY_SEED = 42


def observe_loop(reporter, slots, bits, rng):
    """The reference: observe on every candidate, in slot order."""
    return np.array([
        slot for slot, bit in zip(np.asarray(slots).tolist(), np.asarray(bits).tolist())
        if reporter.observe(slot, True, bit, rng)
    ], dtype=np.int64)


def session_rng(seed, prefix):
    """A generator that, like a session's, may hold half of a 64-bit word
    after `prefix` int8 draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 2, size=prefix, dtype=np.int8)
    return rng


def run(announce, q, keyed, slots, bits, seed, prefix, state):
    rng = session_rng(seed, prefix)
    stream = ParityKeyStream(KEY_SEED) if keyed else NullKeyStream()
    reporter = CovertReporter(thinning_prob=q, key_stream=stream, **state)
    announced = announce(reporter, slots, bits, rng)
    stream_state = stream._rng.bit_generator.state if keyed else None
    return (
        announced.tolist(),
        rng.bit_generator.state,
        stream_state,
        stream.position,
        (reporter.last_reported_slot, reporter.pending_bit, reporter.gap_key_bit),
    )


@st.composite
def candidate_sets(draw):
    """Strictly increasing slots with receiver bits; sometimes all of one
    parity, sometimes after an earlier announcement at slot -1 or -2."""
    slots = sorted(draw(st.sets(st.integers(0, 400), max_size=80)))
    parity = draw(st.sampled_from([None, 0, 1]))
    if parity is not None:
        slots = [2 * s + parity for s in slots]
    bits = draw(st.lists(st.integers(0, 1), min_size=len(slots), max_size=len(slots)))
    state = draw(st.sampled_from([
        {},
        {"last_reported_slot": -1, "pending_bit": 1, "gap_key_bit": 0},
        {"last_reported_slot": -2, "pending_bit": 0, "gap_key_bit": 1},
    ]))
    return slots, bits, state


@settings(max_examples=400, deadline=None)
@given(
    cands=candidate_sets(),
    q=st.one_of(st.just(1.0), st.floats(0.01, 0.99)),
    keyed=st.booleans(),
    seed=st.integers(0, 2**32),
    prefix=st.integers(0, 3),
)
@example(cands=([], [], {}), q=0.5, keyed=True, seed=1, prefix=1)
@example(cands=([7], [1], {}), q=0.5, keyed=True, seed=1, prefix=1)
@example(cands=([7], [1], {"last_reported_slot": -1, "pending_bit": 1, "gap_key_bit": 0}),
         q=0.5, keyed=False, seed=1, prefix=0)
@example(cands=([3, 8], [0, 1], {}), q=1.0, keyed=False, seed=1, prefix=0)
@example(cands=([3, 8], [1, 0], {}), q=1.0, keyed=True, seed=2, prefix=1)
@example(cands=(list(range(0, 200, 2)), [1] * 100, {}), q=1.0, keyed=False, seed=3, prefix=0)
@example(cands=(list(range(1, 201, 2)), [0] * 100, {}), q=0.3, keyed=False, seed=4, prefix=1)
@example(cands=(list(range(1, 201, 2)), [0] * 100, {}), q=0.3, keyed=True, seed=4, prefix=1)
def test_announce_matches_observe_loop(cands, q, keyed, seed, prefix):
    slots, bits, state = cands
    slots = np.array(slots, dtype=np.int64)
    bits = np.array(bits, dtype=np.int8)
    bulk = run(CovertReporter.announce, q, keyed, slots, bits, seed, prefix, state)
    reference = run(observe_loop, q, keyed, slots, bits, seed, prefix, state)
    assert bulk == reference


def test_announce_draws_nothing_without_thinning():
    rng = session_rng(5, 1)
    before = rng.bit_generator.state
    reporter = CovertReporter(thinning_prob=1.0, key_stream=NullKeyStream())
    reporter.announce(np.arange(0, 100, 3), np.ones(34, dtype=np.int8), rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("slots, state", [
    ([3, 3], {}),
    ([5, 4], {}),
    ([2, 6], {"last_reported_slot": 2, "pending_bit": 0, "gap_key_bit": 0}),
])
def test_announce_rejects_slots_out_of_order(slots, state):
    rng = session_rng(6, 0)
    before = rng.bit_generator.state
    reporter = CovertReporter(thinning_prob=0.5, key_stream=NullKeyStream(), **state)
    with pytest.raises(ValidationError):
        reporter.announce(np.array(slots), np.zeros(len(slots), dtype=np.int8), rng)
    assert rng.bit_generator.state == before


def test_key_stream_bulk_draw_matches_single_bits():
    single, bulk, peek = ParityKeyStream(9), ParityKeyStream(9), ParityKeyStream(9)
    head = peek.peek_bits(777)
    assert peek.position == 0
    assert peek._rng.bit_generator.state == ParityKeyStream(9)._rng.bit_generator.state
    bits = bulk.next_bits(777)
    assert bits.tolist() == head.tolist() == [single.next_bit() for _ in range(777)]
    assert bulk.position == single.position == 777
    assert bulk._rng.bit_generator.state == single._rng.bit_generator.state


def reference_decode(slots, key_stream):
    """Per-pair decoder: even gap -> 1, odd gap -> 0, XOR the key bit."""
    return [((b - a) % 2 == 0) ^ key_stream.next_bit() for a, b in zip(slots, slots[1:])]


@settings(max_examples=200, deadline=None)
@given(
    slots=st.sets(st.integers(0, 10**6), max_size=200).map(sorted),
    keyed=st.booleans(),
    key_seed=st.integers(0, 2**32),
)
def test_eve_decode_matches_per_pair_reference(slots, keyed, key_seed):
    def stream():
        return ParityKeyStream(key_seed) if keyed else NullKeyStream()

    bulk_stream, reference_stream = stream(), stream()
    decoded = eve_decode(slots, bulk_stream)
    assert decoded == [int(b) for b in reference_decode(slots, reference_stream)]
    assert all(type(b) is int for b in decoded)
    assert bulk_stream.position == reference_stream.position
    if keyed:
        assert bulk_stream._rng.bit_generator.state == reference_stream._rng.bit_generator.state


def transcript_arrays(t: Transcript):
    return {
        name: getattr(t, name).tolist()
        for name in ("alice_basis", "alice_bit", "bob_basis", "bob_bit", "arrived",
                     "detected", "reported", "double_click", "eve_basis", "eve_bit")
    }


@pytest.mark.parametrize("name", ["covert_keyed", "covert_unkeyed_biased"])
def test_long_session_matches_observe_loop(name, monkeypatch):
    config = parse_config(json.loads((CONFIGS / f"{name}.json").read_text()))
    config = replace(config, n_slots=200_000, channel=replace(config.channel, transmittance=0.8))
    t, report = run_session(config)
    monkeypatch.setattr(CovertReporter, "announce", observe_loop)
    t_ref, report_ref = run_session(config)
    assert len(t.reported_slots()) > 10_000
    assert transcript_arrays(t) == transcript_arrays(t_ref)
    assert report == report_ref
