import math

import numpy as np
import pytest

from ddiqkd.covert import (
    achievable_report_rate,
    announce,
    eve_decode,
    key_bits,
    thinning_acceptance,
)
from ddiqkd.config import ChannelSpec, CovertAttackMode, SessionConfig
from ddiqkd.errors import InfeasibleRateError, ValidationError
from ddiqkd.protocol import run_session


def zeros(n):
    return np.zeros(n, dtype=np.int64)


def test_announce_first_detection_always_reported():
    assert announce([7], [1], zeros(1)).tolist() == [7]


def test_announce_even_gap_encodes_bit_one():
    # gap 2, even, encodes the pending 1
    assert announce([3, 5], [1, 0], zeros(2)).tolist() == [3, 5]


def test_announce_odd_gap_encodes_bit_zero():
    # gap 2 is even, wrong parity; gap 5 is odd, matches
    assert announce([3, 5, 8], [0, 1, 1], zeros(3)).tolist() == [3, 8]


@pytest.mark.parametrize("bit, key, gap", [(1, 0, 2), (0, 0, 1), (1, 1, 1), (0, 1, 2)])
def test_announce_gap_parity_under_key_bit(bit, key, gap):
    # key 0: bit 1 needs an even gap and bit 0 an odd one; key 1 flips it
    announced = announce([0, 1, 2], [bit, 0, 0], [key, 0, 0])
    assert announced.tolist()[:2] == [0, gap]


@pytest.mark.parametrize("slots", [[3, 3], [5, 4], [1, 7, 7]])
def test_announce_rejects_slots_out_of_order(slots):
    with pytest.raises(ValidationError):
        announce(slots, [0] * len(slots), zeros(len(slots)))


def test_announce_needs_a_key_bit_per_candidate():
    with pytest.raises(ValidationError, match="need a key bit per candidate, got 2 for 3"):
        announce([1, 2, 4], [0, 1, 0], zeros(2))


def test_key_bits_prefix_deterministic_and_unbiased():
    full = key_bits(123, 100_000)
    for k in (0, 1, 2, 3, 777):
        assert key_bits(123, k).tolist() == full[:k].tolist()
    assert not np.array_equal(key_bits(777, 1000), full[:1000])
    n = len(full)
    assert abs(int(full.sum()) - n / 2) < 3 * math.sqrt(n * 0.25)


def test_decode_examples():
    assert eve_decode([3, 5, 8, 9], zeros(3)).tolist() == [1, 0, 0]
    assert eve_decode([7], zeros(0)).tolist() == []
    assert eve_decode([], zeros(0)).tolist() == []
    assert eve_decode([3, 5], np.ones(1, dtype=np.int64)).tolist() == [0]  # keyed flip of the leading 1
    with pytest.raises(ValidationError):
        eve_decode([3, 5, 8], zeros(1))


def test_decode_rejects_non_monotonic():
    with pytest.raises(ValidationError):
        eve_decode([3, 3], zeros(1))
    with pytest.raises(ValidationError):
        eve_decode([5, 4], zeros(1))


def test_round_trip_reproduces_all_but_last_bit():
    rng = np.random.default_rng(16)
    for seed in (1, 2, 3):
        detections = np.flatnonzero(rng.random(5000) < 0.1)
        bob_bits = rng.integers(0, 2, size=5000)
        keys = key_bits(seed, len(detections))
        reported = announce(detections, bob_bits[detections], keys)
        decoded = eve_decode(reported, key_bits(seed, len(reported) - 1))
        assert decoded.tolist() == bob_bits[reported[:-1]].tolist()


def test_every_announced_gap_has_the_keyed_parity():
    rng = np.random.default_rng(17)
    bob_bits = rng.integers(0, 2, size=20_000)
    candidates = np.flatnonzero(rng.random(20_000) < 0.2)
    keys = key_bits(99, len(candidates))
    reported = announce(candidates, bob_bits[candidates], keys).tolist()
    assert len(reported) > 100
    for i in range(len(reported) - 1):
        gap = reported[i + 1] - reported[i]
        # even (0) when the pending bit XOR the key bit is 1
        assert gap % 2 == int(bob_bits[reported[i]]) ^ int(keys[i]) ^ 1


def test_achievable_rate_values():
    assert achievable_report_rate(1.0) == pytest.approx(2.0 / 3.0)
    assert achievable_report_rate(0.3) == pytest.approx(0.16216216216216214)
    # rate/p -> 1/2 in the rare-detection limit
    assert achievable_report_rate(0.01) == pytest.approx(0.005012531328320802)
    assert achievable_report_rate(0.01) / 0.01 == pytest.approx(0.5, rel=3e-3)
    with pytest.raises(ValidationError):
        achievable_report_rate(0.0)
    with pytest.raises(ValidationError):
        achievable_report_rate(1.1)


def test_achievable_rate_exact_alternation_at_unit_detection():
    # p=1: gaps alternate 2 (even target) and 1 (odd target) under uniform bits
    rng = np.random.default_rng(18)
    bob_bits = rng.integers(0, 2, size=30_000)
    reported = announce(np.arange(30_000), bob_bits, key_bits(4, 30_000))
    gaps = np.diff(reported)
    assert set(gaps.tolist()) <= {1, 2}
    rate = len(reported) / 30_000
    assert rate == pytest.approx(2.0 / 3.0, rel=0.02)


def test_thinning_acceptance_values():
    assert thinning_acceptance(0.09, 0.02) == pytest.approx(0.44004400440044006)
    for p in (0.05, 0.3, 0.9):
        assert thinning_acceptance(p, achievable_report_rate(p)) == pytest.approx(1.0)
    with pytest.raises(InfeasibleRateError) as err:
        thinning_acceptance(0.09, 0.05)
    assert "exceeds achievable" in str(err.value)
    with pytest.raises(ValidationError):
        thinning_acceptance(0.0, 0.02)
    with pytest.raises(ValidationError):
        thinning_acceptance(0.09, 0.0)


def test_covert_session_feasibility_examples():
    # the gate run_session applies before it simulates anything
    def session(transmittance, eta_true, eta_expected):
        return run_session(SessionConfig(
            n_slots=100, channel=ChannelSpec(transmittance=transmittance),
            eta_expected=eta_expected, mode=CovertAttackMode(eta_true=eta_true),
        ))

    session(0.1, 0.9, 0.2)
    with pytest.raises(InfeasibleRateError):
        session(0.1, 0.9, 0.5)
    # matching the SPD efficiency the unit actually has is never possible
    for t in (0.05, 0.3, 1.0):
        with pytest.raises(InfeasibleRateError):
            session(t, 0.4, 0.4)
    # no photon arrives, so there is nothing to announce
    with pytest.raises(InfeasibleRateError):
        session(0.0, 0.9, 0.2)
    with pytest.raises(ValidationError):
        session(1.5, 0.9, 0.2)
