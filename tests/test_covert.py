import math

import numpy as np
import pytest

from ddiqkd.covert import (
    CovertReporter,
    NullKeyStream,
    Parity,
    ParityKeyStream,
    achievable_report_rate,
    attack_feasible,
    eve_decode,
    required_parity,
    thinning_acceptance,
)
from ddiqkd.errors import InfeasibleRateError, ValidationError


def test_required_parity_rule():
    assert required_parity(1, 0) == Parity.EVEN
    assert required_parity(0, 0) == Parity.ODD
    assert required_parity(1, 1) == Parity.ODD
    assert required_parity(0, 1) == Parity.EVEN


def test_key_stream_deterministic_and_unbiased():
    a = ParityKeyStream(123)
    b = ParityKeyStream(123)
    bits = [a.next_bit() for _ in range(1000)]
    assert bits == [b.next_bit() for _ in range(1000)]
    assert a.position == 1000
    c = ParityKeyStream(777)
    n = 100_000
    ones = sum(c.next_bit() for _ in range(n))
    assert abs(ones - n / 2) < 3 * math.sqrt(n * 0.25)


def test_null_key_stream_all_zero():
    s = NullKeyStream()
    assert [s.next_bit() for _ in range(10)] == [0] * 10
    assert s.position == 10


def test_reporter_first_detection_always_reported():
    rng = np.random.default_rng(11)
    rep = CovertReporter(thinning_prob=1.0, key_stream=NullKeyStream())
    assert not rep.observe(3, False, 1, rng)
    assert rep.observe(7, True, 1, rng)
    assert rep.last_reported_slot == 7 and rep.pending_bit == 1


def test_reporter_even_gap_encodes_bit_one():
    rng = np.random.default_rng(12)
    rep = CovertReporter(
        thinning_prob=1.0, key_stream=NullKeyStream(),
        last_reported_slot=3, pending_bit=1, gap_key_bit=0,
    )
    assert rep.observe(5, True, 0, rng)  # gap 2, even, encodes the pending 1


def test_reporter_odd_gap_encodes_bit_zero():
    rng = np.random.default_rng(13)
    rep = CovertReporter(
        thinning_prob=1.0, key_stream=NullKeyStream(),
        last_reported_slot=3, pending_bit=0, gap_key_bit=0,
    )
    assert not rep.observe(5, True, 1, rng)  # gap 2 is even, wrong parity
    assert rep.observe(8, True, 1, rng)      # gap 5 is odd, matches


def test_reporter_skips_unknown_receiver_bit():
    rng = np.random.default_rng(14)
    rep = CovertReporter(thinning_prob=1.0, key_stream=NullKeyStream())
    assert not rep.observe(2, True, None, rng)
    assert rep.last_reported_slot is None


def test_reporter_rejects_out_of_order_slots():
    rng = np.random.default_rng(15)
    rep = CovertReporter(thinning_prob=1.0, key_stream=NullKeyStream())
    rep.observe(5, True, 0, rng)
    with pytest.raises(ValidationError):
        rep.observe(5, True, 0, rng)


def test_reporter_thinning_prob_range():
    with pytest.raises(ValidationError):
        CovertReporter(thinning_prob=0.0, key_stream=NullKeyStream())
    with pytest.raises(ValidationError):
        CovertReporter(thinning_prob=1.2, key_stream=NullKeyStream())


def test_decode_examples():
    assert eve_decode([3, 5, 8, 9], NullKeyStream()) == [1, 0, 0]
    assert eve_decode([7], NullKeyStream()) == []
    assert eve_decode([], NullKeyStream()) == []

    class OneStream:
        def next_bit(self):
            return 1

        def next_bits(self, n):
            return np.ones(n, dtype=np.int64)

    assert eve_decode([3, 5], OneStream()) == [0]  # keyed flip of the leading 1


def test_decode_rejects_non_monotonic():
    with pytest.raises(ValidationError):
        eve_decode([3, 3], NullKeyStream())
    with pytest.raises(ValidationError):
        eve_decode([5, 4], NullKeyStream())


def test_round_trip_reproduces_all_but_last_bit():
    rng = np.random.default_rng(16)
    for seed in (1, 2, 3):
        detections = np.nonzero(rng.random(5000) < 0.1)[0]
        bob_bits = rng.integers(0, 2, size=5000)
        rep = CovertReporter(thinning_prob=0.7, key_stream=ParityKeyStream(seed))
        reported = [
            int(s) for s in detections
            if rep.observe(int(s), True, int(bob_bits[s]), rng)
        ]
        decoded = eve_decode(reported, ParityKeyStream(seed))
        assert decoded == [int(bob_bits[s]) for s in reported[:-1]]


def test_every_reported_gap_satisfies_required_parity():
    rng = np.random.default_rng(17)
    key_bits = []

    class RecordingStream:
        def __init__(self):
            self._inner = ParityKeyStream(99)

        def next_bit(self):
            bit = self._inner.next_bit()
            key_bits.append(bit)
            return bit

    rep = CovertReporter(thinning_prob=0.5, key_stream=RecordingStream())
    bob_bits = rng.integers(0, 2, size=20_000)
    reported = []
    for s in np.nonzero(rng.random(20_000) < 0.2)[0]:
        if rep.observe(int(s), True, int(bob_bits[s]), rng):
            reported.append(int(s))
    for i in range(len(reported) - 1):
        gap = reported[i + 1] - reported[i]
        assert Parity(gap % 2) == required_parity(int(bob_bits[reported[i]]), key_bits[i])


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
    rep = CovertReporter(thinning_prob=1.0, key_stream=ParityKeyStream(4))
    bob_bits = rng.integers(0, 2, size=30_000)
    reported = [s for s in range(30_000) if rep.observe(s, True, int(bob_bits[s]), rng)]
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


def test_attack_feasible_examples():
    assert attack_feasible(0.1, 0.9, 0.2)
    assert not attack_feasible(0.1, 0.9, 0.5)
    # matching the SPD efficiency the unit actually has is never possible
    for t in (0.05, 0.3, 1.0):
        assert not attack_feasible(t, 0.4, 0.4)
    assert attack_feasible(0.0, 0.9, 0.2)  # nothing expected, nothing needed
    with pytest.raises(ValidationError):
        attack_feasible(1.5, 0.9, 0.2)


def test_for_rates_enforces_feasibility():
    rep = CovertReporter.for_rates(0.09, 0.02, NullKeyStream())
    assert rep.thinning_prob == pytest.approx(0.44004400440044006)
    with pytest.raises(InfeasibleRateError):
        CovertReporter.for_rates(0.09, 0.05, NullKeyStream())
