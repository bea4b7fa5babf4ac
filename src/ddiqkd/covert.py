"""Covert reporting channel inside the untrusted measurement unit.

The malicious controller of the measurement unit sees far more detections
than the receiver expects (its real detectors are better than advertised) and
is free to stay silent about any of them. It leaks the receiver's encoder
bits by choosing WHICH detections to announce: the slot-index gap between
consecutive announcements is made even or odd according to the bit attached
to the earlier announcement, optionally XOR-masked by a pre-shared key. The
outside accomplice recovers the bits from the public announcement indices
alone. Announced Bell outcomes are always the honest measurement results, so
the scheme adds no errors.

Rate bookkeeping: with per-slot detection probability p and uniform target
parities, the mean gap to the next usable detection is 2/p (even target) or
2/p - 1 (odd target), giving a top announcement rate of 2p/(4-p). Thinning
every candidate with acceptance q before the reporter sees it scales p to
p*q inside that formula, which is inverted by thinning_acceptance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InfeasibleRateError, ValidationError


def key_bits(key_seed: int, n: int) -> np.ndarray:
    """The first n bits of the pre-shared key, a PCG64 stream seeded with
    key_seed; the first k of them are key_bits(key_seed, k)."""
    return np.random.Generator(np.random.PCG64(key_seed)).integers(0, 2, size=n)


def achievable_report_rate(detection_prob: float) -> float:
    """Top long-run announcement rate 2p/(4-p) for uniform encoded bits."""
    if not 0.0 < detection_prob <= 1.0:
        raise ValidationError(f"detection probability must be in (0,1], got {detection_prob}")
    return 2.0 * detection_prob / (4.0 - detection_prob)


def thinning_acceptance(detection_prob: float, target_report_rate: float) -> float:
    """Acceptance probability q that brings the announcement rate down to the
    target: q = 4*r / (p*(2+r)). Raises when the target exceeds 2p/(4-p)."""
    if not 0.0 < detection_prob <= 1.0:
        raise ValidationError(f"detection probability must be in (0,1], got {detection_prob}")
    if target_report_rate <= 0.0:
        raise ValidationError(f"target report rate must be > 0, got {target_report_rate}")
    q = 4.0 * target_report_rate / (detection_prob * (2.0 + target_report_rate))
    if q > 1.0 + 1e-12:
        raise InfeasibleRateError(
            f"target rate {target_report_rate} exceeds achievable rate "
            f"{achievable_report_rate(detection_prob)} at detection probability "
            f"{detection_prob} (acceptance q = {q:.4f} > 1)"
        )
    return min(q, 1.0)


def _next_tables(slots, bits) -> tuple[np.ndarray, np.ndarray]:
    """announce's next-candidate tables for key bit 0 and key bit 1."""
    n = len(slots)
    odd = slots & 1
    after = []
    for parity in (0, 1):
        own = np.where(odd[1:] == parity, np.arange(1, n), n)
        after.append(np.append(np.minimum.accumulate(own[::-1])[::-1], n))
    same = odd == bits
    return np.where(same, after[1], after[0]), np.where(same, after[0], after[1])


def announce(slots, bits, keys) -> np.ndarray:
    """The slots the unit announces out of a session's candidate detections.

    slots are the candidate slots in strictly ascending order and bits their
    receiver bits (the caller leaves out candidates with an unknown bit and
    those its thinning trial drops); keys holds at least one key bit per
    candidate, key bit k for the gap after announcement k. The first
    candidate is announced. After that the next candidate announced is the
    first whose gap to the last announcement is even if the pending bit XOR
    the gap's key bit is 1 (odd if it is 0). Nothing is drawn.

    after[p][j] is the first candidate after j whose slot has parity p, or
    n if there is none. Announcing j under key bit 0 asks for an odd slot
    next exactly when j's slot parity equals its bit (bit 0 wants an odd
    gap, bit 1 an even one), so key bit 0's table holds after[1][j] there
    and after[0][j] elsewhere, and key bit 1's table the other choice. An
    announcement costs one table read, and of the per-candidate arrays only
    the key bits used become a Python list.
    """
    slots = np.asarray(slots, dtype=np.int64)
    n = len(slots)
    if n == 0:
        return slots
    if (slots[1:] <= slots[:-1]).any():
        raise ValidationError("slots must be processed in ascending order")
    if len(keys) < n:
        raise ValidationError(f"need a key bit per candidate, got {len(keys)} for {n}")
    by_key = [memoryview(table) for table in _next_tables(slots, bits)]
    j = 0
    announced = [j]
    # n candidates make at most n - 1 gaps, one key bit each
    for key in np.asarray(keys[:n - 1]).tolist():
        j = by_key[key][j]
        if j == n:
            break
        announced.append(j)
    return slots[announced]


def eve_decode(reported_slots: Sequence[int], keys) -> np.ndarray:
    """Recover the encoded bits from announced slot indices, as an int64
    array.

    m announcements carry m-1 bits: for each consecutive pair the gap parity
    gives (even -> 1, odd -> 0), XORed with that gap's key bit. keys holds at
    least m-1 key bits, from the same key the reporter used.
    """
    slots = np.asarray(reported_slots, dtype=np.int64)
    gaps = slots[1:] - slots[:-1]
    if (gaps <= 0).any():
        i = int(np.argmax(gaps <= 0))
        raise ValidationError(
            f"reported slots must be strictly increasing, got {slots[i]} then {slots[i + 1]}"
        )
    if len(keys) < len(gaps):
        raise ValidationError(f"need a key bit per gap, got {len(keys)} for {len(gaps)}")
    gaps &= 1
    gaps ^= 1
    gaps ^= keys[:len(gaps)]
    return gaps
