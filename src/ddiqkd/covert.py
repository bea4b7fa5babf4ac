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
each parity-valid candidate with acceptance q scales p to p*q inside that
formula, which is inverted by thinning_acceptance.
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


def announce(slots, bits, keys, q: float, rng) -> np.ndarray:
    """The slots the unit announces out of a session's candidate detections.

    slots are the candidate slots in strictly ascending order and bits their
    receiver bits (candidates with an unknown bit are left out by the
    caller); keys holds at least one key bit per candidate, key bit k for
    the gap after announcement k. The first candidate is always announced.
    After that a candidate is announced when its gap to the last
    announcement is even if the pending bit XOR the gap's key bit is 1 (odd
    if it is 0), and, when q < 1, a thinning uniform drawn for it falls
    below q.

    After an announcement the rule asks for one slot parity, so the
    candidates it examines are the later ones of that parity, in order, and
    each takes one thinning uniform. The uniforms are drawn as a block (at
    most one per candidate) and the generator is then wound back to just
    past the last one a per-candidate loop would have taken. Each
    announcement is then a jump along the candidates of the wanted parity
    to the next accepted uniform.

    The candidates are laid out flat, those at even slots first and then
    those at odd slots, each in slot order, so the later candidates of one
    parity are a run of flat positions. One code table per key bit holds,
    for each flat position, 2 * (the flat position of the first later
    candidate of the parity the rule then asks for) + that parity. So an
    announcement costs one code read and one jump, and of the per-candidate
    arrays only the skips and the key bits used become Python lists.
    """
    if not 0.0 < q <= 1.0:
        raise ValidationError(f"thinning acceptance must be in (0,1], got {q}")
    slots = np.asarray(slots, dtype=np.int64)
    n = len(slots)
    if n == 0:
        return slots
    if (slots[1:] <= slots[:-1]).any():
        raise ValidationError("slots must be processed in ascending order")
    if len(keys) < n:
        raise ValidationError(f"need a key bit per candidate, got {len(keys)} for {n}")
    if q < 1.0:
        snapshot = rng.bit_generator.state
        accepted = np.flatnonzero(rng.random(n) < q)
        rng.bit_generator.state = snapshot
    else:
        accepted = np.arange(n)
    # announcement k takes the next accepted uniform, so it skips the
    # candidates of the wanted parity whose uniforms lie between the
    # accepted ones (accepted[k] - accepted[k - 1] - 1, and accepted[0]
    # first); past the last accepted uniform nothing is announced, so the
    # last skip, n, always ends the loop
    skips = np.empty(len(accepted) + 1, dtype=np.int64)
    skips[:-1] = accepted
    np.add(accepted[1:], ~accepted[:-1], out=skips[1:-1])
    skips[-1] = n
    odd = slots & 1
    first_odd = np.cumsum(odd)
    n_even = n - int(first_odd[-1])
    # after candidate j, the first even candidate sits at flat position
    # (evens up to j) and the first odd one at n_even + (odds up to j)
    first_even = np.arange(1, n + 1) - first_odd
    first_odd += n_even
    flat = np.where(odd, first_odd, first_even)
    flat -= 1
    # the slot parity the rule asks for next after announcing a candidate
    # under key bit 0 (an even gap encodes bit 1); key bit 1 flips it. Its
    # code is 2 * (flat position of that first candidate) + parity, and the
    # two codes of candidate j add up to 2 * (j + 1 + n_even) + 1, so key
    # bit 1's code is that sum less key bit 0's
    wanted = ((odd ^ bits) & 1) == 0
    row = np.where(wanted, first_odd, first_even)
    row <<= 1
    row += wanted
    codes = np.empty((2, n), dtype=np.int64)
    codes[0, flat] = row
    np.subtract(np.arange(2 * n_even + 3, 2 * (n + n_even) + 3, 2), row, out=row)
    codes[1, flat] = row
    by_key = (memoryview(codes[0]), memoryview(codes[1]))
    flat_slots = np.empty(n, dtype=np.int64)
    flat_slots[flat] = slots
    ends = (n_even, n)  # where the run of each parity ends
    f = int(flat[0])
    announced = [f]
    # the skip and the key bit of the gap after announcement k
    for skip, key in zip(skips.tolist(), np.asarray(keys[:len(skips)]).tolist()):
        code = by_key[key][f]
        hit = (code >> 1) + skip
        if hit >= ends[code & 1]:
            break
        f = hit
        announced.append(f)
    if q < 1.0:
        # up to the last accepted trial taken, then the examined tail, as whole words
        k = len(announced) - 1
        taken = (accepted[k - 1] + 1 if k else 0) + ends[code & 1] - (code >> 1)
        rng.bit_generator.random_raw(taken, output=False)
    return flat_slots[announced]


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
