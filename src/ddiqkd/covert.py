"""Covert reporting channel inside the untrusted measurement unit.

The malicious controller of the measurement unit sees far more detections
than the receiver expects (its real detectors are better than advertised) and
is free to stay silent about any of them. It leaks the receiver's encoder
bits by choosing WHICH detections to announce: the slot-index gap between
consecutive announcements is made even or odd according to the bit attached
to the earlier announcement, optionally XOR-masked by a pre-shared key
stream. The outside accomplice recovers the bits from the public announcement
indices alone. Announced Bell outcomes are always the honest measurement
results, so the scheme adds no errors.

Rate bookkeeping: with per-slot detection probability p and uniform target
parities, the mean gap to the next usable detection is 2/p (even target) or
2/p - 1 (odd target), giving a top announcement rate of 2p/(4-p). Thinning
each parity-valid candidate with acceptance q scales p to p*q inside that
formula, which is inverted by thinning_acceptance.

CovertReporter.observe is the one-slot rule; CovertReporter.announce applies
it to a whole session's candidate detections in one step per announcement
and leaves both generators where the observe loop leaves them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Protocol, Sequence

import numpy as np

from .errors import InfeasibleRateError, ValidationError


class Parity(IntEnum):
    EVEN = 0
    ODD = 1


class KeyStream(Protocol):
    """observe needs next_bit only; announce also reads ahead with
    peek_bits(n), and announce and eve_decode consume with next_bits(n),
    which give the bits n next_bit() calls would."""

    def next_bit(self) -> int: ...

    def next_bits(self, n: int) -> np.ndarray: ...

    def peek_bits(self, n: int) -> np.ndarray: ...


class ParityKeyStream:
    """Pre-shared deterministic bit stream; both ends draw the same seed.

    One bit is consumed per announced event. The generator is PCG64, so a
    64-bit seed fully reproduces the stream.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.position = 0
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def next_bit(self) -> int:
        self.position += 1
        return int(self._rng.integers(0, 2))

    def next_bits(self, n: int) -> np.ndarray:
        """n bits in one draw; the bits and the generator state after it
        equal those of n next_bit() calls."""
        self.position += n
        return self._rng.integers(0, 2, size=n)

    def peek_bits(self, n: int) -> np.ndarray:
        """The next n bits, leaving the stream where it is."""
        state = self._rng.bit_generator.state
        bits = self._rng.integers(0, 2, size=n)
        self._rng.bit_generator.state = state
        return bits


class NullKeyStream:
    """Keying disabled: every key bit is 0, exposing the raw parity rule."""

    def __init__(self) -> None:
        self.position = 0

    def next_bit(self) -> int:
        self.position += 1
        return 0

    def next_bits(self, n: int) -> np.ndarray:
        self.position += n
        return np.zeros(n, dtype=np.int64)

    def peek_bits(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)


def required_parity(bit: int, key_bit: int) -> Parity:
    """Gap parity that encodes `bit` under `key_bit`: with key 0, bit 1 needs
    an even gap and bit 0 an odd gap; key 1 flips the convention."""
    return Parity.EVEN if (bit ^ key_bit) == 1 else Parity.ODD


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


def attack_feasible(transmittance: float, eta_true: float, eta_expected: float) -> bool:
    """Whether the covert channel can match the receiver's expected rate:
    2p/(4-p) >= T*eta_expected with p = T*eta_true."""
    for name, v in (("transmittance", transmittance), ("eta_true", eta_true),
                    ("eta_expected", eta_expected)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must be in [0,1], got {v}")
    p = transmittance * eta_true
    expected = transmittance * eta_expected
    if p <= 0.0:
        return expected <= 0.0
    return achievable_report_rate(p) >= expected


@dataclass
class CovertReporter:
    """Sequential announce/stay-silent state machine for the malicious unit.

    The first usable detection is always announced (nothing pending yet).
    Afterwards a detection is announced only when the gap since the last
    announcement has the parity that encodes the pending bit under the
    current key bit, and an independent thinning trial with probability
    `thinning_prob` accepts it. Announcing stores the new slot and that
    slot's receiver bit, and draws the key bit for the next gap.
    """

    thinning_prob: float
    key_stream: KeyStream = field(default_factory=NullKeyStream)
    last_reported_slot: int | None = None
    pending_bit: int | None = None
    gap_key_bit: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.thinning_prob <= 1.0:
            raise ValidationError(f"thinning_prob must be in (0,1], got {self.thinning_prob}")

    @classmethod
    def for_rates(
        cls,
        detection_prob: float,
        target_report_rate: float,
        key_stream: KeyStream,
    ) -> "CovertReporter":
        """Build a reporter whose long-run rate matches the target; raises
        InfeasibleRateError when the target is out of reach."""
        q = thinning_acceptance(detection_prob, target_report_rate)
        return cls(thinning_prob=q, key_stream=key_stream)

    def observe(self, slot: int, detected: bool, bob_bit: int | None, rng) -> bool:
        """Process one slot; returns True when this detection is announced.

        A detection with unknown receiver bit (failed encoder readout) is
        never announced: it could not be encoded onto the next gap.
        """
        if not detected or bob_bit is None:
            return False
        if self.last_reported_slot is None:
            self._announce(slot, bob_bit)
            return True
        gap = slot - self.last_reported_slot
        if gap <= 0:
            raise ValidationError("slots must be processed in ascending order")
        assert self.pending_bit is not None and self.gap_key_bit is not None
        if Parity(gap % 2) != required_parity(self.pending_bit, self.gap_key_bit):
            return False
        if self.thinning_prob < 1.0 and not rng.random() < self.thinning_prob:
            return False
        self._announce(slot, bob_bit)
        return True

    def announce(self, slots, bits, rng) -> np.ndarray:
        """Run observe over every candidate detection of a session at once
        and return the announced slots.

        slots are the candidate slots in strictly ascending order, all after
        the last announced one, and bits their receiver bits (candidates with
        an unknown bit are left out by the caller). The announced slots, the
        reporter's state and both generators end where calling observe on
        each candidate in turn leaves them.

        After an announcement the rule asks for one slot parity, so the
        candidates it examines are the later ones of that parity, in order,
        and each takes one thinning uniform. The uniforms are drawn as a
        block (at most one per candidate) and the generator is then wound
        back to just past the last one the loop would have taken; the key
        bits are read ahead the same way. Each announcement is then a jump
        along the candidates of the wanted parity to the next accepted
        uniform.
        """
        slots = np.asarray(slots, dtype=np.int64)
        bits = np.asarray(bits)
        n = len(slots)
        if n == 0:
            return slots
        if np.any(np.diff(slots) <= 0) or (
            self.last_reported_slot is not None and slots[0] <= self.last_reported_slot
        ):
            raise ValidationError("slots must be processed in ascending order")
        q = self.thinning_prob
        if q < 1.0:
            snapshot = rng.bit_generator.state
            accepted = np.flatnonzero(rng.random(n) < q)
            rng.bit_generator.state = snapshot
        else:
            accepted = np.arange(n)
        # announcement k takes the next accepted uniform, so it skips the
        # candidates of the wanted parity whose uniforms lie between the
        # accepted ones; past the last accepted uniform nothing is announced
        skips = (np.diff(accepted, prepend=-1) - 1).tolist() + [n]
        odd = (slots & 1).astype(bool)
        # members[p]: candidate indices with slot parity p; after[p][j + 1]:
        # the position in members[p] of the first one after candidate j
        members = (np.flatnonzero(~odd).tolist(), np.flatnonzero(odd).tolist())
        sizes = (len(members[0]), len(members[1]))
        after = tuple(np.concatenate(([0], np.cumsum(m))).tolist() for m in (~odd, odd))
        # the slot parity the rule asks for next after announcing candidate
        # j under key bit 0 (an even gap encodes bit 1); key bit 1 flips it
        wanted = ((slots ^ bits ^ 1) & 1).tolist()
        keys = self.key_stream.peek_bits(n).tolist()
        if self.last_reported_slot is None:
            j, announced = 0, [0]
            parity = wanted[0] ^ keys[0]
        else:
            j, announced = -1, []
            parity = (self.last_reported_slot ^ self.pending_bit ^ self.gap_key_bit ^ 1) & 1
        k = 0  # announcements made by the loop, one accepted uniform each
        while True:
            pos = after[parity][j + 1]
            hit = pos + skips[k]
            if hit >= sizes[parity]:
                break
            k += 1
            j = members[parity][hit]
            parity = wanted[j] ^ keys[len(announced)]
            announced.append(j)
        if announced:
            self.key_stream.next_bits(len(announced))
            self.last_reported_slot = int(slots[j])
            self.pending_bit = int(bits[j])
            self.gap_key_bit = keys[len(announced) - 1]
        if q < 1.0:
            # up to the last accepted uniform taken, then the examined tail
            rng.random((accepted[k - 1] + 1 if k else 0) + sizes[parity] - pos)
        return slots[announced]

    def _announce(self, slot: int, bob_bit: int) -> None:
        self.last_reported_slot = slot
        self.pending_bit = bob_bit
        self.gap_key_bit = self.key_stream.next_bit()


def eve_decode(reported_slots: Sequence[int], key_stream: KeyStream) -> list[int]:
    """Recover the encoded bits from announced slot indices.

    m announcements carry m-1 bits: for each consecutive pair the gap parity
    gives (even -> 1, odd -> 0), XORed with that event's key bit. The key
    stream must start from the same seed position the reporter used.
    """
    slots = np.asarray(reported_slots, dtype=np.int64)
    gaps = np.diff(slots)
    bad = np.flatnonzero(gaps <= 0)
    if len(bad):
        a, b = slots[bad[0]], slots[bad[0] + 1]
        raise ValidationError(f"reported slots must be strictly increasing, got {a} then {b}")
    return ((gaps & 1) ^ 1 ^ key_stream.next_bits(len(gaps))).tolist()
