"""Bright-light blinding of the measurement unit's detectors.

The interceptor measures each incoming photon in a random BB84 basis and
resends a bright classical pulse along the measured eigenstate. Blinded
detectors respond linearly: detector k clicks iff the pulse power landing on
it (peak power times the Bell probability of pulse polarization x receiver
spatial state) meets its classical threshold. With one threshold for all four
detectors the attack betrays itself through double clicks on every
basis-matched round. Thresholds differ across real detectors and drift with
wavelength, so the interceptor can pick a (wavelength, power) pair for which
exactly one low-threshold detector fires on every basis-matched round and
nothing fires on basis-mismatched rounds; that is what optimize_pulse
searches for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DetectorSpec
from .errors import NoViablePlanError, ValidationError
from .states import BELL_TABLE, PREPARATIONS

# [interceptor preparation, receiver preparation] pairs with matching bases
_BASES = np.array([basis for basis, _ in PREPARATIONS])
_SAME_BASIS = np.equal.outer(_BASES, _BASES)


@dataclass(frozen=True)
class BlindingPlan:
    """A vetted (wavelength, power) working point with its predicted click
    census over the 16 equally likely interceptor/receiver settings.

    The probabilities are conditional on the basis relation: single and
    double click probabilities are per basis-matched round, cross_click_prob
    is per basis-mismatched round and must be exactly 0 for a usable plan
    (any cross-basis click would cause key errors and expose the attack).
    """

    wavelength: float
    peak_power: float
    single_click_prob: float
    double_click_prob: float
    cross_click_prob: float

    def __post_init__(self) -> None:
        for name in ("single_click_prob", "double_click_prob", "cross_click_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0,1], got {v}")
        if self.cross_click_prob != 0.0:
            raise ValidationError(
                f"a valid plan has zero cross-basis clicks, got {self.cross_click_prob}"
            )


def click_table(
    detectors: Sequence[DetectorSpec], wavelength: float, peak_power: float
) -> tuple[np.ndarray, np.ndarray]:
    """Blinded response of the unit to every (interceptor eigenstate x
    receiver spatial setting) pair, indexed by their preparation indices.

    Detector k clicks iff peak_power times the Bell probability of outcome
    k (BELL_TABLE, the same floats as bell_probabilities of each pair) meets
    its threshold at the wavelength, so every comparison, ties included, is
    the per-pair one. Returns the announced outcome (-1 unless exactly one
    detector clicks) and the double-click flag, each a 4x4 table.
    Deterministic: the session draws nothing for it.
    """
    if peak_power <= 0.0:
        raise ValidationError(f"peak_power must be > 0, got {peak_power}")
    thresholds = np.array([d.threshold_at(wavelength) for d in detectors])
    clicks = peak_power * BELL_TABLE >= thresholds
    count = np.count_nonzero(clicks, axis=2)
    outcome = np.where(count == 1, clicks.argmax(axis=2), -1).astype(np.int8)
    return outcome, count >= 2


def evaluate_pulse(
    detectors: Sequence[DetectorSpec], wavelength: float, peak_power: float
) -> tuple[float, float, float]:
    """Deterministic click census of one (wavelength, power) candidate.

    Counts the 16 cells of its click_table and returns (single-click fraction
    among the 8 basis-matched ones, double-click fraction among those,
    any-click fraction among the 8 basis-mismatched ones).
    """
    outcome, double = click_table(detectors, wavelength, peak_power)
    single = outcome >= 0
    return (
        np.count_nonzero(single & _SAME_BASIS) / 8.0,
        np.count_nonzero(double & _SAME_BASIS) / 8.0,
        np.count_nonzero((single | double) & ~_SAME_BASIS) / 8.0,
    )


def optimize_pulse(
    detectors: Sequence[DetectorSpec],
    wavelength_grid: Sequence[float],
    power_grid: Sequence[float],
) -> BlindingPlan:
    """Grid search for the best blinding working point.

    Candidates with any cross-basis click, or with no basis-matched click at
    all, are discarded. Among the rest the plan maximizes the single-click
    probability, breaking ties by lower double-click probability, then lower
    power, then grid order. Raises NoViablePlanError when nothing qualifies.
    """
    if len(wavelength_grid) == 0 or len(power_grid) == 0:
        raise ValidationError("wavelength and power grids must be non-empty")
    # (wavelength, power, single, double, cross) of each point, in grid order
    census = [
        (wl, power, *evaluate_pulse(detectors, wl, power)) for wl in wavelength_grid for power in power_grid
    ]
    viable = [c for c in census if c[4] == 0.0 and c[2] + c[3] > 0.0]
    if not viable:
        raise NoViablePlanError(
            f"no (wavelength, power) candidate over {len(wavelength_grid)} wavelengths x "
            f"{len(power_grid)} powers clicks on basis-matched rounds while staying silent "
            "on basis-mismatched ones"
        )
    # min keeps the first of equal keys, which is the grid-order tie-break
    return BlindingPlan(*min(viable, key=lambda c: (-c[2], c[3], c[1])))


@dataclass(frozen=True)
class BlindingStats:
    """Attack-facing summary of a blinding-mode transcript."""

    detection_rate: float
    qber: float | None
    double_click_rate: float
    eve_key_fraction: float


def blinding_session_stats(transcript) -> BlindingStats:
    """Aggregate detection rate, QBER, double-click rate, and the fraction of
    sifted receiver bits the interceptor recovered: her bit XOR the XOR
    that the announced Bell state implies in her basis, which under a valid
    plan is the only way a blinded round clicks (protocol.sift_counts)."""
    from .protocol import sift_counts

    n = transcript.n_slots
    announced = transcript.reported >= 0
    singles = int(np.count_nonzero(announced))
    doubles = int(np.count_nonzero(transcript.double_click))
    sifted, errors, hits = sift_counts(transcript, announced, "receiver")
    qber = errors / sifted if sifted else None
    return BlindingStats((singles + doubles) / n, qber, doubles / n, hits / sifted if sifted else 0.0)
