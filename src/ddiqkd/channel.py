"""The insecure channel and the probe inside the measurement unit.

Covers photon loss and the probe that reads the receiver's encoder setting
from inside the measurement unit (abstracted to a readout oracle with a
success probability).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class ChannelSpec:
    """Lossy quantum channel; a photon survives with probability transmittance."""

    transmittance: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValidationError(f"transmittance must be in [0,1], got {self.transmittance}")


@dataclass(frozen=True)
class TrojanProbe:
    """Encoder-readout oracle: reveals the receiver's exact (basis, bit)
    setting with probability readout_success_prob per slot."""

    readout_success_prob: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.readout_success_prob <= 1.0:
            raise ValidationError(
                f"readout_success_prob must be in [0,1], got {self.readout_success_prob}"
            )
