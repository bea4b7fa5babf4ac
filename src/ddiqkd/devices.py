"""Detector and measurement-unit device models.

Two response regimes are modeled. In quantum mode a single photon is projected
onto the Bell basis and the matching detector fires subject to its efficiency;
dark counts fire independently. In blinded (linear) mode the detectors ignore
single photons entirely and click only when the classical optical power they
receive meets a per-detector threshold; blinding.click_table tabulates that
response for the 16 pulse/receiver pairs.

A detector's position in SessionConfig.detectors is the Bell outcome it
serves. Efficiencies and thresholds are wavelength-dependent tables; lookups
at an unlisted wavelength use the nearest listed entry (lower wavelength on
ties).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import ValidationError

DEFAULT_WAVELENGTH_NM = 1550.0


def _nearest(table: Mapping[float, float], wavelength: float) -> float:
    return table[min(table, key=lambda wl: (abs(wl - wavelength), wl))]


@dataclass(frozen=True)
class DetectorSpec:
    """One single-photon detector: its wavelength-indexed quantum
    efficiency, per-slot dark-count probability, and the wavelength-indexed
    classical power threshold it obeys when blinded (mW)."""

    efficiency: Mapping[float, float] = field(default_factory=lambda: {DEFAULT_WAVELENGTH_NM: 0.2})
    dark_count_prob: float = 0.0
    blind_threshold: Mapping[float, float] = field(default_factory=lambda: {DEFAULT_WAVELENGTH_NM: 1.0})

    def __post_init__(self) -> None:
        if not self.efficiency:
            raise ValidationError("efficiency table must not be empty")
        if not self.blind_threshold:
            raise ValidationError("blind_threshold table must not be empty")
        for wl, eta in self.efficiency.items():
            if not 0.0 <= eta <= 1.0:
                raise ValidationError(f"efficiency at {wl} nm must be in [0,1], got {eta}")
        for wl, p_th in self.blind_threshold.items():
            if p_th <= 0.0:
                raise ValidationError(f"blind_threshold at {wl} nm must be > 0, got {p_th}")
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValidationError(f"dark_count_prob must be in [0,1], got {self.dark_count_prob}")

    def efficiency_at(self, wavelength: float) -> float:
        return _nearest(self.efficiency, wavelength)

    def threshold_at(self, wavelength: float) -> float:
        return _nearest(self.blind_threshold, wavelength)
