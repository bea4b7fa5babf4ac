"""Single-photon state algebra over polarization and spatial qubits.

The photon carries two qubits: a polarization qubit prepared by the sender
(BB84 states H, V, D, A) and a spatial-mode qubit (modes a, b) written by the
receiver's encoder. The untrusted measurement unit projects the joint state
onto the four Bell states and announces one outcome per detector.

Conventions (fixed here, used everywhere else):
  * bit 0 maps to H (polarization) and to mode a (spatial); the X-basis
    states are (|0> + |1>)/sqrt2 for bit 0 and (|0> - |1>)/sqrt2 for bit 1;
  * joint amplitudes are ordered (H.a, H.b, V.a, V.b);
  * Bell states are Phi+- = (H.a +- V.b)/sqrt2 and Psi+- = (H.b +- V.a)/sqrt2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ValidationError

_SQRT1_2 = 1.0 / math.sqrt(2.0)
NORM_TOL = 1e-12


class Basis(IntEnum):
    Z = 0
    X = 1


class BellOutcome(IntEnum):
    """The four Bell-projection outcomes, one single-photon detector each."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


def _check_bit(bit: int) -> int:
    if bit not in (0, 1):
        raise ValidationError(f"bit must be 0 or 1, got {bit!r}")
    return bit


def _check_norm(label: str, *amplitudes: complex) -> None:
    norm_sq = sum(abs(a) ** 2 for a in amplitudes)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValidationError(f"{label} amplitudes not normalized: |.|^2 = {norm_sq!r}")


@dataclass(frozen=True)
class PolarizationQubit:
    """Pure polarization state amp_h|H> + amp_v|V>; must be unit norm."""

    amp_h: complex
    amp_v: complex

    def __post_init__(self) -> None:
        _check_norm("polarization", self.amp_h, self.amp_v)


@dataclass(frozen=True)
class SpatialQubit:
    """Pure spatial-mode state amp_a|a> + amp_b|b>; must be unit norm."""

    amp_a: complex
    amp_b: complex

    def __post_init__(self) -> None:
        _check_norm("spatial", self.amp_a, self.amp_b)


@dataclass(frozen=True)
class JointPhotonState:
    """Joint two-qubit state with amplitudes ordered (H.a, H.b, V.a, V.b)."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        if len(self.amplitudes) != 4:
            raise ValidationError("joint state needs exactly 4 amplitudes")
        _check_norm("joint", *self.amplitudes)

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)


# bit -> (amp0, amp1) in the given basis; shared by both degrees of freedom
_BB84_AMPLITUDES: dict[tuple[Basis, int], tuple[complex, complex]] = {
    (Basis.Z, 0): (1.0 + 0j, 0j),
    (Basis.Z, 1): (0j, 1.0 + 0j),
    (Basis.X, 0): (_SQRT1_2 + 0j, _SQRT1_2 + 0j),
    (Basis.X, 1): (_SQRT1_2 + 0j, -_SQRT1_2 + 0j),
}


def prepare_polarization(basis: Basis, bit: int) -> PolarizationQubit:
    """BB84 polarization preparation: (Z,0)=H, (Z,1)=V, (X,0)=D, (X,1)=A."""
    a0, a1 = _BB84_AMPLITUDES[(Basis(basis), _check_bit(bit))]
    return PolarizationQubit(a0, a1)


def prepare_spatial(basis: Basis, bit: int) -> SpatialQubit:
    """Spatial-mode preparation with the same amplitude map over (a, b)."""
    a0, a1 = _BB84_AMPLITUDES[(Basis(basis), _check_bit(bit))]
    return SpatialQubit(a0, a1)


def tensor(pol: PolarizationQubit, spa: SpatialQubit) -> JointPhotonState:
    """Tensor product of the two qubits in (H.a, H.b, V.a, V.b) order."""
    return JointPhotonState(
        (
            pol.amp_h * spa.amp_a,
            pol.amp_h * spa.amp_b,
            pol.amp_v * spa.amp_a,
            pol.amp_v * spa.amp_b,
        )
    )


def bell_state(outcome: BellOutcome) -> JointPhotonState:
    """The Bell state a given detector projects onto."""
    ha, hb, va, vb = 0j, 0j, 0j, 0j
    if outcome == BellOutcome.PHI_PLUS:
        ha, vb = _SQRT1_2, _SQRT1_2
    elif outcome == BellOutcome.PHI_MINUS:
        ha, vb = _SQRT1_2, -_SQRT1_2
    elif outcome == BellOutcome.PSI_PLUS:
        hb, va = _SQRT1_2, _SQRT1_2
    else:
        hb, va = _SQRT1_2, -_SQRT1_2
    return JointPhotonState((ha, hb, va, vb))


def bell_probabilities(state: JointPhotonState) -> tuple[float, ...]:
    """Born-rule probabilities of the four Bell outcomes, indexed by BellOutcome.

    Computed as |<Bell_k|state>|^2 with the module's mode pairing; states whose
    overlap cancels algebraically come out as exact floating-point zeros.
    """
    ha, hb, va, vb = state.amplitudes
    overlaps = (
        (ha + vb) * _SQRT1_2,
        (ha - vb) * _SQRT1_2,
        (hb + va) * _SQRT1_2,
        (hb - va) * _SQRT1_2,
    )
    return tuple(z.real * z.real + z.imag * z.imag for z in overlaps)


def xor_from_outcome(outcome: BellOutcome, basis: Basis) -> int:
    """XOR of the two parties' bits implied by a same-basis Bell outcome.

    In Z the Phi outcomes mean equal bits and the Psi outcomes opposite bits;
    in X the "+" outcomes mean equal bits and the "-" outcomes opposite bits.
    """
    if Basis(basis) == Basis.Z:
        return 0 if outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS) else 1
    return 0 if outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) else 1


# every BB84 (basis, bit) setting, at its preparation index 2*basis + bit
PREPARATIONS = tuple((basis, bit) for basis in Basis for bit in (0, 1))

# Bell probabilities of every preparation pair, [polarization, spatial, outcome]
BELL_TABLE = np.array([
    [bell_probabilities(tensor(prepare_polarization(*pol), prepare_spatial(*spa)))
     for spa in PREPARATIONS]
    for pol in PREPARATIONS
])

# xor_from_outcome as a lookup, [basis, outcome]
XOR_TABLE = np.array(
    [[xor_from_outcome(o, b) for o in BellOutcome] for b in Basis], dtype=np.int8
)


def infer_bit(outcome: BellOutcome, basis: Basis, known_bit: int) -> int:
    """Recover the other party's bit from the outcome and one known bit."""
    return _check_bit(known_bit) ^ xor_from_outcome(outcome, basis)
