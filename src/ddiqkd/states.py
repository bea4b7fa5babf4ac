"""Single-photon state algebra over polarization and spatial qubits.

The photon carries two qubits: a polarization qubit prepared by the sender
(BB84 states H, V, D, A) and a spatial-mode qubit (modes a, b) written by the
receiver's encoder. The untrusted measurement unit projects the joint state
onto the four Bell states and announces one outcome per detector.

States are plain tuples of complex amplitudes: a qubit is its (amp0, amp1)
pair, prepared by one function for both degrees of freedom, and the joint
photon its 4-tuple. The pipeline never handles a state; it reads BELL_TABLE
and XOR_TABLE, which this module builds once at import.

Conventions (fixed here, used everywhere else):
  * bit 0 maps to H (polarization) and to mode a (spatial); the X-basis
    states are (|0> + |1>)/sqrt2 for bit 0 and (|0> - |1>)/sqrt2 for bit 1;
  * joint amplitudes are ordered (H.a, H.b, V.a, V.b);
  * Bell states are Phi+- = (H.a +- V.b)/sqrt2 and Psi+- = (H.b +- V.a)/sqrt2.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

from .errors import ValidationError

_SQRT1_2 = 1.0 / math.sqrt(2.0)

Qubit = tuple[complex, complex]
Joint = tuple[complex, complex, complex, complex]


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


# bit -> (amp0, amp1) in the given basis
_BB84_AMPLITUDES: dict[tuple[Basis, int], Qubit] = {
    (Basis.Z, 0): (1.0 + 0j, 0j),
    (Basis.Z, 1): (0j, 1.0 + 0j),
    (Basis.X, 0): (_SQRT1_2 + 0j, _SQRT1_2 + 0j),
    (Basis.X, 1): (_SQRT1_2 + 0j, -_SQRT1_2 + 0j),
}


def prepare(basis: Basis, bit: int) -> Qubit:
    """A BB84 qubit (amp0, amp1), as polarization (amp_h, amp_v): (Z,0)=H,
    (Z,1)=V, (X,0)=D, (X,1)=A; or as spatial mode (amp_a, amp_b)."""
    return _BB84_AMPLITUDES[(Basis(basis), _check_bit(bit))]


def tensor(pol: Qubit, spa: Qubit) -> Joint:
    """Tensor product of the two qubits in (H.a, H.b, V.a, V.b) order."""
    h, v = pol
    a, b = spa
    return (h * a, h * b, v * a, v * b)


def bell_probabilities(amplitudes: Joint) -> tuple[float, ...]:
    """Born-rule probabilities of the four Bell outcomes, indexed by BellOutcome.

    Computed as |<Bell_k|state>|^2 with the module's mode pairing; states whose
    overlap cancels algebraically come out as exact floating-point zeros.
    """
    ha, hb, va, vb = amplitudes
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
    [bell_probabilities(tensor(prepare(*pol), prepare(*spa))) for spa in PREPARATIONS]
    for pol in PREPARATIONS
])

# xor_from_outcome as a lookup, [basis, outcome]
XOR_TABLE = np.array(
    [[xor_from_outcome(o, b) for o in BellOutcome] for b in Basis], dtype=np.int8
)
